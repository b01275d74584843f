"""The three workloads: inputs made from the seed, set-up, operations, checks.

Each workload is one closed-loop client: one operation at a time and at
most one child interpreter at a time.  ``inputs(seed, state)`` returns one
round, the fixed list of operations a pass repeats; the same seed gives the
same round.  Operations reach the engine through module attributes at call
time, so a traced run sees every call.  Checks compare the outputs of the
first round with references that do not use the engine's numeric paths
(see reference.py) and require later rounds to repeat them exactly.
``reference`` is imported only where a check runs, so that sympy is not
loaded before a set-up is timed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

# bounds the engine's own `verify` suites use
MATRIX_BOUND = 1e-6
K_QUAD_BOUND = 1e-10
G_QUAD_BOUND = 1e-9
SCALING_BOUND = 1e-9
LIMIT_BOUND = 1e-8
GB_BOUND = 1e-6
# `eval` prints 12 significant digits
PRINTED_BOUND = 1e-11
# every checked point of eval_function and every table spot value
DIGITS_REQUIRED = 12.0

GB_THETAS = (0.0, 1.0 / 3.0, 1.0 / math.sqrt(2.0))
LINE_AMPLITUDE = 0.05  # the exponent `verify` and `gauss-bonnet` use
CROSS_ORDER = 6
# an order-6 cross-mode exponent needs up to a few hundred modes
CROSS_SUPPORT_CAP = 1000
K_POINTS = 40
G_AXIS_POINTS = 5  # and 1.0: a 6 x 6 grid of G points
SCALING_PAIRS = 16  # each of the eight exponents (p, q, l) in {1, 2}^3 twice
MATRIX_FAMILIES = (
    ((2, 1), False), ((3, 1), False), ((3, 1, 1), False), ((2, 1, 1), False),
    ((2, 2, 1), True),
)


@dataclass
class Ctx:
    root: str  # the checkout the engine is imported from
    out_dir: str = ""
    tracer: Any = None  # spans.Tracer while operations are traced


@dataclass
class Checked:
    failures: List[str] = field(default_factory=list)
    digits: List[float] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    @property
    def digits_min(self) -> float:
        """Lowest digits over the checked points; 0 when none was checked."""
        return min(self.digits, default=0.0)


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _log_uniform(rng: random.Random, lo: float = 0.1, hi: float = 10.0) -> float:
    return 10 ** rng.uniform(math.log10(lo), math.log10(hi))


def _dyadic(rng: random.Random, lo: float = 0.1, hi: float = 10.0) -> float:
    """A log-uniform value rounded to k/64, exact in binary and != 1."""
    while True:
        k = round(_log_uniform(rng, lo, hi) * 64)
        if k != 64 and lo <= k / 64 <= hi:
            return k / 64


def _strata(rng: random.Random, n: int, lo: float, hi: float, draw=_log_uniform) -> List[float]:
    """n values, one drawn in each of n strata of equal log width, so that
    every seed covers [lo, hi] alike."""
    edges = [lo * (hi / lo) ** (i / n) for i in range(n + 1)]
    return [draw(rng, a, b) for a, b in zip(edges, edges[1:])]


def _gap(s: float, t: float) -> float:
    return min(abs(s - 1), abs(t - 1), abs(s * t - 1))


def _on_set_point(rng: random.Random, component: int) -> Tuple[float, float]:
    """A point exactly on the removable set: s = 1, t = 1 or s t = 1."""
    if component == 0:
        return 1.0, _dyadic(rng)
    if component == 1:
        return _dyadic(rng), 1.0
    j = rng.choice((-3, -2, -1, 1, 2, 3))
    return 2.0**j, 2.0**-j


def _relative(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_case(checked: Checked, label: str, dim: int, operator: str,
               K_parts, G_parts, c_scalar: Fraction, volume_coeff: Fraction) -> None:
    """K(1), G(1,1) against Gilkey's a_2 and c_scalar against R/6."""
    import reference

    k1, g11 = reference.gilkey(dim, operator)
    got = (reference.value_at_one(K_parts), reference.value_at_one(G_parts))
    checked.expect(got == (k1, g11),
                   f"{label}: (K(1), G(1,1)) = {got}, Gilkey's a_2 gives {(k1, g11)}")
    checked.expect(c_scalar * volume_coeff == Fraction(1, 6),
                   f"{label}: c_scalar * sphere_volume_coeff = {c_scalar * volume_coeff}, "
                   "Gilkey's R/6 needs 1/6")


def check_points(checked: Checked, label: str, parts, points, values) -> None:
    """eval_function outputs against 50-digit references."""
    import reference

    for (s, t), v in zip(points, values):
        d = reference.digits(v, reference.value(parts, s, t))
        checked.digits.append(d)
        checked.expect(d >= DIGITS_REQUIRED,
                       f"{label} at ({s!r}, {t!r}) = {v!r}: {d:.2f} digits")


# --------------------------------------------------------------------------
# cli-cold: each command in a fresh interpreter


CLI_DERIVE_CASES = ((2, "kdelta"), (4, "kdelta"), (6, "kdelta"), (8, "kdelta"), (4, "nc4tori"))
CLI_EVAL_CASES = ((2, "kdelta"), (4, "nc4tori"))
# a third point, inside the switch gap, for this case: nine of the seventeen
# commands then evaluate dim-2 kdelta, so the median command is one of a
# cluster of like commands rather than the edge between two clusters
CLI_GAP_CASE = (2, "kdelta")
TABLE_N = 20


class CliCold:
    name = "cli-cold"
    in_children = True  # every operation runs in a child interpreter

    def inputs(self, seed: int, state=None) -> List[dict]:
        rng = _rng(self.name, seed)
        ops = []
        for dim, operator in CLI_DERIVE_CASES:
            ops.append({"kind": "derive", "case": (dim, operator),
                        "argv": ["derive", "--dim", str(dim), "--operator", operator,
                                 "--format", "json"]})
        for dim, operator in CLI_EVAL_CASES:
            for which in ("K", "G"):
                points = [(_log_uniform(rng), _log_uniform(rng) if which == "G" else 1.0)]
                if which == "K":
                    points.append((1.0, 1.0))
                else:
                    points.append(_on_set_point(rng, rng.randrange(3)))
                if (dim, operator) == CLI_GAP_CASE:
                    d = rng.choice((-1, 1)) * 10 ** rng.uniform(-9, math.log10(5e-5))
                    points.append((1 + d, 1.0) if which == "K" else (1 + d, _dyadic(rng)))
                for s, t in points:
                    argv = ["eval", "--dim", str(dim), "--operator", operator,
                            "--which", which, "--s", repr(s)]
                    if which == "G":
                        argv += ["--t", repr(t)]
                    ops.append({"kind": "eval", "case": (dim, operator), "which": which,
                                "point": (s, t), "argv": argv})
        # ranges a:b:20 with exactly 1.0 on the grid, so the table crosses s = 1
        # and t = 1 in every seed; dyadic steps keep every grid value exact
        axes = []
        for _ in range(2):
            step = rng.randint(8, 12) / 128
            at = rng.randint(4, 8)
            axes.append((1 - at * step, 1 + (TABLE_N - 1 - at) * step))
        (sa, sb), (ta, tb) = axes
        grid_s = [sa + (sb - sa) * i / (TABLE_N - 1) for i in range(TABLE_N)]
        grid_t = [ta + (tb - ta) * i / (TABLE_N - 1) for i in range(TABLE_N)]
        spots = [(grid_s.index(1.0), grid_t.index(1.0))]
        spots += [(grid_s.index(1.0), rng.randrange(TABLE_N)) for _ in range(2)]
        spots += [(rng.randrange(TABLE_N), grid_t.index(1.0)) for _ in range(2)]
        spots += [(rng.randrange(TABLE_N), rng.randrange(TABLE_N)) for _ in range(5)]
        ops.append({"kind": "table", "case": (2, "kdelta"), "grid": (grid_s, grid_t),
                    "spots": spots,
                    "argv": ["table", "--dim", "2", "--operator", "kdelta", "--which", "G",
                             "--s-range", f"{sa!r}:{sb!r}:{TABLE_N}",
                             "--t-range", f"{ta!r}:{tb!r}:{TABLE_N}"]})
        ops.append({"kind": "gauss-bonnet", "argv": ["gauss-bonnet"]})
        return ops

    def setup(self, ctx: Ctx):
        import artifact.cli  # noqa: F401 -- the import every command pays

        return None

    def run(self, ctx: Ctx, state, op: dict):
        env = dict(os.environ)
        src = os.path.join(ctx.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        if ctx.tracer is None:
            cmd = [sys.executable, "-m", "artifact.cli"] + op["argv"]
            proc = subprocess.run(cmd, cwd=ctx.root, env=env, capture_output=True, text=True)
        else:
            import spans

            fd, path = tempfile.mkstemp(suffix=".jsonl", dir=ctx.out_dir)
            os.close(fd)
            try:
                cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), path] + op["argv"]
                proc = subprocess.run(cmd, cwd=ctx.root, env=env, capture_output=True, text=True)
                if os.path.getsize(path):
                    ctx.tracer.merge(spans.load(path))
            finally:
                os.remove(path)
        if proc.returncode != 0:
            raise RuntimeError(f"artifact {' '.join(op['argv'])} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-300:]}")
        return proc.stdout

    def check(self, ctx: Ctx, state, ops: List[dict], outputs: List[Optional[str]]) -> Checked:
        import reference

        checked = Checked()
        parts: Dict[Tuple[int, str], Tuple[dict, dict]] = {}
        for op, out in zip(ops, outputs):
            if out is None or op["kind"] != "derive":
                continue
            dim, operator = op["case"]
            report = json.loads(out)
            checked.expect((report["dim"], report["operator"]) == (dim, operator),
                           f"derive {operator}-{dim} reported {report['dim']}, {report['operator']}")
            K = reference.parts_from_json(report["K"]["parts"])
            G = reference.parts_from_json(report["G"]["parts"])
            parts[op["case"]] = (K, G)
            check_case(checked, f"derive {operator}-{dim}", dim, operator, K, G,
                       Fraction(report["c_scalar"]),
                       Fraction(report["normalization"]["sphere_volume_coeff"]))
        for op, out in zip(ops, outputs):
            if out is None or op["kind"] == "derive":
                continue
            if op["kind"] == "gauss-bonnet":
                check_gauss_bonnet_lines(checked, out)
                continue
            case_parts = parts.get(op["case"])
            if case_parts is None:
                checked.failures.append(f"{op['kind']} {op['case']}: no derive output to check against")
                continue
            if op["kind"] == "eval":
                fn = case_parts[0] if op["which"] == "K" else case_parts[1]
                s, t = op["point"]
                ref = reference.value(fn, s, t)
                got = float(out)
                err = abs(got - float(ref)) / abs(float(ref))
                checked.expect(err <= PRINTED_BOUND,
                               f"eval {op['which']} {op['case']} at ({s!r}, {t!r}) printed "
                               f"{out.strip()}, reference {float(ref)!r}")
            else:
                check_table(checked, op, out, case_parts[1])
        return checked


def check_table(checked: Checked, op: dict, out: str, G_parts) -> None:
    rows = list(csv.reader(io.StringIO(out)))
    grid_s, grid_t = op["grid"]
    checked.expect(rows[:1] == [["s", "t", "K", "G"]], f"table header {rows[:1]}")
    body = rows[1:]
    if len(body) != len(grid_s) * len(grid_t):
        checked.failures.append(f"table has {len(body)} rows")
        return
    cells = {}
    for row in body:
        cells[(float(row[0]), float(row[1]))] = float(row[3])
    expected = {(s, t) for s in grid_s for t in grid_t}
    checked.expect(set(cells) == expected, "table grid differs from the requested ranges")
    points = [(grid_s[i], grid_t[j]) for i, j in op["spots"]]
    check_points(checked, "table G", G_parts, points, [cells.get(p, math.nan) for p in points])


def check_gauss_bonnet_lines(checked: Checked, out: str) -> None:
    lines = [ln.split() for ln in out.splitlines() if ln.startswith("CHECK ")]
    checked.expect(len(lines) == len(GB_THETAS), f"gauss-bonnet printed {len(lines)} checks")
    for fields in lines:
        residual = float(fields[2])
        checked.expect(fields[-1] == "PASS" and residual < GB_BOUND,
                       f"gauss-bonnet {fields[1]} residual {residual:.3e}")


# --------------------------------------------------------------------------
# eval-grid: point evaluation in one process


EVAL_CASES = ((2, "kdelta"), (6, "kdelta"), (4, "nc4tori"))
POINTS_PER_FUNCTION = 200
ON_SET_POINTS = 6  # (1, 1) and five seeded points exactly on the set
GAP_POINTS = 14  # inside the 1e-4 switch gap, off the set
CHECKED_REGULAR = 10


class EvalGrid:
    name = "eval-grid"
    in_children = False

    def inputs(self, seed: int, state=None) -> List[dict]:
        rng = _rng(self.name, seed)
        ops = []
        for case in EVAL_CASES:
            for which in ("K", "G"):
                points = [(1.0, 1.0, "on-set")]
                points += [(*_on_set_point(rng, i % 3), "on-set")
                           for i in range(ON_SET_POINTS - 1)]
                for i in range(GAP_POINTS):
                    # move off the set across the component the point lies on
                    s0, t0 = _on_set_point(rng, i % 3)
                    d = rng.choice((-1, 1)) * 10 ** rng.uniform(-9, math.log10(5e-5))
                    if i % 3 == 1:
                        points.append((s0, t0 * (1 + d), "gap"))
                    else:
                        points.append((s0 * (1 + d), t0, "gap"))
                while len(points) < POINTS_PER_FUNCTION:
                    s, t = _log_uniform(rng), _log_uniform(rng)
                    if _gap(s, t) >= 1e-3:
                        points.append((s, t, "regular"))
                regular = [p for p in points if p[2] == "regular"]
                checked = {p for p in points if p[2] != "regular"} | set(regular[:CHECKED_REGULAR])
                for s, t, kind in points:
                    ops.append({"case": case, "which": which, "s": s, "t": t,
                                "check": (s, t, kind) in checked})
        rng.shuffle(ops)
        return ops

    def setup(self, ctx: Ctx):
        from artifact import modular_function_engine as mfe

        reports = {case: mfe.derive_curvature(*case) for case in EVAL_CASES}
        functions = {}
        for case, report in reports.items():
            for which, fn in (("K", report.K), ("G", report.G)):
                mfe.eval_function(fn, 2.0, 0.5)  # compiles the lambdified parts
                functions[(case, which)] = fn
        return {"mfe": mfe, "reports": reports, "functions": functions}

    def run(self, ctx: Ctx, state, op: dict):
        return state["mfe"].eval_function(state["functions"][(op["case"], op["which"])],
                                          op["s"], op["t"])

    def check(self, ctx: Ctx, state, ops: List[dict], outputs: List[Optional[float]]) -> Checked:
        checked = Checked()
        for case, report in state["reports"].items():
            dim, operator = case
            check_case(checked, f"derive {operator}-{dim}", dim, operator,
                       report.K.parts, report.G.parts, report.c_scalar,
                       Fraction(dict(report.normalization)["sphere_volume_coeff"]))
        for op, out in zip(ops, outputs):
            if out is None or not op["check"]:
                continue
            fn = state["functions"][(op["case"], op["which"])]
            check_points(checked, f"{op['which']} {op['case']}", fn.parts,
                         [(op["s"], op["t"])], [out])
        return checked


# --------------------------------------------------------------------------
# oracle-verify: the numeric oracles in one process


class OracleVerify:
    name = "oracle-verify"
    in_children = False

    def inputs(self, seed: int, state) -> List[dict]:
        """The checks of `verify --suite matrix` and `--suite integrals` and the
        Gauss-Bonnet residuals.  An integral check is split into its oracle
        calls, one quadrature of one signature piece at one point each, so
        most operations of a round are alike and their median settles.  The
        points are stratified: the cost of a quadrature depends on its point,
        and with independent points the median cost moved with the seed."""
        rng = _rng(self.name, seed)
        ops = [{"kind": "matrix", "exps": exps, "shift": shift, "seed": seed}
               for exps, shift in MATRIX_FAMILIES]
        ops += [{"kind": "refine", "tight": tight, "seed": seed} for tight in (False, True)]
        points = [("K", s, 1.0) for s in _strata(rng, K_POINTS, 0.1, 10.0)]
        svals = sorted([1.0] + _strata(rng, G_AXIS_POINTS, 0.2, 5.0, _dyadic))
        tvals = sorted([1.0] + _strata(rng, G_AXIS_POINTS, 0.2, 5.0, _dyadic))
        points += [("G", s, t) for s in svals for t in tvals]
        for which, s, t in points:
            key = (which, s, t)
            ops.append({"kind": "symbolic", "key": key})
            for exps, coeff, shifts in state["pieces"][which]:
                factor = float(coeff) * s ** shifts[0] * (t ** shifts[1] if len(shifts) > 1 else 1.0)
                ops.append({"kind": "quad", "key": key, "exps": exps, "point": (s, t),
                            "factor": factor})
        exponents = [(p, q, l) for p in (1, 2) for q in (1, 2) for l in (1, 2)]
        svals, tvals = (_strata(rng, SCALING_PAIRS, 0.3, 3.0) for _ in range(2))
        rng.shuffle(tvals)
        for j, (s, t) in enumerate(zip(svals, tvals)):
            p, q, l = exponents[j % len(exponents)]
            # the law: H_(p,q,l)(s, t) = (s t)^(1-p-q-l) H_(l,q,p)(1/t, 1/s)
            ops.append({"kind": "quad", "key": ("scaling", j), "exps": (p, q, l), "point": (s, t),
                        "factor": 1.0})
            ops.append({"kind": "quad", "key": ("scaling", j), "exps": (l, q, p),
                        "point": (1 / t, 1 / s), "factor": (s * t) ** (1 - p - q - l)})
        ops.append({"kind": "limit"})
        ops += [{"kind": "gb-line", "theta": theta} for theta in GB_THETAS]
        amplitude = rng.uniform(0.02, 0.03)
        ops += [{"kind": "gb-cross", "theta": theta, "amplitude": amplitude}
                for theta in GB_THETAS[1:]]
        # spread the ~300 short calls over the whole round, between the
        # matrix and Gauss-Bonnet calls of seconds; in a row they take about
        # a second, and their median timed the machine of that one second
        rng.shuffle(ops)
        return ops

    def setup(self, ctx: Ctx):
        from artifact import modular_function_engine as mfe
        from artifact import numeric_oracle as oracle
        from artifact import theta_algebra as ta

        report = mfe.derive_curvature(2, "kdelta")
        line = self.exponent(ta, [(1, 0), (-1, 0)], LINE_AMPLITUDE)
        theta = ta.SkewMatrix.standard_2d(0.0)
        # the first calls build the exact Taylor data of K and G at both orders
        oracle.gauss_bonnet_residual(line, theta)
        oracle.gauss_bonnet_residual(line, theta, series_order=CROSS_ORDER)
        pieces = {which: mfe.dim2_quadrature_decomposition(which) for which in ("K", "G")}
        return {"mfe": mfe, "oracle": oracle, "ta": ta, "report": report, "line": line,
                "pieces": pieces}

    @staticmethod
    def exponent(ta, modes, amplitude):
        return ta.FourierElement(2, {m: amplitude + 0j for m in modes}, mode="float")

    def run(self, ctx: Ctx, state, op: dict):
        mfe, oracle, ta = state["mfe"], state["oracle"], state["ta"]
        kind = op["kind"]
        if kind == "matrix":
            return oracle.matrix_rearrangement_check(6, op["seed"], op["exps"],
                                                     s_shift=op["shift"])
        if kind == "refine":
            spec = (oracle.QuadratureSpec(abs_tol=1e-12, max_depth=8) if op["tight"]
                    else oracle.QuadratureSpec(abs_tol=1e-3, max_depth=2))
            return oracle.matrix_rearrangement_check(4, op["seed"], (2, 1), spec=spec)
        if kind == "symbolic":
            which, s, t = op["key"]
            return mfe.eval_function(getattr(state["report"], which), s, t)
        if kind == "quad":
            return op["factor"] * oracle.quad_r_integral(op["exps"], *op["point"])
        if kind == "limit":
            return mfe.eval_function(state["report"].K, 1.0)
        theta = ta.SkewMatrix.standard_2d(op["theta"])
        if kind == "gb-line":
            return oracle.gauss_bonnet_residual(state["line"], theta)
        h = self.exponent(ta, [(1, 0), (-1, 0), (0, 1), (0, -1)], op["amplitude"])
        return oracle.gauss_bonnet_residual(h, theta, series_order=CROSS_ORDER,
                                            support_cap=CROSS_SUPPORT_CAP)

    def check(self, ctx: Ctx, state, ops: List[dict], outputs: list) -> Checked:
        checked = Checked()
        report = state["report"]
        check_case(checked, "derive kdelta-2", 2, "kdelta", report.K.parts, report.G.parts,
                   report.c_scalar, Fraction(dict(report.normalization)["sphere_volume_coeff"]))
        refine, symbolic, quad = {}, {}, {}
        # a point or a scaling pair with a failed oracle call is not combined
        broken = {op["key"] for op, out in zip(ops, outputs) if out is None and "key" in op}
        for op, out in zip(ops, outputs):
            if out is None or op.get("key") in broken:
                continue
            kind = op["kind"]
            if kind == "matrix":
                checked.expect(out <= MATRIX_BOUND, f"matrix {op['exps']} error {out:.3e}")
            elif kind == "refine":
                refine[op["tight"]] = out
            elif kind == "symbolic":
                symbolic[op["key"]] = out
            elif kind == "quad":
                quad.setdefault(op["key"], []).append(out)
            elif kind == "limit":
                checked.expect(abs(out - 1 / 12) <= LIMIT_BOUND, f"K(1) = {out!r}")
                check_points(checked, "K (dim 2)", report.K.parts, [(1.0, 1.0)], [out])
            else:
                checked.expect(out < GB_BOUND, f"{kind} theta {op['theta']:.4f} residual {out:.3e}")
        for key, values in quad.items():
            if key[0] == "scaling":
                err = _relative(values[1], values[0])
                checked.expect(err <= SCALING_BOUND, f"radial scaling law error {err:.3e}")
            elif key in symbolic:
                which, s, t = key
                err = _relative(symbolic[key], sum(values))
                bound = K_QUAD_BOUND if which == "K" else G_QUAD_BOUND
                checked.expect(err <= bound, f"{which} vs quadrature at ({s!r}, {t!r}) error {err:.3e}")
                if which == "G":
                    check_points(checked, "G (dim 2)", report.G.parts, [(s, t)], [symbolic[key]])
        if len(refine) == 2:
            checked.expect(refine[True] <= refine[False],
                           f"matrix refinement not monotone: {refine[True]:.3e} > {refine[False]:.3e}")
        return checked


WORKLOADS = {w.name: w for w in (CliCold(), EvalGrid(), OracleVerify())}
