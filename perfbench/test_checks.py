"""Each check of the benchmark passes on the engine's outputs and fails on a
named perturbation of them.

    python3 -m pytest perfbench/test_checks.py

Run from the root of a checkout (the engine is imported from src/).
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import reference  # noqa: E402
import workloads  # noqa: E402
from workloads import Checked, Ctx  # noqa: E402

SEED = 3


def _negate_parts(parts):
    return {tag: -expr for tag, expr in parts.items()}


@pytest.fixture(scope="module")
def cli_round():
    """One cli-cold round with its outputs, run in this process."""
    from click.testing import CliRunner
    from artifact.cli import main

    runner = CliRunner()
    ops = workloads.CliCold().inputs(SEED, None)
    outputs = []
    for op in ops:
        result = runner.invoke(main, op["argv"])
        assert result.exit_code == 0, result.output
        outputs.append(result.output)
    return ops, outputs


def _cli_check(ops, outputs):
    return workloads.CliCold().check(Ctx(root=ROOT), None, ops, outputs)


def test_cli_outputs_pass(cli_round):
    checked = _cli_check(*cli_round)
    assert checked.failures == []
    assert 13 < checked.digits_min < 14  # dim-2 G(1,1), the table's (1, 1) cell


def _perturbed(cli_round, kind, change):
    ops, outputs = cli_round
    outputs = list(outputs)
    i = next(i for i, op in enumerate(ops) if change(op, None) is not None and op["kind"] == kind)
    outputs[i] = change(ops[i], outputs[i])
    return ops, outputs


def test_tabulated_G_sign_in_derive_report_fails_gilkey(cli_round):
    def flip(op, out):
        if op.get("case") != (2, "kdelta"):
            return None
        if out is None:
            return ""
        report = json.loads(out)
        report["G"]["parts"] = {tag: f"-({text})" for tag, text in report["G"]["parts"].items()}
        return json.dumps(report)

    checked = _cli_check(*_perturbed(cli_round, "derive", flip))
    assert any("Gilkey's a_2" in f for f in checked.failures)


def test_scalar_ladder_sign_fails_R_over_6(cli_round):
    def flip(op, out):
        if op.get("case") != (6, "kdelta"):
            return None
        if out is None:
            return ""
        report = json.loads(out)
        report["c_scalar"] = f"-{report['c_scalar']}"
        return json.dumps(report)

    checked = _cli_check(*_perturbed(cli_round, "derive", flip))
    assert any("R/6" in f for f in checked.failures)


def test_tabulated_G_sign_in_eval_output_fails(cli_round):
    def flip(op, out):
        if op.get("which") != "G":
            return None
        return "" if out is None else f"{-float(out):.12g}\n"

    checked = _cli_check(*_perturbed(cli_round, "eval", flip))
    assert any(f.startswith("eval G") for f in checked.failures)


def test_last_printed_digit_of_eval_is_checked(cli_round):
    def nudge(op, out):
        if op.get("which") != "K":
            return None
        return "" if out is None else f"{float(out) * (1 + 1e-10):.12g}\n"

    checked = _cli_check(*_perturbed(cli_round, "eval", nudge))
    assert any(f.startswith("eval K") for f in checked.failures)


def test_tabulated_G_sign_in_table_fails(cli_round):
    def flip(op, out):
        if out is None:
            return ""
        lines = out.splitlines()
        rows = [lines[0]] + [",".join(r.split(",")[:3] + [repr(-float(r.split(",")[3]))])
                             for r in lines[1:]]
        return "\n".join(rows) + "\n"

    checked = _cli_check(*_perturbed(cli_round, "table", flip))
    assert any(f.startswith("table G") for f in checked.failures)
    assert checked.digits_min < 0


def test_gauss_bonnet_residual_above_bound_fails(cli_round):
    def inflate(op, out):
        if out is None:
            return ""
        return out.replace("CHECK gauss-bonnet-theta-zero ",
                           "CHECK gauss-bonnet-theta-zero 3.000e-02 1.000e-06 FAIL #", 1)

    checked = _cli_check(*_perturbed(cli_round, "gauss-bonnet", inflate))
    assert any(f.startswith("gauss-bonnet") for f in checked.failures)


@pytest.fixture(scope="module")
def eval_grid():
    wl = workloads.EvalGrid()
    ctx = Ctx(root=ROOT)
    state = wl.setup(ctx)
    ops = [op for op in wl.inputs(SEED, state) if op["check"]]
    outputs = [wl.run(ctx, state, op) for op in ops]
    return wl, ctx, state, ops, outputs


def test_eval_grid_outputs_pass(eval_grid):
    wl, ctx, state, ops, outputs = eval_grid
    checked = wl.check(ctx, state, ops, outputs)
    assert checked.failures == []
    assert 13 < checked.digits_min < 14


def test_eval_grid_share_on_the_removable_set():
    ops = workloads.EvalGrid().inputs(SEED, None)
    near = [op for op in ops if min(abs(op["s"] - 1), abs(op["t"] - 1), abs(op["s"] * op["t"] - 1)) < 1e-4]
    assert len(near) * 10 == len(ops)


def test_eval_grid_rejects_tabulated_G_sign(eval_grid):
    wl, ctx, state, ops, outputs = eval_grid
    flipped = [-v if op["which"] == "G" and op["case"] == (2, "kdelta") else v
               for op, v in zip(ops, outputs)]
    checked = wl.check(ctx, state, ops, flipped)
    assert any(f.startswith("G (2, 'kdelta')") for f in checked.failures)


def test_eval_grid_rejects_a_lost_digit(eval_grid):
    wl, ctx, state, ops, outputs = eval_grid
    nudged = list(outputs)
    nudged[0] = outputs[0] * (1 + 1e-11)
    checked = wl.check(ctx, state, ops, nudged)
    assert len(checked.failures) == 1


def test_eval_grid_rejects_a_value_that_is_not_a_number(eval_grid):
    wl, ctx, state, ops, outputs = eval_grid
    broken = [float("nan")] + list(outputs[1:])
    checked = wl.check(ctx, state, ops, broken)
    assert len(checked.failures) == 1
    assert checked.digits_min < 0


def test_check_case_rejects_tabulated_G_sign(eval_grid):
    _, _, state, _, _ = eval_grid
    report = state["reports"][(2, "kdelta")]
    checked = Checked()
    workloads.check_case(checked, "kdelta-2", 2, "kdelta", report.K.parts,
                         _negate_parts(report.G.parts), report.c_scalar, Fraction(2))
    assert any("Gilkey's a_2" in f for f in checked.failures)


@pytest.fixture(scope="module")
def oracle_outputs():
    """Outputs of one oracle-verify round, with the slow oracles replaced by
    values inside their bounds: the checks read only the numbers."""
    wl = workloads.OracleVerify()
    from artifact import modular_function_engine as mfe

    report = mfe.derive_curvature(2, "kdelta")
    state = {"report": report,
             "pieces": {w: mfe.dim2_quadrature_decomposition(w) for w in ("K", "G")}}
    ops = wl.inputs(SEED, state)
    symbolic = {op["key"]: mfe.eval_function(getattr(report, op["key"][0]), *op["key"][1:])
                for op in ops if op["kind"] == "symbolic"}
    outputs, seen = [], set()
    for op in ops:
        kind = op["kind"]
        if kind == "matrix":
            outputs.append(3e-13)
        elif kind == "refine":
            outputs.append(1e-16 if op["tight"] else 1e-9)
        elif kind == "symbolic":
            outputs.append(symbolic[op["key"]])
        elif kind == "quad":
            # the first piece carries the whole value, the others nothing
            first = op["key"] not in seen
            seen.add(op["key"])
            whole = symbolic.get(op["key"], 0.25) * (1 + 1e-15)
            outputs.append(whole if first or op["key"][0] == "scaling" else 0.0)
        elif kind == "limit":
            outputs.append(mfe.eval_function(report.K, 1.0))
        else:
            outputs.append(3e-14)
    return wl, state, ops, outputs


def _oracle_check(oracle_outputs, change=None):
    wl, state, ops, outputs = oracle_outputs
    outputs = [change(op, out) if change else out for op, out in zip(ops, outputs)]
    return wl.check(Ctx(root=ROOT), state, ops, outputs)


def test_oracle_outputs_pass(oracle_outputs):
    assert _oracle_check(oracle_outputs).failures == []


def _first_quad_of(key_head):
    done = set()

    def pick(op):
        if op["kind"] != "quad" or op["key"][0] != key_head or done:
            return False
        done.add(True)
        return True

    return pick


@pytest.mark.parametrize("pick, bad, message", [
    (lambda op: op["kind"] == "matrix", lambda out: 2e-6, "matrix"),
    (lambda op: op["kind"] == "gb-cross", lambda out: 2e-6, "gb-cross"),
    (lambda op: op["kind"] == "gb-line", lambda out: 3e-2, "gb-line"),
    (lambda op: op["kind"] == "limit", lambda out: 1 / 12 + 1e-7, "K(1)"),
    (_first_quad_of("scaling"), lambda out: out * (1 + 2e-9), "radial scaling"),
    (_first_quad_of("G"), lambda out: out * (1 + 2e-9), "G vs quadrature"),
    (_first_quad_of("K"), lambda out: out * (1 + 2e-10), "K vs quadrature"),
])
def test_oracle_value_beyond_its_bound_fails(oracle_outputs, pick, bad, message):
    checked = _oracle_check(oracle_outputs, lambda op, out: bad(out) if pick(op) else out)
    assert any(f.startswith(message) for f in checked.failures)


def test_non_monotone_refinement_fails(oracle_outputs):
    checked = _oracle_check(oracle_outputs,
                            lambda op, out: 1e-8 if op["kind"] == "refine" and op["tight"] else out)
    assert any("not monotone" in f for f in checked.failures)


def test_tabulated_G_sign_in_quadrature_points_fails(oracle_outputs):
    def flip(op, out):
        return -out if op["kind"] == "symbolic" and op["key"][0] == "G" else out

    checked = _oracle_check(oracle_outputs, flip)
    assert any(f.startswith("G (dim 2)") for f in checked.failures)
    assert any(f.startswith("G vs quadrature") for f in checked.failures)


def test_stored_references_are_made_anew_by_their_command():
    import make_references

    assert make_references.main(["--check"]) == 0


def test_reference_limit_is_exact_on_each_component_of_the_set(eval_grid):
    _, _, state, _, _ = eval_grid
    G = state["reports"][(2, "kdelta")].G.parts
    assert reference.value_at_one(G) == Fraction(-1, 12)
    # the limit on the set agrees with evalf just off it
    for s, t in ((1.0, 2.5), (0.75, 1.0), (2.0, 0.5)):
        on = reference.value(G, s, t)
        off = reference.value(G, s * (1 + 2.0**-40), t)
        assert abs(float(on - off)) < 1e-9


def test_refuses_to_run_without_engine_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
