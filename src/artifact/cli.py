"""Command-line front end: derive, eval, table, verify, gauss-bonnet.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
pipeline error (reported with the failing stage's name).
"""

from __future__ import annotations

import csv
import io
import sys
from fractions import Fraction
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import click
import numpy as np

from .exactnum import GaussianRational
from .theta_algebra import (
    FourierElement,
    SkewMatrix,
    deformed_product,
    parse_element,
    star,
    trace,
)
from .symbol_engine import (
    canonicalize,
    homogeneity_degrees,
    resolvent_b,
)
from .cosphere_integrator import (
    derive_rule_constants,
    pinned_rule_constants,
    sphere_average,
)
from .modular_function_engine import (
    UsageError,
    derive_curvature,
    dim2_quadrature_decomposition,
    eval_function,
    operator_symbols,
)
from . import numeric_oracle as oracle

_stage = "startup"


def _set_stage(name: str) -> None:
    global _stage
    _stage = name


def _staged(fn: Callable) -> Callable:
    """Translate unexpected exceptions into exit code 3 with the stage name."""

    def wrapper(*args, **kwargs):
        _set_stage("startup")
        try:
            return fn(*args, **kwargs)
        except (click.ClickException, click.exceptions.Exit, SystemExit):
            raise
        except UsageError as exc:
            raise click.UsageError(str(exc))
        except Exception as exc:
            click.echo(f"internal error at stage {_stage}: {exc}", err=True)
            sys.exit(3)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _parse_range(text: str, flag: str) -> List[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise click.UsageError(f"{flag} must be formatted a:b:n")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise click.UsageError(f"{flag} must be formatted a:b:n with numeric fields")
    if n < 1 or a <= 0 or b <= 0:
        raise click.UsageError(f"{flag} needs n >= 1 and positive endpoints")
    if n == 1:
        return [a]
    return [a + (b - a) * i / (n - 1) for i in range(n)]


def _check_dim(dim: int) -> int:
    if dim < 2 or dim % 2:
        raise click.UsageError("--dim must be an even integer >= 2")
    return dim


@click.group()
def main() -> None:
    """Symbolic + numeric engine for modular curvature on deformed tori."""


# --------------------------------------------------------------------------
# derive


@main.command()
@click.option("--dim", type=int, default=2, show_default=True)
@click.option("--operator", type=click.Choice(["kdelta", "nc4tori"]), default="kdelta",
              show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
              default="text", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
@_staged
def derive(dim: int, operator: str, fmt: str, out: Optional[str]) -> None:
    """Derive the curvature functions and print the full report."""
    _check_dim(dim)
    if fmt == "csv":
        raise click.UsageError("derive emits a structured report; use text or json")
    _set_stage("curvature-derivation")
    report = derive_curvature(dim, operator)
    _set_stage("serialization")
    payload = report.to_text() if fmt == "text" else report.to_json()
    if out:
        with open(out, "w") as fh:
            fh.write(payload + "\n")
    else:
        click.echo(payload)


# --------------------------------------------------------------------------
# eval


@main.command("eval")
@click.option("--dim", type=int, default=2, show_default=True)
@click.option("--operator", type=click.Choice(["kdelta", "nc4tori"]), default="kdelta",
              show_default=True)
@click.option("--which", type=click.Choice(["K", "G"]), required=True)
@click.option("--s", "s", type=float, required=True)
@click.option("--t", "t", type=float, default=None)
@_staged
def eval_cmd(dim: int, operator: str, which: str, s: float, t: Optional[float]) -> None:
    """Evaluate K(s) or G(s, t) numerically (limit-filled on the diagonal)."""
    _check_dim(dim)
    if s <= 0 or (t is not None and t <= 0):
        raise click.UsageError("--s and --t must be positive")
    if which == "K" and t is not None:
        raise click.UsageError("--t applies only to the two-variable function G")
    _set_stage("curvature-derivation")
    report = derive_curvature(dim, operator)
    _set_stage("evaluation")
    f = report.K if which == "K" else report.G
    value = eval_function(f, s, t if t is not None else 1.0)
    click.echo(f"{value:.12g}")


# --------------------------------------------------------------------------
# table


@main.command()
@click.option("--dim", type=int, default=2, show_default=True)
@click.option("--operator", type=click.Choice(["kdelta", "nc4tori"]), default="kdelta",
              show_default=True)
@click.option("--which", type=click.Choice(["K", "G"]), required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
              default="csv", show_default=True)
@click.option("--s-range", "s_range", required=True,
              help="sweep a:b:n over s (n evenly spaced points)")
@click.option("--t-range", "t_range", default=None,
              help="sweep a:b:n over t (two-variable function only)")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
@_staged
def table(dim: int, operator: str, which: str, fmt: str, s_range: str,
          t_range: Optional[str], out: Optional[str]) -> None:
    """Tabulate K or G to CSV with header s,t,K,G (unused columns empty)."""
    _check_dim(dim)
    if fmt != "csv":
        raise click.UsageError("table writes CSV; use --format csv")
    svals = _parse_range(s_range, "--s-range")
    if which == "K":
        if t_range is not None:
            raise click.UsageError("--t-range applies only to the two-variable function G")
        tvals: List[Optional[float]] = [None]
    else:
        if t_range is None:
            raise click.UsageError("tabulating G requires --t-range")
        tvals = list(_parse_range(t_range, "--t-range"))
    _set_stage("curvature-derivation")
    report = derive_curvature(dim, operator)
    f = report.K if which == "K" else report.G
    _set_stage("tabulation")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["s", "t", "K", "G"])
    for s in svals:
        for t in tvals:
            value = eval_function(f, s, 1.0 if t is None else t)
            if which == "K":
                writer.writerow([repr(s), "", repr(value), ""])
            else:
                writer.writerow([repr(s), repr(t), "", repr(value)])
    payload = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        click.echo(payload, nl=False)


# --------------------------------------------------------------------------
# verify


def _random_exact_element(rng: np.random.Generator, max_modes: int = 8) -> FourierElement:
    coeffs = {}
    for _ in range(int(rng.integers(1, max_modes + 1))):
        idx = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        re = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
        im = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
        coeffs[idx] = GaussianRational(re, im)
    return FourierElement(2, coeffs, mode="exact")


def _random_float_element(rng: np.random.Generator, max_modes: int = 8) -> FourierElement:
    coeffs = {}
    for _ in range(int(rng.integers(1, max_modes + 1))):
        idx = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        coeffs[idx] = complex(rng.normal(), rng.normal())
    return FourierElement(2, coeffs, mode="float")


def _max_coeff_diff(a: FourierElement, b: FourierElement) -> float:
    keys = set(a.coeffs) | set(b.coeffs)
    worst = 0.0
    for k in keys:
        ca, cb = a.coeffs.get(k), b.coeffs.get(k)
        ca = 0j if ca is None else complex(ca)
        cb = 0j if cb is None else complex(cb)
        worst = max(worst, abs(ca - cb))
    return worst


def _suite_algebra(seed: int, tol: Optional[float]) -> List[Tuple[str, float, float]]:
    ftol = tol if tol is not None else 1e-12
    results = []
    for mode, name_suffix, bound, maker in [
        ("exact", "exact", 0.0, _random_exact_element),
        ("float", "float", ftol, _random_float_element),
    ]:
        rng = np.random.default_rng(seed)
        worst = {"associativity": 0.0, "star-antihom": 0.0, "trace-cyclic": 0.0}
        for _ in range(100):
            # exact-mode phases live in {1, i, -1, -i}, so theta must be a
            # half-integer there; floating mode takes any real theta
            th = SkewMatrix.standard_2d(
                Fraction(int(rng.integers(-2, 3)), 2) if mode == "exact"
                else float(rng.uniform(-1, 1))
            )
            a, b, c = (maker(rng) for _ in range(3))
            lhs = deformed_product(deformed_product(a, b, th), c, th)
            rhs = deformed_product(a, deformed_product(b, c, th), th)
            worst["associativity"] = max(worst["associativity"], _max_coeff_diff(lhs, rhs))
            lhs = star(deformed_product(a, b, th))
            rhs = deformed_product(star(b), star(a), th)
            worst["star-antihom"] = max(worst["star-antihom"], _max_coeff_diff(lhs, rhs))
            d = abs(complex(trace(deformed_product(a, b, th)))
                    - complex(trace(deformed_product(b, a, th))))
            worst["trace-cyclic"] = max(worst["trace-cyclic"], d)
        for law, err in worst.items():
            results.append((f"algebra-{law}-{name_suffix}", err, bound))
    return results


def _suite_symbols(seed: int, tol: Optional[float]) -> List[Tuple[str, float, float]]:
    results = []
    worst = 0.0
    for operator in ("kdelta", "nc4tori"):
        symbols = operator_symbols(operator)
        for kappa in (0, 1, 2):
            b = resolvent_b(kappa, symbols)
            degs = homogeneity_degrees(b)
            off = max((abs(d - (-2 - kappa)) for d in degs), default=0)
            worst = max(worst, float(off))
    results.append(("symbols-homogeneity-grading", worst, 0.0))

    b2 = resolvent_b(2, operator_symbols("kdelta"))
    once = canonicalize(b2)
    twice = canonicalize(once)
    results.append(("symbols-canonical-idempotent", 0.0 if once == twice else 1.0, 0.0))

    mismatch = 0.0
    for m in (2, 4, 6, 8):
        if derive_rule_constants(m) != pinned_rule_constants(m):
            mismatch = 1.0
    results.append(("symbols-sphere-rule-constants", mismatch, 0.0))
    return results


def _rel_err(approx: float, exact: float) -> float:
    scale = max(abs(exact), 1e-300)
    return abs(approx - exact) / scale


def _suite_integrals(seed: int, tol: Optional[float]) -> List[Tuple[str, float, float]]:
    results = []
    report = derive_curvature(2, "kdelta")

    worst = 0.0
    for i in range(20):
        s = 10.0 ** (-1 + 2 * i / 19)  # log-spaced across [0.1, 10]
        symbolic = eval_function(report.K, s)
        quad = _quadrature_channel_value(dim2_quadrature_decomposition("K"), s)
        worst = max(worst, _rel_err(symbolic, quad))
    results.append(("integrals-dim2-K-vs-quadrature", worst,
                    tol if tol is not None else 1e-10))

    worst = 0.0
    for s in (0.2, 1.0, 2.2, 5.0):
        for t in (0.2, 1.0, 2.2, 5.0):
            symbolic = eval_function(report.G, s, t)
            quad = _quadrature_channel_value(dim2_quadrature_decomposition("G"), s, t)
            worst = max(worst, _rel_err(symbolic, quad))
    results.append(("integrals-dim2-G-vs-quadrature", worst,
                    tol if tol is not None else 1e-9))

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        p, q, l = (int(x) for x in rng.integers(1, 3, size=3))
        s, t = (float(x) for x in rng.uniform(0.3, 3.0, size=2))
        n = p + q + l
        lhs = oracle.quad_r_integral((p, q, l), s, t)
        rhs = (s * t) ** (1 - n) * oracle.quad_r_integral((l, q, p), 1 / t, 1 / s)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    results.append(("integrals-radial-scaling-law", worst,
                    tol if tol is not None else 1e-9))

    limit = eval_function(report.K, 1.0)
    results.append(("integrals-limit-value-K1", abs(limit - 1.0 / 12.0),
                    tol if tol is not None else 1e-8))
    return results


def _quadrature_channel_value(pieces, s: float, t: float = 1.0) -> float:
    """Channel value by direct quadrature of the signature decomposition."""
    total = 0.0
    for exps, coeff, shifts in pieces:
        factor = float(coeff) * s ** shifts[0]
        if len(shifts) > 1:
            factor *= t ** shifts[1]
        total += factor * oracle.quad_r_integral(exps, s, t)
    return total


_MATRIX_FAMILIES: Tuple[Tuple[str, Tuple[int, ...], bool], ...] = (
    ("matrix-K21", (2, 1), False),
    ("matrix-K31", (3, 1), False),
    ("matrix-H311", (3, 1, 1), False),
    ("matrix-H211", (2, 1, 1), False),
    ("matrix-H221-shift", (2, 2, 1), True),
)


def _suite_matrix(seed: int, tol: Optional[float]) -> List[Tuple[str, float, float]]:
    bound = tol if tol is not None else 1e-6
    results = []
    for name, exps, shift in _MATRIX_FAMILIES:
        worst = 0.0
        for offset in range(3):
            worst = max(worst, oracle.matrix_rearrangement_check(
                6, seed + offset, exps, s_shift=shift))
        results.append((name, worst, bound))
    loose = oracle.QuadratureSpec(abs_tol=1e-3, max_depth=2)
    tight = oracle.QuadratureSpec(abs_tol=1e-12, max_depth=8)
    err_loose = oracle.matrix_rearrangement_check(4, seed, (2, 1), spec=loose)
    err_tight = oracle.matrix_rearrangement_check(4, seed, (2, 1), spec=tight)
    results.append(("matrix-monotone-refinement",
                    max(0.0, err_tight - err_loose), 0.0))
    return results


# Fourier support cap of every Gauss-Bonnet residual the CLI computes.  The
# four modes (+-1, 0), (0, +-1) reach at most 459 modes up to the norm limit
# |h|_1 = 0.2 (0.8 s for the three theta on a 2-core machine); wider
# exponents exit 3 with a support-overflow message, since every deformed
# product costs O(modes^2).
_GB_SUPPORT_CAP = 500


def _gb_residual(h: FourierElement, theta: float) -> float:
    return oracle.gauss_bonnet_residual(h, SkewMatrix.standard_2d(theta),
                                        support_cap=_GB_SUPPORT_CAP)


def _theta_checks(h: FourierElement, bound: float, prefix: str = "gauss-bonnet-theta",
                  ) -> Iterator[Tuple[str, float, float]]:
    """One Gauss-Bonnet residual check per theta."""
    for name, theta in oracle.GB_THETAS:
        yield f"{prefix}-{name}", _gb_residual(h, theta), bound


def _suite_gauss_bonnet(seed: int, tol: Optional[float]) -> List[Tuple[str, float, float]]:
    bound = tol if tol is not None else 1e-6
    results = list(_theta_checks(oracle.cos_mode(0.05), bound))
    # theta acts only on an exponent with modes on both axes; on the line
    # mode the three rows above agree to the last digit
    results += _theta_checks(oracle.cross_mode(0.025), bound, "gauss-bonnet-cross-theta")
    # quadratic-leading scaling certificate on a fixed element at the norm
    # precondition boundary, where the residual sits well above fp noise
    href = oracle.cos_mode(0.1)
    theta = oracle.GB_THETAS[2][1]
    base = _gb_residual(href, theta)
    metric = 0.0
    for eps in (0.5, 0.25):
        scaled = _gb_residual(href.scaled(eps), theta)
        metric = max(metric, scaled / max(2 * eps * eps * base, 1e-300))
    results.append(("gauss-bonnet-ratio", metric, 1.0))
    return results


_SUITES = {
    "algebra": _suite_algebra,
    "symbols": _suite_symbols,
    "integrals": _suite_integrals,
    "matrix": _suite_matrix,
    "gauss-bonnet": _suite_gauss_bonnet,
}


def _print_checks(checks: Iterable[Tuple[str, float, float]]) -> bool:
    """Print one CHECK line per (name, error, bound) as it arrives; True if
    any check failed."""
    failed = False
    for check, err, bound in checks:
        ok = err <= bound
        failed = failed or not ok
        click.echo(f"CHECK {check} {err:.3e} {bound:.3e} {'PASS' if ok else 'FAIL'}")
    return failed


@main.command()
@click.option("--suite", type=click.Choice(list(_SUITES) + ["all"]), default="all",
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tol", type=float, default=None,
              help="override the default tolerance of every check in the suite")
@_staged
def verify(suite: str, seed: int, tol: Optional[float]) -> None:
    """Run an oracle suite; exit 1 if any check fails."""
    names = list(_SUITES) if suite == "all" else [suite]
    failed = False
    for name in names:
        _set_stage(f"verify-{name}")
        failed = _print_checks(_SUITES[name](seed, tol)) or failed
    if failed:
        sys.exit(1)


# --------------------------------------------------------------------------
# gauss-bonnet


@main.command("gauss-bonnet")
@click.argument("hfile", type=click.Path(exists=True, dir_okay=False), required=False)
@click.option("--tol", type=float, default=1e-6, show_default=True)
@_staged
def gauss_bonnet(hfile: Optional[str], tol: float) -> None:
    """Gauss-Bonnet residual sweep over theta for the conformal exponent h.

    HFILE holds one Fourier mode per line as `r1,r2 : re,im`; the default is
    the cosine mode 0.05 (e_(1,0) + e_(-1,0)).
    """
    _set_stage("h-parsing")
    if hfile:
        with open(hfile) as fh:
            h = parse_element(fh.read(), 2, mode="float")
    else:
        h = oracle.cos_mode(0.05)
    _set_stage("gauss-bonnet-residual")
    if _print_checks(_theta_checks(h, tol)):
        sys.exit(1)


if __name__ == "__main__":
    main()
