"""The checks of ``artifact verify``, held as one ordered table.

Each row of ``CHECKS`` names its suite, the check, its default bound and
whether ``--tol`` replaces that bound; the exact laws, the symbol checks, the
refinement monotonicity and the Gauss-Bonnet scaling ratio keep theirs.  A
suite function yields the errors of its checks in table order, and ``run``
pairs them with the rows, so every name and bound lives in the table alone.

The oracles are called through the ``numeric_oracle`` module attributes, so a
wrapper installed on them sees every call.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Iterator, NamedTuple, Optional, Tuple

from .exactnum import GaussianRational
from .theta_algebra import FourierElement, SkewMatrix, deformed_product, star, trace
from .symbol_engine import canonicalize, homogeneity_degrees, resolvent_b
from .cosphere_integrator import derive_rule_constants, pinned_rule_constants
from .modular_function_engine import (
    UsageError,
    derive_curvature,
    dim2_quadrature_decomposition,
    eval_function,
    operator_symbols,
)
from . import numeric_oracle as oracle

__all__ = ["Check", "CHECKS", "SUITES", "run", "gauss_bonnet_checks"]


class Check(NamedTuple):
    suite: str
    name: str
    bound: float
    tol_replaces: bool  # whether --tol replaces the bound


_LAWS = ("associativity", "star-antihom", "trace-cyclic")

_MATRIX_FAMILIES: Tuple[Tuple[str, Tuple[int, ...], bool], ...] = (
    ("matrix-K21", (2, 1), False),
    ("matrix-K31", (3, 1), False),
    ("matrix-H311", (3, 1, 1), False),
    ("matrix-H211", (2, 1, 1), False),
    ("matrix-H221-shift", (2, 2, 1), True),
)

CHECKS: Tuple[Check, ...] = (
    *(Check("algebra", f"algebra-{law}-exact", 0.0, False) for law in _LAWS),
    *(Check("algebra", f"algebra-{law}-float", 1e-12, True) for law in _LAWS),
    Check("symbols", "symbols-homogeneity-grading", 0.0, False),
    Check("symbols", "symbols-canonical-idempotent", 0.0, False),
    Check("symbols", "symbols-sphere-rule-constants", 0.0, False),
    Check("integrals", "integrals-dim2-K-vs-quadrature", 1e-10, True),
    Check("integrals", "integrals-dim2-G-vs-quadrature", 1e-9, True),
    Check("integrals", "integrals-radial-scaling-law", 1e-9, True),
    Check("integrals", "integrals-limit-value-K1", 1e-8, True),
    *(Check("matrix", name, 1e-6, True) for name, _, _ in _MATRIX_FAMILIES),
    Check("matrix", "matrix-monotone-refinement", 0.0, False),
    *(Check("gauss-bonnet", f"gauss-bonnet-theta-{name}", 1e-6, True)
      for name, _ in oracle.GB_THETAS),
    *(Check("gauss-bonnet", f"gauss-bonnet-cross-theta-{name}", 1e-6, True)
      for name, _ in oracle.GB_THETAS),
    Check("gauss-bonnet", "gauss-bonnet-ratio", 1.0, False),
)


def _random_element(rng: np.random.Generator, mode: str, max_modes: int = 8) -> FourierElement:
    coeffs = {}
    for _ in range(int(rng.integers(1, max_modes + 1))):
        idx = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        if mode == "exact":
            re = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
            im = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
            coeffs[idx] = GaussianRational(re, im)
        else:
            coeffs[idx] = complex(rng.normal(), rng.normal())
    return FourierElement(2, coeffs, mode=mode)


def _max_coeff_diff(a: FourierElement, b: FourierElement) -> float:
    return max((abs(complex(a.coeffs.get(k, 0)) - complex(b.coeffs.get(k, 0)))
                for k in set(a.coeffs) | set(b.coeffs)), default=0.0)


def _algebra(seed: int) -> Iterator[float]:
    """Worst violation of each law over 100 random triples, exact mode first."""
    import numpy as np

    for mode in ("exact", "float"):
        rng = np.random.default_rng(seed)
        worst = dict.fromkeys(_LAWS, 0.0)
        for _ in range(100):
            # exact-mode phases live in {1, i, -1, -i}, so theta must be a
            # half-integer there; floating mode takes any real theta
            th = SkewMatrix.standard_2d(
                Fraction(int(rng.integers(-2, 3)), 2) if mode == "exact"
                else float(rng.uniform(-1, 1))
            )
            a, b, c = (_random_element(rng, mode) for _ in range(3))
            lhs = deformed_product(deformed_product(a, b, th), c, th)
            rhs = deformed_product(a, deformed_product(b, c, th), th)
            worst["associativity"] = max(worst["associativity"], _max_coeff_diff(lhs, rhs))
            lhs = star(deformed_product(a, b, th))
            rhs = deformed_product(star(b), star(a), th)
            worst["star-antihom"] = max(worst["star-antihom"], _max_coeff_diff(lhs, rhs))
            d = abs(complex(trace(deformed_product(a, b, th)))
                    - complex(trace(deformed_product(b, a, th))))
            worst["trace-cyclic"] = max(worst["trace-cyclic"], d)
        yield from worst.values()


def _symbols(seed: int) -> Iterator[float]:
    yield max((float(abs(d - (-2 - kappa)))
               for operator in ("kdelta", "nc4tori") for kappa in (0, 1, 2)
               for d in homogeneity_degrees(resolvent_b(kappa, operator_symbols(operator)))),
              default=0.0)

    once = canonicalize(resolvent_b(2, operator_symbols("kdelta")))
    yield 0.0 if once.terms == canonicalize(once).terms else 1.0

    yield 0.0 if all(derive_rule_constants(m) == pinned_rule_constants(m)
                     for m in (2, 4, 6, 8)) else 1.0


def _rel_err(approx: float, exact: float) -> float:
    return abs(approx - exact) / max(abs(exact), 1e-300)


def _quadrature_channel_value(pieces, s: float, t: float = 1.0) -> float:
    """Channel value by direct quadrature of the signature decomposition."""
    total = 0.0
    for exps, coeff, shifts in pieces:
        factor = float(coeff) * s ** shifts[0]
        if len(shifts) > 1:
            factor *= t ** shifts[1]
        total += factor * oracle.quad_r_integral(exps, s, t)
    return total


def _integrals(seed: int) -> Iterator[float]:
    import numpy as np

    report = derive_curvature(2, "kdelta")
    pieces = dim2_quadrature_decomposition("K")
    log_spaced = (10.0 ** (-1 + 2 * i / 19) for i in range(20))  # across [0.1, 10]
    yield max(_rel_err(eval_function(report.K, s), _quadrature_channel_value(pieces, s))
              for s in log_spaced)
    pieces = dim2_quadrature_decomposition("G")
    grid = (0.2, 1.0, 2.2, 5.0)
    yield max(_rel_err(eval_function(report.G, s, t), _quadrature_channel_value(pieces, s, t))
              for s in grid for t in grid)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        p, q, l = (int(x) for x in rng.integers(1, 3, size=3))
        s, t = (float(x) for x in rng.uniform(0.3, 3.0, size=2))
        n = p + q + l
        lhs = oracle.quad_r_integral((p, q, l), s, t)
        rhs = (s * t) ** (1 - n) * oracle.quad_r_integral((l, q, p), 1 / t, 1 / s)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    yield worst

    yield abs(eval_function(report.K, 1.0) - 1.0 / 12.0)


def _matrix(seed: int) -> Iterator[float]:
    for _, exps, shift in _MATRIX_FAMILIES:
        yield max(oracle.matrix_rearrangement_check(6, seed + offset, exps, s_shift=shift)
                  for offset in range(3))
    loose = oracle.QuadratureSpec(abs_tol=1e-3, max_depth=2)
    tight = oracle.QuadratureSpec(abs_tol=1e-12, max_depth=8)
    err_loose = oracle.matrix_rearrangement_check(4, seed, (2, 1), spec=loose)
    err_tight = oracle.matrix_rearrangement_check(4, seed, (2, 1), spec=tight)
    yield max(0.0, err_tight - err_loose)


# Fourier support cap of every Gauss-Bonnet residual computed here.  The
# four modes (+-1, 0), (0, +-1) reach at most 330 modes up to the norm limit
# |h|_1 = 0.2 (about 0.025 s for the three theta on a 2-core machine); wider
# exponents, such as the eight modes (+-1, 0), (0, +-1), (+-1, +-1) at that
# limit (540 modes at theta = 0), exit 3 with a support-overflow message,
# since every deformed product costs O(modes^2).
_GB_SUPPORT_CAP = 500

# amplitude of the line-mode exponent, the `gauss-bonnet` command's default
_LINE_AMPLITUDE = 0.05


def _gb_residual(h: FourierElement, theta: float) -> float:
    return oracle.gauss_bonnet_residual(h, SkewMatrix.standard_2d(theta),
                                        support_cap=_GB_SUPPORT_CAP)


def _gauss_bonnet(seed: int) -> Iterator[float]:
    # theta acts only on an exponent with modes on both axes; on the line
    # mode the three theta rows agree to the last digit
    for h in (oracle.cos_mode(_LINE_AMPLITUDE), oracle.cross_mode(0.025)):
        for _, theta in oracle.GB_THETAS:
            yield _gb_residual(h, theta)
    # quadratic-leading scaling certificate on a fixed element at the norm
    # precondition boundary, where the residual sits well above fp noise
    href = oracle.cos_mode(0.1)
    theta = oracle.GB_THETAS[2][1]
    base = _gb_residual(href, theta)
    yield max(_gb_residual(href.scaled(eps), theta) / max(2 * eps * eps * base, 1e-300)
              for eps in (0.5, 0.25))


def _check_tol(tol: float) -> None:
    # nan or a negative bound would fail every check, inf pass every one
    if not 0 <= tol < float("inf"):
        raise UsageError(f"--tol must be a finite number >= 0, not {tol!r}")


def gauss_bonnet_checks(h: Optional[FourierElement], bound: float,
                        ) -> Iterator[Tuple[str, float, float]]:
    """One Gauss-Bonnet residual check per theta for the exponent h (the
    line mode of the gauss-bonnet suite when None); a bound that is not
    finite and >= 0 is a UsageError."""
    _check_tol(bound)
    if h is None:
        h = oracle.cos_mode(_LINE_AMPLITUDE)
    return ((f"gauss-bonnet-theta-{name}", _gb_residual(h, theta), bound)
            for name, theta in oracle.GB_THETAS)


_ERRORS: Dict[str, Callable[[int], Iterator[float]]] = {
    "algebra": _algebra,
    "symbols": _symbols,
    "integrals": _integrals,
    "matrix": _matrix,
    "gauss-bonnet": _gauss_bonnet,
}

SUITES: Tuple[str, ...] = tuple(dict.fromkeys(check.suite for check in CHECKS))


def run(suite: str, seed: int, tol: Optional[float]) -> Iterator[Tuple[str, float, float]]:
    """(name, error, bound) of every check of the suite as it completes, in
    table order; tol, when given, replaces every bound the table marks so,
    and must be finite and >= 0, and seed must be >= 0 (a UsageError
    otherwise)."""
    if tol is not None:
        _check_tol(tol)
    # numpy's generators take no negative seed
    if seed < 0:
        raise UsageError(f"--seed must be an integer >= 0, not {seed}")
    rows = [check for check in CHECKS if check.suite == suite]
    return ((check.name, err, tol if tol is not None and check.tol_replaces else check.bound)
            for check, err in zip(rows, _ERRORS[suite](seed), strict=True))
