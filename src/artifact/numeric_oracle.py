"""Independent numeric verification of the symbolic pipeline.

Three oracles, none of which shares code with the exact derivation:

* ``quad_r_integral`` -- the radial family integrands K_(p,q) / H_(p,q,l)
  on (0, oo), integrated in float64 by the double-exponential trapezoid
  rule after r = e^(pi sinh tau - c); the same rule integrates a whole
  array of scale rows at once.  Cross-checks the closed forms of the
  divided-difference integrator ``radial_integral``.

* ``matrix_rearrangement_check`` -- a finite-dimensional spectral model
  of the rearrangement step.  For a random positive matrix k the operator
  integral int k f0(rk) rho1 f1(rk) [rho2 f2(rk)] dr diagonalizes in k's
  eigenbasis, so each entry is a scalar quadrature (all of them one array
  for the radial rule); the engine's closed forms applied to the modular
  spectrum kappa_j/kappa_i must reproduce it entrywise.

* ``gauss_bonnet_residual`` -- builds the dim-2 curvature density for a
  conformal factor k = exp(h) on the deformed 2-torus by truncated
  functional calculus (Delta = exp(-ad_h)) and returns |trace|, which the
  Gauss-Bonnet identity says must vanish up to series/support truncation.
  k, k^-1 and k^-2 come from one chain of powers of h, and each power of
  -ad_h from one commutator pass of the twisted-product kernel.
  The Taylor data it reads is exact: K(1), and the coefficients of
  G(e^{-z}, e^z) taken from G's exact restriction to the curve st = 1.
  Each part of a closed form is expanded along a ray (e^{a z}, e^{b z}) as
  a quotient of integer power-sum series, in Python integers with one
  Fraction per kept coefficient.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exactnum import as_int
from .theta_algebra import (
    FourierElement,
    SelfAdjointnessError,
    SkewMatrix,
    commutator,
    deformed_product,
    derivation,
    exp_element,
    is_self_adjoint,
)
from .modular_function_engine import (
    PolyTerms,
    SymbolicFunction,
    UsageError,
    derive_curvature,
    eval_function,
    family_exponents,
    radial_integral,
)

__all__ = [
    "QuadratureSpec",
    "quad_r_integral",
    "matrix_rearrangement_check",
    "gauss_bonnet_residual",
    "cos_mode",
    "cross_mode",
    "GB_THETAS",
    "SupportOverflowError",
    "ExponentNotSelfAdjointError",
]


class SupportOverflowError(RuntimeError):
    """An intermediate Fourier element outgrew the allowed support."""


class ExponentNotSelfAdjointError(SelfAdjointnessError, UsageError):
    """gauss_bonnet_residual's exponent h fails star(h) = h."""


class _QuadratureFields(NamedTuple):
    abs_tol: float = 1e-12
    max_depth: int = 8


class QuadratureSpec(_QuadratureFields):
    """Fixed method: the trapezoid rule in tau after r = e^(pi sinh tau - c).

    Level 0 has step 1 in tau; each further level halves the step, adding
    only the new nodes, up to max_depth levels.  abs_tol bounds the
    difference between the last two levels when max_depth is reached
    without convergence."""

    __slots__ = ()

    def __new__(cls, abs_tol: float = 1e-12, max_depth: int = 8):
        # a NaN tolerance would pass every exhaustion test
        if (isinstance(abs_tol, bool) or not isinstance(abs_tol, numbers.Real)
                or not 0 < abs_tol < math.inf):
            raise ValueError(f"abs_tol must be a finite number > 0, got {abs_tol!r}")
        max_depth = as_int(max_depth, "max_depth must be an int >= 1", lambda n: n >= 1)
        return tuple.__new__(cls, (abs_tol, max_depth))


# the last node lies this far (in log r) beyond the outermost breakpoint
# -log(scale), where the integrand has decayed by e^-45 ~ 3e-20
_TAIL_LOG_R = 45.0
_CONVERGED_REL = 1e-13
# levels 0..4 are evaluated in one pass; see _quad_raw
_BATCH_LEVELS = 5
_OUT_OF_RANGE = "quadrature integrand leaves the float64 range at these scales"


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=128)
def _level_nodes(level: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """pi sinh(tau) and pi cosh(tau) at the nodes that level adds, n being
    int(tau_max / step): every integer in [-n, n] at level 0, then the odd
    multiples of step = 2^-level in [-n step, n step].  Read-only, since
    every caller shares them."""
    import numpy as np

    if level == 0:
        tau = 1.0 * np.arange(-n, n + 1)
    else:
        half = (n + 1) // 2
        tau = 0.5 ** level * (2 * np.arange(-half, half) + 1)
    return _read_only(math.pi * np.sinh(tau)), _read_only(math.pi * np.cosh(tau))


@lru_cache(maxsize=64)
def _batch_nodes(counts: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray, Tuple[int, ...]]:
    """The tables of levels 0..len(counts)-1 end to end, with the offsets
    that bound each level's slice."""
    import numpy as np

    tables = [_level_nodes(level, n) for level, n in enumerate(counts)]
    bounds = (0, *itertools.accumulate(len(t[0]) for t in tables))
    return (_read_only(np.concatenate([t[0] for t in tables])),
            _read_only(np.concatenate([t[1] for t in tables])), bounds)


def _quad_raw(scales: np.ndarray, exps: Sequence[int], w: int,
              spec: QuadratureSpec) -> np.ndarray:
    """int_0^oo r^w * prod_i (scales[:, i] r + 1)^(-exps[i]) dr for every row
    of scales at once; assumes w = sum(exps) - 2 so both ends decay.

    r = e^(pi sinh tau - c), with c the row's mean log scale, turns the
    exponential decay in log r at both ends into a double-exponential decay
    in tau, where the trapezoid rule converges geometrically in the number
    of nodes (Takahasi-Mori).  The integrand is a plain product of the
    exact scales with r: in log space every node carries an error of
    |log f| ulps, which cost the G-versus-quadrature check a digit.

    Level k's nodes depend only on k and n_k = int(tau_max / 2^-k), so
    pi sinh(tau) and pi cosh(tau) come from tables cached per (k, n_k).
    Almost all of a small call's time is numpy call overhead, not
    arithmetic, so levels 0-4 are evaluated in one pass over their tables
    end to end.  Five, because every single-row quadrature of a perfbench
    oracle-verify round converges at level 4 (220 of 220 at seeds 1, 51
    and 52), and so do six of its seven matrix grids; the seventh, the
    loose grid of the refinement pair, stops at its max_depth of 2.  A
    spec with max_depth < 4 ends the batch at its last level, and deeper
    levels follow one at a time.  The result is bit for bit that of
    evaluating level by level: the integrand is the same elementwise float
    operations on the same node values, each level's sum is one pairwise
    sum over its own contiguous slice, and the running total, the level
    difference and the convergence test proceed level by level in the same
    order.  A level counts as converged only when its value is finite; an
    overflowed level, or a row whose scales themselves overflow or
    underflow, raises ArithmeticError.
    """
    import numpy as np

    used = [i for i, e in enumerate(exps) if e]
    rows = np.asarray(scales, dtype=float)
    if len(used) < len(exps):
        rows = rows[:, used]
    # an overflow leaves a non-finite value, which never counts as converged
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        logs = np.log(rows)
        # the mean, without its Python wrapper: the same sum and division
        centre = np.add.reduce(logs, axis=1, keepdims=True) / len(used)
        spread = np.abs(logs - centre).max()
        # a scale of 0 or inf (s t out of range) leaves a NaN spread
        if not math.isfinite(spread):
            raise ArithmeticError(_OUT_OF_RANGE)
        tau_max = math.asinh((spread + _TAIL_LOG_R) / math.pi)

        def integrand(sinh_pi: np.ndarray, cosh_pi: np.ndarray) -> np.ndarray:
            r = np.exp(sinh_pi - centre)
            f = cosh_pi * r ** (w + 1)
            for col, i in enumerate(used):
                f = f / (rows[:, col:col + 1] * r + 1.0) ** exps[i]
            return f

        batch = min(_BATCH_LEVELS, spec.max_depth + 1)
        sinh_pi, cosh_pi, bounds = _batch_nodes(
            tuple(int(tau_max / 0.5 ** k) for k in range(batch)))
        f = integrand(sinh_pi, cosh_pi)
        step = 1.0
        total = f[:, :bounds[1]].sum(axis=1)
        value = step * total
        for level in range(1, spec.max_depth + 1):
            step /= 2
            if level < batch:
                level_sum = f[:, bounds[level]:bounds[level + 1]].sum(axis=1)
            else:
                nodes = _level_nodes(level, int(tau_max / step))
                level_sum = integrand(*nodes).sum(axis=1)
            total = total + level_sum
            diff = np.abs(step * total - value)
            value = step * total
            if (diff <= _CONVERGED_REL * value).all():
                if np.isfinite(value).all():
                    return value
                break
    if not np.all(np.isfinite(value)):
        raise ArithmeticError(_OUT_OF_RANGE)
    if np.any(diff > 10 * np.maximum(spec.abs_tol, 1e-15 * value)):
        raise ArithmeticError(
            f"quadrature refinement exhausted at depth {spec.max_depth} "
            f"(level difference {np.max(diff):.3g})"
        )
    return value


def quad_r_integral(exponents: Sequence[int], s: float, t: float = 1.0,
                    spec: Optional[QuadratureSpec] = None) -> float:
    """Numeric value of int_0^oo K_(p,q)(s, r) dr or int_0^oo
    H_(p,q,l)(s,t,r) dr within spec.abs_tol, at the family's own radial
    power p+q[+l]-2."""
    import numpy as np

    spec = spec or QuadratureSpec()
    exps = family_exponents(exponents, (2, 3))
    if not (0 < s < math.inf and 0 < t < math.inf):
        raise UsageError("quad_r_integral requires 0 < s < inf and 0 < t < inf")
    scales = np.array([(1.0, s, s * t)[: len(exps)]])
    return float(_quad_raw(scales, exps, sum(exps) - 2, spec)[0])


# --------------------------------------------------------------------------
# finite-matrix spectral oracle


def matrix_rearrangement_check(dim: int, seed: int, exponents: Sequence[int],
                               s_shift: bool = False,
                               spec: Optional[QuadratureSpec] = None,
                               eigenvalues: Optional[Sequence[float]] = None,
                               ) -> float:
    """Max entrywise relative error between the spectral-model operator
    integral and the closed-form family applied to the modular spectrum.

    k is a random positive matrix with eigenvalues in [0.2, 5]; in its
    eigenbasis the integral int k f0(rk) rho1 f1(rk) [rho2 f2(rk)] r^w dr
    has entries kappa_i * quad(kappa_i, kappa_x[, kappa_j]) and must equal
    kappa_i^(2-N) * F(kappa_x/kappa_i[, kappa_j/kappa_x]).  With s_shift a
    k is inserted after the first curvature factor, multiplying the left
    side by kappa_x and the right side by kappa_i * s -- the same move the
    signature extractor encodes as the monomial factor s^j1.

    rho entries are drawn positive (uniform [0.5, 1.5]) so no entry is
    cancellation-dominated and relative error is meaningful.
    """
    import numpy as np

    dim = as_int(dim, "dim must be between 1 and 12 (dense spectral scale)",
                 lambda n: 1 <= n <= 12)
    seed = as_int(seed, "seed must be an int >= 0", lambda n: n >= 0)
    exps = family_exponents(exponents, (2, 3))
    if s_shift and len(exps) != 3:
        raise ValueError("the s-shift variant applies to H families")
    spec = spec or QuadratureSpec()
    total = sum(exps)
    w = total - 2
    rng = np.random.default_rng(seed)
    if eigenvalues is None:
        kappa = rng.uniform(0.2, 5.0, size=dim)
    else:
        kappa = np.asarray(eigenvalues, dtype=float)
        if kappa.shape != (dim,) or not np.all(np.isfinite(kappa) & (kappa > 0)):
            raise ValueError("eigenvalues must be dim positive numbers")
    closed = radial_integral(exps, 2)
    grid = np.meshgrid(*([kappa] * len(exps)), indexing="ij")
    scales = np.stack([axis.ravel() for axis in grid], axis=1)
    # kappa_i * quad(kappa_i, kappa_x[, kappa_j]), indexed [i, x(, j)]
    quad = (scales[:, 0] * _quad_raw(scales, exps, w, spec)).reshape((dim,) * len(exps))

    if len(exps) == 2:
        rho = rng.uniform(0.5, 1.5, size=(dim, dim))
        closed_vals = np.array([[eval_function(closed, kj / ki) for kj in kappa]
                                for ki in kappa])
        lhs = quad * rho
        rhs = kappa[:, None] ** (2 - total) * closed_vals * rho
        return float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))

    rho1 = rng.uniform(0.5, 1.5, size=(dim, dim))
    rho2 = rng.uniform(0.5, 1.5, size=(dim, dim))
    # with kappa_j = kappa_i the point (kappa_x/kappa_i, kappa_i/kappa_x) lies
    # on st = 1, which the two rounded quotients miss: take f on the curve
    on_curve = closed.restriction("st")
    closed_vals = np.array([[[eval_function(on_curve, kx / ki) if kj == ki
                              else eval_function(closed, kx / ki, kj / kx) for kj in kappa]
                             for kx in kappa] for ki in kappa])
    ki, kx = kappa[:, None, None], kappa[None, :, None]
    f = ki ** (2 - total) * closed_vals
    if s_shift:
        quad = quad * kx
        f = f * (ki * (kx / ki))
    lhs = np.einsum("ixj,ix,xj->ij", quad, rho1, rho2)
    rhs = np.einsum("ixj,ix,xj->ij", f, rho1, rho2)
    return float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))


# --------------------------------------------------------------------------
# exact Taylor data for the functional calculus


def _ray_weights(terms: PolyTerms, ray: Tuple[int, int]) -> Dict[int, int]:
    """P(e^{ray0 z}, e^{ray1 z}) = sum_m w_m e^{m z} for the integer polynomial
    P = sum c s^i t^j, m = ray0 i + ray1 j; only nonzero w_m are kept."""
    out: Dict[int, int] = {}
    for (i, j), c in terms:
        m = ray[0] * i + ray[1] * j
        out[m] = out.get(m, 0) + int(c)
    return {m: w for m, w in out.items() if w}


def _power_sum(weights: Dict[int, int], n: int) -> int:
    """sum_m w_m m^n: n! times the z^n coefficient of sum_m w_m e^{m z}."""
    return sum(w * m ** n for m, w in weights.items())


def _ray_taylor(f: SymbolicFunction, ray: Tuple[int, int], order: int,
                ) -> List[Fraction]:
    """Exact Taylor coefficients (z^0 .. z^order) of f(e^{ray0 z}, e^{ray1 z}).

    Along the ray each part's numerator and denominator are sums of
    exponentials with integer weights, whose z^n coefficients are power sums
    over n!.  Both are scaled by (L-1)!, L the series length, so they are
    integer and the scale cancels in the quotient.  The Laurent quotient is
    q_i = Q_i / lead^(i+1), lead the denominator's first nonzero coefficient,
    with integer Q_i; one Fraction is made per kept coefficient.  Individual
    parts may have poles at z = 0; the assembled function is analytic there,
    which is asserted.
    """
    # the z-power and the factor of each part's log prefactor: log e^(a z) = a z
    log_factor = {"one": (0, 1), "log_s": (1, ray[0]), "log_st": (1, ray[0] + ray[1])}
    acc: Dict[int, Fraction] = {}
    for tag, (num, den) in f.fraction_terms().items():
        if not num:
            continue
        dw = _ray_weights(den, ray)
        if not dw:
            raise ZeroDivisionError("series division by zero")
        nw = _ray_weights(num, ray)
        if not nw:
            continue
        # the m are distinct, so one of the first len(w) power sums is nonzero
        nv, dv = (next(n for n in itertools.count() if _power_sum(w, n)) for w in (nw, dw))
        shift, lf = log_factor[tag]
        off = nv - dv + shift
        count = order - off + 1
        if count <= 0:
            continue
        scale = math.factorial(max(nv, dv) + count - 1)
        nn, dd = ([_power_sum(w, n) * scale // math.factorial(n) for n in range(v, v + count)]
                  for w, v in ((nw, nv), (dw, dv)))
        lead_pow = [dd[0] ** i for i in range(count + 1)]
        q: List[int] = []
        for i in range(count):
            q.append(nn[i] * lead_pow[i]
                     - sum(dd[j] * q[i - j] * lead_pow[j - 1] for j in range(1, i + 1)))
            if q[i]:
                acc[off + i] = acc.get(off + i, 0) + Fraction(lf * q[i], lead_pow[i + 1])
    for power in sorted(acc):
        if power < 0 and acc[power]:
            raise ArithmeticError(
                f"ray series has a genuine pole at z = 0 (power {power})"
            )
    return [acc.get(n, Fraction(0)) for n in range(order + 1)]


@lru_cache(maxsize=4)
def _dim2_taylor(order: int) -> Tuple[Fraction, Tuple[Fraction, ...]]:
    """What the Gauss-Bonnet residual reads of the derived dim-2 curvature
    pair: K(1), and the coefficients d_0 .. d_order of G(e^{-z}, e^z), G's
    restriction to st = 1 at s = e^{-z}."""
    report = derive_curvature(2, "kdelta")
    [k1] = _ray_taylor(report.K, (1, 0), 0)
    return k1, tuple(_ray_taylor(report.G.restriction("st"), (-1, 0), order))


# --------------------------------------------------------------------------
# Gauss-Bonnet residual


_PRUNE_TOL = 1e-18

# the deformation parameters the residual is swept over
GB_THETAS: Tuple[Tuple[str, float], ...] = (
    ("zero", 0.0),
    ("rational", 0.3333333333333333),
    ("irrational", 1.0 / math.sqrt(2.0)),
)


def cos_mode(amplitude: float) -> FourierElement:
    """The line-mode exponent amplitude * (e_(1,0) + e_(-1,0))."""
    return FourierElement(
        2, {(1, 0): amplitude + 0j, (-1, 0): amplitude + 0j}, mode="float"
    )


def cross_mode(amplitude: float) -> FourierElement:
    """The exponent amplitude * (e_(1,0) + e_(-1,0) + e_(0,1) + e_(0,-1)),
    whose products see the deformation."""
    return FourierElement(
        2, {idx: amplitude + 0j for idx in ((1, 0), (-1, 0), (0, 1), (0, -1))},
        mode="float",
    )


def _prune(elem: FourierElement, cap: int) -> FourierElement:
    kept = {idx: c for idx, c in elem.coeffs.items() if abs(c) >= _PRUNE_TOL}
    if len(kept) > cap:
        raise SupportOverflowError(
            f"support overflow beyond support cap ({len(kept)} > {cap} modes)"
        )
    return FourierElement._canonical(elem.n, kept, elem.mode)


def _pair_trace(a: FourierElement, b: FourierElement) -> complex:
    """trace(a x_Theta b) = sum_r a_r b_(-r): the bi-character drops out
    because <r, Theta r> = 0 for skew Theta.  The sum runs over the smaller
    operand and looks the negated modes up in the larger."""
    if len(b.coeffs) < len(a.coeffs):
        a, b = b, a
    total = 0j
    for idx, c in a.coeffs.items():
        other = b.coeffs.get(tuple(map(operator.neg, idx)))
        if other is not None:
            total += c * other
    return total


def gauss_bonnet_residual(h: FourierElement, theta: SkewMatrix,
                          series_order: int = 8, support_cap: int = 40) -> float:
    """|trace| of the dim-2 curvature density for the conformal factor
    k = exp(h) on the deformed 2-torus with flat metric (g^{-1} = id,
    no scalar-atom source):

        R = kinv * K(Delta)(dd k)  +  kinv^2 * G(Delta1, Delta2)(dk dk)

    summed over the two flat directions, Delta = exp(-ad_h), with the
    functional calculus truncated at total degree series_order.  Two
    identities reduce the trace.  The truncated kinv and kinv^2 are
    polynomials in h, so they commute with h; and trace(ad_h(x) y) =
    -trace(x ad_h(y)), since trace(x y) = trace(y x) for skew Theta.  Hence
    trace(kinv (-ad_h)^n(dd k)) = 0 for n >= 1, and with
    P_n = (-ad_h)^n(d_j k),

        sum_ab c_ab trace(kinv^2 P_a P_b) = sum_n d_n trace((kinv^2 d_j k) P_n),
        d_n = sum_(a+b=n) (-1)^a c_ab,

    the Taylor coefficients of G(e^{-z}, e^z).  So the residual reads K only
    at 1 and G only on the curve st = 1, with one large product per
    direction.  The work at order N is N products for the power chain
    P_m = P_(m-1) h / m, from which k, kinv and kinv^2 are sum c^m P_m for
    c = 1, -1, -2; the two products kinv^2 d_j k; and at most N commutators
    P_n = P_(n-1) h - h P_(n-1) per direction, the chain stopping once P_n
    is empty (at its first step for a line-mode h, whose modes pair to
    zero).  Expected to vanish up to truncation error; an h that is not
    self-adjoint or has |h|_1 > 0.2 is a UsageError.
    """
    if h.n != 2 or theta.n != 2:
        raise UsageError("the Gauss-Bonnet oracle is a rank-2 check")
    series_order = as_int(series_order, "series_order must be an int >= 1", lambda n: n >= 1)
    support_cap = as_int(support_cap, "support_cap must be an int >= 1", lambda n: n >= 1)
    hf = FourierElement(h.n, h.coeffs, "float")
    if not is_self_adjoint(hf, tol=1e-12):
        raise ExponentNotSelfAdjointError(
            "the conformal exponent must satisfy star(h) = h"
        )
    if hf.l1_norm() > 0.2 + 1e-12:
        raise UsageError(
            "norm precondition violated: |h|_1 must be <= 0.2 for the "
            "truncation bounds to hold"
        )
    if not hf.coeffs:
        return 0.0

    k1, dcoeffs = _dim2_taylor(series_order)

    k, kinv, kinv2 = (_prune(e, support_cap)
                      for e in exp_element(hf, theta, series_order, factors=(1, -1, -2)))
    dk = [derivation(k, 1), derivation(k, 2)]
    ddk = derivation(dk[0], 1) + derivation(dk[1], 2)

    # one-variable channel: only K(1) survives the trace
    total = float(k1) * _pair_trace(kinv, ddk)

    # two-variable channel, summed over the flat directions: G on st = 1
    for j in (0, 1):
        left = _prune(deformed_product(kinv2, dk[j], theta), support_cap)
        p_n = dk[j]
        for n, d in enumerate(dcoeffs):
            if n:
                # -ad_h(rho) = rho h - h rho; after an empty power all are empty
                p_n = _prune(commutator(p_n, hf, theta), support_cap)
                if not p_n.coeffs:
                    break
            total += float(d) * _pair_trace(left, p_n)

    return abs(total)
