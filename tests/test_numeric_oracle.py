"""Tests for the independent numeric cross-checks.

Covers the three oracle layers: double-exponential radial quadrature of the
rational integrand families, the finite-matrix model of the operator
rearrangement identity, and the spectral-sum Gauss-Bonnet residual that
adjudicates the sign and normalization of the derived curvature functions.
"""

import math
import re
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from artifact import modular_function_engine as mfe
from artifact import numeric_oracle as oracle
from artifact.exactnum import RationalFunction
from artifact.modular_function_engine import (
    DivergentIntegralError,
    SignatureError,
    SymbolicFunction,
    UsageError,
    derive_curvature,
    eval_function,
    radial_integral,
)
from artifact.numeric_oracle import (
    QuadratureSpec,
    SupportOverflowError,
    gauss_bonnet_residual,
    matrix_rearrangement_check,
    quad_r_integral,
)
from artifact.theta_algebra import FourierElement, SelfAdjointnessError, SkewMatrix
from test_taylor_reference import fold_onto_the_curve, reference_dim2_taylor

THETA_IRRATIONAL = math.sqrt(2.0) - 1.0


def line_mode_exponent(amplitude: float) -> FourierElement:
    """Self-adjoint h supported on the (1,0) line; l1 norm = 2*amplitude."""
    return FourierElement(
        2,
        {(1, 0): amplitude + 0j, (-1, 0): amplitude + 0j},
        mode="float",
    )


def cross_mode_exponent(amplitude: float) -> FourierElement:
    """Self-adjoint h with genuinely two-dimensional support (4 modes)."""
    return FourierElement(
        2,
        {
            (1, 0): amplitude + 0j,
            (-1, 0): amplitude + 0j,
            (0, 1): amplitude + 0j,
            (0, -1): amplitude + 0j,
        },
        mode="float",
    )


# ---------------------------------------------------------------------------
# radial quadrature
# ---------------------------------------------------------------------------


def test_quadrature_two_family_log_value():
    # integral of 1/((r+1)(2r+1)) over [0, inf) is log 2
    value = quad_r_integral((1, 1), 2.0)
    assert abs(value - math.log(2.0)) < 1e-12


def test_quadrature_three_family_equal_scales_value():
    # integral of r/(r+1)^3 over [0, inf) is 1/2
    value = quad_r_integral((1, 1, 1), 1.0, 1.0)
    assert abs(value - 0.5) < 1e-12


def test_quadrature_two_family_weighted_value():
    value = quad_r_integral((2, 1), 1.0)
    assert abs(value - 0.5) < 1e-12


@pytest.mark.parametrize("exponents", [(1, 0), (0, 1, 0)])
def test_quadrature_rejects_divergent_families(exponents):
    with pytest.raises(DivergentIntegralError):
        quad_r_integral(exponents, 2.0)
    with pytest.raises(DivergentIntegralError):
        radial_integral(exponents, 2)


@pytest.mark.parametrize("exponents", [(3, -1), (-1, 3), (2, -1, 1)])
def test_both_integrators_reject_a_negative_exponent_as_a_signature(exponents):
    # a negative block exponent is a malformed signature, not a divergence,
    # even where the exponents sum to 2 or more
    with pytest.raises(SignatureError, match="negative block exponent"):
        quad_r_integral(exponents, 2.0)
    with pytest.raises(SignatureError, match="negative block exponent"):
        radial_integral(exponents, 2)


@pytest.mark.parametrize("s, t", [(math.nan, 1.0), (math.inf, 1.0), (2.0, math.nan),
                                  (2.0, math.inf)])
def test_quadrature_rejects_non_finite_arguments(s, t):
    with pytest.raises(UsageError, match="0 < s < inf and 0 < t < inf"):
        quad_r_integral((2, 1, 1), s, t)


@pytest.mark.parametrize("s", [1e-9, 1e9])
def test_quadrature_extreme_scale_matches_the_closed_form(s):
    # integral of 1/((r+1)(s r+1)) over [0, inf) is log(1/s)/(1-s)
    exact = math.log(1.0 / s) / (1.0 - s)
    assert abs(quad_r_integral((1, 1), s) - exact) <= 1e-14 * abs(exact)


def test_quadrature_too_shallow_spec_raises():
    # after one level (step 1/2 in tau) two levels still differ by 16 %
    with pytest.raises(ArithmeticError, match="refinement exhausted"):
        quad_r_integral((3, 1, 1), 0.5, 2.0, spec=QuadratureSpec(max_depth=1))


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_depth=0)
    # a NaN tolerance would let an unconverged value through
    for tol in (math.nan, math.inf, -1e-12, "1e-12", True):
        with pytest.raises(ValueError, match=re.escape(f"abs_tol must be a finite number > 0, got {tol!r}")):
            QuadratureSpec(abs_tol=tol)
    for depth in (2.5, True, 8.0, "8", 0):
        with pytest.raises(ValueError, match=re.escape(f"max_depth must be an int >= 1, got {depth!r}")):
            QuadratureSpec(max_depth=depth)


@pytest.mark.parametrize("exponents, s, t", [
    ((2, 1), 1e-150, 1.0),       # a finite level, then an overflowed one
    ((1, 1), 1e-290, 1.0),
    ((2, 1, 1), 1e200, 1e200),   # s t overflows to inf
    ((2, 1, 1), 1e-200, 1e-200),  # s t underflows to 0
])
def test_quadrature_leaving_the_float64_range_raises(exponents, s, t):
    # an overflowed level used to pass the convergence test (inf <= 1e-13 inf)
    # and return inf; an out-of-range s t died on int(NaN) with two warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="leaves the float64 range at these scales"):
            quad_r_integral(exponents, s, t)


# the three entry points that read family exponents
EXPONENT_READERS = [
    lambda e: radial_integral(e, 2),
    lambda e: quad_r_integral(e, 2.0),
    lambda e: matrix_rearrangement_check(3, 0, e),
]
EXPONENT_READER_IDS = ["radial_integral", "quad_r_integral", "matrix_rearrangement_check"]


@pytest.mark.parametrize("call", EXPONENT_READERS, ids=EXPONENT_READER_IDS)
@pytest.mark.parametrize("bad", [2.5, 2.0, "2", None], ids=repr)
def test_family_exponents_must_be_integers(call, bad):
    # 2.5 used to recurse without end in radial_integral and be read as 2 by
    # int() in the two oracles
    with pytest.raises(SignatureError, match=re.escape(f"family exponents must be integers, got {bad!r}")):
        call((bad, 1))


@pytest.mark.parametrize("call", EXPONENT_READERS, ids=EXPONENT_READER_IDS)
def test_numpy_integer_exponents_are_read_as_ints(call):
    assert call((np.int64(2), np.int32(1))) == call((2, 1))


def test_two_family_inversion_scaling_law():
    # substituting u = s*r gives F_(p,q)(s) = s^(1-N) F_(q,p)(1/s)
    rng = np.random.default_rng(7)
    for _ in range(10):
        p, q = (int(x) for x in rng.integers(1, 4, size=2))
        s = float(rng.uniform(0.3, 3.0))
        lhs = quad_r_integral((p, q), s)
        rhs = s ** (1 - (p + q)) * quad_r_integral((q, p), 1.0 / s)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_three_family_inversion_scaling_law():
    # substituting u = s*t*r reverses the family and inverts both ratios
    rng = np.random.default_rng(11)
    for _ in range(10):
        p, q, l = (int(x) for x in rng.integers(1, 3, size=3))
        s, t = (float(x) for x in rng.uniform(0.3, 3.0, size=2))
        n_total = p + q + l
        lhs = quad_r_integral((p, q, l), s, t)
        rhs = (s * t) ** (1 - n_total) * quad_r_integral(
            (l, q, p), 1.0 / t, 1.0 / s
        )
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# finite-matrix rearrangement oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "exponents,s_shift",
    [
        ((2, 1), False),
        ((3, 1), False),
        ((3, 1, 1), False),
        ((2, 1, 1), False),
        ((2, 2, 1), True),
    ],
    ids=["K21", "K31", "H311", "H211", "H221-shift"],
)
def test_matrix_rearrangement_families(exponents, s_shift):
    err = matrix_rearrangement_check(6, 0, exponents, s_shift=s_shift)
    assert err < 1e-6


def test_matrix_rearrangement_trivial_spectrum():
    # with a single eigenvalue 1 both sides reduce to the same scalar integral
    err = matrix_rearrangement_check(1, 3, (2, 1), eigenvalues=[1.0])
    assert err < 1e-9


def test_matrix_rearrangement_repeated_eigenvalue():
    # kappa_0 = kappa_1 puts entries with x != i exactly on s = 1 as well
    err = matrix_rearrangement_check(3, 0, (2, 2, 1), s_shift=True,
                                     eigenvalues=[0.5, 0.5, 2.0])
    assert err < 1e-6


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_matrix_rearrangement_rejects_non_finite_eigenvalues(bad):
    with pytest.raises(ValueError, match="eigenvalues must be dim positive numbers"):
        matrix_rearrangement_check(2, 0, (2, 1), eigenvalues=[1.0, bad])


def test_matrix_rearrangement_monotone_refinement():
    # the loose spec stops two levels in without raising, at an error well
    # above the tight spec's, so the two compare genuinely different levels
    loose = QuadratureSpec(abs_tol=1e-3, max_depth=2)
    tight = QuadratureSpec(abs_tol=1e-12, max_depth=8)
    for dim in (4, 6):
        for seed in range(30):
            err_loose = matrix_rearrangement_check(dim, seed, (2, 1), spec=loose)
            err_tight = matrix_rearrangement_check(dim, seed, (2, 1), spec=tight)
            assert err_tight <= err_loose
            assert err_loose > 1e-12


def _unsigned(exps, m):
    return radial_integral(exps, m).scaled((-1) ** (sum(exps) - 1))


def _swapped_nodes(exps, m):
    p, q, l = tuple(exps) + (0,) * (3 - len(exps))
    return radial_integral((p, l, q), m)


@pytest.mark.parametrize(
    "mutant,exponents,s_shift",
    [(_unsigned, (2, 1, 1), False), (_swapped_nodes, (2, 2, 1), True)],
    ids=["dropped-sign", "swapped-nodes"],
)
def test_matrix_rearrangement_detects_a_mutated_closed_form(monkeypatch, mutant,
                                                            exponents, s_shift):
    # (-1)^(P-1) is -1 for P = 4, and swapping s and st changes H_(2,2,1)
    monkeypatch.setattr(oracle, "radial_integral", mutant)
    assert matrix_rearrangement_check(6, 0, exponents, s_shift=s_shift) > 1e-6


def _drop_log_series(monkeypatch):
    monkeypatch.setattr(mfe, "_log_derivative", lambda k: 0)


def _one_factorial_short(monkeypatch):
    # divide by (a - 1)! in place of a!, d^k log x at x = 1 kept as it is
    log_derivative = {k: mfe._log_derivative(k) for k in range(1, 20)}
    monkeypatch.setattr(mfe, "_log_derivative", log_derivative.__getitem__)
    monkeypatch.setattr(mfe, "factorial", lambda n: math.factorial(max(n - 1, 0)))


def _mutate_on(monkeypatch, mutate, curves):
    """mutate applied while the restrictions to the given curves are built,
    and to them alone."""
    restriction = SymbolicFunction.restriction

    def mutated(self, curve):
        if curve not in curves:
            return restriction(self, curve)
        with monkeypatch.context() as patch:
            mutate(patch)
            return restriction(self, curve)

    monkeypatch.setattr(SymbolicFunction, "restriction", mutated)


@pytest.mark.parametrize("mutate", [_drop_log_series, _one_factorial_short],
                         ids=["dropped-log-series", "factorial-one-short"])
def test_matrix_rearrangement_detects_a_mutated_restriction(monkeypatch, mutate):
    # 66 of the 96 on-set entries lie exactly on s = 1 (i = x) or t = 1
    # (x = j), where eval_function takes the exact restriction to that line
    assert matrix_rearrangement_check(6, 0, (2, 2, 1), s_shift=True) < 1e-6
    _mutate_on(monkeypatch, mutate, ("s", "t"))
    assert matrix_rearrangement_check(6, 0, (2, 2, 1), s_shift=True) > 1e-6


@pytest.mark.parametrize("mutate", [_drop_log_series, _one_factorial_short],
                         ids=["dropped-log-series", "factorial-one-short"])
def test_matrix_rearrangement_detects_a_mutated_curve_restriction(monkeypatch, mutate):
    # the other 30 (i = j != x) lie on st = 1, where the check takes the
    # exact restriction to the curve
    _mutate_on(monkeypatch, mutate, ("st",))
    assert matrix_rearrangement_check(6, 0, (2, 2, 1), s_shift=True) > 1e-6


def test_matrix_rearrangement_takes_the_curve_route_on_st_1(monkeypatch):
    calls, limits = [], []
    eval_mp = SymbolicFunction._eval_mp

    def recording(f, *point):
        calls.append((f, point))
        return eval_function(f, *point)

    def counting(self, sv, tv):
        if mp.mp.dps > 60:
            limits.append((sv, tv))
        return eval_mp(self, sv, tv)

    monkeypatch.setattr(oracle, "eval_function", recording)
    monkeypatch.setattr(SymbolicFunction, "_eval_mp", counting)
    assert matrix_rearrangement_check(6, 0, (2, 2, 1), s_shift=True) < 1e-6
    # the 36 entries with i = j evaluate the restriction to st = 1, the 30
    # of them with i != x off its point s = 1; none takes the 90-digit limit
    on_curve = [point for f, point in calls if not f.uses_t()]
    assert len(calls) == 216 and len(on_curve) == 36
    assert sum(point != (1.0,) for point in on_curve) == 30
    assert limits == []


# ---------------------------------------------------------------------------
# exact Taylor data feeding the spectral-sum functional
# ---------------------------------------------------------------------------


def _k_series(order):
    return oracle._ray_taylor(derive_curvature(2, "kdelta").K, (1, 0), order)


def test_one_variable_taylor_coefficients():
    kcoeffs = _k_series(8)
    expected = [
        Fraction(1, 12),
        Fraction(-1, 12),
        Fraction(1, 30),
        Fraction(-1, 180),
        Fraction(-1, 5040),
        Fraction(1, 5040),
    ]
    assert list(kcoeffs[: len(expected)]) == expected
    assert oracle._dim2_taylor(8)[0] == expected[0]


def test_two_variable_taylor_constant_term():
    _, dcoeffs = oracle._dim2_taylor(8)
    assert dcoeffs[0] == Fraction(-1, 12)


def _taylor_error(kcoeffs, dcoeffs):
    """Max relative distance of the truncated sums sum c_n z^n and
    sum d_n z^n from eval_function(K, e^z) and eval_function(G, e^{-z}, e^z)
    at seeded points with |z| <= 0.05: no series code used.  e^{-z} and e^z
    are never exact reciprocals here, so G is evaluated by its limit along a
    ray, not through its restriction to st = 1."""
    report = derive_curvature(2, "kdelta")
    rng = np.random.default_rng(8)
    worst = 0.0
    for z1, z2 in rng.uniform(-0.05, 0.05, size=(6, 2)):
        k_sum = sum(float(c) * z1 ** n for n, c in enumerate(kcoeffs))
        g_sum = sum(float(d) * z2 ** n for n, d in enumerate(dcoeffs))
        k_val = eval_function(report.K, math.exp(z1))
        g_val = eval_function(report.G, math.exp(-z2), math.exp(z2))
        worst = max(worst, abs(k_sum - k_val) / abs(k_val), abs(g_sum - g_val) / abs(g_val))
    return worst


def test_taylor_data_sums_to_the_closed_forms_near_zero():
    assert _taylor_error(_k_series(8), oracle._dim2_taylor(8)[1]) < 1e-13


def test_taylor_sum_check_sees_a_moved_coefficient():
    _, dcoeffs = oracle._dim2_taylor(8)
    moved = (dcoeffs[0], dcoeffs[1] + Fraction(1, 10**6)) + dcoeffs[2:]
    assert _taylor_error(_k_series(8), moved) > 1e-13


_SIMPLE_POLE = SymbolicFunction(
    {"one": RationalFunction({(0, 0): 1}, [({(1, 0): 1, (0, 0): -1}, 1)])})


def test_ray_taylor_rejects_a_genuine_pole():
    # 1/(s - 1) along s = e^z is 1/z + ...
    with pytest.raises(ArithmeticError, match="genuine pole at z = 0 \\(power -1\\)"):
        oracle._ray_taylor(_SIMPLE_POLE, (1, 0), 4)


def test_ray_taylor_rejects_a_denominator_vanishing_on_the_ray():
    # s - 1 is identically zero along s = e^(0 z)
    with pytest.raises(ZeroDivisionError, match="series division by zero"):
        oracle._ray_taylor(_SIMPLE_POLE, (0, 1), 4)


# ---------------------------------------------------------------------------
# Gauss-Bonnet residual
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "theta",
    [0.0, 1.0 / 3.0, THETA_IRRATIONAL],
    ids=["zero", "rational", "irrational"],
)
def test_gauss_bonnet_residual_vanishes(theta):
    h = line_mode_exponent(0.05)
    residual = gauss_bonnet_residual(h, SkewMatrix.standard_2d(theta))
    assert residual < 1e-6


def test_gauss_bonnet_zero_exponent_is_exact_zero():
    z = FourierElement.zero(2, "float")
    assert gauss_bonnet_residual(z, SkewMatrix.standard_2d(0.3)) == 0.0


def test_gauss_bonnet_truncation_ratio():
    # residual comes from the series tail, so scaling h by eps must shrink it
    # by at least 2*eps^2 (the tail is higher than quadratic in h)
    theta = SkewMatrix.standard_2d(THETA_IRRATIONAL)
    base = line_mode_exponent(0.1)
    r_base = gauss_bonnet_residual(base, theta)
    for eps in (0.5, 0.25):
        r_scaled = gauss_bonnet_residual(base.scaled(eps), theta)
        assert r_scaled <= 2.0 * eps**2 * r_base


def test_gauss_bonnet_order_ladder():
    # truncation error is genuine: a short series leaves a visible residual,
    # a longer one drives it far down
    theta = SkewMatrix.standard_2d(THETA_IRRATIONAL)
    h = line_mode_exponent(0.1)
    r3 = gauss_bonnet_residual(h, theta, series_order=3)
    r6 = gauss_bonnet_residual(h, theta, series_order=6)
    assert 1e-8 < r3 < 1e-3
    assert r6 < r3 / 10.0


def test_gauss_bonnet_two_dimensional_support_nontrivial_phase():
    # four-mode h makes every deformation phase matter; needs a larger
    # support budget because products spread over the whole lattice diamond
    h = cross_mode_exponent(0.04)
    for theta in (1.0 / 3.0, THETA_IRRATIONAL):
        residual = gauss_bonnet_residual(
            h, SkewMatrix.standard_2d(theta), series_order=6, support_cap=400
        )
        assert residual < 1e-8


def test_gauss_bonnet_support_cap_overflow():
    h = cross_mode_exponent(0.04)
    with pytest.raises(SupportOverflowError):
        gauss_bonnet_residual(h, SkewMatrix.standard_2d(1.0 / 3.0))


def test_gauss_bonnet_rejects_negated_two_variable_channel(monkeypatch):
    # flipping the sign of the two-variable channel must break the identity:
    # this is the numeric adjudication of the curvature-gradient sign
    def flipped(order):
        kcoeffs, gcoeffs = reference_dim2_taylor(order)
        return fold_onto_the_curve(kcoeffs, tuple((a, b, -c) for a, b, c in gcoeffs), order)

    monkeypatch.setattr(oracle, "_dim2_taylor", flipped)
    h = line_mode_exponent(0.05)
    residual = gauss_bonnet_residual(h, SkewMatrix.standard_2d(THETA_IRRATIONAL))
    assert residual > 1e-4


@pytest.fixture
def fresh_taylor_data():
    # _dim2_taylor is cached per order: a mutated restriction must be read
    # afresh, and what it gave must not outlive the test
    oracle._dim2_taylor.cache_clear()
    yield
    oracle._dim2_taylor.cache_clear()


# oracle-verify's cross mode at order 6, and the line mode of `verify` and
# the `gauss-bonnet` command at the default order 8
_GB_RUNS = [(cross_mode_exponent, 0.025, 6), (line_mode_exponent, 0.05, 8)]


@pytest.mark.parametrize("make, amplitude, order", _GB_RUNS,
                         ids=["cross-0.025-order-6", "line-0.05-order-8"])
def test_gauss_bonnet_sees_a_curve_restriction_without_its_log_series(
        monkeypatch, fresh_taylor_data, make, amplitude, order):
    # the residual reads G on st = 1 through restriction("st"); without the
    # log terms of L'Hopital's rule the restriction keeps a double pole
    _mutate_on(monkeypatch, _drop_log_series, ("st",))
    with pytest.raises(ArithmeticError,
                       match=re.escape("ray series has a genuine pole at z = 0 (power -2)")):
        gauss_bonnet_residual(make(amplitude), SkewMatrix.standard_2d(1.0 / 3.0),
                              series_order=order, support_cap=500)


@pytest.mark.parametrize("theta", [theta for _, theta in oracle.GB_THETAS],
                         ids=[name for name, _ in oracle.GB_THETAS])
def test_gauss_bonnet_sees_a_curve_restriction_one_factorial_short(
        monkeypatch, fresh_taylor_data, theta):
    _mutate_on(monkeypatch, _one_factorial_short, ("st",))
    for make, amplitude, order in _GB_RUNS:
        residual = gauss_bonnet_residual(make(amplitude), SkewMatrix.standard_2d(theta),
                                         series_order=order, support_cap=500)
        assert residual > 1e-6, (make.__name__, theta, residual)


def test_gauss_bonnet_norm_precondition():
    h = line_mode_exponent(0.05).scaled(4.0)
    with pytest.raises(ValueError, match="norm precondition violated"):
        gauss_bonnet_residual(h, SkewMatrix.standard_2d(0.0))


def test_gauss_bonnet_requires_self_adjoint_exponent():
    h = FourierElement(2, {(1, 0): 0.05 + 0j}, mode="float")
    with pytest.raises(SelfAdjointnessError, match="star"):
        gauss_bonnet_residual(h, SkewMatrix.standard_2d(0.0))


@pytest.mark.parametrize("h", [
    FourierElement(2, {(1, 0): 0.05 + 0j}, mode="float"),
    line_mode_exponent(0.2),
], ids=["not-self-adjoint", "norm-above-0.2"])
def test_gauss_bonnet_exponent_preconditions_are_usage_errors(h):
    with pytest.raises(UsageError):
        gauss_bonnet_residual(h, SkewMatrix.standard_2d(0.0))


@pytest.mark.parametrize("name", ["series_order", "support_cap"])
@pytest.mark.parametrize("value", [8.0, 2.5, True, "8", 0], ids=repr)
def test_gauss_bonnet_order_and_cap_must_be_positive_ints(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an int >= 1, got {re.escape(repr(value))}"):
        gauss_bonnet_residual(line_mode_exponent(0.05), SkewMatrix.standard_2d(0.0),
                              **{name: value})
