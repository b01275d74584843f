"""Signature extraction, exact radial integration, closed-form goldens,
report serialization, and numeric evaluation."""

import json
import math
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from artifact.exactnum import RationalFunction
from artifact.modular_function_engine import (
    DivergentIntegralError,
    SignatureError,
    SymbolicFunction,
    UsageError,
    derive_curvature,
    dim2_quadrature_decomposition,
    eval_function,
    extract_signature,
    integrate_dim2,
    integrate_dim_m,
    radial_integral,
)
from artifact.numeric_oracle import quad_r_integral
from sympy_forms import from_sympy, from_sympy_part
from word_forms import parse_expression

S, T = sp.symbols("s t", positive=True)


def sig_of(text: str):
    e = parse_expression(text)
    assert len(e.terms) == 1
    return extract_signature(e.terms[0])


# --------------------------------------------------------------------------
# signature extraction


def test_signature_single_rho_block():
    sig = sig_of("1 * b0^2 * k * HessK[a,b] * b0 * Xi2 * Ginv[a,b]")
    assert sig.b0_exponents == (2, 1)
    assert sig.r_power == 1
    assert sig.modular_shifts == (0,)
    assert sig.k_total == 1
    assert sig.channel == "hess"


def test_signature_crossing_k_gives_monomial_shift():
    sig = sig_of("1 * b0^2 * k * GradK[a] * b0^2 * k * GradK[b] * b0 * Xi2^3 * Ginv[a,b]")
    assert sig.b0_exponents == (2, 2, 1)
    assert sig.r_power == 3
    assert sig.modular_shifts == (1, 0)
    assert sig.k_total == 2


def test_signature_front_loaded_k_has_no_shift():
    sig = sig_of("1 * b0^3 * k^2 * GradK[a] * b0 * GradK[b] * b0 * Xi2^3 * Ginv[a,b]")
    assert sig.b0_exponents == (3, 1, 1)
    assert sig.r_power == 3  # exponent law p+q+l-2, not the slot count
    assert sig.modular_shifts == (0, 0)


def test_signature_inverse_crossing_gives_negative_shift():
    sig = sig_of("-1 * b0 * GradK[a] * kinv * GradK[b] * b0 * Ginv[a,b]")
    assert sig.b0_exponents == (1, 0, 1)
    assert sig.r_power == 0
    assert sig.modular_shifts == (-1, 0)
    assert sig.k_total == -1
    assert sig.prefactor == Fraction(-1)


def test_signature_scalar_channel():
    sig = sig_of("1/3 * b0^3 * k^2 * Xi2 * SDelta")
    assert sig.b0_exponents == (3,)
    assert sig.channel == "scalar"
    assert sig.modular_shifts == ()


def test_signature_rejects_imaginary_coefficient():
    e = parse_expression("1*i * b0^3 * k^2 * Xi2 * SDelta")
    with pytest.raises(SignatureError):
        extract_signature(e.terms[0])


def test_signature_rejects_three_rho_factors():
    e = parse_expression(
        "1 * b0 * GradK[a] * b0 * GradK[b] * b0 * GradK[c] * b0 "
        "* DXi2[a] * DXi2[b] * DXi2[c]"
    )
    with pytest.raises(SignatureError):
        extract_signature(e.terms[0])


def test_signature_rejects_scalar_atom_beside_a_curvature_factor():
    e = parse_expression("1 * b0^2 * k * HessK[a,b] * b0 * Ginv[a,b] * SDelta")
    with pytest.raises(SignatureError, match="scalar atom mixed with curvature factors"):
        extract_signature(e.terms[0])


def test_signature_rejects_unaveraged_vertical_atoms():
    e = parse_expression("1 * b0^2 * k * HessK[a,b] * b0 * Xi2 * DXi2[a] * DXi2[b]")
    with pytest.raises(SignatureError):
        extract_signature(e.terms[0])


# --------------------------------------------------------------------------
# dim-2 radial integration


def test_log_family_value():
    f = radial_integral((1, 1), 2)
    assert sp.simplify(f.parts["log_s"] - 1 / (S - 1)) == 0
    assert sp.simplify(f.parts["one"]) == 0
    assert sp.simplify(f.parts["log_st"]) == 0
    # s -> 1 specialization integrates (r+1)^{-2} to 1
    assert abs(eval_function(f, 1.0) - 1.0) < 1e-10


def test_beta_family_value():
    f = radial_integral((2, 1), 2)
    assert abs(eval_function(f, 1.0) - 0.5) < 1e-10


def test_divergent_family_rejected():
    with pytest.raises(DivergentIntegralError):
        radial_integral((1, 0), 2)


def test_negative_exponent_rejected():
    with pytest.raises(SignatureError):
        radial_integral((3, -1), 2)


def test_every_dim2_piece_matches_quadrature_at_random_points():
    rng = np.random.default_rng(11)
    pieces = dim2_quadrature_decomposition("K") + dim2_quadrature_decomposition("G")
    assert len(pieces) >= 5
    for exps, coeff, shifts in pieces:
        f = radial_integral(exps, 2)
        for _ in range(25):
            s = float(rng.uniform(0.05, 20.0))
            t = float(rng.uniform(0.05, 20.0)) if len(exps) == 3 else 1.0
            closed = eval_function(f, s, t)
            quad = quad_r_integral(exps, s, t)
            assert abs(closed - quad) <= 1e-9 * max(1.0, abs(quad)), (exps, s, t)


def test_integrate_folds_prefactor_shift_and_half_measure():
    sig = sig_of("1 * b0^2 * k * GradK[a] * b0^2 * k * GradK[b] * b0 * Xi2^3 * Ginv[a,b]")
    value = integrate_dim2(sig)
    raw = radial_integral((2, 2, 1), 2)
    s, t = 1.7, 0.6
    assert abs(eval_function(value, s, t)
               - 0.5 * s * eval_function(raw, s, t)) < 1e-12


# --------------------------------------------------------------------------
# dim >= 4 radial integration


def test_dim4_family_values():
    assert radial_integral((3, 1), 4) == from_sympy({"one": 1 / S})
    assert radial_integral((1, 1), 4) == from_sympy({"one": 1 / S})
    assert radial_integral((2, 2, 1), 4) == from_sympy({"one": 1 / (S**3 * T)})


def test_dim6_derivative_oracle():
    val = radial_integral((2, 1), 6)
    assert val.parts["log_s"] == 0 and val.parts["log_st"] == 0
    assert sp.simplify(val.parts["one"].subs(S, 1)) == 3


def test_integrate_dim_m_requires_even_dimension():
    sig = sig_of("1 * b0^2 * k * HessK[a,b] * b0 * Xi2 * Ginv[a,b]")
    assert integrate_dim_m(sig, 2) == integrate_dim2(sig)
    with pytest.raises(ValueError):
        integrate_dim_m(sig, 5)
    with pytest.raises(ValueError):
        integrate_dim_m(sig, 0)


@pytest.mark.parametrize("m", [4.0, "4", None], ids=["float", "str", "none"])
def test_a_non_integer_dimension_is_a_usage_error(m):
    # read by operator.index, as the family exponents are: 4.0 used to reach
    # comb() as a TypeError and sphere_average as a plain ValueError
    with pytest.raises(UsageError, match=re.escape(
            f"the radial families need even m >= 2, got {m!r}")):
        radial_integral((2, 1), m)
    with pytest.raises(UsageError, match=re.escape(
            f"dimension must be an even integer >= 2, got {m!r}")):
        derive_curvature(m, "kdelta")


def test_an_integer_like_dimension_is_read_as_an_int():
    report = derive_curvature(np.int64(2), "kdelta")
    assert type(report.dim) is int and report == derive_curvature(2, "kdelta")
    assert radial_integral((2, 1), np.int64(4)) == radial_integral((2, 1), 4)


@pytest.mark.parametrize("curve", ["x", "S", None, ""])
def test_restriction_names_its_three_curves(curve):
    f = derive_curvature(2, "kdelta").G
    with pytest.raises(ValueError, match=re.escape(
            f"curve must be 's', 't' or 'st', got {curve!r}")):
        f.restriction(curve)


def test_scalar_limit_ladder():
    # F(1) = (m/2)!/4: phi_m is convex, so the ladder is positive at every even m
    expected = {2: 0.25, 4: 0.5, 6: 1.5, 8: 6.0}
    for m, want in expected.items():
        f = radial_integral((2, 1), m).scaled(Fraction(1, 2))
        assert abs(eval_function(f, 1.0) - want) < 1e-10


# --------------------------------------------------------------------------
# derived reports


def test_dim2_one_variable_closed_form():
    report = derive_curvature(2, "kdelta")
    assert report.K.render() == "(-2*s + (s + 1)*log(s) + 2) / (2*(s - 1)^3)"


def test_dim2_two_variable_closed_form_parts():
    # minus the commonly tabulated closed form, the sign for which the
    # Gauss-Bonnet residual vanishes (see the report note and the oracle test)
    report = derive_curvature(2, "kdelta")
    d = (S - 1) ** 2 * S * (T - 1) ** 2 * (S * T - 1) ** 3
    want = {
        "log_s": -((S * T - 1) ** 3) / d,
        "one": (S - 1) * (T - 1) * (S * (T - 2) + 1) * (S * T - 1) / d,
        "log_st": (S - 1) ** 2 * (S * T * (2 * T - 1) - 1) / d,
    }
    for tag, expr in want.items():
        assert sp.simplify(report.G.parts[tag] - expr) == 0


def test_dim2_functions_satisfy_limit_relation():
    # the two-variable channel at the diagonal corner must offset the
    # one-variable limit for the flat total-curvature identity to hold
    report = derive_curvature(2, "kdelta")
    k1 = eval_function(report.K, 1.0)
    g11 = eval_function(report.G, 1.0, 1.0)
    assert abs(k1 - 1.0 / 12.0) < 1e-8
    assert abs(g11 + 1.0 / 12.0) < 1e-8


def test_dim4_channels_vanish_exactly():
    report = derive_curvature(4, "kdelta")
    assert report.K.is_zero()
    assert report.G.is_zero()
    assert report.c_scalar == Fraction(1, 12)


def test_dim4_scalar_normalization_chain():
    report = derive_curvature(4, "kdelta")
    rec = dict(report.normalization)
    vol_coeff = Fraction(rec["sphere_volume_coeff"])
    pi_power = int(rec["sphere_volume_pi_power"])
    # c * Vol(S^3) * (2 pi)^-4 = (1/96) pi^-2 = (4 pi)^-2 / 6
    coeff = report.c_scalar * vol_coeff * Fraction(1, 2**4)
    assert (coeff, pi_power - 4) == (Fraction(1, 96), -2)
    assert Fraction(1, 96) == Fraction(1, 6) * Fraction(1, 16)


def test_dim6_closed_forms():
    report = derive_curvature(6, "kdelta")
    assert report.K.render() == "(-1) / (6*s^2)"
    assert report.G.render() == "(1) / (3*s^3*t^2)"
    assert report.c_scalar == Fraction(1, 6)


def test_nc4tori_closed_forms_and_notes():
    report = derive_curvature(4, "nc4tori")
    assert report.K.render() == "(-3) / (4*s)"
    assert report.G.render() == "(-3) / (8*s^2*t)"
    assert report.c_scalar == Fraction(1, 12)
    joined = " ".join(report.notes)
    assert "1/(4*s)" in joined  # discrepancy with tabulated magnitude recorded
    assert "-1/(8*s^2*t)" in joined
    assert "recorded" in joined


GOLDEN = Path(__file__).parent / "golden"


def test_reports_match_golden_json_byte_for_byte():
    for m, operator in [(2, "kdelta"), (4, "kdelta"), (6, "kdelta"), (4, "nc4tori"),
                        (8, "kdelta")]:
        want = (GOLDEN / f"{operator}-{m}.json").read_text()
        assert derive_curvature(m, operator).to_json() == want, (m, operator)


def test_k_prefactor_power_pattern():
    for m, operator in [(2, "kdelta"), (4, "kdelta"), (6, "kdelta"), (4, "nc4tori")]:
        report = derive_curvature(m, operator)
        powers = dict(report.k_powers)
        assert powers == {
            "hess": -m // 2,
            "gradgrad": -m // 2 - 1,
            "scalar": -m // 2 + 1,
        }


def test_operator_validation():
    with pytest.raises(ValueError):
        derive_curvature(3, "kdelta")
    with pytest.raises(ValueError):
        derive_curvature(2, "nc4tori")
    with pytest.raises(ValueError):
        derive_curvature(4, "unknown")


# --------------------------------------------------------------------------
# serialization


def test_json_report_is_deterministic_and_parseable():
    a = derive_curvature(2, "kdelta").to_json()
    b = derive_curvature(2, "kdelta").to_json()
    assert a == b
    doc = json.loads(a)
    assert list(doc) == ["dim", "operator", "normalization", "k_powers", "K", "G",
                         "c_scalar", "notes"]
    assert doc["dim"] == 2
    assert doc["K"]["render"].startswith("(-2*s")


def test_text_report_mentions_all_channels():
    text = derive_curvature(4, "nc4tori").to_text()
    assert "modular curvature report" in text
    assert "K(s)" in text and "G(s,t)" in text and "c_scalar" in text


# --------------------------------------------------------------------------
# numeric evaluation


def test_eval_away_from_singular_set():
    report = derive_curvature(2, "kdelta")
    want = (3 * math.log(2) - 2) / 2
    assert abs(eval_function(report.K, 2.0) - want) < 1e-12


def test_eval_limit_fills_the_diagonal():
    report = derive_curvature(2, "kdelta")
    for s, t in [(1.0, 1.0), (1.0, 2.0), (2.0, 0.5), (0.5, 2.0)]:
        direct = eval_function(report.G, s, t)
        nudged = eval_function(report.G, s * (1 + 3e-7), t * (1 + 3e-7))
        assert abs(direct - nudged) < 1e-6


def test_eval_dim2_G_corner_is_exact():
    # the limit at (1, 1) cancels a seventh-order pole; at 60 digits it
    # returned -0.08333333333333767
    report = derive_curvature(2, "kdelta")
    assert eval_function(report.G, 1.0, 1.0) == -1.0 / 12.0


REPORTS = [(2, "kdelta"), (4, "kdelta"), (6, "kdelta"), (8, "kdelta"), (4, "nc4tori")]
BELOW, ABOVE = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)


@pytest.mark.parametrize("dim, operator", REPORTS)
@pytest.mark.parametrize("which", ["K", "G"])
def test_eval_is_continuous_across_the_lines_s_1_and_t_1(dim, operator, which):
    # exactly on the line the restriction is evaluated, one ulp off it the
    # Neville limit: the two routes must meet
    f = getattr(derive_curvature(dim, operator), which)
    for y in (0.3, 1.7, 6.0):
        on = eval_function(f, 1.0, y)
        for off in (BELOW, ABOVE):
            assert math.isclose(eval_function(f, off, y), on, rel_tol=1e-13), (off, y)
        if which == "G":
            on = eval_function(f, y, 1.0)
            for off in (BELOW, ABOVE):
                assert math.isclose(eval_function(f, y, off), on, rel_tol=1e-13), (y, off)


@pytest.mark.parametrize("dim, operator", REPORTS)
def test_eval_is_continuous_across_the_curve_st_1(dim, operator):
    # exactly on st = 1 the curve restriction is evaluated, one ulp of t off
    # it the Neville limit
    f = derive_curvature(dim, operator).G
    for j in (-5, -2, -1, 1, 3, 6):
        s, t = 2.0**j, 2.0**-j
        on = eval_function(f, s, t)
        for off in (math.nextafter(t, 0.0), math.nextafter(t, math.inf)):
            assert math.isclose(eval_function(f, s, off), on, rel_tol=1e-13), (s, off)


RING_ERROR = re.escape("a part's denominator takes only the factors s, t, s - 1, t - 1 and st - 1")


@pytest.mark.parametrize("build", [
    lambda: from_sympy({"one": 1 / (4 * S**2 + 4 * S * T**2 + 2 * S + 2 * T**2),
                        "log_st": (S + T) / (S * T - 1)}),
    lambda: radial_integral((1, 1), 2).scaled(
        from_sympy_part(1 / (4 * S**2 + 4 * S * T**2 + 2 * S + 2 * T**2))),
], ids=["part", "factor"])
def test_a_denominator_factor_outside_the_ring_is_a_value_error(build):
    # on st = 1 this factor splits, as 2(2s+1)(s+1)(s^2-s+1)/s^2; the divided
    # differences never divide by anything but s, t and the node gaps
    with pytest.raises(ValueError, match=RING_ERROR):
        build()


def test_every_engine_function_and_restriction_lies_in_the_ring():
    # SymbolicFunction rejects any other denominator factor, so building
    # these is the check; every restriction is t-free and exact at (1, 1)
    functions = [getattr(derive_curvature(m, "kdelta"), which)
                 for m in range(2, 13, 2) for which in "KG"]
    nc4tori = derive_curvature(4, "nc4tori")
    functions += [nc4tori.K, nc4tori.G]
    functions += [radial_integral(e, m) for m in range(2, 9, 2) for k in (1, 2, 3)
                  for e in product(range(7), repeat=k) if 2 <= sum(e) <= 6]
    for f in functions:
        for curve in ("s", "t", "st"):
            restricted = f.restriction(curve)
            assert not restricted.uses_t()
            restricted.restriction("s").constant_value()


@pytest.mark.parametrize("dim, operator", REPORTS)
@pytest.mark.parametrize("which", ["K", "G"])
def test_eval_at_the_corner_is_the_double_restriction(dim, operator, which):
    f = getattr(derive_curvature(dim, operator), which)
    corner = f.restriction("s").restriction("s").constant_value()
    assert eval_function(f, 1.0, 1.0) == float(corner)
    if f.uses_t():
        assert f.restriction("t").restriction("s").constant_value() == corner
    if dim == 2:
        assert corner == (Fraction(1, 12) if which == "K" else Fraction(-1, 12))


def test_eval_of_t_free_function_ignores_t(monkeypatch):
    # K does not depend on t, so t = 1 is not on its removable set
    report = derive_curvature(2, "kdelta")
    calls = []
    original = SymbolicFunction._eval_mp

    def counting(self, sv, tv):
        calls.append((sv, tv))
        return original(self, sv, tv)

    monkeypatch.setattr(SymbolicFunction, "_eval_mp", counting)
    at_one = eval_function(report.K, 2.3, 1.0)
    assert len(calls) == 1
    assert at_one == eval_function(report.K, 2.3, 1.5)


def test_eval_rejects_nonpositive_arguments():
    report = derive_curvature(2, "kdelta")
    with pytest.raises(ValueError):
        eval_function(report.K, 0.0)
    with pytest.raises(ValueError):
        eval_function(report.G, 1.0, -2.0)


@pytest.mark.parametrize("s, t", [(math.nan, 1.0), (math.inf, 1.0), (2.0, math.nan),
                                  (2.0, math.inf), (2.0, -math.inf)])
def test_eval_rejects_non_finite_arguments(s, t):
    report = derive_curvature(2, "kdelta")
    with pytest.raises(UsageError, match="0 < s < inf and 0 < t < inf"):
        eval_function(report.G, s, t)


def test_eval_outside_the_float64_range_is_a_usage_error():
    # dim-6 K is -1/(6 s^2) + O(1/s) at small s: about -1.7e619 at 1e-310
    k = derive_curvature(6, "kdelta").K
    with pytest.raises(UsageError, match=re.escape(
            "the value at s = 1e-310, t = 1.0 lies outside the float64 range")):
        eval_function(k, 1e-310)
    assert math.isclose(eval_function(k, 1e-100), -1 / (6 * 1e-100**2), rel_tol=1e-12)


def test_symbolic_function_equality_and_zero():
    f = radial_integral((1, 1), 2)
    g = from_sympy({"log_s": sp.Rational(1, 1) / (S - 1)})
    assert f == g
    assert (f - g).is_zero()
    assert not f.is_zero()


@pytest.mark.parametrize("part", [sp.log(S), sp.sqrt(S), 0.5 * S, sp.I * S, S / 0,
                                  sp.Symbol("s"), T / (S + 2 * sp.Symbol("t"))],
                         ids=["log", "sqrt", "float", "imaginary", "zoo", "symbol",
                              "symbol-in-denominator"])
def test_sympy_part_outside_rational_functions_is_a_value_error(part):
    with pytest.raises(ValueError) as info:
        from_sympy({"log_s": part})
    assert str(info.value) == (f"{part}: parts must be rational functions with rational "
                               "coefficients in the positive symbols s, t")
    # a rational function in the ring keeps working; one outside it is the
    # named error
    g = from_sympy({"log_s": (S + 2 * T) / (S * (S * T - 1))})
    assert g.parts["log_s"] == (S + 2 * T) / (S**2 * T - S)
    with pytest.raises(ValueError, match=RING_ERROR):
        from_sympy({"log_s": (3 * S - 2) / (S + 2 * T)})


@pytest.mark.parametrize("build", [lambda: SymbolicFunction({"one": S}),
                                   lambda: radial_integral((1, 1), 2).scaled(S)],
                         ids=["part", "factor"])
def test_sympy_input_is_a_type_error_naming_the_helper(build):
    with pytest.raises(TypeError, match="tests/sympy_forms.py"):
        build()


def test_fraction_terms_read_each_part_exactly():
    g = derive_curvature(2, "kdelta").G
    for tag, (num, den) in g.fraction_terms().items():
        assert all(isinstance(c, Fraction) for _, c in num + den)
        expr = [sp.Add(*(sp.Rational(c.numerator, c.denominator) * S**i * T**j
                         for (i, j), c in terms)) for terms in (num, den)]
        assert sp.simplify(expr[0] / expr[1] - g.parts[tag]) == 0
    assert SymbolicFunction({}).fraction_terms()["one"][0] == ()


# random parts built from factors that vanish on the removable set, so that
# numerators and denominators share factors and the canonical form matters:
# a SymbolicFunction's denominators come from the ring, a bare
# RationalFunction's from the whole family
_RING = (S, T, S - 1, T - 1, S * T - 1)
_FACTORS = _RING + (S + 2 * T, 3 * S - 2)
_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6).map(
    lambda q: sp.Rational(q.numerator, q.denominator))


def _products(factors):
    return st.lists(st.sampled_from(factors), max_size=3).map(lambda fs: sp.Mul(*fs))


def _parts(denominators):
    terms = st.builds(lambda c, n, d: c * n / d, _coeffs, _products(_FACTORS),
                      _products(denominators))
    return st.fixed_dictionaries({tag: st.lists(terms, max_size=3).map(lambda ts: sp.Add(*ts))
                                  for tag in ("one", "log_s", "log_st")})


def _canonical(expr) -> str:
    return str(sp.cancel(sp.together(expr)))


def _expr(part: RationalFunction):
    """part as sympy's quotient of its numerator and denominator, the form
    ``SymbolicFunction.parts`` gives."""
    num, den = (sp.Add(*(sp.Rational(c.numerator, c.denominator) * S**i * T**j for (i, j), c in poly.items()))
                for poly in part.fraction())
    return num / den


@given(p=_parts(_RING), q=_parts(_RING), c=_coeffs)
@settings(deadline=None, max_examples=25)
def test_symbolic_function_parts_are_the_cancelled_expressions(p, q, c):
    # the golden reports and the benchmark's references print and re-read
    # these parts, so they must print as sympy's cancel prints
    f, g = from_sympy(p), from_sympy(q)
    for tag in p:
        assert str(f.parts[tag]) == _canonical(p[tag])
        assert str((f + g).parts[tag]) == _canonical(p[tag] + q[tag])
        assert str(f.scaled(from_sympy_part(c)).parts[tag]) == _canonical(c * p[tag])
    assert (f == g) == all(_canonical(p[tag] - q[tag]) == "0" for tag in p)
    rewritten = from_sympy({tag: sp.expand(sp.together(e)) for tag, e in p.items()})
    assert rewritten == f and hash(rewritten) == hash(f)


@given(p=_parts(_FACTORS), q=_parts(_FACTORS), c=_coeffs)
@settings(deadline=None, max_examples=25)
def test_rational_functions_are_the_cancelled_expressions(p, q, c):
    # the same, part by part, with denominators outside the ring
    for tag in p:
        f, g = from_sympy_part(p[tag]), from_sympy_part(q[tag])
        assert str(_expr(f)) == _canonical(p[tag])
        assert str(_expr(f + g)) == _canonical(p[tag] + q[tag])
        assert str(_expr(f * from_sympy_part(c))) == _canonical(c * p[tag])
        assert (f == g) == (_canonical(p[tag] - q[tag]) == "0")
        rewritten = from_sympy_part(sp.expand(sp.together(p[tag])))
        assert rewritten == f and hash(rewritten) == hash(f)


@given(p=_parts(_RING), n=_products(_FACTORS), d=_products(_RING))
@settings(deadline=None, max_examples=25)
def test_products_cancel_to_the_cancelled_expressions(p, n, d):
    # scaling by a rational function cancels its numerator against the
    # parts' factored denominators and the parts' numerators against its own
    f = from_sympy(p).scaled(from_sympy_part(n / d))
    for tag in p:
        assert str(f.parts[tag]) == _canonical(p[tag] * n / d)


@given(p=_parts(_FACTORS), n=_products(_FACTORS), d=_products(_FACTORS))
@settings(deadline=None, max_examples=25)
def test_rational_function_products_cancel_to_the_cancelled_expressions(p, n, d):
    factor = from_sympy_part(n / d)
    for tag in p:
        assert str(_expr(from_sympy_part(p[tag]) * factor)) == _canonical(p[tag] * n / d)
