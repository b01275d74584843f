"""Algebraic laws and pinned examples for the deformed Fourier algebra."""

import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artifact import numeric_oracle as oracle
from artifact.exactnum import GaussianRational
from artifact.theta_algebra import (
    ExactPhaseError,
    FourierElement,
    RankMismatchError,
    SelfAdjointnessError,
    SkewMatrix,
    chi,
    commutator,
    deformed_product,
    derivation,
    exp_element,
    is_self_adjoint,
    parse_element,
    star,
    trace,
)
from word_forms import format_element

J_HALF = SkewMatrix.standard_2d(Fraction(1, 2))
J_ZERO = SkewMatrix.zero(2)

indices = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
gauss = st.builds(GaussianRational, fractions, fractions)
exact_elements = st.dictionaries(indices, gauss, min_size=1, max_size=8).map(
    lambda c: FourierElement(2, c, "exact")
)
floats = st.floats(-2.0, 2.0)
float_elements = st.dictionaries(
    indices, st.builds(complex, floats, floats), min_size=1, max_size=8
).map(lambda c: FourierElement(2, c, "float"))
exact_thetas = st.sampled_from(
    [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-1, 2), Fraction(2)]
).map(SkewMatrix.standard_2d)
float_thetas = st.floats(-1.0, 1.0).map(SkewMatrix.standard_2d)


def coeff_close(a: FourierElement, b: FourierElement, tol: float) -> bool:
    keys = set(a.coeffs) | set(b.coeffs)
    return all(
        abs(complex(a.coeffs.get(k, 0j)) - complex(b.coeffs.get(k, 0j))) <= tol
        for k in keys
    )


# --------------------------------------------------------------------------
# deformation matrix


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_deformation_matrix_entries_must_be_finite(bad):
    # inf == -(-inf), so an infinite entry passes the skew test; every phase
    # would then be NaN and the products silently empty
    with pytest.raises(ValueError, match="entries must be finite"):
        SkewMatrix.standard_2d(bad)
    with pytest.raises(ValueError, match="entries must be finite"):
        SkewMatrix(3, ((0.0, 0.0, bad), (0.0, 0.0, 0.0), (-bad, 0.0, 0.0)))


def test_deformation_matrix_still_rejects_a_non_skew_entry():
    with pytest.raises(ValueError, match="skew-symmetric"):
        SkewMatrix(2, ((0.0, 0.5), (0.5, 0.0)))


# --------------------------------------------------------------------------
# bi-character


def test_chi_zero_deformation_is_one():
    for r, l in [((1, 0), (0, 1)), ((2, -3), (1, 1)), ((0, 0), (5, 5))]:
        assert chi(J_ZERO, r, l, exact=True) == GaussianRational(1, 0)


def test_chi_standard_pairing_value():
    # <(1,0), Theta (0,1)> = theta, so the phase is e^{pi i theta}
    val = chi(SkewMatrix.standard_2d(0.25), (1, 0), (0, 1))
    assert abs(complex(val) - cmath.exp(0.25j * math.pi)) < 1e-15
    assert chi(J_HALF, (1, 0), (0, 1), exact=True) == GaussianRational(0, 1)  # e^{i pi/2}


@given(r=indices, l=indices, th=float_thetas)
@settings(deadline=None)
def test_chi_skew_conjugate_symmetry(r, l, th):
    # skew-symmetry gives chi(r, l) = conj(chi(l, r)), i.e. their product is 1
    assert abs(complex(chi(th, r, l)) * complex(chi(th, l, r)) - 1) < 1e-12


def test_chi_rank_mismatch_rejected():
    with pytest.raises(RankMismatchError):
        chi(J_HALF, (1, 0, 0), (0, 1))


def test_chi_exact_mode_needs_half_integer_phase():
    with pytest.raises(ExactPhaseError):
        chi(SkewMatrix.standard_2d(Fraction(1, 3)), (1, 0), (0, 1), exact=True)


# --------------------------------------------------------------------------
# product


def test_zero_theta_product_is_plain_convolution():
    a = FourierElement(2, {(1, 0): GaussianRational(2, 0), (0, 1): GaussianRational(0, 1)})
    b = FourierElement(2, {(1, 0): GaussianRational(1, 0), (-1, 0): GaussianRational(3, 0)})
    prod = deformed_product(a, b, J_ZERO)
    expected = {
        (2, 0): GaussianRational(2, 0),
        (0, 0): GaussianRational(6, 0),
        (1, 1): GaussianRational(0, 1),
        (-1, 1): GaussianRational(0, 3),
    }
    assert prod.coeffs == expected


def test_generator_exchange_phase():
    # e1 x e2 = e^{2 pi i theta} e2 x e1 for the standard skew matrix
    theta = 0.3
    th = SkewMatrix.standard_2d(theta)
    e1 = FourierElement.generator(2, 1, mode="float")
    e2 = FourierElement.generator(2, 2, mode="float")
    ab = deformed_product(e1, e2, th).coeffs[(1, 1)]
    ba = deformed_product(e2, e1, th).coeffs[(1, 1)]
    assert abs(ab / ba - cmath.exp(2j * math.pi * theta)) < 1e-14


@given(a=exact_elements, b=exact_elements, c=exact_elements, th=exact_thetas)
@settings(deadline=None, max_examples=60)
def test_associativity_exact(a, b, c, th):
    lhs = deformed_product(deformed_product(a, b, th), c, th)
    rhs = deformed_product(a, deformed_product(b, c, th), th)
    assert lhs == rhs


@given(a=float_elements, b=float_elements, c=float_elements, th=float_thetas)
@settings(deadline=None, max_examples=60)
def test_associativity_float(a, b, c, th):
    lhs = deformed_product(deformed_product(a, b, th), c, th)
    rhs = deformed_product(a, deformed_product(b, c, th), th)
    assert coeff_close(lhs, rhs, 1e-12)


def test_product_rank_mismatch_rejected():
    a = FourierElement.unit(2)
    b = FourierElement.unit(3)
    with pytest.raises(RankMismatchError):
        deformed_product(a, b, J_ZERO)


# --------------------------------------------------------------------------
# star and trace


def test_star_of_generator():
    e1 = FourierElement.generator(2, 1)
    assert star(e1).coeffs == {(-1, 0): GaussianRational(1, 0)}


@given(a=exact_elements)
@settings(deadline=None)
def test_star_is_involution(a):
    assert star(star(a)) == a


@given(a=exact_elements, b=exact_elements, th=exact_thetas)
@settings(deadline=None, max_examples=60)
def test_star_antihomomorphism_exact(a, b, th):
    assert star(deformed_product(a, b, th)) == deformed_product(star(b), star(a), th)


def test_trace_of_generator_vanishes():
    assert trace(FourierElement.generator(2, 1)) == GaussianRational(0, 0)


@given(a=exact_elements, b=exact_elements, th=exact_thetas)
@settings(deadline=None, max_examples=60)
def test_trace_commutes_and_matches_undeformed(a, b, th):
    tab = trace(deformed_product(a, b, th))
    tba = trace(deformed_product(b, a, th))
    undeformed = trace(deformed_product(a, b, J_ZERO))
    assert tab == tba == undeformed


# --------------------------------------------------------------------------
# derivations


def test_derivation_of_generator_and_unit():
    e1 = FourierElement.generator(2, 1, mode="float")
    d = derivation(e1, 1)
    assert abs(d.coeffs[(1, 0)] - 2j * math.pi) < 1e-15
    assert derivation(FourierElement.unit(2), 1).coeffs == {}


def test_derivation_axis_out_of_range():
    with pytest.raises(ValueError):
        derivation(FourierElement.unit(2), 3)


@given(a=float_elements, b=float_elements, th=float_thetas,
       j=st.sampled_from([1, 2]))
@settings(deadline=None, max_examples=60)
def test_derivation_leibniz(a, b, th, j):
    lhs = derivation(deformed_product(a, b, th), j)
    rhs = deformed_product(derivation(a, j), b, th) + deformed_product(
        a, derivation(b, j), th
    )
    assert coeff_close(lhs, rhs, 1e-10)


@given(a=float_elements, j=st.sampled_from([1, 2]))
@settings(deadline=None)
def test_derivation_commutes_with_star(a, j):
    assert coeff_close(derivation(star(a), j), star(derivation(a, j)), 1e-12)


# --------------------------------------------------------------------------
# exponential


def test_exp_of_zero_is_unit():
    assert exp_element(FourierElement.zero(2), J_HALF, 5) == FourierElement.unit(2)


def test_exp_of_scalar_is_truncated_series():
    c = Fraction(1, 2)
    h = FourierElement(2, {(0, 0): GaussianRational(c, 0)})
    got = exp_element(h, J_HALF, 6)
    expected = sum(Fraction(c**n, math.factorial(n)) for n in range(7))
    assert got.coeffs == {(0, 0): GaussianRational(expected, 0)}


def test_exp_times_exp_of_negative_is_unit_within_tail():
    h = FourierElement(
        2, {(1, 0): 0.05 + 0j, (-1, 0): 0.05 + 0j, (0, 0): 0.02 + 0j}, mode="float"
    )
    th = SkewMatrix.standard_2d(0.37)
    order = 8
    k = exp_element(h, th, order)
    kinv = exp_element(h.scaled(-1.0), th, order)
    resid = deformed_product(k, kinv, th) - FourierElement.unit(2, "float")
    tail = h.l1_norm() ** (order + 1) / math.factorial(order + 1)
    assert resid.l1_norm() <= 10 * max(tail, 1e-15)


@pytest.mark.parametrize("order", [0, -1, True, 2.0, "2", None], ids=repr)
def test_exp_order_must_be_an_int_of_at_least_one(order):
    # True ran order 1 and 2.0 died with a TypeError inside range()
    h = FourierElement(2, {(1, 0): 0.05 + 0j, (-1, 0): 0.05 + 0j}, mode="float")
    with pytest.raises(ValueError, match=re.escape(f"order must be an int >= 1, got {order!r}")):
        exp_element(h, J_HALF, order)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("factors", [(0.5,), (1, -1.0), (True,), (1, "2")], ids=repr)
def test_exp_factors_must_be_integers(mode, factors):
    # (0.5,) ran in float mode but failed deep inside the exact product
    one = GaussianRational(1) if mode == "exact" else 1 + 0j
    h = FourierElement(2, {(1, 0): one, (-1, 0): one}, mode=mode)
    with pytest.raises(ValueError, match=re.escape(f"factors must be integers, got {factors!r}")):
        exp_element(h, J_HALF, 3, factors=factors)


def test_exp_rejects_non_self_adjoint():
    h = FourierElement(2, {(1, 0): GaussianRational(1, 0)})
    assert not is_self_adjoint(h)
    with pytest.raises(SelfAdjointnessError):
        exp_element(h, J_HALF, 3)


@given(a=float_elements, b=float_elements, th=float_thetas)
@settings(deadline=None, max_examples=40)
def test_l1_norm_submultiplicative(a, b, th):
    assert deformed_product(a, b, th).l1_norm() <= a.l1_norm() * b.l1_norm() + 1e-12


# --------------------------------------------------------------------------
# text form


def test_text_form_round_trip():
    a = FourierElement(
        2,
        {(1, 0): GaussianRational(Fraction(2, 3), 0),
         (-1, 2): GaussianRational(0, Fraction(-1, 2))},
    )
    assert parse_element(format_element(a), 2) == a
    b = FourierElement(2, {(1, 0): 0.5 + 0.25j, (0, -2): -1.5 + 0j}, mode="float")
    assert parse_element(format_element(b), 2, mode="float") == b


@pytest.mark.parametrize("text, mode, reason", [
    ("1,0 : nan,0", "float", "line 1 is not `r1,...,rn : re,im`: coefficient nan is not finite"),
    ("0,0 : 1,0\n1,0 : 0,inf", "float",
     "line 2 is not `r1,...,rn : re,im`: coefficient inf is not finite"),
    ("1,0 : 1e-400,0", "float",
     "line 1 is not `r1,...,rn : re,im`: coefficient 1e-400 underflows to 0.0"),
    ("1,0 : 0,-1.0E-400", "float",
     "line 1 is not `r1,...,rn : re,im`: coefficient -1.0E-400 underflows to 0.0"),
    ("1,0 : 1/0,0", "exact", "line 1 is not `r1,...,rn : re,im`"),
], ids=["nan", "inf", "underflow", "negative-underflow", "division-by-zero"])
def test_parse_rejects_coefficients_it_cannot_represent(text, mode, reason):
    with pytest.raises(ValueError) as err:
        parse_element(text, 2, mode=mode)
    assert str(err.value).startswith(reason)


@pytest.mark.parametrize("text, mode", [
    ("1,0 : 1/20,0\n-1,0 : 1/20,0\n1, 0 : 1/100,0", "exact"),
    ("1,0 : 0.05,0\n-1,0 : 0.05,0\n1, 0 : 0.01,0", "float"),
], ids=["exact", "float"])
def test_parse_rejects_a_repeated_mode(text, mode):
    # the multi-index is compared after parsing, so spacing does not hide it
    with pytest.raises(ValueError) as err:
        parse_element(text, 2, mode=mode)
    assert str(err.value) == "line 3 repeats the mode 1,0 of line 1"


def test_parse_keeps_zero_literals_and_subnormals():
    x = parse_element("1,0 : 0.0e-400,5e-324\n0,1 : -0,1e-300", 2, mode="float")
    assert x.coeffs == {(1, 0): complex(0.0, 5e-324), (0, 1): complex(0.0, 1e-300)}


# --------------------------------------------------------------------------
# canonical form: the public constructor checks outside data, and every
# operation returns keys of int, no zero coefficient and the mode's type

COEFF_TYPE = {"exact": GaussianRational, "float": complex}

operands = st.one_of(
    st.tuples(st.just("exact"), exact_elements, exact_elements, exact_thetas,
              st.one_of(gauss, st.integers(-3, 3), fractions)),
    st.tuples(st.just("float"), float_elements, float_elements, float_thetas,
              st.one_of(st.builds(complex, floats, floats), gauss)),
)


def assert_canonical(x: FourierElement, mode: str) -> None:
    assert x.mode == mode
    for idx, c in x.coeffs.items():
        assert type(idx) is tuple and len(idx) == x.n
        assert all(type(v) is int for v in idx)
        assert c and type(c) is COEFF_TYPE[mode]
    assert x == FourierElement(x.n, x.coeffs, mode)


@given(case=operands, j=st.sampled_from([1, 2]))
@settings(deadline=None, max_examples=60)
def test_operations_return_canonical_elements(case, j):
    mode, a, b, th, c = case
    h = (a + star(a)).scaled(Fraction(1, 20))  # self-adjoint
    results = [a + b, a - a, a.scaled(0), a.scaled(c), deformed_product(a, b, th),
               commutator(a, b, th),
               star(a), derivation(a, j), exp_element(h, th, 3)]
    if mode == "float":
        results.append(oracle._prune(deformed_product(a, b, th), 10**6))
    for x in results:
        assert_canonical(x, mode)
    assert (a - a).coeffs == {} and a.scaled(0).coeffs == {}


def test_constructor_checks_rank_coefficient_type_and_mode():
    with pytest.raises(RankMismatchError):
        FourierElement(2, {(1, 0, 0): GaussianRational(1)})
    with pytest.raises(TypeError):
        FourierElement(2, {(1, 0): 1j})
    with pytest.raises(ValueError):
        FourierElement(2, {}, "double")
    with pytest.raises(ValueError):
        FourierElement.unit(2, "double")
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        with pytest.raises(ValueError, match="finite"):
            FourierElement(2, {(1, 0): bad}, "float")
    x = FourierElement(2, {(np.int64(1), 0): 1.0, (0, 1): 0.0}, "float")
    assert x.coeffs == {(1, 0): 1.0 + 0j}
    assert_canonical(x, "float")
