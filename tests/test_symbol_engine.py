"""Symbol-calculus rules, resolvent recursion goldens, and grammar checks.

The b1/b2 expressions frozen here were cross-validated against an exact
finite-dimensional matrix model of the resolvent recursion (central
differences on a matrix-valued symbol, three seeds, relative error ~1e-20)
before being adopted as goldens.
"""

from fractions import Fraction

import pytest
import sympy as sp

from artifact.exactnum import GaussianRational
from artifact.symbol_engine import (
    Atom,
    MalformedTermError,
    NCExpression,
    NCMonomial,
    SymbolRuleError,
    a_j,
    b0_expression,
    canonicalize,
    homogeneity_degrees,
    nc4tori_lower_symbols,
    parse_expression,
    render_expression,
    resolvent_b,
    standard_p2,
)

KDELTA = {"p2": standard_p2()}

TRUE_B1 = "-i * b0^2 * k * GradK[a] * b0 * Xi2 * DXi2[a]"

TRUE_B2_TERMS = [
    "-1/2 * b0^3 * k^2 * D2Xi2[a,b] * Nabla2Xi2[a,b]",
    "-1/2 * b0^2 * k * HessK[a,b] * b0 * Xi2 * D2Xi2[a,b]",
    "-1/2 * b0^3 * k^2 * DXi2[a] * D2Xi2[b,c] * Nabla3L[a,b,c]",
    "1 * b0^4 * k^3 * DXi2[a] * DXi2[b] * Nabla2Xi2[a,b]",
    "1 * b0^3 * k^2 * HessK[a,b] * b0 * Xi2 * DXi2[a] * DXi2[b]",
    "1 * b0^2 * k * GradK[a] * b0 * GradK[b] * b0 * Xi2 * DXi2[a] * DXi2[b]",
    "1 * b0^2 * k * GradK[a] * b0 * GradK[b] * b0 * Xi2^2 * D2Xi2[a,b]",
    "-2 * b0^3 * k^2 * GradK[a] * b0 * GradK[b] * b0 * Xi2^2 * DXi2[a] * DXi2[b]",
    "-1 * b0^2 * k * GradK[a] * b0^2 * k * GradK[b] * b0 * Xi2^2 * DXi2[a] * DXi2[b]",
]

NC4TORI_B1 = (
    "1/2*i * b0 * GradK[a] * b0 * DXi2[a] + "
    "-i * b0^2 * k * GradK[a] * b0 * Xi2 * DXi2[a]"
)

NC4TORI_B2_TERMS = [
    "-1 * b0 * HessK[a,b] * b0 * Ginv[a,b]",
    "-1 * b0 * GradK[a] * kinv * GradK[b] * b0 * Ginv[a,b]",
    "-1/4 * b0 * GradK[a] * b0 * GradK[b] * b0 * DXi2[a] * DXi2[b]",
    "-1/2 * b0 * GradK[a] * b0 * GradK[b] * b0 * Xi2 * D2Xi2[a,b]",
    "-1/2 * b0^3 * k^2 * D2Xi2[a,b] * Nabla2Xi2[a,b]",
    "-1/2 * b0^2 * k * HessK[a,b] * b0 * DXi2[a] * DXi2[b]",
    "-1/2 * b0^2 * k * HessK[a,b] * b0 * Xi2 * D2Xi2[a,b]",
    "-1/2 * b0^3 * k^2 * DXi2[a] * D2Xi2[b,c] * Nabla3L[a,b,c]",
    "1/2 * b0 * GradK[a] * b0^2 * k * GradK[b] * b0 * Xi2 * DXi2[a] * DXi2[b]",
    "1 * b0^4 * k^3 * DXi2[a] * DXi2[b] * Nabla2Xi2[a,b]",
    "1 * b0^3 * k^2 * HessK[a,b] * b0 * Xi2 * DXi2[a] * DXi2[b]",
    "2 * b0^2 * k * GradK[a] * b0 * GradK[b] * b0 * Xi2 * DXi2[a] * DXi2[b]",
    "1 * b0^2 * k * GradK[a] * b0 * GradK[b] * b0 * Xi2^2 * D2Xi2[a,b]",
    "-2 * b0^3 * k^2 * GradK[a] * b0 * GradK[b] * b0 * Xi2^2 * DXi2[a] * DXi2[b]",
    "-1 * b0^2 * k * GradK[a] * b0^2 * k * GradK[b] * b0 * Xi2^2 * DXi2[a] * DXi2[b]",
]


def terms_of(expr: NCExpression) -> set:
    canon = canonicalize(expr)
    return {render_expression(NCExpression([t])) for t in canon.terms}


# --------------------------------------------------------------------------
# resolvent goldens


def test_b0_is_single_block():
    assert render_expression(canonicalize(b0_expression())) == "1 * b0"


def test_b1_matches_validated_golden():
    b1 = resolvent_b(1, KDELTA)
    assert render_expression(canonicalize(b1)) == TRUE_B1


def test_b2_matches_validated_golden_term_for_term():
    b2 = resolvent_b(2, KDELTA)
    assert terms_of(b2) == set(TRUE_B2_TERMS)


def test_nc4tori_b1_matches_validated_golden():
    b1 = resolvent_b(1, nc4tori_lower_symbols())
    assert render_expression(canonicalize(b1)) == NC4TORI_B1


def test_nc4tori_b2_matches_validated_golden_term_for_term():
    b2 = resolvent_b(2, nc4tori_lower_symbols())
    assert terms_of(b2) == set(NC4TORI_B2_TERMS)


def test_lower_symbols_require_the_standard_leading_word():
    with pytest.raises(ValueError):
        resolvent_b(2, {"p2": standard_p2().scaled(2)})


# --------------------------------------------------------------------------
# flat one-variable composition: an oracle that shares no code with a_j

_X, _XI, _LAM = sp.symbols("x xi lambda")
_K = sp.Function("k")(_X)
_Q = _K * _XI**2 - _LAM


def flat_1d_value(expr: NCExpression) -> sp.Expr:
    """Value of a word sum for p = k(x) xi^2 - lambda on flat R^1, where all
    atoms commute, every index takes the single value 1, and the jets of
    the flat metric and phase vanish."""
    atoms = {
        "b0": 1 / _Q,
        "k": _K,
        "kinv": 1 / _K,
        "GradK": _K.diff(_X),
        "HessK": _K.diff(_X, 2),
        "Xi2": _XI**2,
        "Lambda": _LAM,
        "DXi2": 2 * _XI,
        "D2Xi2": 2,
        "Nabla2Xi2": 0,
        "Nabla3L": 0,
        "Ginv": 1,
    }
    total = 0
    for term in canonicalize(expr).terms:
        value = sp.Rational(term.coeff.re) + sp.I * sp.Rational(term.coeff.im)
        for atom in term.word:
            value *= atoms[atom.kind]
        total += value
    return total


def composition_parametrix(order: int, d_sign: int) -> list:
    """b_0 .. b_order with sigma(B o (P - lambda)) = 1 through that order,
    from the Kohn-Nirenberg product sum_n (1/n!) d_xi^n b * D^n q with
    D = d_sign * i * d_x: b_kappa = -sum_n (1/n!) d_xi^n b_(kappa-n) D^n q / q."""
    bs = [1 / _Q]
    for kappa in range(1, order + 1):
        lower = sum(
            sp.diff(bs[kappa - n], _XI, n)
            * (d_sign * sp.I) ** n
            * sp.diff(_Q, _X, n)
            / sp.factorial(n)
            for n in range(1, kappa + 1)
        )
        bs.append(-lower / _Q)
    return bs


def test_b1_matches_flat_one_variable_composition():
    # a_1 = -i (Dp)(grad q) fixes the convention D = -i d for b1
    b1 = composition_parametrix(1, -1)[1]
    assert sp.simplify(flat_1d_value(resolvent_b(1, KDELTA)) - b1) == 0


@pytest.mark.parametrize("d_sign", [-1, 1], ids=["D=-i*d", "D=+i*d"])
def test_b2_matches_flat_one_variable_composition(d_sign):
    b2 = composition_parametrix(2, d_sign)[2]
    assert sp.simplify(flat_1d_value(resolvent_b(2, KDELTA)) - b2) == 0


def test_flat_composition_rejects_the_tabulated_gradk_sign():
    # the tabulated b2 negates the four GradK.GradK words; their flat value
    # is 6 k k'^2 xi^4 b0^4 - 12 k^2 k'^2 xi^6 b0^5 in the composition
    b2 = canonicalize(resolvent_b(2, KDELTA))
    block = NCExpression(
        t for t in b2.terms if [a.kind for a in t.word].count("GradK") == 2
    )
    assert len(block.terms) == 4
    dk = _K.diff(_X)
    want = 6 * _K * dk**2 * _XI**4 / _Q**4 - 12 * _K**2 * dk**2 * _XI**6 / _Q**5
    assert sp.simplify(flat_1d_value(block) - want) == 0
    tabulated = b2 - block - block
    b2_flat = composition_parametrix(2, -1)[2]
    assert sp.simplify(flat_1d_value(tabulated) - b2_flat) != 0


# --------------------------------------------------------------------------
# gradings


@pytest.mark.parametrize("symbols", [KDELTA, nc4tori_lower_symbols()],
                         ids=["kdelta", "nc4tori"])
@pytest.mark.parametrize("kappa", [0, 1, 2])
def test_homogeneity_grading(symbols, kappa):
    degs = homogeneity_degrees(resolvent_b(kappa, symbols))
    assert degs == {-2 - kappa}


def test_b2_terms_have_even_xi_parity():
    for term in canonicalize(resolvent_b(2, KDELTA)).terms:
        assert term.xi_parity() == 0


# --------------------------------------------------------------------------
# canonicalization


def test_canonicalize_idempotent():
    b2 = resolvent_b(2, nc4tori_lower_symbols())
    once = canonicalize(b2)
    assert canonicalize(once) == once


def test_canonicalize_is_label_invariant():
    e1 = parse_expression("1 * b0^2 * k * GradK[a] * b0 * GradK[b] * b0 * Xi2 * DXi2[a] * DXi2[b]")
    e2 = parse_expression("1 * b0^2 * k * GradK[x] * b0 * GradK[y] * b0 * Xi2 * DXi2[x] * DXi2[y]")
    assert canonicalize(e1) == canonicalize(e2)


def test_sum_with_opposite_coefficients_cancels():
    e = parse_expression("1 * b0 * Xi2") + parse_expression("-1 * b0 * Xi2")
    assert e.is_zero()


# --------------------------------------------------------------------------
# symbol product rules


def test_order_zero_rule_is_plain_product():
    p = parse_expression("1 * GradK[a] * DXi2[a]")
    q = parse_expression("1 * b0")
    got = canonicalize(a_j(0, p, q))
    assert got == canonicalize(parse_expression("1 * GradK[a] * DXi2[a] * b0"))


def test_first_order_rule_produces_mixed_jet():
    # -i (vertical p-derivative) x (horizontal q-derivative): degree drops by
    # one on the vertical side only, so deg(-2) against deg(+2) lands at -1
    got = canonicalize(a_j(1, b0_expression(), standard_p2()))
    assert not got.is_zero()
    assert homogeneity_degrees(got) == {-1}


def test_rule_orders_beyond_two_are_rejected():
    with pytest.raises(NotImplementedError):
        a_j(3, b0_expression(), standard_p2())


def test_horizontal_rule_table_is_closed():
    # HessK has no horizontal rule: a third base derivative of k is never needed
    q = nc4tori_lower_symbols()["p0"]
    with pytest.raises(SymbolRuleError, match="horizontal-derivative rule for atom 'HessK'"):
        a_j(1, b0_expression(), q)


def test_vertical_rule_table_is_closed():
    p = parse_expression("1 * kinv")
    with pytest.raises(SymbolRuleError, match="vertical-derivative rule for atom 'kinv'"):
        a_j(2, p, standard_p2())


# --------------------------------------------------------------------------
# grammar


def test_render_parse_round_trip_b2():
    for symbols in (KDELTA, nc4tori_lower_symbols()):
        canon = canonicalize(resolvent_b(2, symbols))
        again = parse_expression(render_expression(canon))
        assert canonicalize(again) == canon


def test_render_is_deterministic():
    b2a = render_expression(canonicalize(resolvent_b(2, KDELTA)))
    b2b = render_expression(canonicalize(resolvent_b(2, KDELTA)))
    assert b2a == b2b


def test_gaussian_rational_coefficients_render_and_parse():
    e = NCExpression.from_atoms(GaussianRational(Fraction(1, 2), Fraction(-3, 4)),
                                Atom("Xi2", ()))
    assert canonicalize(parse_expression(render_expression(e))) == canonicalize(e)


# --------------------------------------------------------------------------
# malformed input


def test_atom_slot_arity_is_enforced():
    with pytest.raises(MalformedTermError):
        Atom("DXi2", ("a", "b"))
    with pytest.raises(MalformedTermError):
        Atom("HessK", ("a",))


def test_unknown_atom_kind_rejected():
    with pytest.raises((MalformedTermError, SymbolRuleError, KeyError, ValueError)):
        NCExpression.from_atoms(Fraction(1), Atom("Bogus", ()))


def test_unbalanced_contraction_label_rejected():
    term = NCMonomial(GaussianRational(1, 0),
                      (Atom("b0", ()), Atom("DXi2", ("a",)), Atom("DXi2", ("a",)),
                       Atom("DXi2", ("a",))))
    with pytest.raises(MalformedTermError):
        term.validate()
