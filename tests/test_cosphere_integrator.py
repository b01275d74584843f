"""Sphere-averaging rules: derived vs pinned constants, parity kills,
frozen channel rows, and error paths."""

from fractions import Fraction

import pytest

from artifact.symbol_engine import (
    Atom,
    NCExpression,
    canonicalize,
    nc4tori_lower_symbols,
    resolvent_b,
    standard_p2,
)
from artifact.cosphere_integrator import (
    SphereRuleError,
    derive_rule_constants,
    pinned_rule_constants,
    sphere_average,
)
from word_forms import parse_expression, render_expression

# engine output for the averaged dim-2 resolvent tail, frozen after the
# constants were re-derived from the Gaussian moment primitive
AVERAGED_M2 = (
    "1/3 * b0^3 * k^2 * Xi2 * SDelta + "
    "-1 * b0^2 * k * HessK[a,b] * b0 * Xi2 * Ginv[a,b] + "
    "2 * b0^3 * k^2 * HessK[a,b] * b0 * Xi2^2 * Ginv[a,b] + "
    "4 * b0^2 * k * GradK[a] * b0 * GradK[b] * b0 * Xi2^2 * Ginv[a,b] + "
    "-4 * b0^3 * k^2 * GradK[a] * b0 * GradK[b] * b0 * Xi2^3 * Ginv[a,b] + "
    "-2 * b0^2 * k * GradK[a] * b0^2 * k * GradK[b] * b0 * Xi2^3 * Ginv[a,b]"
)


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_rule_constants_rederive_from_moments(m):
    assert derive_rule_constants(m) == pinned_rule_constants(m)


def test_rule_constant_values_follow_the_moment_law():
    for m in (2, 4, 6, 8):
        rules = pinned_rule_constants(m)
        assert rules["pair_DXi2"] == Fraction(4, m)
        assert rules["single_D2Xi2"] == Fraction(2)
        assert rules["phase_cluster"] == Fraction(-8, 3 * m)
        assert rules["jet_cluster"] == Fraction(4, 3 * m)
        assert rules["null_cluster"] == Fraction(0)


def test_odd_vertical_parity_averages_to_zero():
    single = parse_expression("1 * b0^2 * k * GradK[a] * b0 * Xi2 * DXi2[a]")
    assert sphere_average(single, 4).is_zero()


def test_base_only_terms_pass_through():
    e = parse_expression("1 * b0 * HessK[a,b] * b0 * Ginv[a,b]")
    assert canonicalize(sphere_average(e, 4)) == canonicalize(e)


def test_averaged_dim2_resolvent_tail_matches_frozen_rows():
    averaged = sphere_average(resolvent_b(2, {"p2": standard_p2()}), 2)
    assert render_expression(canonicalize(averaged)) == AVERAGED_M2


def test_null_cluster_vanishes_for_every_dimension():
    cluster = parse_expression(
        "1 * b0^4 * k^3 * DXi2[a] * DXi2[b] * Nabla2Xi2[a,b]"
    )
    for m in (2, 4, 6, 8):
        assert sphere_average(cluster, m).is_zero()


def test_pair_substitution_produces_metric_contraction():
    pair = parse_expression("1 * b0^3 * k^2 * HessK[a,b] * b0 * Xi2 * DXi2[a] * DXi2[b]")
    got = canonicalize(sphere_average(pair, 4))
    want = canonicalize(parse_expression(
        "1 * b0^3 * k^2 * HessK[a,b] * b0 * Xi2^2 * Ginv[a,b]"
    ))
    assert got == want


def test_uncovered_vertical_cluster_raises():
    quartic = NCExpression.from_atoms(
        Fraction(1),
        Atom("DXi2", ("a",)), Atom("DXi2", ("b",)),
        Atom("DXi2", ("c",)), Atom("DXi2", ("d",)),
    )
    with pytest.raises(SphereRuleError):
        sphere_average(quartic, 4)


def test_odd_dimension_rejected():
    e = parse_expression("1 * b0 * Xi2")
    with pytest.raises(ValueError):
        sphere_average(e, 3)


def test_averaging_nc4tori_b2_keeps_negative_shift_row():
    averaged = sphere_average(resolvent_b(2, nc4tori_lower_symbols()), 4)
    rows = {render_expression(NCExpression([t])) for t in canonicalize(averaged).terms}
    assert "-1 * b0 * GradK[a] * kinv * GradK[b] * b0 * Ginv[a,b]" in rows
