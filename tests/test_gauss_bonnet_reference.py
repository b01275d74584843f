"""The Gauss-Bonnet residual against the per-coefficient loop it replaced.

``reference_residual`` is the residual with both channels formed coefficient
by coefficient: K(Delta)(dd k) is summed over the ad-powers of dd k, and in
the two-variable channel every product P_a P_b of the ad-powers
P_a = (-ad_h)^a(d_j k) is built, pruned, scaled by c_ab and summed, and only
the sum is traced against kinv^2.  ``gauss_bonnet_residual`` reads the same
trace through two identities: kinv and kinv^2 commute with h, and ad_h is
skew for the trace.  So only K(1) and G on st = 1 enter, with one product
kinv^2 d_j k per direction; the two agree to rounding and the new one makes
fewer products.
"""

import math
from fractions import Fraction

import pytest

from artifact import numeric_oracle as oracle
from artifact.theta_algebra import FourierElement, SkewMatrix, derivation, exp_element

CAP = 1000


def reference_residual(h: FourierElement, theta: SkewMatrix, series_order: int,
                       support_cap: int = CAP) -> float:
    prune = oracle._prune
    kcoeffs, gcoeffs = oracle._dim2_taylor(series_order)
    k = prune(exp_element(h, theta, series_order), support_cap)
    kinv = prune(exp_element(h.scaled(-1.0), theta, series_order), support_cap)
    kinv2 = prune(exp_element(h.scaled(-2.0), theta, series_order), support_cap)
    dk = [derivation(k, 1), derivation(k, 2)]
    ddk = derivation(dk[0], 1) + derivation(dk[1], 2)

    def ad_powers(rho):
        powers = [rho]
        for _ in range(series_order):
            powers.append(prune(oracle.deformed_product(powers[-1], h, theta)
                                - oracle.deformed_product(h, powers[-1], theta), support_cap))
        return powers

    powers = ad_powers(ddk)
    k_applied = FourierElement.zero(2, "float")
    for n, c in enumerate(kcoeffs):
        if c:
            k_applied = k_applied + powers[n].scaled(float(c))
    total = oracle._pair_trace(kinv, prune(k_applied, support_cap))

    for j in (0, 1):
        pow_j = ad_powers(dk[j])
        applied = FourierElement.zero(2, "float")
        for a, b, c in gcoeffs:
            if a + b > series_order:
                continue
            prod = prune(oracle.deformed_product(pow_j[a], pow_j[b], theta), support_cap)
            applied = applied + prod.scaled(float(c))
        total += oracle._pair_trace(kinv2, prune(applied, support_cap))
    return abs(total)


EXPONENTS = [(oracle.cos_mode, 0.05), (oracle.cos_mode, 0.1),
             (oracle.cross_mode, 0.025), (oracle.cross_mode, 0.05)]
IDS = [f"{make.__name__}-{amplitude}" for make, amplitude in EXPONENTS]


def _assert_agree(make, amplitude, orders=(2, 3, 4)):
    h = make(amplitude)
    for _, theta in oracle.GB_THETAS:
        skew = SkewMatrix.standard_2d(theta)
        for order in orders:
            got = oracle.gauss_bonnet_residual(h, skew, series_order=order, support_cap=CAP)
            want = reference_residual(h, skew, order)
            assert abs(got - want) <= 1e-15, (theta, order, got, want)


@pytest.mark.parametrize("make, amplitude", EXPONENTS, ids=IDS)
def test_residual_matches_the_per_coefficient_loop(make, amplitude):
    _assert_agree(make, amplitude)


# the configurations that run: oracle-verify's cross mode at order 6, and the
# line mode of `verify` and the `gauss-bonnet` command at the default order 8
RUN_CONFIGS = [(oracle.cross_mode, 0.025, 6), (oracle.cos_mode, 0.05, 8)]


@pytest.mark.parametrize("make, amplitude, order", RUN_CONFIGS,
                         ids=[f"{make.__name__}-{amplitude}-order-{order}"
                              for make, amplitude, order in RUN_CONFIGS])
def test_residual_matches_the_per_coefficient_loop_where_it_runs(make, amplitude, order):
    _assert_agree(make, amplitude, orders=(order,))


@pytest.mark.parametrize("make, amplitude", EXPONENTS, ids=IDS)
def test_residual_matches_the_loop_with_the_two_variable_channel_negated(
        monkeypatch, make, amplitude):
    # with c_ab negated the residual is of order one, so a row mixed up with
    # another or a misplaced factor shows far above rounding
    original = oracle._dim2_taylor

    def negated(order):
        kcoeffs, gcoeffs = original(order)
        return kcoeffs, tuple((a, b, -c) for a, b, c in gcoeffs)

    monkeypatch.setattr(oracle, "_dim2_taylor", negated)
    _assert_agree(make, amplitude)


def _g_plus_curve_multiple(kcoeffs, gcoeffs, order):
    # G + (st - 1)/10: c_ab += 1/(10 a! b!) for a + b >= 1
    table = {(a, b): c for a, b, c in gcoeffs}
    for a in range(order + 1):
        for b in range(order + 1 - a):
            if a + b:
                table[(a, b)] = table.get((a, b), 0) + Fraction(
                    1, 10 * math.factorial(a) * math.factorial(b))
    return kcoeffs, tuple(sorted((a, b, c) for (a, b), c in table.items()))


def _k_plus_one_for_n_from_1(kcoeffs, gcoeffs, order):
    return (kcoeffs[0],) + tuple(c + 1 for c in kcoeffs[1:]), gcoeffs


def _k1_shifted(kcoeffs, gcoeffs, order):
    return (kcoeffs[0] + Fraction(1, 10),) + kcoeffs[1:], gcoeffs


def _c10_shifted(kcoeffs, gcoeffs, order):
    return kcoeffs, tuple((a, b, c + Fraction(1, 10) if (a, b) == (1, 0) else c)
                          for a, b, c in gcoeffs)


@pytest.mark.parametrize("mutate, seen", [
    (_g_plus_curve_multiple, False), (_k_plus_one_for_n_from_1, False),
    (_k1_shifted, True), (_c10_shifted, True),
], ids=["G-plus-(st-1)/10", "K-plus-1-for-n>=1", "K(1)-plus-1/10", "c10-plus-1/10"])
def test_the_trace_sees_K_only_at_1_and_G_only_on_st_1(monkeypatch, mutate, seen):
    # the blind spots belong to the identity, not to the shortcut: the
    # per-coefficient reference misses and catches the same mutations
    h = oracle.cross_mode(0.025)
    skews = [SkewMatrix.standard_2d(theta) for theta in (1.0 / 3.0, 1.0 / math.sqrt(2.0))]
    clean = [reference_residual(h, skew, 6) for skew in skews]
    original = oracle._dim2_taylor
    monkeypatch.setattr(oracle, "_dim2_taylor",
                        lambda order: mutate(*original(order), order))
    for skew, base in zip(skews, clean):
        got = oracle.gauss_bonnet_residual(h, skew, series_order=6, support_cap=CAP)
        want = reference_residual(h, skew, 6)
        for value in (got, want):
            if seen:
                assert value > 1e-6, (skew, value)
            else:
                assert abs(value - base) <= 1e-15, (skew, value, base)


def test_one_product_per_direction(monkeypatch):
    calls = []
    product = oracle.deformed_product

    def counted(a, b, theta):
        calls.append(1)
        return product(a, b, theta)

    monkeypatch.setattr(oracle, "deformed_product", counted)
    h, theta = oracle.cross_mode(0.025), SkewMatrix.standard_2d(1.0 / 3.0)
    oracle.gauss_bonnet_residual(h, theta, series_order=6, support_cap=CAP)
    # order 6: two products per ad-power of d_1 k and d_2 k, and kinv^2 d_j k
    assert len(calls) == 2 * 2 * 6 + 2
    calls.clear()
    reference_residual(h, theta, 6)
    # the ad-powers of dd k, d_1 k and d_2 k, and the 28 coefficients c_ab
    # with a + b <= 6 per direction
    _, gcoeffs = oracle._dim2_taylor(6)
    assert sum(1 for a, b, _ in gcoeffs if a + b <= 6) == 28
    assert len(calls) == 3 * 2 * 6 + 2 * 28 == 92
