"""The Gauss-Bonnet residual against the per-coefficient loop it replaced.

``reference_residual`` is the residual with the two-variable channel formed
coefficient by coefficient: every product P_a P_b of the ad-powers
P_a = (-ad_h)^a(d_j k) is built, pruned, scaled by c_ab and summed, and only
the sum is traced against kinv^2.  ``gauss_bonnet_residual`` reads the same
trace by associativity, one product kinv^2 P_a per Taylor row a, so the two
agree to rounding and the new one makes fewer products.
"""

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


def _assert_agree(make, amplitude):
    h = make(amplitude)
    for _, theta in oracle.GB_THETAS:
        skew = SkewMatrix.standard_2d(theta)
        for order in (2, 3, 4):
            got = oracle.gauss_bonnet_residual(h, skew, series_order=order, support_cap=CAP)
            want = reference_residual(h, skew, order)
            assert abs(got - want) <= 1e-15, (theta, order, got, want)


@pytest.mark.parametrize("make, amplitude", EXPONENTS, ids=IDS)
def test_residual_matches_the_per_coefficient_loop(make, amplitude):
    _assert_agree(make, amplitude)


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


def test_one_product_per_taylor_row(monkeypatch):
    calls = []
    product = oracle.deformed_product

    def counted(a, b, theta):
        calls.append(1)
        return product(a, b, theta)

    monkeypatch.setattr(oracle, "deformed_product", counted)
    h, theta = oracle.cross_mode(0.025), SkewMatrix.standard_2d(1.0 / 3.0)
    oracle.gauss_bonnet_residual(h, theta, series_order=6, support_cap=CAP)
    by_rows = len(calls)
    calls.clear()
    reference_residual(h, theta, 6)
    # order 6: 28 coefficients c_ab with a + b <= 6 in 7 rows, per direction
    _, gcoeffs = oracle._dim2_taylor(6)
    assert sum(1 for a, b, _ in gcoeffs if a + b <= 6) == 28
    assert len(calls) - by_rows == 2 * (28 - 7)
