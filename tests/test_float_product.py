"""The float deformed product against the pair loop it replaced.

``reference_product`` is the dict loop over all pairs, with phases from
``chi``.  The array product must reproduce it bit for bit: the same
coefficients, the same dropped zeros and the same key order, which later
order-dependent sums (traces, l1 norms) inherit.  The commutator runs in
the same kernel with the pair factor 2i sin(pi <r, Theta s>); it must agree
with the difference of the two products to rounding, and vanish exactly
where every pairing does.
"""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest

from artifact.theta_algebra import (
    FourierElement, SkewMatrix, chi, commutator, deformed_product, exp_element,
)

THETAS = [0.0, 1.0 / 3.0, 1.0 / math.sqrt(2.0), Fraction(1, 3)]


def reference_product(a: FourierElement, b: FourierElement, theta: SkewMatrix):
    out = {}
    for r, ar in a.coeffs.items():
        for s, bs in b.coeffs.items():
            k = tuple(r[i] + s[i] for i in range(a.n))
            phase = chi(theta, r, s)
            out[k] = out.get(k, 0j) + phase * ar * bs
    return FourierElement(a.n, out, "float")


def skew(n: int, theta, rng: np.random.Generator) -> SkewMatrix:
    """theta times a random skew integer matrix, in theta's own type."""
    entries = [[theta * 0 for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m = int(rng.integers(-2, 3))
            entries[i][j] = theta * m
            entries[j][i] = -(theta * m)
    return SkewMatrix(n, tuple(tuple(row) for row in entries))


def random_element(n: int, rng: np.random.Generator, max_modes: int,
                   reach: int = 3) -> FourierElement:
    coeffs = {}
    for _ in range(int(rng.integers(0, max_modes + 1))):
        idx = tuple(int(x) for x in rng.integers(-reach, reach + 1, size=n))
        coeffs[idx] = complex(rng.normal(), rng.normal())
    return FourierElement(n, coeffs, "float")


def bits(elem: FourierElement):
    """Keys in order with the exact bit patterns of both parts."""
    return [(k, struct.pack("<dd", c.real, c.imag)) for k, c in elem.coeffs.items()]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("theta", THETAS, ids=["zero", "third", "irrational", "rational"])
def test_float_product_matches_the_pair_loop_bit_for_bit(n, theta):
    rng = np.random.default_rng(100 * n + THETAS.index(theta))
    for _ in range(40):
        th = skew(n, theta, rng)
        a = random_element(n, rng, 12)
        b = random_element(n, rng, 12)
        got = deformed_product(a, b, th)
        assert bits(got) == bits(reference_product(a, b, th))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_float_product_with_far_apart_modes_matches_the_pair_loop(n):
    # modes a million apart span a box far larger than the pairs
    rng = np.random.default_rng(7 + n)
    for _ in range(10):
        th = skew(n, 1.0 / math.sqrt(2.0), rng)
        a = random_element(n, rng, 12, reach=10**6)
        b = random_element(n, rng, 12, reach=10**6)
        assert bits(deformed_product(a, b, th)) == bits(reference_product(a, b, th))


@pytest.mark.parametrize("theta", THETAS, ids=["zero", "third", "irrational", "rational"])
def test_float_product_of_an_empty_operand_is_zero(theta):
    th = SkewMatrix.standard_2d(theta)
    a = FourierElement(2, {(1, 0): 0.5 - 1j, (0, 2): 2.0 + 0j}, "float")
    empty = FourierElement.zero(2, "float")
    for lhs, rhs in [(a, empty), (empty, a), (empty, empty)]:
        got = deformed_product(lhs, rhs, th)
        assert got == reference_product(lhs, rhs, th) == empty


def test_float_product_drops_targets_that_cancel_exactly():
    # (e_0 + e_1)(e_1 - e_0) at theta = 0: the two pairs landing on e_1 cancel
    th = SkewMatrix.standard_2d(0.0)
    a = FourierElement(2, {(0, 0): 0.75 + 0.5j, (1, 0): 0.75 + 0.5j}, "float")
    b = FourierElement(2, {(1, 0): 1.0 + 0j, (0, 0): -1.0 + 0j}, "float")
    got = deformed_product(a, b, th)
    assert (1, 0) not in got.coeffs
    assert bits(got) == bits(reference_product(a, b, th))


# -- the commutator ---------------------------------------------------------

def assert_close(got: FourierElement, want: FourierElement, scale: float):
    # rounding of sums of |a|*|b| terms, each of modulus at most scale
    for k in set(got.coeffs) | set(want.coeffs):
        diff = abs(got.coeffs.get(k, 0j) - want.coeffs.get(k, 0j))
        assert diff <= 1e-14 * scale, (k, diff)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("theta", THETAS, ids=["zero", "third", "irrational", "rational"])
def test_commutator_matches_the_difference_of_the_two_products(n, theta):
    rng = np.random.default_rng(500 + 100 * n + THETAS.index(theta))
    for _ in range(40):
        th = skew(n, theta, rng)
        a = random_element(n, rng, 12)
        b = random_element(n, rng, 12)
        got = commutator(a, b, th)
        want = deformed_product(a, b, th) - deformed_product(b, a, th)
        assert_close(got, want, 2 * a.l1_norm() * b.l1_norm())
        assert got.mode == "float" and all(got.coeffs.values())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_commutator_is_exactly_empty_where_every_pairing_vanishes(n):
    rng = np.random.default_rng(900 + n)
    for _ in range(20):
        a = random_element(n, rng, 12)
        b = random_element(n, rng, 12)
        # Theta = 0, as float and as Fraction
        for th in (skew(n, 0.0, rng), skew(n, Fraction(0), rng)):
            assert commutator(a, b, th).coeffs == {}
        # modes on one axis pair to zero under any skew Theta
        line_a = FourierElement(n, {k[:1] + (0,) * (n - 1): c for k, c in a.coeffs.items()},
                                "float")
        line_b = FourierElement(n, {k[:1] + (0,) * (n - 1): c for k, c in b.coeffs.items()},
                                "float")
        th = skew(n, 1.0 / math.sqrt(2.0), rng)
        assert commutator(line_a, line_b, th).coeffs == {}


def test_commutator_in_exact_mode_is_the_difference_of_the_products():
    th = SkewMatrix.standard_2d(Fraction(1, 2))
    e1 = FourierElement.generator(2, 1)
    e2 = FourierElement.generator(2, 2)
    got = commutator(e1, e2, th)
    assert got == deformed_product(e1, e2, th) - deformed_product(e2, e1, th)
    # e1 e2 - e2 e1 = (i - (-i)) e_(1,1) at theta = 1/2
    assert got.coeffs == {(1, 1): 2 * chi(th, (1, 0), (0, 1), exact=True)}


@pytest.mark.parametrize("theta", THETAS, ids=["zero", "third", "irrational", "rational"])
@pytest.mark.parametrize("modes", [((1, 0), (-1, 0)), ((1, 0), (-1, 0), (0, 1), (0, -1))],
                         ids=["line", "cross"])
def test_one_power_chain_gives_the_three_exponentials(theta, modes):
    # the Gauss-Bonnet residual's k, kinv and kinv^2; c^m is +-1 or a power
    # of two, so every coefficient is exp_element(c h)'s, bit for bit
    th = SkewMatrix.standard_2d(theta)
    h = FourierElement(2, {idx: 0.05 + 0j for idx in modes}, "float")
    for order in (1, 6, 8):
        got = exp_element(h, th, order, factors=(1, -1, -2))
        for c, elem in zip((1, -1, -2), got):
            want = exp_element(h.scaled(float(c)), th, order)
            assert bits(elem) == bits(want), (c, order)
