"""The float deformed product and commutator against the chi pair loop.

``reference_product`` is the dict loop over all pairs, with phases from
``chi``.  Both float kernels must reproduce it bit for bit: the pair loop
below ``_ARRAY_PAIRS`` pairs and the numpy kernel from there on, with the
same coefficients, the same dropped zeros and the same key order, which
later order-dependent sums (traces, l1 norms) inherit.  The commutator's
pair factor is 2i sin(pi <r, Theta s>) = chi(r, s) - conj(chi(r, s)); it
must be bit for bit ``reference_commutator``, agree with the difference of
the two products to rounding, and vanish exactly where every pairing does.
"""

import math
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest

from artifact.theta_algebra import (
    _ARRAY_PAIRS, FourierElement, SkewMatrix, chi, commutator, deformed_product, exp_element,
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


def reference_commutator(a: FourierElement, b: FourierElement, theta: SkewMatrix):
    out = {}
    for r, ar in a.coeffs.items():
        for s, bs in b.coeffs.items():
            k = tuple(r[i] + s[i] for i in range(a.n))
            phase = chi(theta, r, s)
            out[k] = out.get(k, 0j) + (phase - phase.conjugate()) * ar * bs
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


def element_of(n: int, rng: np.random.Generator, modes: int, reach: int) -> FourierElement:
    """An element with exactly `modes` modes in [-reach, reach]^n."""
    coeffs = {}
    while len(coeffs) < modes:
        idx = tuple(int(x) for x in rng.integers(-reach, reach + 1, size=n))
        coeffs[idx] = complex(rng.normal(), rng.normal())
    return FourierElement(n, coeffs, "float")


def shape(pairs: int):
    """Mode counts (p, q) with p * q = pairs and p the largest divisor up to
    the square root."""
    p = max(d for d in range(1, math.isqrt(pairs) + 1) if pairs % d == 0)
    return p, pairs // p


# both sides of the kernel threshold, and a product of thousands of pairs
PAIR_COUNTS = [_ARRAY_PAIRS - 1, _ARRAY_PAIRS, _ARRAY_PAIRS + 1, 3000]


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


@pytest.mark.parametrize("pairs", PAIR_COUNTS)
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("theta", THETAS, ids=["zero", "third", "irrational", "rational"])
def test_both_kernels_match_the_pair_loop_bit_for_bit(theta, n, pairs):
    # dense targets (a lattice box of bins) and far-apart ones (ranked bins)
    rng = np.random.default_rng(1000 * n + pairs + THETAS.index(theta))
    p, q = shape(pairs)
    for reach in (40, 10**6):
        th = skew(n, theta, rng)
        a, b = element_of(n, rng, p, reach), element_of(n, rng, q, reach)
        assert bits(deformed_product(a, b, th)) == bits(reference_product(a, b, th))
        assert bits(commutator(a, b, th)) == bits(reference_commutator(a, b, th))


@pytest.mark.parametrize("operation", [deformed_product, commutator])
def test_the_array_kernel_starts_at_its_threshold(monkeypatch, operation):
    # only the array kernel imports numpy: blocked, it fails from T pairs on
    rng = np.random.default_rng(11)
    th = SkewMatrix.standard_2d(1.0 / math.sqrt(2.0))
    small = [element_of(2, rng, m, 40) for m in shape(_ARRAY_PAIRS - 1)]
    large = [element_of(2, rng, m, 40) for m in shape(_ARRAY_PAIRS)]
    monkeypatch.setitem(sys.modules, "numpy", None)
    reference = reference_product if operation is deformed_product else reference_commutator
    assert bits(operation(*small, th)) == bits(reference(*small, th))
    with pytest.raises(ImportError):
        operation(*large, th)


@pytest.mark.parametrize("others", [0, 3, 19], ids=["1-pair", "16-pairs", "400-pairs"])
def test_a_rational_theta_pairs_without_overflow(others):
    # 10^4 * (10^12 - 1) * 10^4 leaves int64, and float64's exact integers:
    # the array kernel gave 0.401 - 0.916i for chi((10^4, 0), (0, 10^4)),
    # which is 0.99999995 - 0.000314i
    th = SkewMatrix.standard_2d(Fraction(10**12 - 1, 10**12))
    rng = np.random.default_rng(12)
    # the other modes lie within 100 of 0, so only that pair lands on (10^4, 10^4)
    a = FourierElement(2, {(10**4, 0): 1 + 0j, **element_of(2, rng, others, 100).coeffs},
                       "float")
    b = FourierElement(2, {(0, 10**4): 1 + 0j, **element_of(2, rng, others, 100).coeffs},
                       "float")
    assert (len(a.coeffs) * len(b.coeffs) >= _ARRAY_PAIRS) == (others == 19)
    got = deformed_product(a, b, th)
    assert bits(got) == bits(reference_product(a, b, th))
    assert bits(commutator(a, b, th)) == bits(reference_commutator(a, b, th))
    phase = chi(th, (10**4, 0), (0, 10**4))
    assert abs(phase - (0.99999995 - 0.000314j)) < 1e-6
    assert got.coeffs[(10**4, 10**4)] == phase


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
