"""Finitely supported Fourier model of the deformed torus function algebra.

Elements are finite maps Z^n -> coefficients; the product twists coefficient
convolution by the skew bi-character chi(r, l) = exp(pi*i*<r, Theta l>).
Two arithmetic modes share one element type:

* exact   -- coefficients are GaussianRational; available whenever every
             occurring phase lands in Q(i), i.e. <r, Theta l> is a half
             integer on the supports involved (Theta = theta*J with
             theta in {0, 1/2, 1, ...} always qualifies);
* float   -- coefficients are python complex, any real Theta.

All operations are pure; elements are treated as immutable.  Outside data is
checked once, by the public FourierElement constructor (parse_element calls
it); the operations build canonical results through FourierElement._canonical.

Products and float commutators run in one pair loop, except a float one of
at least _ARRAY_PAIRS pairs, which runs in a numpy kernel that is bit for bit
the loop.  Only that kernel imports numpy, so small products never load it.
"""
from __future__ import annotations

import cmath
import itertools
import math
import operator
from fractions import Fraction
from itertools import repeat
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .exactnum import GaussianRational, as_int

Index = Tuple[int, ...]
Coeff = Union[GaussianRational, complex]

# per mode: zero, scalar coercion and derivation unit (see derivation)
_ZERO = {"exact": GaussianRational(0), "float": 0j}
_SCALAR = {"exact": lambda x: x, "float": complex}
_DERIVATION_UNIT = {"exact": GaussianRational(0, 1), "float": 2j * math.pi}

# exp(pi*i*k/2) for k = 0, 1, 2, 3
_QUARTER_TURNS = (GaussianRational(1), GaussianRational(0, 1),
                  GaussianRational(-1), GaussianRational(0, -1))


class RankMismatchError(ValueError):
    """Operands live on tori of different rank."""


class ExactPhaseError(ValueError):
    """The requested bi-character value is not a Gaussian rational."""


class SelfAdjointnessError(ValueError):
    """exp_element requires a self-adjoint exponent."""


def _rank(n) -> int:
    """The torus rank n as a Python int >= 1."""
    return as_int(n, "torus rank must be an int >= 1", lambda k: k >= 1)


class _SkewFields(NamedTuple):
    n: int
    entries: Tuple[Tuple[Union[Fraction, float], ...], ...]


class SkewMatrix(_SkewFields):
    """Skew-symmetric deformation matrix; entries Fraction (exact) or float."""

    __slots__ = ()

    def __new__(cls, n: int, entries: Tuple[Tuple[Union[Fraction, float], ...], ...]):
        n = _rank(n)
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError("entries must be an n-by-n array")
        # inf == -(-inf) passes the skew test, and every phase would be NaN
        if any(isinstance(x, float) and not math.isfinite(x)
               for row in entries for x in row):
            raise ValueError("deformation matrix entries must be finite")
        for a in range(n):
            for b in range(n):
                if entries[a][b] != -entries[b][a]:
                    raise ValueError("deformation matrix must be skew-symmetric")
        return tuple.__new__(cls, (n, entries))

    @classmethod
    def standard_2d(cls, theta) -> "SkewMatrix":
        """[[0, theta], [-theta, 0]] with theta Fraction-like (exact) or float."""
        if isinstance(theta, float):
            return cls(2, ((0.0, theta), (-theta, 0.0)))
        th = Fraction(theta)
        return cls(2, ((Fraction(0), th), (-th, Fraction(0))))

    @classmethod
    def zero(cls, n: int) -> "SkewMatrix":
        n = _rank(n)
        z = Fraction(0)
        return cls(n, tuple(tuple(z for _ in range(n)) for _ in range(n)))

    def pairing(self, r: Index, l: Index):
        """<r, Theta l> = sum_{a,b} r_a Theta_ab l_b."""
        if len(r) != self.n or len(l) != self.n:
            raise RankMismatchError("multi-index length does not match torus rank")
        total = 0
        for a in range(self.n):
            if r[a] == 0:
                continue
            row = self.entries[a]
            total += r[a] * sum(row[b] * l[b] for b in range(self.n) if l[b] != 0)
        return total


def chi(theta: SkewMatrix, r: Index, l: Index, *, exact: bool = False) -> Coeff:
    """Bi-character value exp(pi*i*<r, Theta l>), of modulus one.

    In exact mode the pairing must be a half integer so the value is one of
    {1, i, -1, -i}; otherwise ExactPhaseError is raised.
    """
    q = theta.pairing(r, l)
    if exact:
        q = Fraction(q)
        twice = 2 * q
        if twice.denominator != 1:
            raise ExactPhaseError(
                f"phase exponent {q} is not a half integer; use floating mode"
            )
        return _QUARTER_TURNS[int(twice) % 4]
    return cmath.exp(1j * math.pi * float(q))


class FourierElement:
    """Finitely supported Fourier series over Z^n.

    mode is 'exact' (GaussianRational coefficients) or 'float' (complex).
    The constructor checks the mode and every key's rank, makes keys int
    tuples and coefficients the mode's type, and drops zeros.
    """

    __slots__ = ("n", "coeffs", "mode")

    def __init__(self, n: int, coeffs: Dict[Index, Coeff], mode: str = "exact"):
        n = _rank(n)
        if mode not in ("exact", "float"):
            raise ValueError("mode must be 'exact' or 'float'")
        clean: Dict[Index, Coeff] = {}
        for idx, c in coeffs.items():
            idx = tuple(int(x) for x in idx)
            if len(idx) != n:
                raise RankMismatchError("multi-index length does not match torus rank")
            if mode == "exact":
                if isinstance(c, (int, Fraction)):
                    c = GaussianRational(c)
                if not isinstance(c, GaussianRational):
                    raise TypeError("exact mode requires GaussianRational coefficients")
            else:
                c = complex(c)
                if not cmath.isfinite(c):
                    raise ValueError("float mode requires finite coefficients")
            if c:
                clean[idx] = c
        self.n, self.coeffs, self.mode = n, clean, mode

    # -- constructors ----------------------------------------------------
    @classmethod
    def _canonical(cls, n: int, coeffs: Dict[Index, Coeff], mode: str) -> "FourierElement":
        """Coefficients already in canonical form; only the zeros are dropped."""
        elem = object.__new__(cls)
        elem.n, elem.coeffs, elem.mode = n, {idx: c for idx, c in coeffs.items() if c}, mode
        return elem

    @classmethod
    def zero(cls, n: int, mode: str = "exact") -> "FourierElement":
        return cls(n, {}, mode)

    @classmethod
    def unit(cls, n: int, mode: str = "exact") -> "FourierElement":
        n = _rank(n)
        return cls(n, {tuple(0 for _ in range(n)): 1}, mode)

    @classmethod
    def generator(cls, n: int, axis: int, mode: str = "exact") -> "FourierElement":
        """The unitary generator e_axis (1-indexed), support {delta_axis}."""
        n = _rank(n)
        axis = as_int(axis, f"axis must be an int from 1 to {n}", lambda j: 1 <= j <= n)
        idx = tuple(1 if j == axis - 1 else 0 for j in range(n))
        return cls(n, {idx: 1}, mode)

    # -- linear structure --------------------------------------------------
    def _check_compatible(self, other: "FourierElement"):
        if self.n != other.n:
            raise RankMismatchError("torus ranks differ")
        if self.mode != other.mode:
            raise ValueError("mixed arithmetic modes")

    def __add__(self, other: "FourierElement") -> "FourierElement":
        self._check_compatible(other)
        out = dict(self.coeffs)
        zero = _ZERO[self.mode]
        for idx, c in other.coeffs.items():
            out[idx] = out.get(idx, zero) + c
        return FourierElement._canonical(self.n, out, self.mode)

    def __sub__(self, other: "FourierElement") -> "FourierElement":
        return self + other.scaled(-1)

    def scaled(self, factor) -> "FourierElement":
        factor = _SCALAR[self.mode](factor)
        out = {idx: factor * c for idx, c in self.coeffs.items()}
        return FourierElement._canonical(self.n, out, self.mode)

    def __eq__(self, other):
        if not isinstance(other, FourierElement):
            return NotImplemented
        return self.n == other.n and self.mode == other.mode and self.coeffs == other.coeffs

    def __repr__(self):
        return f"FourierElement(n={self.n}, {len(self.coeffs)} modes, mode={self.mode})"

    def l1_norm(self) -> float:
        """Sum of coefficient moduli; submultiplicative for the twisted product."""
        return sum(abs(complex(c)) for c in self.coeffs.values())


# -- the deformed product and friends --------------------------------------

# A float product or commutator of at least this many pairs runs in the
# array kernel _float_twisted, which imports numpy; a smaller one runs in the
# pair loop.  On a 2-core x86-64 host the loop takes about 1.6 us a pair and
# the array kernel about 130 us plus 0.25 us a pair, so the loop is the faster
# below about 120 pairs and 1.5 times as slow at 300, while importing numpy
# costs as much as 10^5 loop pairs (the crossover table is in CHANGES.md).  At
# 300 every product of an order-8 line-mode Gauss-Bonnet residual (at most
# 17 x 16 = 272 pairs) stays in the loop, so neither that residual nor the
# `gauss-bonnet` command loads numpy.
_ARRAY_PAIRS = 300


def _check_operands(a: FourierElement, b: FourierElement, theta: SkewMatrix) -> None:
    a._check_compatible(b)
    if theta.n != a.n:
        raise RankMismatchError("deformation matrix rank differs from elements")


def deformed_product(a: FourierElement, b: FourierElement, theta: SkewMatrix) -> FourierElement:
    """Twisted convolution: coefficient at k is sum_{r+s=k} chi(r,s) a_r b_s."""
    _check_operands(a, b, theta)
    if a.mode == "exact":
        return _pair_loop(a, b, (chi(theta, r, s, exact=True)
                                 for r in a.coeffs for s in b.coeffs))
    if len(a.coeffs) * len(b.coeffs) >= _ARRAY_PAIRS:
        return _float_twisted(a, b, theta, commute=False)
    angles = _float_angles(theta, a, b)
    return _pair_loop(a, b, map(complex, map(math.cos, angles), map(math.sin, angles)))


def commutator(a: FourierElement, b: FourierElement, theta: SkewMatrix) -> FourierElement:
    """a b - b a: coefficient at k is sum_{r+s=k} 2i sin(pi <r, Theta s>) a_r b_s,
    since chi(s, r) is the conjugate of chi(r, s); exactly zero where every
    pairing vanishes.  Float mode makes one pass over the |a|*|b| pairs."""
    _check_operands(a, b, theta)
    if a.mode == "exact":
        return deformed_product(a, b, theta) - deformed_product(b, a, theta)
    if len(a.coeffs) * len(b.coeffs) >= _ARRAY_PAIRS:
        return _float_twisted(a, b, theta, commute=True)
    sines = map(math.sin, _float_angles(theta, a, b))
    return _pair_loop(a, b, map(complex, repeat(0.0), map(operator.mul, repeat(2.0), sines)))


def _over_pairs(op, xs, ys):
    """op(x, y) for every pair in pair order: x over xs, then y over ys."""
    return itertools.starmap(op, itertools.product(xs, ys))


def _pair_loop(a: FourierElement, b: FourierElement, factors) -> FourierElement:
    """sum_{r+s=k} f(r, s) a_r b_s one pair at a time, factors giving f(r, s)
    in pair order (r over a, then s over b): each target summed in pair
    order from the mode's zero, the targets in order of first appearance,
    and the sums that vanish dropped.  The targets r + s, axis by axis, and
    the terms (f(r, s) a_r) b_s are mapped over the pairs, so that only the
    sums run in Python."""
    zero = _ZERO[a.mode]
    out: Dict[Index, Coeff] = {}
    get = out.get
    keys = zip(*(_over_pairs(operator.add, ra, sb)
                 for ra, sb in zip(zip(*a.coeffs), zip(*b.coeffs))))
    left = itertools.chain.from_iterable(map(repeat, a.coeffs.values(), repeat(len(b.coeffs))))
    right = itertools.chain.from_iterable(repeat(tuple(b.coeffs.values()), len(a.coeffs)))
    for k, term in zip(keys, map(operator.mul, map(operator.mul, factors, left), right)):
        out[k] = get(k, zero) + term
    return FourierElement._canonical(a.n, out, a.mode)


def _rational_rows(theta: SkewMatrix) -> Optional[Tuple[Tuple[Tuple[int, ...], ...], int]]:
    """(rows, den) with Theta = rows / den and integer rows, or None when an
    entry is a float."""
    if any(isinstance(x, float) for row in theta.entries for x in row):
        return None
    den = math.lcm(*(Fraction(x).denominator for row in theta.entries for x in row))
    return tuple(tuple(int(Fraction(x) * den) for x in row) for row in theta.entries), den


def _float_angles(theta: SkewMatrix, a: FourierElement, b: FourierElement) -> List[float]:
    """pi q in pair order, q = <r, Theta s> rounded as chi rounds it, the
    phases of the float pair loop.

    Theta s is computed once per mode s of b, and q = 0 + r_1 (Theta s)_1 +
    ... + r_n (Theta s)_n, in SkewMatrix.pairing's order of terms.  A
    rational Theta pairs in integers, rounded once by the division; for a
    float Theta the zero terms that pairing skips leave its sums unchanged,
    since no sum from an int 0 is ever -0.0."""
    rows, den = _rational_rows(theta) or (tuple(tuple(map(float, row))
                                                for row in theta.entries), 1)
    cols = [tuple(sum(map(operator.mul, row, s)) for row in rows) for s in b.coeffs]
    q = repeat(0, len(a.coeffs) * len(b.coeffs))
    for ra, ca in zip(zip(*a.coeffs), zip(*cols)):
        q = map(operator.add, q, _over_pairs(operator.mul, ra, ca))
    if den != 1:  # x / 1 is x, rounded as pi * x rounds it
        q = map(operator.truediv, q, repeat(den))
    return list(map(operator.mul, repeat(math.pi), q))


def _pairings(theta: SkewMatrix, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """float(<r, Theta s>) for every row of r against every row of s, rounded
    as chi rounds it."""
    import numpy as np

    rational = _rational_rows(theta)
    if rational:
        rows, den = rational
        bound = theta.n ** 2 * max(map(abs, itertools.chain(*rows)))
        if max(bound * int(abs(r).max()) * int(abs(s).max()), den) < 2 ** 53:
            # every integer here, and its float, is exact
            return (r @ np.array(rows, dtype=np.int64) @ s.T) / den
        # in Python integers, which int64 would overflow
        q = r.astype(object) @ np.array(rows, dtype=object) @ s.T.astype(object)
        return (q / den).astype(float)
    mat = np.array(theta.entries, dtype=float)
    # pairing's order of terms; the zero terms it skips leave a sum unchanged
    q = np.zeros((len(r), len(s)))
    for i in range(theta.n):
        inner = np.zeros(len(s))
        for j in range(theta.n):
            inner = inner + mat[i, j] * s[:, j]
        q = q + r[:, i:i + 1] * inner
    return q


# a product may always fill a lattice box of this many bins
_DENSE_BINS = 1 << 16


def _float_twisted(a: FourierElement, b: FourierElement, theta: SkewMatrix,
                   commute: bool) -> FourierElement:
    """The pair loop of deformed_product (commute false) or of commutator
    (commute true) over all |a|*|b| pairs at once, in numpy.

    It is bit for bit the pair loop (tests/test_float_product.py): the same
    phases cos and sin (or 0 and 2 sin) of pi times the pairing rounded as
    chi rounds it, complex products in Python's real arithmetic, each target
    summed in pair order by bincount, and the targets in order of first
    appearance.  A factor that vanishes on every pair leaves only zero sums,
    which are dropped."""
    import numpy as np

    if not a.coeffs or not b.coeffs:
        return FourierElement._canonical(a.n, {}, "float")
    r, s = (np.fromiter(itertools.chain.from_iterable(e.coeffs), np.int64,
                        len(e.coeffs) * e.n).reshape(-1, e.n) for e in (a, b))
    angle = math.pi * _pairings(theta, r, s)
    # chi(r, s) = cos(pi q) + i sin(pi q); chi(r, s) - chi(s, r) = 2i sin(pi q)
    cos, sin = (0.0, 2.0 * np.sin(angle)) if commute else (np.cos(angle), np.sin(angle))
    ac = np.fromiter(a.coeffs.values(), complex, len(a.coeffs))[:, None]
    bc = np.fromiter(b.coeffs.values(), complex, len(b.coeffs))[None, :]
    # (phase * a_r) * b_s, each product as (x+iy)(u+iv) = (xu - yv) + i(xv + yu)
    tre = cos * ac.real - sin * ac.imag
    tim = cos * ac.imag + sin * ac.real
    re = (tre * bc.real - tim * bc.imag).ravel()
    im = (tre * bc.imag + tim * bc.real).ravel()

    # each target r + s gets a bin: its place in the box the targets span, or,
    # where that box is much larger than the pairs, its rank among them
    pairs = len(re)
    low = r.min(axis=0) + s.min(axis=0)
    extent = r.max(axis=0) + s.max(axis=0) - low + 1
    bins = math.prod(extent.tolist())
    if bins <= max(4 * pairs, _DENSE_BINS):
        stride = np.cumprod(np.concatenate(([1], extent[:0:-1])))[::-1]
        slot = (((r - low) @ stride)[:, None] + s @ stride).ravel()
    else:
        targets = (r[:, None, :] + s[None, :, :]).reshape(pairs, a.n)
        slot = np.unique(targets, axis=0, return_inverse=True)[1].ravel()
        bins = int(slot.max()) + 1
    first = np.full(bins, pairs)
    np.minimum.at(first, slot, np.arange(pairs))
    hit = np.flatnonzero(first < pairs)
    hit = hit[np.argsort(first[hit])]
    sums = np.empty(len(hit), complex)
    sums.real = np.bincount(slot, re, bins)[hit]
    sums.imag = np.bincount(slot, im, bins)[hit]
    i, j = np.divmod(first[hit], len(s))
    keys = zip(*(r[i] + s[j]).T.tolist())
    return FourierElement._canonical(a.n, dict(zip(keys, sums.tolist())), "float")


def star(a: FourierElement) -> FourierElement:
    """Adjoint: coefficient at -r is the conjugate of the coefficient at r."""
    out = {tuple(-x for x in idx): c.conjugate() for idx, c in a.coeffs.items()}
    return FourierElement._canonical(a.n, out, a.mode)


def trace(a: FourierElement) -> Coeff:
    """Normalized torus trace = coefficient of the invariant mode 0."""
    return a.coeffs.get(tuple(0 for _ in range(a.n)), _ZERO[a.mode])


def derivation(a: FourierElement, j: int) -> FourierElement:
    """Generator of the torus action along axis j (1-indexed).

    Floating mode multiplies the coefficient at r by 2*pi*i*r_j. Exact mode
    keeps coefficients in Q(i) by using the rescaled generator i*r_j (the
    2*pi is a fixed real scale that cancels from every law we assert).
    """
    j = as_int(j, f"axis j must be an int from 1 to {a.n}", lambda i: 1 <= i <= a.n)
    unit = _DERIVATION_UNIT[a.mode]
    out = {idx: unit * idx[j - 1] * c for idx, c in a.coeffs.items() if idx[j - 1]}
    return FourierElement._canonical(a.n, out, a.mode)


def is_self_adjoint(a: FourierElement, tol: float = 0.0) -> bool:
    s = star(a)
    if a.mode == "exact":
        return s == a
    keys = set(a.coeffs) | set(s.coeffs)
    return all(abs(a.coeffs.get(k, 0j) - s.coeffs.get(k, 0j)) <= tol for k in keys)


def exp_element(h: FourierElement, theta: SkewMatrix, order: int,
                factors: Optional[Tuple[int, ...]] = None
                ) -> Union[FourierElement, Tuple[FourierElement, ...]]:
    """Truncated twisted exponential sum_{m<=order} h^m / m!.

    Requires star(h) = h. The series tail is bounded in l1 norm by
    ||h||^(order+1)/(order+1)! because the l1 norm is submultiplicative.

    With a tuple of integers factors, the tuple of the truncated exp(c h)
    for each c in it, from one chain of powers P_m = (P_(m-1) h) / m as
    sum_{m<=order} c^m P_m.  For c = 1 these are the operations of the
    single exponential.  Where c is a power of two up to sign (1, -1, -2,
    ...), scaling by c^m is exact in float mode, so c^m P_m is bit for bit
    the m-th term of exp_element(c h), barring underflow.
    """
    order = as_int(order, "order must be an int >= 1", lambda n: n >= 1)
    try:
        scales = (1,) if factors is None else tuple(as_int(c, "factor") for c in factors)
    except ValueError:
        raise ValueError(f"factors must be integers, got {factors!r}") from None
    if not is_self_adjoint(h, tol=1e-12 if h.mode == "float" else 0.0):
        raise SelfAdjointnessError("exponent must be self-adjoint")
    term = FourierElement.unit(h.n, h.mode)
    accs = [term] * len(scales)
    for m in range(1, order + 1):
        term = deformed_product(term, h, theta)
        term = term.scaled(Fraction(1, m))
        accs = [acc + (term if c ** m == 1 else term.scaled(c ** m))
                for acc, c in zip(accs, scales)]
    return accs[0] if factors is None else tuple(accs)


# -- text input ------------------------------------------------------------

def _float_literal(text: str) -> float:
    """float(text), refusing a non-finite value and a nonzero literal that
    rounds to 0.0."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"coefficient {text} is not finite")
    if x == 0 and any(d in "123456789" for d in text.lower().partition("e")[0]):
        raise ValueError(f"coefficient {text} underflows to 0.0")
    return x


def parse_element(text: str, n: int, mode: str = "exact") -> FourierElement:
    """One mode per line, `r1,...,rn : re,im`; blank and `#` lines are
    skipped.  A malformed line, or one repeating an earlier line's
    multi-index, raises ValueError."""
    coeffs: Dict[Index, Coeff] = {}
    first_line: Dict[Index, int] = {}
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            left, right = line.split(":")
            idx = tuple(int(x) for x in left.strip().split(","))
            re_s, im_s = (p.strip() for p in right.strip().split(","))
            if mode == "exact":
                coeffs[idx] = GaussianRational(Fraction(re_s), Fraction(im_s))
            else:
                coeffs[idx] = complex(_float_literal(re_s), _float_literal(im_s))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {number} is not `r1,...,rn : re,im`: {exc}") from None
        if idx in first_line:
            raise ValueError(f"line {number} repeats the mode "
                             f"{','.join(map(str, idx))} of line {first_line[idx]}")
        first_line[idx] = number
    return FourierElement(n, coeffs, mode)
