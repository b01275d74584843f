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
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .exactnum import GaussianRational

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


@dataclass(frozen=True)
class SkewMatrix:
    """Skew-symmetric deformation matrix; entries Fraction (exact) or float."""

    n: int
    entries: Tuple[Tuple[Union[Fraction, float], ...], ...]

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("torus rank must be positive")
        if len(self.entries) != self.n or any(len(row) != self.n for row in self.entries):
            raise ValueError("entries must be an n-by-n array")
        # inf == -(-inf) passes the skew test, and every phase would be NaN
        if any(isinstance(x, float) and not math.isfinite(x)
               for row in self.entries for x in row):
            raise ValueError("deformation matrix entries must be finite")
        for a in range(self.n):
            for b in range(self.n):
                if self.entries[a][b] != -self.entries[b][a]:
                    raise ValueError("deformation matrix must be skew-symmetric")

    @classmethod
    def standard_2d(cls, theta) -> "SkewMatrix":
        """[[0, theta], [-theta, 0]] with theta Fraction-like (exact) or float."""
        if isinstance(theta, float):
            return cls(2, ((0.0, theta), (-theta, 0.0)))
        th = Fraction(theta)
        return cls(2, ((Fraction(0), th), (-th, Fraction(0))))

    @classmethod
    def zero(cls, n: int) -> "SkewMatrix":
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
        return cls(n, {tuple(0 for _ in range(n)): 1}, mode)

    @classmethod
    def generator(cls, n: int, axis: int, mode: str = "exact") -> "FourierElement":
        """The unitary generator e_axis (1-indexed), support {delta_axis}."""
        if not 1 <= axis <= n:
            raise ValueError("axis out of range")
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

def deformed_product(a: FourierElement, b: FourierElement, theta: SkewMatrix) -> FourierElement:
    """Twisted convolution: coefficient at k is sum_{r+s=k} chi(r,s) a_r b_s."""
    a._check_compatible(b)
    if theta.n != a.n:
        raise RankMismatchError("deformation matrix rank differs from elements")
    if a.mode == "float":
        return _float_twisted(a, b, theta, _product_phase)
    out: Dict[Index, Coeff] = {}
    for r, ar in a.coeffs.items():
        for s, bs in b.coeffs.items():
            k = tuple(r[i] + s[i] for i in range(a.n))
            phase = chi(theta, r, s, exact=True)
            out[k] = out.get(k, GaussianRational(0)) + phase * ar * bs
    return FourierElement._canonical(a.n, out, a.mode)


def commutator(a: FourierElement, b: FourierElement, theta: SkewMatrix) -> FourierElement:
    """a b - b a: coefficient at k is sum_{r+s=k} 2i sin(pi <r, Theta s>) a_r b_s,
    since chi(s, r) is the conjugate of chi(r, s); exactly zero where every
    pairing vanishes.  Float mode makes one pass over the |a|*|b| pairs."""
    a._check_compatible(b)
    if theta.n != a.n:
        raise RankMismatchError("deformation matrix rank differs from elements")
    if a.mode == "float":
        return _float_twisted(a, b, theta, _commutator_phase)
    return deformed_product(a, b, theta) - deformed_product(b, a, theta)


def _pairings(theta: SkewMatrix, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """float(<r, Theta s>) for every row of r against every row of s, rounded
    as SkewMatrix.pairing rounds it."""
    entries = [x for row in theta.entries for x in row]
    if not any(isinstance(x, float) for x in entries):
        # a rational Theta pairs exactly; float() rounds the quotient once
        den = math.lcm(*(Fraction(x).denominator for x in entries))
        num = np.array([int(Fraction(x) * den) for x in entries], dtype=np.int64)
        return (r @ num.reshape(theta.n, theta.n) @ s.T) / den
    mat = np.array(entries, dtype=float).reshape(theta.n, theta.n)
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


def _index_array(a: FourierElement) -> np.ndarray:
    """a's multi-indices as the rows of an int64 array, in key order."""
    flat = itertools.chain.from_iterable(a.coeffs)
    return np.fromiter(flat, np.int64, len(a.coeffs) * a.n).reshape(-1, a.n)


def _product_phase(angle: np.ndarray):
    # chi(r, s) = cmath.exp(1j * pi * q) = cos(pi q) + i sin(pi q)
    return np.cos(angle), np.sin(angle)


def _commutator_phase(angle: np.ndarray):
    # chi(r, s) - chi(s, r) = 2i sin(pi q)
    return 0.0, 2.0 * np.sin(angle)


def _float_twisted(a: FourierElement, b: FourierElement, theta: SkewMatrix,
                   phase) -> FourierElement:
    """sum_{r+s=k} phase(pi <r, Theta s>) a_r b_s over all |a|*|b| pairs at
    once, phase giving the real and imaginary parts of the pair's factor.

    With _product_phase this is the deformed product, bit for bit the pair
    loop over chi it replaced (kept as the reference in
    tests/test_float_product.py): the same phases, complex products in
    Python's real arithmetic, each target summed in pair order by bincount,
    and the targets in order of first appearance.  A factor that vanishes
    on every pair leaves only zero sums, which are dropped."""
    if not a.coeffs or not b.coeffs:
        return FourierElement._canonical(a.n, {}, "float")
    r, s = _index_array(a), _index_array(b)
    cos, sin = phase(math.pi * _pairings(theta, r, s))
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
    if not 1 <= j <= a.n:
        raise ValueError("axis out of range")
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
    if order < 1:
        raise ValueError("order must be >= 1")
    if not is_self_adjoint(h, tol=1e-12 if h.mode == "float" else 0.0):
        raise SelfAdjointnessError("exponent must be self-adjoint")
    scales = (1,) if factors is None else factors
    term = FourierElement.unit(h.n, h.mode)
    accs = [term] * len(scales)
    for m in range(1, order + 1):
        term = deformed_product(term, h, theta)
        term = term.scaled(Fraction(1, m))
        accs = [acc + (term if c ** m == 1 else term.scaled(c ** m))
                for acc, c in zip(accs, scales)]
    return accs[0] if factors is None else tuple(accs)


# -- text fixtures ----------------------------------------------------------

def format_element(a: FourierElement) -> str:
    """Line format `r1,...,rn : re,im`, sorted by multi-index."""
    lines = []
    for idx in sorted(a.coeffs):
        c = a.coeffs[idx]
        if a.mode == "exact":
            re, im = str(c.re), str(c.im)
        else:
            re, im = repr(c.real), repr(c.imag)
        lines.append(f"{','.join(str(x) for x in idx)} : {re},{im}")
    return "\n".join(lines)


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
    """format_element's line format; a malformed line, or one repeating an
    earlier line's multi-index, raises ValueError."""
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
