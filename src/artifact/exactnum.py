"""Exact arithmetic on top of fractions.Fraction: Gaussian rationals, and
rational functions of (s, t) with a factored denominator.

Small and hashable on purpose.  Gaussian rationals are the coefficients of
every exact object in the package (Fourier coefficients, symbol-term
coefficients), and they get multiplied in tight convolution loops where
sympy numbers are an order of magnitude too slow.  The curvature functions
are rational functions whose denominators are known in advance (products of
s, t, s - 1, t - 1 and st - 1), so ``RationalFunction`` keeps them factored
and reduces by trial division, without a gcd and without sympy.  It takes
any irreducible factors; ``SymbolicFunction`` admits only those five.
``as_int`` reads every integer argument of the package's entry points.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

_RatLike = Union[int, Fraction]


def as_int(value, what: str, ok=lambda n: True, error=ValueError) -> int:
    """value as a Python int, read by operator.index so numpy integers
    pass; a bool, a value without __index__ (2.0, "2", None) or an int that
    fails ok raises error(f"{what}, got {value!r}")."""
    if not isinstance(value, bool):
        try:
            n = operator.index(value)
        except TypeError:
            pass
        else:
            if ok(n):
                return n
    raise error(f"{what}, got {value!r}")


class GaussianRational:
    """a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re: _RatLike = 0, im: _RatLike = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *_):
        raise AttributeError("GaussianRational is immutable")

    # -- ring operations -------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- predicates / conversions ----------------------------------------
    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return NotImplemented


# --------------------------------------------------------------------------
# rational functions of (s, t) with a factored denominator

Monomial = Tuple[int, int]  # (i, j) for s^i * t^j
Poly = Dict[Monomial, Fraction]  # sum of c * s^i * t^j; no zero coefficient
# an irreducible polynomial with integer coefficients: terms in descending
# lex order (s before t), primitive, leading coefficient > 0
Factor = Tuple[Tuple[Monomial, int], ...]

_S: Factor = (((1, 0), 1),)
_T: Factor = (((0, 1), 1),)


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * d
    return {m: c for m, c in out.items() if c}


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) + c
        if v:
            out[m] = v
        else:
            del out[m]
    return out


@lru_cache(maxsize=None)
def _factor_power(f: Factor, e: int) -> Poly:
    """f^e expanded; shared, so callers must not change it."""
    poly: Poly = {(0, 0): 1}
    for _ in range(e):
        poly = _poly_mul(poly, dict(f))
    return poly


def _divide(a: Poly, f: Factor) -> Optional[Poly]:
    """a / f when f divides a exactly, else None.  Division in lex order:
    the leading term of f must divide the leading term of every remainder."""
    rem = dict(a)
    quo: Poly = {}
    (fi, fj), fc = f[0]
    while rem:
        i, j = lead = max(rem)
        if i < fi or j < fj:
            return None
        q = Fraction(rem[lead]) / fc
        qi, qj = i - fi, j - fj
        quo[(qi, qj)] = q
        for (k, l), c in f:
            m = (qi + k, qj + l)
            v = rem.get(m, 0) - q * c
            if v:
                rem[m] = v
            else:
                rem.pop(m, None)
    return quo


def _cancel(num: Poly, factors, den: Dict[Factor, int]) -> Poly:
    """Divide out of num each of the given factors as often as it goes and
    den still holds it, lowering den's exponents to match."""
    for f in factors:
        while den.get(f) and num:
            q = _divide(num, f)
            if q is None:
                break
            num = q
            den[f] -= 1
    return num


def _canonical_factor(poly: Mapping[Monomial, _RatLike]) -> Tuple[Fraction, Factor]:
    """(c, f) with poly = c * f and f primitive with leading coefficient > 0."""
    coeffs = {m: Fraction(c) for m, c in poly.items()}
    scale = lcm(*(c.denominator for c in coeffs.values()))
    ints = {m: int(c * scale) for m, c in coeffs.items()}
    content = gcd(*ints.values())
    if ints[max(ints)] < 0:
        content = -content
    return Fraction(content, scale), tuple(sorted(((m, v // content) for m, v in ints.items()),
                                                  reverse=True))


class RationalFunction:
    """An exact rational function of (s, t): N(s, t) / prod f_k^e_k.

    The numerator N is a polynomial with rational coefficients; the
    denominator is kept factored, as canonical irreducible integer
    polynomials f_k (primitive, leading coefficient > 0 in lex order) with
    exponents e_k > 0, and no f_k divides N.  Z[s, t] is a unique
    factorisation domain, so this form is unique and ``==`` and ``hash``
    compare it directly.  Arithmetic keeps it by exact trial division by
    the known factors: no gcd is ever taken.  The factors handed to the
    constructor must be irreducible; products of them are not recognised.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: Mapping[Monomial, _RatLike] = None,
                 factors: Iterable[Tuple[Mapping[Monomial, _RatLike], int]] = ()):
        out: Poly = {m: Fraction(c) for m, c in (num or {}).items() if c}
        den: Dict[Factor, int] = {}
        for poly, e in factors:
            if e < 0:
                raise ValueError("a denominator factor needs a positive exponent")
            c, f = _canonical_factor(poly)
            out = {m: v / c**e for m, v in out.items()}
            if len(f) > 1 or f[0][0] != (0, 0):
                den[f] = den.get(f, 0) + e
        self._set(_cancel(out, list(den), den), den)

    def _set(self, num: Poly, den: Dict[Factor, int]) -> "RationalFunction":
        self._num = num
        self._den = tuple(sorted((f, e) for f, e in den.items() if e)) if num else ()
        return self

    @classmethod
    def _new(cls, num: Poly, den: Dict[Factor, int]) -> "RationalFunction":
        # num and den already in lowest terms
        return cls.__new__(cls)._set(num, den)

    @classmethod
    def monomial(cls, i: int, j: int, c: _RatLike = 1) -> "RationalFunction":
        """c * s^i * t^j for any integers i, j."""
        den = {_S: max(-i, 0), _T: max(-j, 0)}
        return cls._new({(max(i, 0), max(j, 0)): Fraction(c)} if c else {}, den)

    # -- ring operations -------------------------------------------------
    def numerator_over(self, den: Mapping[Factor, int]) -> Poly:
        """The numerator over den, a denominator that this function's
        denominator divides."""
        num, own = self._num, dict(self._den)
        for f, e in den.items():
            if e > own.get(f, 0):
                num = _poly_mul(num, _factor_power(f, e - own.get(f, 0)))
        return num

    def __add__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if not other._num:
            return self
        if not self._num:
            return other
        den = dict(self._den)
        for f, e in other._den:
            den[f] = max(den.get(f, 0), e)
        num = poly_add(self.numerator_over(den), other.numerator_over(den))
        return RationalFunction._new(_cancel(num, list(den), den), den)

    def __neg__(self):
        return RationalFunction._new({m: -c for m, c in self._num.items()}, dict(self._den))

    def __sub__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return RationalFunction._new({}, {})
            return RationalFunction._new({m: c * other for m, c in self._num.items()},
                                         dict(self._den))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        den = dict(self._den)
        for f, e in other._den:
            den[f] = den.get(f, 0) + e
        a = _cancel(self._num, [f for f, _ in other._den], den)
        b = _cancel(other._num, [f for f, _ in self._den], den)
        return RationalFunction._new(_poly_mul(a, b), den)

    __rmul__ = __mul__

    # -- predicates / conversions ----------------------------------------
    def __bool__(self):
        return bool(self._num)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash((frozenset(self._num.items()), self._den))

    def constant(self) -> Optional[Fraction]:
        """The value when the function is a constant, else None."""
        if self._den or any(m != (0, 0) for m in self._num):
            return None
        return self._num.get((0, 0), Fraction(0))

    def uses_t(self) -> bool:
        return any(m[1] for m in self._num) or any(m[1] for f, _ in self._den for m, _c in f)

    @property
    def factors(self) -> Tuple[Tuple[Factor, int], ...]:
        return self._den

    def fraction(self) -> Tuple[Dict[Monomial, int], Dict[Monomial, int]]:
        """(P, Q) with integer coefficients, self = P / Q, no common factor,
        no common integer content, and Q's leading coefficient > 0: the form
        sympy's ``cancel`` gives."""
        (num,), scale = integer_scaled([self._num])
        den: Poly = {(0, 0): scale}
        for f, e in self._den:
            den = _poly_mul(den, _factor_power(f, e))
        return num, den


def integer_scaled(nums: Sequence[Poly]) -> Tuple[List[Dict[Monomial, int]], int]:
    """(nums times L, L) for L the least common denominator of all their
    coefficients.  A product of primitive factors is primitive, so over such
    a denominator the scaled numerators and L times the denominator have no
    common integer factor."""
    scale = lcm(1, *(c.denominator for num in nums for c in num.values()))
    return [{m: int(c * scale) for m, c in num.items()} for num in nums], scale

