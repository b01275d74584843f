"""Rearrangement stage: sphere-averaged scalar words -> curvature functions.

After sphere averaging, every term of the b_2 symbol is a word in b0, k,
kinv with at most two curvature factors (GradK / HessK), a power of Xi2,
and either a metric contraction Ginv or the scalar atom SDelta.  This
module finishes the derivation:

  1. ``extract_signature`` reads off each word's radial-integral data:
     the b0 block exponents (p0, p1[, p2]) split by the curvature
     factors, the Xi2 power w, the net k-power, and the modular shifts
     each curvature factor acquires while the k-powers commute to the
     front (with Delta(rho) = kinv * rho * k one has rho k = k Delta(rho),
     so every k sitting to the right of a curvature factor applies Delta
     to it once; kinv applies the inverse).  A Delta power on the
     first/second factor becomes a monomial factor s^j1 / t^j2 on the
     integrand.
  2. ``integrate_dim_m`` produces the exact value of the radial integral
     as a ``SymbolicFunction`` in every even dimension m >= 2.  The
     family with b0 exponents (p, q, l) is the confluent divided
     difference (-1)^(P-1) phi_m[1^(p), s^(q), (st)^(l)], P = p + q + l,
     of phi_2(x) = -log x or phi_m(x) = Gamma(m/2-1) x^(1-m/2) at the
     modular nodes 1, s, st (Lesch's divided-difference form of the
     rearrangement lemma, arXiv:1405.0863), computed by ``radial_integral``
     exactly in QQ(s, t).  Every division is by a gap between two nodes,
     so each part is an ``exactnum.RationalFunction`` whose denominator
     stays factored into a monomial and powers of s - 1, t - 1 and
     st - 1, and is reduced by trial division.  The scalar channel is the
     single node 1 with multiplicity n.  The term prefactor, the shift monomial s^j1 t^j2 and
     the 1/2 from the r -> r^2 change of radial variable are folded in.
  3. ``derive_curvature`` runs the whole pipeline for a named operator
     and aggregates the three channels -- the coefficient functions of
     (hess k) g^{-1} and (grad k grad k) g^{-1} and the constant on the
     scalar atom -- into a ``CurvatureReport``.

The dimension-2 families integrated here are

    K_{(p,q)}(s, r)   = r^{p+q-2}   (r+1)^{-p} (s r+1)^{-q}
    H_{(p,q,l)}(s,t,r)= r^{p+q+l-2} (r+1)^{-p} (s r+1)^{-q} (s t r+1)^{-l}

with s the modular variable of the first curvature factor and t that of
the second.  Everything is exact rational / rational-plus-log arithmetic;
floats appear only in ``eval_function`` (Horner forms of the exact parts,
or of their exact restriction to the line s = 1 or t = 1 or to the curve
st = 1, over mpmath), and reports are printed by ``artifact.printer``;
mpmath is imported only on that path, at its first call, and sympy only by
``SymbolicFunction.parts``.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, inf, isinf, perm
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .exactnum import Factor, RationalFunction, poly_add
from .symbol_engine import (
    NCExpression,
    NCMonomial,
    nc4tori_lower_symbols,
    resolvent_b,
    standard_p2,
)
from .cosphere_integrator import sphere_average

__all__ = [
    "SignatureError",
    "UsageError",
    "DivergentIntegralError",
    "TermSignature",
    "SymbolicFunction",
    "CurvatureReport",
    "extract_signature",
    "integrate_dim2",
    "integrate_dim_m",
    "radial_integral",
    "family_exponents",
    "scalar_profile",
    "operator_symbols",
    "derive_curvature",
    "eval_function",
    "OPERATORS",
]


class SignatureError(ValueError):
    """A scalar word does not match the recognized integral signatures."""


class UsageError(ValueError):
    """An argument outside an entry point's domain; the CLI exits with 2."""


class DivergentIntegralError(ArithmeticError):
    """The log-divergent residues of a radial integral failed to cancel."""


_BASIS = ("one", "log_s", "log_st")

# a polynomial in (s, t) as its terms ((i, j), c), each c * s^i * t^j
PolyTerms = Tuple[Tuple[Tuple[int, int], Fraction], ...]

OPERATORS = ("kdelta", "nc4tori")

# the denominator factors of the curvature functions, s, t and the node gaps
# s - 1, t - 1 and st - 1, in RationalFunction's canonical form
_S: Factor = (((1, 0), 1),)
_T: Factor = (((0, 1), 1),)
_S_1, _T_1, _ST_1 = ((((i, j), 1), ((0, 0), -1)) for i, j in ((1, 0), (0, 1), (1, 1)))
_RING = frozenset((_S, _T, _S_1, _T_1, _ST_1))


@lru_cache(maxsize=None)
def _symbols():
    """sympy and its (s, t); imported only for ``SymbolicFunction.parts``."""
    import sympy as sp

    return (sp,) + sp.symbols("s t", positive=True)


def _as_rational_function(value) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (int, Fraction)):
        return RationalFunction.monomial(0, 0, value)
    raise TypeError(f"{type(value).__name__}: parts and factors must be RationalFunction, "
                    "int or Fraction; tests/sympy_forms.py reads sympy expressions")


def _poly_expr(poly: Mapping[Tuple[int, int], Union[int, Fraction]]):
    """poly as a sum of monomials, the way sympy's polynomials print."""
    sp, S, T = _symbols()
    return sp.Add(*(sp.Rational(c.numerator, c.denominator) * S**i * T**j
                    for (i, j), c in poly.items()))


def _nest(coeffs: Mapping[int, str], var: str) -> str:
    """sum coeffs[d] * var^d as form = form * var^gap + coeff, from the top
    degree down to 0; as in sympy's form, a factor 1 or -1 is not multiplied."""
    degrees = sorted(coeffs, reverse=True)
    form = coeffs[degrees[0]]
    for hi, lo in zip(degrees, degrees[1:] + [0]):
        if hi == lo:
            continue
        step = var if hi - lo == 1 else f"{var}**{hi - lo}"
        term = {"1": step, "(-1)": f"-{step}"}.get(form, f"{step}*{form}")
        form = f"({term} + {coeffs[lo]})" if lo in coeffs else f"({term})"
    return form


def _horner(poly: Mapping[Tuple[int, int], int]) -> str:
    """Python source of poly in sympy's Horner form, in parentheses: nested
    in s, each coefficient nested in t, a run of zero coefficients folded
    into a power."""
    rows: Dict[int, Dict[int, str]] = {}
    for (i, j), c in poly.items():
        rows.setdefault(i, {})[j] = str(c) if c > 0 else f"({c})"
    return f"({_nest({i: _nest(row, 't') for i, row in rows.items()}, 's')})"


def _compile(part: RationalFunction):
    """part as a function of mpf (s, t), its Horner numerator over its Horner
    denominator; None for a zero part.  A constant part divides as mpf, at
    the working precision of the call."""
    import mpmath as mp

    num, den = part.fraction()
    if not num:
        return None
    top = _horner(num)
    if part.constant() is not None:
        top = f"mpf{top}"
    return eval(f"lambda s, t: {top} / {_horner(den)}", {"mpf": mp.mpf})


# --------------------------------------------------------------------------
# exact function container


class SymbolicFunction:
    """Exact function of (s, t) on the basis {1, log s, log(st)}.

    Each basis tag carries a part in the ring the divided differences of the
    radial integrals live in, Q[s^+-1, t^+-1, (s-1)^-1, (t-1)^-1, (st-1)^-1]:
    an ``exactnum.RationalFunction`` whose denominator is a product of
    powers of s, t, s - 1, t - 1 and st - 1, in lowest terms.  The
    represented function is

        parts["one"] + parts["log_s"]*log(s) + parts["log_st"]*log(s*t).

    Parts are given as RationalFunction, int or Fraction; anything else is
    a TypeError, and a denominator factor outside the five a ValueError.
    Equality is equality of the parts.  ``render``, ``parts_strings`` and
    ``repr`` print the parts, and ``fraction_terms`` reads each part's
    exact numerator and denominator.
    """

    __slots__ = ("_parts", "_uses_t", "_fns", "_restrictions")

    def __init__(self, parts: Optional[Mapping[str, object]] = None):
        src = parts or {}
        self._parts = tuple(_as_rational_function(src.get(tag, 0)) for tag in _BASIS)
        if any(f not in _RING for part in self._parts for f, _ in part.factors):
            raise ValueError("a part's denominator takes only the factors s, t, s - 1, t - 1 "
                             "and st - 1")
        # set once, since eval_function asks on every call
        self._uses_t = any(v.uses_t() for v in self._parts)
        self._fns = None
        self._restrictions = {}

    @property
    def parts(self) -> Dict[str, "sp.Expr"]:
        """Each part as a sympy expression, the form sympy's ``cancel``
        gives: integer numerator over expanded integer denominator.  This
        imports sympy; ``parts_strings`` prints the same parts without it.
        The benchmark in ``perfbench`` reads this view, so it goes when the
        benchmark builds its references from ``fraction_terms``."""
        out = {}
        for tag, v in zip(_BASIS, self._parts):
            num, den = v.fraction()
            out[tag] = _poly_expr(num) / _poly_expr(den)
        return out

    def fraction_terms(self) -> Dict[str, Tuple[PolyTerms, PolyTerms]]:
        """Each part's numerator and denominator in lowest terms; a zero part
        has no numerator terms."""
        return {tag: tuple(tuple((mono, Fraction(c)) for mono, c in poly.items())
                           for poly in v.fraction())
                for tag, v in zip(_BASIS, self._parts)}

    def __add__(self, other: "SymbolicFunction") -> "SymbolicFunction":
        return SymbolicFunction(
            {tag: a + b for tag, a, b in zip(_BASIS, self._parts, other._parts)}
        )

    def scaled(self, factor) -> "SymbolicFunction":
        """Each part times factor: an int, a Fraction or a RationalFunction."""
        if not isinstance(factor, (int, Fraction)):
            factor = _as_rational_function(factor)
        return SymbolicFunction({tag: v * factor for tag, v in zip(_BASIS, self._parts)})

    def __neg__(self) -> "SymbolicFunction":
        return self.scaled(-1)

    def __sub__(self, other: "SymbolicFunction") -> "SymbolicFunction":
        return self + (-other)

    def is_zero(self) -> bool:
        return not any(self._parts)

    def __eq__(self, other):
        if not isinstance(other, SymbolicFunction):
            return NotImplemented
        return self._parts == other._parts

    def __hash__(self):
        return hash(self._parts)

    def constant_value(self) -> Fraction:
        """The exact value when the function is a constant; error otherwise."""
        one, log_s, log_st = self._parts
        if log_s or log_st:
            raise ValueError("function has log terms, not a constant")
        value = one.constant()
        if value is None:
            raise ValueError("function depends on (s, t), not a constant")
        return value

    def render(self) -> str:
        """Single-fraction infix form, e.g.
        ``(-2*s + (s + 1)*log(s) + 2) / (2*(s - 1)^3)``, in sympy's printed
        form but written without sympy, by ``artifact.printer``."""
        from .printer import render

        return render(self._parts)

    def parts_strings(self) -> Dict[str, str]:
        """Each part as ``parts`` prints it, written without sympy."""
        from .printer import part_string

        return {tag: part_string(v) for tag, v in zip(_BASIS, self._parts)}

    def __repr__(self):
        return f"SymbolicFunction({self.render()!r})"

    # numeric evaluation ----------------------------------------------------

    def uses_t(self) -> bool:
        """Whether t occurs in a part; if not, only s = 1 is removable."""
        return self._uses_t

    def _eval_mp(self, sv, tv):
        import mpmath as mp

        if self._fns is None:
            # Horner forms need fewer mpf operations than the expanded parts
            # (the limit path runs at 90 digits); a zero part skips its log
            self._fns = tuple(map(_compile, self._parts))
        f1, fs, fst = self._fns
        value = f1(sv, tv) if f1 else mp.mpf(0)
        if fs:
            value += fs(sv, tv) * mp.log(sv)
        if fst:
            value += fst(sv, tv) * mp.log(sv * tv)
        return value

    def restriction(self, curve: str) -> "SymbolicFunction":
        """f on the line s = 1 or t = 1 or on the curve st = 1 (curve "s", "t"
        or "st"), exactly, as a function of one variable y renamed s: y = t
        on s = 1 and y = s on the other two.  Write v for the variable that
        is 1 there (s, t or st) and each monomial s^i t^j as y^(ai+bj)
        v^(ci+dj) (on the curve t = v/s, so s^(i-j) v^j).  Over the parts'
        common denominator (v - 1)^n D, f = N / ((v - 1)^n D) is finite at
        v = 1, so there f = d^n N / dv^n / (n! D) (L'Hopital), with d^k log v
        at v = 1 taken in by Leibniz' rule; log s and log(st) are a log y +
        c log v and (a+b) log y + (c+d) log v.  At v = 1 each factor of D is a
        power of y times a constant or y - 1, so the restriction stays in the
        ring."""
        if curve not in self._restrictions:
            if curve not in _CURVES:
                raise ValueError(f"curve must be 's', 't' or 'st', got {curve!r}")
            pole, (a, b), (c, d) = _CURVES[curve]
            # sorted, each factor's highest power comes last and stays
            den = dict(sorted(pair for part in self._parts for pair in part.factors))
            one, log_s, log_st = (part.numerator_over(den) for part in self._parts)
            n = den.pop(pole, 0)
            log_y = _mix(((log_s, a), (log_st, a + b)))
            log_v = _mix(((log_s, c), (log_st, c + d)))
            sub = (a, b), (c, d)
            scale = Fraction(1, factorial(n))
            num = _at_one(one, sub, n, scale)
            for k in range(1, n + 1):
                weight = scale * comb(n, k) * _log_derivative(k)
                num = poly_add(num, _at_one(log_v, sub, n - k, weight))
            den_at_one = [(_at_one(dict(fac), sub, 0), e) for fac, e in den.items()]
            self._restrictions[curve] = SymbolicFunction(
                {"one": _over(num, den_at_one),
                 "log_s": _over(_at_one(log_y, sub, n, scale), den_at_one)})
        return self._restrictions[curve]


# each component of the removable set: its factor v - 1, and the rows (a, b)
# and (c, d) that take s^i t^j to y^(ai+bj) v^(ci+dj)
_CURVES = {"s": (_S_1, (0, 1), (1, 0)), "t": (_T_1, (1, 0), (0, 1)),
           "st": (_ST_1, (1, -1), (0, 1))}


def _log_derivative(k: int) -> int:
    """d^k/dx^k log x at x = 1, for k >= 1."""
    return (-1) ** (k - 1) * factorial(k - 1)


def _mix(terms):
    """sum w * poly over the (poly, w) of terms."""
    out: Dict = {}
    for poly, w in terms:
        if w:
            out = poly_add(out, {m: w * c for m, c in poly.items()})
    return out


def _at_one(poly, sub, n: int, weight=1):
    """weight * d^n poly / dv^n at v = 1 as a Laurent polynomial in y, keyed
    (power of y, 0), with s^i t^j = y^(ai+bj) v^(ci+dj) for sub = ((a, b), (c, d))."""
    (a, b), (c, d) = sub
    out: Dict = {}
    for (i, j), coeff in poly.items():
        key = (a * i + b * j, 0)
        out[key] = out.get(key, 0) + coeff * weight * perm(c * i + d * j, n)
    return {m: v for m, v in out.items() if v}


def _lowest_power_out(poly):
    """(k, p) with poly = s^k p, p a polynomial in s with p(0) != 0, for a
    nonzero Laurent polynomial poly in s."""
    low = min(poly)[0]
    return low, {(i - low, 0): v for (i, _), v in poly.items()}


def _over(num, den) -> RationalFunction:
    """num / prod f^e over the (f, e) of den, for Laurent polynomials in s,
    each f the restriction of a ring factor: a power of s times a constant
    or a linear polynomial, which RationalFunction canonicalises."""
    if not num:
        return RationalFunction()
    low, poly = _lowest_power_out(num)
    factors = []
    for f, e in den:
        power, g = _lowest_power_out(f)
        low -= power * e
        factors.append((g, e))
    return RationalFunction(poly, factors) * RationalFunction.monomial(low, 0)


def eval_function(f: SymbolicFunction, s: float, t: float = 1.0) -> float:
    """Numeric value of f at (s, t) by one of four routes.  1e-4 or more off the
    removable set {s=1, t=1, st=1} (s = 1 alone if t occurs in no part of f):
    the parts' Horner forms at 60 digits.  Exactly on s = 1 or t = 1: f's exact
    restriction to that line at the other variable, so (1, 1) is exact.
    Exactly on st = 1, where two floats are reciprocal powers of two: f's exact
    restriction to the curve at s.  A restriction is a function of one variable,
    evaluated by these routes in turn.  Over the five reports and the radial
    families with p + q + l <= 5 a restriction has a pole of order at most 4 at
    1 (dim-2 G, and the dim-2 families of total 5 on st = 1), which cancels 16
    of the 60 digits at a gap of 1e-4 and leaves 44.  Else near the set: a
    4-point polynomial limit along the ray (s(1+e), t(1+e)) at 90 digits.
    mpmath is imported at the first evaluation that needs it, so a derivation
    never loads it.  A value past the float64 range is a UsageError."""
    if not (0 < s < inf and 0 < t < inf):
        raise UsageError("eval_function requires 0 < s < inf and 0 < t < inf")
    value = _evaluate(f, s, t)
    if isinf(value):
        raise UsageError(f"the value at s = {s!r}, t = {t!r} lies outside the float64 "
                         "range: its magnitude exceeds about 1.8e308")
    return value


def _evaluate(f: SymbolicFunction, s: float, t: float) -> float:
    """eval_function's four routes at a point with 0 < s, t < inf."""
    if not (f._parts[1] or f._parts[2]) and f._parts[0].constant() is not None:
        return float(f._parts[0].constant())
    if s == 1.0:
        return _evaluate(f.restriction("s"), t, 1.0)
    if f.uses_t():
        if t == 1.0:
            return _evaluate(f.restriction("t"), s, 1.0)
        # the float product screens; the exact one confirms
        if s * t == 1.0 and Fraction(s) * Fraction(t) == 1:
            return _evaluate(f.restriction("st"), s, 1.0)
    import mpmath as mp

    with mp.workdps(60):
        sv = mp.mpf(s)
        tv = mp.mpf(t)
        gap = abs(sv - 1)
        if f.uses_t():
            gap = min(gap, abs(tv - 1), abs(sv * tv - 1))
        if gap >= mp.mpf("1e-4"):
            return float(f._eval_mp(sv, tv))
    # at the smallest step the seventh-order pole (s-1)^2 (t-1)^2 (st-1)^3 of
    # the dim-2 G cancels about 41 digits, so the limit runs at 90
    with mp.workdps(90):
        eps = [mp.mpf("1e-5") * mp.mpf(2) ** (-i) for i in range(4)]
        vals = [f._eval_mp(sv * (1 + e), tv * (1 + e)) for e in eps]
        # Neville tableau evaluated at e = 0
        for j in range(1, 4):
            for i in range(4 - j):
                vals[i] = (eps[i] * vals[i + 1] - eps[i + j] * vals[i]) / (
                    eps[i] - eps[i + j]
                )
        return float(vals[0])


# --------------------------------------------------------------------------
# signatures


@dataclass(frozen=True)
class TermSignature:
    """Radial-integral data of one post-sphere scalar word.

    b0_exponents are the b0 powers of the blocks cut by the curvature
    factors: (n,) for the scalar channel, (p, q) around one factor,
    (p, q, l) around two.  modular_shifts has one entry per curvature
    factor: the net Delta power it acquired (k minus kinv counted to its
    right).  k_total is the net k power of the word itself; r_power is
    the Xi2 exponent w, tied to the blocks by w = sum(b0_exponents) - 2.
    """

    prefactor: Fraction
    b0_exponents: Tuple[int, ...]
    r_power: int
    k_total: int
    modular_shifts: Tuple[int, ...]
    rho_factors: Tuple[str, ...]
    contraction: str  # "ginv" or "none"

    @property
    def channel(self) -> str:
        if self.rho_factors == ("HessK",):
            return "hess"
        if self.rho_factors == ("GradK", "GradK"):
            return "gradgrad"
        return "scalar"


_RHO_KINDS = {"GradK", "HessK"}


def extract_signature(term: NCMonomial) -> TermSignature:
    """Classify one scalar word into a TermSignature.

    Raises SignatureError for anything outside the recognized table:
    non-real coefficient, leftover fiber atoms, more than two curvature
    factors, mixed factor kinds, mismatched metric contraction, or a
    broken w = sum(p_i) - 2 law.
    """
    coeff = term.coeff
    if coeff.im != 0:
        raise SignatureError("unsupported signature: coefficient is not real")
    blocks: List[int] = [0]
    rho_kinds: List[str] = []
    rho_slots: List[str] = []
    rho_pos: List[int] = []
    k_pos: List[int] = []
    kinv_pos: List[int] = []
    ginv_slots: Optional[Tuple[str, ...]] = None
    sdelta = 0
    w = 0
    for pos, atom in enumerate(term.word):
        kind = atom.kind
        if kind == "b0":
            blocks[-1] += 1
        elif kind == "k":
            k_pos.append(pos)
        elif kind == "kinv":
            kinv_pos.append(pos)
        elif kind in _RHO_KINDS:
            rho_kinds.append(kind)
            rho_slots.extend(atom.slots)
            rho_pos.append(pos)
            blocks.append(0)
        elif kind == "Xi2":
            w += 1
        elif kind == "Ginv":
            if ginv_slots is not None:
                raise SignatureError(
                    "unsupported signature: more than one metric contraction"
                )
            ginv_slots = atom.slots
        elif kind == "SDelta":
            sdelta += 1
        else:
            raise SignatureError(
                f"unsupported signature: atom {kind} has no radial family"
            )

    if len(rho_kinds) > 2:
        raise SignatureError("unsupported signature: more than two curvature factors")
    if rho_kinds and sdelta:
        raise SignatureError(
            "unsupported signature: scalar atom mixed with curvature factors"
        )
    if not rho_kinds:
        if sdelta != 1 or ginv_slots is not None:
            raise SignatureError(
                "unsupported signature: factor-free word is not a single "
                "scalar-atom term"
            )
        if len(blocks) != 1 or blocks[0] < 2:
            raise SignatureError(
                "unsupported signature: scalar-channel word needs a b0 block "
                "of exponent >= 2"
            )
    else:
        if rho_kinds not in (["HessK"], ["GradK", "GradK"]):
            raise SignatureError(
                f"unsupported signature: curvature factor pattern {rho_kinds}"
            )
        if ginv_slots is None:
            raise SignatureError(
                "unsupported signature: curvature factors lack a metric contraction"
            )
        if set(ginv_slots) != set(rho_slots) or len(rho_slots) != 2:
            raise SignatureError(
                "unsupported signature: metric contraction does not close the "
                "curvature-factor slots"
            )
        if blocks[0] < 1 or blocks[-1] < 1:
            raise SignatureError(
                "unsupported signature: word does not start and end in b0"
            )

    if w != sum(blocks) - 2:
        raise SignatureError(
            "unsupported signature: radial power "
            f"{w} breaks the w = sum(b0 exponents) - 2 law for blocks {tuple(blocks)}"
        )

    shifts = tuple(
        sum(1 for p in k_pos if p > rp) - sum(1 for p in kinv_pos if p > rp)
        for rp in rho_pos
    )
    return TermSignature(
        prefactor=Fraction(coeff.re),
        b0_exponents=tuple(blocks),
        r_power=w,
        k_total=len(k_pos) - len(kinv_pos),
        modular_shifts=shifts,
        rho_factors=tuple(rho_kinds),
        contraction="ginv" if ginv_slots is not None else "none",
    )


# --------------------------------------------------------------------------
# radial integration: one confluent divided difference per family


# the modular nodes 1, s, st as the exponents (a, b) of s^a t^b
_NODES = ((0, 0), (1, 0), (1, 1))
# 1 / (x_j - x_i) for the node pairs (i, j): s - 1, st - 1, st - s = s(t - 1)
_INVERSE_GAPS = {pair: RationalFunction({(0, 0): 1}, [(dict(f), 1) for f in gaps])
                 for pair, gaps in (((0, 1), (_S_1,)), ((0, 2), (_ST_1,)), ((1, 2), (_S, _T_1)))}


def _taylor(node: int, n: int, m: int) -> Tuple[RationalFunction, ...]:
    """phi_m^(n)(x)/n! at x = _NODES[node] on the basis (1, log s, log st),
    with phi_2(x) = -log x and phi_m(x) = Gamma(m/2-1) x^(1-m/2)."""
    (a, b), half = _NODES[node], m // 2
    out = [RationalFunction()] * 3
    if m > 2:
        k = 1 - half - n
        out[0] = RationalFunction.monomial(
            a * k, b * k, (-1) ** n * factorial(half - 2) * comb(n + half - 2, n))
    elif n:
        out[0] = RationalFunction.monomial(-a * n, -b * n, Fraction((-1) ** n, n))
    elif node:  # -log 1 = 0; -log s and -log(st) land on their basis tags
        out[node] = RationalFunction.monomial(0, 0, -1)
    return tuple(out)


@lru_cache(maxsize=None)
def _divided_difference(mults: Tuple[int, int, int], m: int) -> Tuple[RationalFunction, ...]:
    """phi_m[1^(p), s^(q), (st)^(l)] for mults = (p, q, l), by
    f[..] = (f[drop x_i] - f[drop x_j]) / (x_j - x_i) down to one node."""
    present = [i for i in range(3) if mults[i]]
    if len(present) == 1:
        return _taylor(present[0], mults[present[0]] - 1, m)
    i, j = present[0], present[1]
    drop_i = tuple(e - (k == i) for k, e in enumerate(mults))
    drop_j = tuple(e - (k == j) for k, e in enumerate(mults))
    return tuple(
        (a - b) * _INVERSE_GAPS[(i, j)]
        for a, b in zip(_divided_difference(drop_i, m), _divided_difference(drop_j, m))
    )


def family_exponents(exponents: Sequence[int]) -> Tuple[int, ...]:
    """The block exponents as Python ints, read by operator.index so numpy
    integers pass; any other value (2.5, 2.0, "2") is a SignatureError."""
    out = []
    for e in exponents:
        try:
            out.append(operator.index(e))
        except TypeError:
            raise SignatureError(f"family exponents must be integers, got {e!r}") from None
    return tuple(out)


def _even_dimension(m: int, message: str) -> int:
    """m as a Python int, read by operator.index as family_exponents reads
    the exponents; a non-integer (4.0, "4", None), an odd m or m < 2 is a
    UsageError with the given message."""
    try:
        m = operator.index(m)
    except TypeError:
        raise UsageError(f"{message}, got {m!r}") from None
    if m < 2 or m % 2:
        raise UsageError(message)
    return m


def radial_integral(exponents: Sequence[int], m: int) -> SymbolicFunction:
    """The radial family with b0 exponents (p[, q[, l]]) in even dimension m:
    (-1)^(P-1) phi_m[1^(p), s^(q), (st)^(l)], P = p + q + l.

    At m = 2 this is int_0^oo r^(P-2) (r+1)^-p (s r+1)^-q (s t r+1)^-l dr;
    no prefactor, shift monomial or measure 1/2 is folded in.
    """
    m = _even_dimension(m, "the radial families need even m >= 2")
    exponents = family_exponents(exponents)
    if len(exponents) not in (1, 2, 3):
        raise SignatureError("family exponents must have 1, 2, or 3 entries")
    if min(exponents) < 0:
        raise SignatureError("unsupported signature: negative block exponent")
    total = sum(exponents)
    if total < 2:
        raise DivergentIntegralError("divergent integral: block exponents sum below 2")
    sign = (-1) ** (total - 1)
    value = _divided_difference(exponents + (0,) * (3 - len(exponents)), m)
    return SymbolicFunction({tag: sign * v for tag, v in zip(_BASIS, value)})


def integrate_dim_m(sig: TermSignature, m: int) -> SymbolicFunction:
    """Exact dim-m radial integral of one signature, times its prefactor,
    shift monomial s^j1 t^j2, and the measure 1/2."""
    j1, j2 = (sig.modular_shifts + (0, 0))[:2]
    pre = RationalFunction.monomial(j1, j2, sig.prefactor / 2)
    return radial_integral(sig.b0_exponents, m).scaled(pre)


def integrate_dim2(sig: TermSignature) -> SymbolicFunction:
    # perfbench/spans.py (LAYERS) wraps this name; `--trace 1` raises
    # AttributeError without it
    return integrate_dim_m(sig, 2)


def scalar_profile(m: int) -> SymbolicFunction:
    """The scalar-channel profile F(s) = (1/2) * [K_(2,1) family](s):
    the modular function multiplying the scalar atom before the 2/(3m)
    weight.  F(1) = (m/2)!/4 for every even m."""
    return radial_integral((2, 1), m).scaled(Fraction(1, 2))


# --------------------------------------------------------------------------
# full derivation


def operator_symbols(operator: str) -> Dict[str, NCExpression]:
    if operator == "kdelta":
        return {"p2": standard_p2()}
    if operator == "nc4tori":
        return nc4tori_lower_symbols()
    raise UsageError(f"unknown operator {operator!r}; choose from {OPERATORS}")


# each channel's k power in the report, relative to -m/2
_CHANNEL_OFFSET = {"hess": 0, "gradgrad": -1, "scalar": 1}


def _signatures(m: int, operator: str):
    """The signature of every sphere-averaged b_2 word of operator in
    dimension m, each checked to carry its channel's k power."""
    averaged = sphere_average(resolvent_b(2, operator_symbols(operator)), m)
    for term in averaged.terms:
        sig = extract_signature(term)
        final_k = sig.k_total - sig.r_power - m // 2
        expected = _CHANNEL_OFFSET[sig.channel] - m // 2
        if final_k != expected:
            raise SignatureError(
                f"unsupported signature: channel {sig.channel} carries k power "
                f"{final_k}, expected {expected}"
            )
        yield sig


@dataclass(frozen=True)
class CurvatureReport:
    """Final derivation output for one (dimension, operator) pair.

    K multiplies k^(-m/2) (hess k) g^{-1}; G multiplies k^(-m/2-1)
    (grad k grad k) g^{-1}; c_scalar multiplies k^(-m/2+1) times the
    scalar atom.  The overall constants Vol(S^{m-1}) and (2 pi)^-m are
    recorded in ``normalization`` and never folded into the functions;
    the 1/2 from the radial change of variable r -> r^2 is folded in and
    listed descriptively.
    """

    dim: int
    operator: str
    K: SymbolicFunction
    G: SymbolicFunction
    c_scalar: Fraction
    k_powers: Tuple[Tuple[str, int], ...]
    normalization: Tuple[Tuple[str, str], ...]

    def k_power(self, channel: str) -> int:
        return dict(self.k_powers)[channel]

    @property
    def notes(self) -> Tuple[str, ...]:
        """Where the derived functions differ from tabulated forms.  Built
        when asked for: the nc4tori notes print K and G."""
        notes: List[str] = []
        if self.operator == "kdelta" and self.dim == 2:
            notes.append(
                "G channel: the derived function is the negative of a commonly "
                "tabulated closed form for this operator; the derived sign is the "
                "one for which the dim-2 Gauss-Bonnet residual oracle vanishes, "
                "and the difference is recorded here rather than adjusted."
            )
        if self.operator == "nc4tori":
            notes.append(
                "K channel: the derivation yields "
                f"{self.K.render()}; reference tabulations of the same operator quote "
                "magnitude 1/(4*s) with the overall sign printed inconsistently "
                "(both +1/(4*s) and -1/(4*s) appear); the factor-3 and sign "
                "differences are recorded here rather than adjusted."
            )
            notes.append(
                "G channel: the derivation yields "
                f"{self.G.render()}; reference tabulations quote -1/(8*s^2*t); the "
                "factor-3 difference is recorded here rather than adjusted."
            )
            notes.append(
                "scalar channel: this operator lives over a flat base, so the "
                "scalar atom has no geometric source; c_scalar is the universal "
                "pipeline value for the abstract channel."
            )
        return tuple(notes)

    def to_json(self) -> str:
        payload = {
            "dim": self.dim,
            "operator": self.operator,
            "normalization": dict(self.normalization),
            "k_powers": dict(self.k_powers),
            "K": {"render": self.K.render(), "parts": self.K.parts_strings()},
            "G": {"render": self.G.render(), "parts": self.G.parts_strings()},
            "c_scalar": str(self.c_scalar),
            "notes": list(self.notes),
        }
        return json.dumps(payload, indent=2)

    def to_text(self) -> str:
        lines = [
            "modular curvature report",
            f"  dim:       {self.dim}",
            f"  operator:  {self.operator}",
            "  normalization:",
        ]
        for name, value in self.normalization:
            lines.append(f"    {name} = {value}")
        lines.append(
            "  k powers:  "
            + ", ".join(f"{ch} {p}" for ch, p in self.k_powers)
        )
        lines.append(f"  K(s)    = {self.K.render()}")
        lines.append(f"  G(s,t)  = {self.G.render()}")
        lines.append(f"  c_scalar = {self.c_scalar}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines) + "\n"


def _normalization_record(m: int) -> Tuple[Tuple[str, str], ...]:
    half = m // 2
    vol_coeff = Fraction(2, factorial(half - 1))
    vol = f"{vol_coeff}*pi^{half}" if vol_coeff != 1 else f"pi^{half}"
    return (
        ("sphere_volume", vol),
        ("sphere_volume_coeff", str(vol_coeff)),
        ("sphere_volume_pi_power", str(half)),
        ("momentum_measure", f"(2*pi)^-{m}"),
        ("radial_measure_half", "1/2 (folded into K, G, c_scalar)"),
    )


def derive_curvature(m: int, operator: str) -> CurvatureReport:
    """Run resolvent -> sphere average -> signatures -> radial integrals
    and aggregate the three channels for the requested operator."""
    m = _even_dimension(m, "dimension must be an even integer >= 2")
    if operator == "nc4tori" and m != 4:
        raise UsageError("the nc4tori operator is defined only at dim 4")

    K = SymbolicFunction()
    G = SymbolicFunction()
    c_scalar = Fraction(0)
    for sig in _signatures(m, operator):
        value = integrate_dim_m(sig, m)
        if sig.channel == "hess":
            K = K + value
        elif sig.channel == "gradgrad":
            G = G + value
        else:
            c_scalar += value.constant_value()

    k_powers = tuple((ch, offset - m // 2) for ch, offset in _CHANNEL_OFFSET.items())
    return CurvatureReport(
        dim=m,
        operator=operator,
        K=K,
        G=G,
        c_scalar=c_scalar,
        k_powers=k_powers,
        normalization=_normalization_record(m),
    )


def dim2_quadrature_decomposition(which: str) -> Tuple[
        Tuple[Tuple[int, ...], Fraction, Tuple[int, ...]], ...]:
    """The dim-2 one- or two-variable channel as raw quadrature pieces.

    Returns consolidated triples (block exponents, rational prefactor with
    the half measure folded in, modular shifts); the channel value at (s, t)
    is sum prefactor * s^j1 [* t^j2] * integral of the radial family.  This
    feeds the independent quadrature cross-check, bypassing the symbolic
    divided-difference integration entirely.
    """
    if which not in ("K", "G"):
        raise UsageError("which must be K or G")
    channel = "hess" if which == "K" else "gradgrad"
    pieces: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Fraction] = {}
    for sig in _signatures(2, "kdelta"):
        if sig.channel != channel:
            continue
        key = (sig.b0_exponents, sig.modular_shifts)
        pieces[key] = pieces.get(key, Fraction(0)) + sig.prefactor / 2
    return tuple(sorted(
        (exps, coeff, shifts)
        for (exps, shifts), coeff in pieces.items()
        if coeff
    ))
