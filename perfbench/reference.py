"""References that share no code with the engine's numeric paths.

A derived function is read as its three exact parts (the coefficients of
1, log s and log(st)), either from a ``derive --format json`` report or
from ``SymbolicFunction.parts``.  Off the removable set {s = 1, t = 1,
st = 1} the reference is sympy ``evalf`` of the combined expression at the
exact rational value of the float point, to 50 digits with sympy's own
precision tracking.  On the set it is the exact limit along the ray
(s0 (1 + e), t0 (1 + e)), e -> 0, computed with the logs replaced by Taylor
polynomials of an order above every pole in e.
"""

from __future__ import annotations

import json
import math
import pathlib
from fractions import Fraction
from typing import Dict, Mapping

import sympy as sp

S, T = sp.symbols("s t", positive=True)
_E = sp.Symbol("e", positive=True)
_BASIS = ("one", "log_s", "log_st")

DIGITS = 50
# -log10 of the float64 unit roundoff 2^-53: a relative error of zero reads this
DIGITS_CAP = 53 * math.log10(2.0)

REFERENCES = pathlib.Path(__file__).with_name("references.json")


def parts_from_json(parts: Mapping[str, str]) -> Dict[str, sp.Expr]:
    """The exact parts of a report's ``parts`` strings (``^`` for powers)."""
    names = {"s": S, "t": T}
    return {tag: sp.sympify(parts[tag].replace("^", "**"), locals=names)
            for tag in _BASIS}


def combined(parts: Mapping[str, sp.Expr]) -> sp.Expr:
    return parts["one"] + parts["log_s"] * sp.log(S) + parts["log_st"] * sp.log(S * T)


def on_removable_set(s: Fraction, t: Fraction) -> bool:
    return s == 1 or t == 1 or s * t == 1


def ray_limit(parts: Mapping[str, sp.Expr], s0, t0) -> sp.Expr:
    """Exact limit of the function along (s0 (1 + e), t0 (1 + e)), e -> 0."""
    s0, t0 = sp.Rational(s0), sp.Rational(t0)
    ray = {S: s0 * (1 + _E), T: t0 * (1 + _E)}
    rational = {tag: sp.cancel(parts[tag].subs(ray)) for tag in _BASIS if parts[tag] != 0}
    if not rational:
        return sp.Integer(0)
    order = 1 + max(sp.degree(sp.denom(p), _E) for p in rational.values())
    log1p = sum((-1) ** (n + 1) * _E**n / n for n in range(1, order + 1))
    logs = {"one": 1, "log_s": sp.log(s0) + log1p, "log_st": sp.log(s0 * t0) + 2 * log1p}
    return sp.cancel(sum(rational[tag] * logs[tag] for tag in rational)).subs(_E, 0)


def value(parts: Mapping[str, sp.Expr], s: float, t: float = 1.0) -> sp.Float:
    """50-digit reference for the function at the float point (s, t)."""
    sq, tq = Fraction(s), Fraction(t)
    if on_removable_set(sq, tq):
        return sp.N(ray_limit(parts, sq, tq), DIGITS)
    point = {S: sp.Rational(sq.numerator, sq.denominator),
             T: sp.Rational(tq.numerator, tq.denominator)}
    return combined(parts).evalf(DIGITS, subs=point, strict=True, maxn=800)


def digits(approx: float, reference) -> float:
    """-log10 of the relative error, capped at double resolution; a value
    that is not a finite number reads -DIGITS_CAP."""
    ref = sp.Float(reference, DIGITS)
    if ref == 0:
        raise ValueError("relative digits need a nonzero reference")
    if not math.isfinite(approx):
        return -DIGITS_CAP
    rel = abs((sp.Float(approx, DIGITS) - ref) / ref)
    if rel == 0:
        return DIGITS_CAP
    return max(-DIGITS_CAP, min(DIGITS_CAP, -math.log10(float(rel))))


def value_at_one(parts: Mapping[str, sp.Expr]) -> Fraction:
    """The function at s = t = 1, exactly."""
    q = sp.Rational(ray_limit(parts, 1, 1))
    return Fraction(int(q.p), int(q.q))


def gilkey(dim: int, operator: str):
    """(K(1), G(1,1)) that Gilkey's a_2 fixes for the case, as Fractions."""
    table = json.loads(REFERENCES.read_text())["gilkey_K1_G11"]
    k1, g11 = table[f"{operator}-{dim}"]
    return Fraction(k1), Fraction(g11)
