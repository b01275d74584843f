"""sympy forms of ``SymbolicFunction``, for tests that state functions in sympy.

The engine takes exact parts only: ``exactnum.RationalFunction``, int or
Fraction.  ``from_sympy_part`` reads a sympy rational function of the
positive symbols s, t as such a part, ``from_sympy`` builds a function from
sympy parts, and ``combined`` writes a function as one sympy expression on
the basis {1, log s, log(st)}.
"""

from fractions import Fraction
from typing import Mapping

import sympy as sp

from artifact.exactnum import RationalFunction
from artifact.modular_function_engine import SymbolicFunction

S, T = sp.symbols("s t", positive=True)


def from_sympy_part(expr) -> RationalFunction:
    """A sympy expression in (s, t) as a RationalFunction; the denominator
    is factored once, so any denominator is accepted.  Anything but a
    rational function with rational coefficients is a ValueError."""
    expr = sp.sympify(expr)
    try:
        num, den = sp.fraction(sp.together(expr))
        coeff, factors = sp.factor_list(den, S, T)
        polys = [sp.Poly(p, S, T) for p in [num] + [f for f, _ in factors]]
    except sp.PolynomialError:  # a log, a root or another function of s, t
        polys = []
    # any other symbol, a float, I or an infinity lands in the coefficients
    if not (polys and coeff.is_Rational and all(p.domain in (sp.ZZ, sp.QQ) for p in polys)):
        raise ValueError(f"{expr}: parts must be rational functions with rational "
                         "coefficients in the positive symbols s, t")
    scale = Fraction(int(coeff.p), int(coeff.q))
    rational = {m: Fraction(int(c.p), int(c.q)) / scale for m, c in polys[0].as_dict().items()}
    return RationalFunction(rational, [({m: int(c) for m, c in p.as_dict().items()}, e)
                                       for p, (_, e) in zip(polys[1:], factors)])


def from_sympy(parts: Mapping[str, object]) -> SymbolicFunction:
    """The function with the given sympy parts, keyed by basis tag."""
    return SymbolicFunction({tag: from_sympy_part(expr) for tag, expr in parts.items()})


def combined(f: SymbolicFunction) -> sp.Expr:
    """f as one sympy expression: one + log_s*log(s) + log_st*log(s*t)."""
    parts = f.parts
    return parts["one"] + parts["log_s"] * sp.log(S) + parts["log_st"] * sp.log(S * T)
