"""The native printer against the sympy printing it replaced.

``reference_render`` and ``reference_part_string`` are that printing:
each part's numerator and denominator rebuilt as sympy polynomials
(``_poly_expr``), a part printed by ``str`` of their quotient, and the
single fraction assembled as a sympy ``Add`` over a sympy ``Mul`` of the
factored denominator.  ``artifact.printer`` (``render``, ``part_string``)
and through it ``SymbolicFunction.render`` and ``parts_strings`` write the
same strings without sympy, and must match them exactly: the golden
reports and the benchmark references pin these strings.  The printer takes
parts with any denominator, a ``SymbolicFunction`` only the ring's.
"""

from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Mapping, Sequence, Tuple, Union

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from artifact.exactnum import RationalFunction, integer_scaled, poly_add
from artifact.modular_function_engine import SymbolicFunction, derive_curvature
from artifact.printer import part_string, render

S, T = sp.symbols("s t", positive=True)

CASES = [(2, "kdelta"), (4, "kdelta"), (6, "kdelta"), (8, "kdelta"), (4, "nc4tori")]


def _poly_expr(poly: Mapping[Tuple[int, int], Union[int, Fraction]]):
    """poly as a sum of monomials, the way sympy's polynomials print."""
    return sp.Add(*(sp.Rational(c.numerator, c.denominator) * S**i * T**j
                    for (i, j), c in poly.items()))


def reference_part_string(part: RationalFunction) -> str:
    num, den = part.fraction()
    return str(_poly_expr(num) / _poly_expr(den)).replace("**", "^")


def reference_render(parts: Sequence[RationalFunction]) -> str:
    if not any(parts):
        return "0"
    den = {}
    for v in parts:
        for g, e in v.factors:
            den[g] = max(den.get(g, 0), e)
    one, log_s, log_st = (v.numerator_over(den) for v in parts)
    # on the basis 1, log s, log t, as sympy expands log(st) for s, t > 0
    nums, scale = integer_scaled([one, poly_add(log_s, log_st), log_st])
    if not den and scale > 1 and sum(map(len, nums)) > 1:
        # sympy distributes 1/scale over a sum: a polynomial of several
        # terms prints with rational coefficients and no denominator
        nums, scale = [{m: Fraction(c, scale) for m, c in p.items()} for p in nums], 1
    num = sp.Add(*(_poly_expr(p) * g for p, g in zip(nums, (1, sp.log(S), sp.log(T)))))
    # scale * prod f^e as sympy's factor prints it
    den_expr = sp.Mul(*(_poly_expr(dict(g)) ** e for g, e in den.items()))
    if scale != 1:
        den_expr = (sp.Mul(scale, den_expr, evaluate=False) if den_expr.is_Add
                    else scale * den_expr)
    num_s = str(num).replace("**", "^")
    if den_expr == 1:
        return num_s
    return f"({num_s}) / ({str(den_expr).replace('**', '^')})"


def _assert_parts_print_as_reference(parts: Sequence[RationalFunction]) -> None:
    assert render(parts) == reference_render(parts)
    assert [part_string(v) for v in parts] == [reference_part_string(v) for v in parts]


def _assert_prints_as_reference(f: SymbolicFunction) -> None:
    rendered = reference_render(f._parts)
    assert f.render() == rendered
    assert repr(f) == f"SymbolicFunction({rendered!r})"
    assert f.parts_strings() == dict(zip(("one", "log_s", "log_st"),
                                         map(reference_part_string, f._parts)))


@pytest.mark.parametrize("which", ["K", "G"])
@pytest.mark.parametrize("dim, operator", CASES)
def test_reports_print_as_the_sympy_reference(dim, operator, which):
    _assert_prints_as_reference(getattr(derive_curvature(dim, operator), which))


# the factor family of the engine's hypothesis tests: the five factors of
# SymbolicFunction's ring (s, t and the node gaps), and others whose sort
# keys, signs and constants differ
_FACTORS = (
    {(1, 0): 1}, {(0, 1): 1}, {(1, 0): 1, (0, 0): -1}, {(0, 1): 1, (0, 0): -1},
    {(1, 1): 1, (0, 0): -1}, {(1, 0): 1, (0, 1): 2}, {(1, 0): 3, (0, 0): -2},
    {(1, 0): 1, (0, 1): -1}, {(1, 0): 2, (0, 0): 1}, {(0, 2): 1, (1, 0): 1},
)


def _rf(c, num=(), den=()) -> RationalFunction:
    """c * prod(_FACTORS[num]) / prod(_FACTORS[den])."""
    return reduce(mul, (RationalFunction(_FACTORS[k]) for k in num),
                  RationalFunction({(0, 0): c}, [(_FACTORS[k], 1) for k in den]))


def _part(terms) -> RationalFunction:
    return sum((_rf(*term) for term in terms), RationalFunction())


def _fn(**parts) -> SymbolicFunction:
    return SymbolicFunction({tag: _part(terms) for tag, terms in parts.items()})


S_, T_, S1, T1, ST1, S2T, S32, SMT, S21, T2S = range(10)
RING = {S_, T_, S1, T1, ST1}
HALF = Fraction(1, 2)

SHAPES = {
    "zero": (_fn(), "0"),
    "constant": (_fn(one=[(Fraction(-3, 4),)]), "(-3) / (4)"),
    "integer-constant": (_fn(one=[(2,)]), "2"),
    "monomial-scaled": (_fn(one=[(Fraction(3, 2), (S_,))]), "(3*s) / (2)"),
    "polynomial-scaled": (_fn(one=[(HALF, (S_,)), (HALF,)]), "s/2 + 1/2"),
    "two-term": (_fn(one=[(1,), (-1, (S_,))]), "1 - s"),
    "two-term-scaled": (_fn(one=[(HALF,), (-HALF, (T_, T_))]), "1/2 - t^2/2"),
    "two-term-product": (_fn(one=[(1,), (-1, (S_, T_))]), "-s*t + 1"),
    "two-term-log": (_fn(one=[(1,)], log_s=[(-1,)]), "1 - log(s)"),
    "negative-leading": (_fn(one=[(-1, (S1,))], log_st=[(-2, (S_,))]),
                         "-2*s*log(s) - 2*s*log(t) - s + 1"),
    "negative-leading-over": (_fn(one=[(-1, (S21,), (S_, S_, S_))]), "(-2*s - 1) / (s^3)"),
    "monomial-logs": (_fn(one=[(1, (S_, S_))], log_s=[(3, (S_, S_, T_)), (-3, (S_, S_))],
                          log_st=[(3, (S_, S_))]),
                      "3*s^2*t*log(s) + 3*s^2*log(t) + s^2"),
    "polynomial-logs": (_fn(log_s=[(1, (S1,))], log_st=[(1, (T1,), (S_,))]),
                        "((t - 1)*log(t) + (s^2 - s + t - 1)*log(s)) / (s)"),
    "same-log-coefficients": (_fn(log_st=[(1, (S2T,), (T1,))]),
                              "((s + 2*t)*log(s) + (s + 2*t)*log(t)) / (t - 1)"),
    "all-three": (_fn(one=[(Fraction(1, 3), (S_,), (S1, S1))],
                      log_s=[(-1, (T2S,), (ST1,))], log_st=[(HALF, (S32,), (S_, T_))]),
                  None),
    "inverse-power": (_fn(one=[(1, (), (T_, T_))]), "(1) / (t^2)"),
}


@pytest.mark.parametrize("name", SHAPES)
def test_shapes_print_as_the_sympy_reference(name):
    f, rendered = SHAPES[name]
    _assert_prints_as_reference(f)
    if rendered is not None:
        assert f.render() == rendered


def test_lone_inverse_powers_print_as_sympy_pows():
    f = _fn(one=[(1, (), (T_, T_))], log_s=[(1, (), (S_,))], log_st=[(1, (), (S_, S_, S_))])
    assert f.parts_strings() == {"one": "t^(-2)", "log_s": "1/s", "log_st": "s^(-3)"}


_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
_indices = st.lists(st.integers(0, len(_FACTORS) - 1), max_size=3)
_parts = st.lists(st.tuples(_coeffs, _indices, _indices), max_size=3)


@given(one=_parts, log_s=_parts, log_st=_parts)
@settings(deadline=None, max_examples=200)
def test_random_functions_print_as_the_sympy_reference(one, log_s, log_st):
    # the printer takes any denominator; a SymbolicFunction only the ring's
    drawn = (one, log_s, log_st)
    _assert_parts_print_as_reference([_part(terms) for terms in drawn])
    if all(k in RING for terms in drawn for _, _, den in terms for k in den):
        _assert_prints_as_reference(_fn(one=one, log_s=log_s, log_st=log_st))


@given(one=_parts, log_s=_parts, log_st=_parts)
@settings(deadline=None, max_examples=100)
def test_random_polynomials_print_as_the_sympy_reference(one, log_s, log_st):
    # no denominators: rational scales are distributed over the sums
    _assert_prints_as_reference(_fn(**{tag: [(c, n) for c, n, _ in terms] for tag, terms in
                                      (("one", one), ("log_s", log_s), ("log_st", log_st))}))
