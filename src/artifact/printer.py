"""sympy's ``str`` of the engine's exact functions, written without sympy.

The reports print each part of a ``SymbolicFunction`` as sympy's ``cancel``
prints it, and the whole function as one fraction (``render``).  Those
strings are what the golden reports and the benchmark references pin, so
this module reproduces sympy's ``StrPrinter`` byte for byte (with ``^`` for
``**``) on the only shapes the engine prints:

* a polynomial in s, t: terms in descending lex order, except that a
  positive constant plus one negative power prints constant first
  (``1 - s``), as ``Expr.as_ordered_terms`` does;
* a product: the sign pulled out, the rational coefficient split into its
  numerator and denominator, and the factors in ``default_sort_key`` order
  (symbols by name, then polynomials by their terms);
* ``render``'s numerator on the basis 1, log s, log t, ordered the way
  ``Expr.as_terms`` orders it: by the exponent vector over the generators
  s, t, the polynomial log coefficients and log s, log t, in that order.

A sort key here is the ``default_sort_key`` tuple of the sympy expression
the engine used to build, so keys compare as sympy's do.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from .exactnum import Factor, Monomial, RationalFunction, integer_scaled, poly_add

_Coeff = Union[int, Fraction]
# (exponent vector, coefficient, whether the term is one number times one
# non-number factor, text): one term of a sum
_Term = Tuple[Tuple[int, ...], _Coeff, bool, str]

# sympy's class keys
_NUMBER, _SYMBOL, _MUL, _ADD = (1, 0, "Number"), (2, 0, "Symbol"), (3, 0, "Mul"), (3, 1, "Add")


def _number_key(c: _Coeff):
    return (_NUMBER, (0, ()), (), c)


def _power_key(var: str, e: int, c: _Coeff = 1):
    return (_SYMBOL, (1, (var,)), _number_key(e), c)


def _term_key(mono: Monomial, c: _Coeff):
    """default_sort_key of c * s^i * t^j."""
    powers = [(v, e) for v, e in zip("st", mono) if e]
    if not powers:
        return _number_key(c)
    if len(powers) == 1:
        return _power_key(*powers[0], c)
    return (_MUL, (2, tuple(_power_key(v, e) for v, e in powers)), _number_key(1), c)


def _powers(mono: Monomial) -> List[str]:
    return [v if e == 1 else f"{v}^{e}" for v, e in zip("st", mono) if e]


def _product(c: _Coeff, top: List[str], bottom: Sequence[str] = ()) -> str:
    """c * prod(top) / prod(bottom), as sympy prints a Mul."""
    c = Fraction(c)
    top = ([str(abs(c.numerator))] if abs(c.numerator) != 1 else []) + top
    bottom = ([str(c.denominator)] if c.denominator != 1 else []) + list(bottom)
    text = ("-" if c < 0 else "") + ("*".join(top) or "1")
    if len(bottom) > 1:
        return f"{text}/({'*'.join(bottom)})"
    return f"{text}/{bottom[0]}" if bottom else text


def _ordered(terms: List[_Term]) -> List[_Term]:
    """Descending exponent vectors; a positive constant and one negative
    number-times-factor term print constant first."""
    terms = sorted(terms, key=lambda term: term[0], reverse=True)
    if (len(terms) == 2 and not any(terms[1][0]) and terms[1][1] > 0
            and terms[0][1] < 0 and terms[0][2]):
        terms.reverse()
    return terms


def _join(terms: List[_Term]) -> str:
    text = terms[0][3]
    for *_, t in terms[1:]:
        text += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return text


def _poly_terms(poly: Mapping[Monomial, _Coeff]) -> List[_Term]:
    return _ordered([(m, c, (m[0] == 0) != (m[1] == 0), _product(c, _powers(m)))
                     for m, c in poly.items()])


def _poly_key(terms: List[_Term]):
    """default_sort_key of a polynomial of several terms, printed as terms."""
    return (_ADD, (len(terms), tuple(_term_key(m, c) for m, c, *_ in terms)), _number_key(1), 1)


def _polynomial(poly: Mapping[Monomial, _Coeff]) -> str:
    return _join(_poly_terms(poly))


def part_string(part: RationalFunction) -> str:
    """part as sympy prints its integer numerator over its expanded
    denominator, e.g. ``(s + 1)/(2*s^3 - 6*s^2 + 6*s - 2)``."""
    num, den = part.fraction()
    if not num:
        return "0"
    if len(den) > 1:
        bottom = [f"({_polynomial(den)})"]
        if len(num) > 1:
            return f"({_polynomial(num)})/{bottom[0]}"
        ((mono, c),) = num.items()
        return _product(c, _powers(mono), bottom)
    ((den_mono, d),) = den.items()
    if len(num) > 1:
        if den_mono == (0, 0):
            # sympy distributes a rational factor over a sum
            return _polynomial({m: Fraction(c, d) for m, c in num.items()})
        return _product(Fraction(1, d), [f"({_polynomial(num)})"], _powers(den_mono))
    ((mono, c),) = num.items()
    if (mono, c, d) == ((0, 0), 1, 1) and min(den_mono) == 0 and max(den_mono) > 1:
        # 1/s^k alone is a Pow with a negative exponent, not a Mul
        return f"{'st'[den_mono.index(max(den_mono))]}^(-{max(den_mono)})"
    return _product(Fraction(c, d), _powers(mono), _powers(den_mono))


def _factor_power(f: Factor, e: int) -> Tuple[object, str]:
    """(sort key, text) of f^e as a factor of a product."""
    if len(f) == 1:
        ((mono, _),) = f
        var = _powers(mono)[0]
        return _power_key(var, 1), var if e == 1 else f"{var}^{e}"
    terms = _poly_terms(dict(f))
    base = f"({_join(terms)})"
    return _poly_key(terms), base if e == 1 else f"{base}^{e}"


def _denominator(scale: int, den: Mapping[Factor, int]) -> str:
    """scale * prod f^e as sympy's ``factor`` prints it."""
    factors = sorted(_factor_power(f, e) for f, e in den.items())
    text = "*".join(([str(scale)] if scale != 1 else []) + [t for _, t in factors])
    if scale == 1 and len(den) == 1:
        ((f, e),) = den.items()
        if len(f) > 1 and e == 1:
            return text[1:-1]  # a lone sum is not parenthesised
    return text


_LOGS = (((0, 0), ""), ((1, 0), "log(s)"), ((0, 1), "log(t)"))


def _numerator(nums: Sequence[Mapping[Monomial, _Coeff]]) -> str:
    """nums[0] + nums[1]*log(s) + nums[2]*log(t) as sympy prints the Add."""
    sums = {k: _poly_terms(p) for k, p in enumerate(nums) if k and len(p) > 1}
    keys = {k: _poly_key(terms) for k, terms in sums.items()}
    gens = sorted(set(keys.values()))
    terms: List[_Term] = []
    for k, poly in enumerate(nums):
        log, name = _LOGS[k]
        if k in sums:
            used = tuple(int(g == keys[k]) for g in gens)
            terms.append(((0, 0) + used + log, 1, False, f"({_join(sums[k])})*{name}"))
            continue
        for m, c in poly.items():
            factors = _powers(m) + ([name] if k else [])
            terms.append((m + (0,) * len(gens) + log, c, len(factors) == 1,
                          _product(c, factors)))
    return _join(_ordered(terms))


def render(parts: Sequence[RationalFunction]) -> str:
    """The function parts[0] + parts[1]*log(s) + parts[2]*log(st) as one
    fraction, e.g. ``(-2*s + (s + 1)*log(s) + 2) / (2*(s - 1)^3)``.

    The common denominator takes each factor at its largest exponent among
    the parts.  Every part is in lowest terms, so the single fraction is
    too; the numerator is collected on the basis 1, log s, log t, as sympy
    expands log(st) for s, t > 0."""
    if not any(parts):
        return "0"
    den: Dict[Factor, int] = {}
    for v in parts:
        for f, e in v.factors:
            den[f] = max(den.get(f, 0), e)
    one, log_s, log_st = (v.numerator_over(den) for v in parts)
    nums, scale = integer_scaled([one, poly_add(log_s, log_st), log_st])
    if not den and scale > 1 and sum(map(len, nums)) > 1:
        # sympy distributes 1/scale over a sum: a polynomial of several
        # terms prints with rational coefficients and no denominator
        nums, scale = [{m: Fraction(c, scale) for m, c in p.items()} for p in nums], 1
    top = _numerator(nums)
    if not den and scale == 1:
        return top
    return f"({top}) / ({_denominator(scale, den)})"
