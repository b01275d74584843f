"""eval_function against the sympy evaluation it replaced.

``reference_eval`` is that evaluation: each part of ``f.parts`` (the
cancelled expression) lambdified over mpmath as sp.horner(numerator) /
sp.horner(denominator), summed on the basis {1, log s, log(st)} at 60 digits
off the removable set {s = 1, t = 1, st = 1}, and extrapolated to the set by
the same 4-point Neville limit at 90 digits within 1e-4 of it.  The engine
compiles its Horner forms without sympy and must give the same floats, bit
for bit, for K and G of every shipped report, exactly on s = 1 and t = 1
too, where it evaluates an exact restriction instead of the limit, and on
st = 1 at reciprocal powers of two, where it evaluates the restriction to
the curve; the radial H families are checked on the curve too.

For the built functions the points exactly on s = 1 or t = 1 are checked
against ``exact_on_set``, sympy's limit onto that line at the other
variable's exact value, to 60 digits: there the engine's value is exact,
and the Neville limit of a function that vanishes on the line leaves a
residue of about 1e-19.
"""

import functools
import math
import random

import mpmath as mp
import pytest
import sympy as sp

from artifact.modular_function_engine import (SymbolicFunction, derive_curvature, eval_function,
                                               radial_integral)
from sympy_forms import combined, from_sympy

S, T = sp.symbols("s t", positive=True)

CASES = [(2, "kdelta"), (4, "kdelta"), (6, "kdelta"), (8, "kdelta"), (4, "nc4tori")]


@functools.lru_cache(maxsize=None)
def _reference_parts(f: SymbolicFunction):
    parts = f.parts
    fns = []
    for tag in ("one", "log_s", "log_st"):
        num, den = sp.fraction(parts[tag])
        fns.append(sp.lambdify((S, T), sp.horner(num) / sp.horner(den), modules="mpmath")
                   if num != 0 else None)
    uses_t = any(T in p.free_symbols for p in parts.values())
    return fns, uses_t


def _reference_mp(fns, sv, tv):
    f1, fs, fst = fns
    value = f1(sv, tv) if f1 else mp.mpf(0)
    if fs:
        value += fs(sv, tv) * mp.log(sv)
    if fst:
        value += fst(sv, tv) * mp.log(sv * tv)
    return value


def reference_eval(f: SymbolicFunction, s: float, t: float = 1.0) -> float:
    fns, uses_t = _reference_parts(f)
    with mp.workdps(60):
        sv, tv = mp.mpf(s), mp.mpf(t)
        gap = abs(sv - 1)
        if uses_t:
            gap = min(gap, abs(tv - 1), abs(sv * tv - 1))
        if gap >= mp.mpf("1e-4"):
            return float(_reference_mp(fns, sv, tv))
    with mp.workdps(90):
        eps = [mp.mpf("1e-5") * mp.mpf(2) ** (-i) for i in range(4)]
        vals = [_reference_mp(fns, sv * (1 + e), tv * (1 + e)) for e in eps]
        for j in range(1, 4):
            for i in range(4 - j):
                vals[i] = (eps[i] * vals[i + 1] - eps[i + j] * vals[i]) / (eps[i] - eps[i + j])
        return float(vals[0])


def exact_on_set(f: SymbolicFunction, s: float, t: float = 1.0) -> float:
    """f on s = 1 (or on t = 1) as sympy's limit s -> 1 (t -> 1) at the exact
    rational value of the other variable, evaluated to 60 digits."""
    axis, other, value = (S, T, t) if s == 1.0 else (T, S, s)
    line = combined(f).subs(other, sp.Rational(value))
    return float(sp.limit(line, axis, 1).evalf(60))


def _points(rng: random.Random, two_variable: bool):
    """30 regular points, then points on each component of the removable set
    (s = 1 only for K), each with a neighbour 1e-9 to 5e-5 off it."""
    def draw():
        return 10 ** rng.uniform(-1, 1)

    def near(x):
        return x * (1 + rng.choice((-1, 1)) * 10 ** rng.uniform(-9, math.log10(5e-5)))

    def dyadic():
        return rng.choice([k / 64 for k in range(7, 640) if k != 64])

    if not two_variable:
        return [(draw(), 1.0) for _ in range(30)] + [(1.0, 1.0)] + [(near(1.0), 1.0)
                                                                   for _ in range(9)]
    points = [(draw(), draw()) for _ in range(30)]
    for i in range(9):
        j = rng.choice((-3, -2, -1, 1, 2, 3))
        s0, t0 = [(1.0, dyadic()), (dyadic(), 1.0), (2.0**j, 2.0**-j)][i % 3]
        points += [(s0, t0), (s0, near(t0)) if i % 3 == 1 else (near(s0), t0)]
    return points


# far out along each line of the removable set
EXTREME = [(1.0, math.exp(30)), (1.0, math.exp(-30)), (math.exp(30), 1.0), (math.exp(-30), 1.0)]


@pytest.mark.parametrize("dim, operator", CASES)
@pytest.mark.parametrize("which", ["K", "G"])
def test_eval_matches_the_lambdified_parts_bit_for_bit(dim, operator, which):
    f = getattr(derive_curvature(dim, operator), which)
    rng = random.Random(f"{operator}-{dim}-{which}")
    for s, t in _points(rng, which == "G") + EXTREME:
        assert eval_function(f, s, t).hex() == reference_eval(f, s, t).hex(), (s, t)


@pytest.mark.parametrize("dim, operator", CASES)
@pytest.mark.parametrize("which", ["K", "G"])
def test_printed_parts_read_back_to_the_same_function(dim, operator, which):
    f = getattr(derive_curvature(dim, operator), which)
    g = from_sympy(f.parts)
    assert g == f and hash(g) == hash(f)


# the H families of total <= 5; the reports use (3, 1, 1), (2, 1, 1) and (2, 2, 1)
H_FAMILIES = [(p, q, l) for p in range(1, 4) for q in range(1, 4) for l in range(1, 4)
              if p + q + l <= 5]
ON_CURVE = [(2.0**j, 2.0**-j) for j in range(-6, 7) if j]


@pytest.mark.parametrize("m", [2, 4, 6])
@pytest.mark.parametrize("exponents", H_FAMILIES, ids=lambda e: "H" + "".join(map(str, e)))
def test_eval_of_radial_families_on_the_curve_matches_bit_for_bit(exponents, m):
    # exactly on st = 1 the engine evaluates its restriction to the curve
    f = radial_integral(exponents, m)
    for s, t in ON_CURVE:
        assert eval_function(f, s, t).hex() == reference_eval(f, s, t).hex(), (s, t)


# parts the reports do not have: a constant beside an st - 1 pole, a
# polynomial, a denominator with no root on the removable set
BUILT = [
    {"one": sp.Rational(-4, 5), "log_s": (S + T) / (4 * S**2 * T),
     "log_st": (-2 * S**3 + S**2 + S) / (S * T - 1)},
    {"one": S / 3 + sp.Rational(1, 3), "log_st": sp.Rational(1, 7)},
    {"log_s": (S + 2 * T) / (S**2 * T)},
]


@pytest.mark.parametrize("parts", BUILT, ids=["constant", "polynomial", "other-factors"])
def test_eval_of_built_functions_matches_the_reference(parts):
    f = from_sympy(parts)
    rng = random.Random(repr(parts))
    for s, t in _points(rng, True):
        on_set = s == 1.0 or (t == 1.0 and f.uses_t())
        want = (exact_on_set if on_set else reference_eval)(f, s, t)
        assert eval_function(f, s, t).hex() == want.hex(), (s, t)
