"""Opitz-matrix oracle for the radial integrator.

Opitz's formula: for the upper bidiagonal matrix J with the nodes
x_0, ..., x_{N-1} on the diagonal and 1 on the superdiagonal, the top-right
entry of phi(J) is the divided difference phi[x_0, ..., x_{N-1}], repeated
nodes included.  The matrix function is computed numerically with mpmath
(``logm`` for phi_2 = -log x, an inverse matrix power for
phi_m = Gamma(m/2-1) x^(1-m/2)), sharing no code with the exact recurrence
of ``radial_integral``.
"""

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
import sympy as sp

from artifact.cosphere_integrator import sphere_average
from artifact.modular_function_engine import (
    extract_signature,
    operator_symbols,
    radial_integral,
)
from artifact.symbol_engine import resolvent_b
from sympy_forms import combined

S, T = sp.symbols("s t", positive=True)

# every exponent tuple the derivations feed the integrator, plus the (2, 1)
# family of the scalar profile
FAMILIES = [(1, 1), (2, 1), (3, 1), (3,), (1, 1, 1), (1, 2, 1), (1, 0, 1),
            (2, 1, 1), (3, 1, 1), (2, 2, 1)]
DIMS = (2, 4, 6, 8)
DPS = 40
TOL = 1e-25


@lru_cache(maxsize=None)
def opitz_value(exponents, m, s, t):
    """(-1)^(P-1) [phi_m(J)]_{0, N-1} with nodes 1^(p), s^(q), (st)^(l),
    at DPS digits."""
    with mp.workdps(DPS):
        return _opitz(exponents, m, mp.mpf(s), mp.mpf(t))


def _opitz(exponents, m, s, t):
    nodes = [mp.mpf(1), s, s * t]
    diagonal = [x for x, e in zip(nodes, exponents) for _ in range(e)]
    n = len(diagonal)
    J = mp.matrix(n, n)
    for i, x in enumerate(diagonal):
        J[i, i] = x
        if i + 1 < n:
            J[i, i + 1] = 1
    if m == 2:
        phi = -mp.logm(J)
    else:
        phi = math.factorial(m // 2 - 2) * mp.inverse(J) ** (m // 2 - 1)
    return (-1) ** (n - 1) * phi[0, n - 1]


def seeded_points(seed, count=3):
    """(s, t) drawn log-uniformly, kept 0.1 away from s = 1, t = 1, st = 1."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        s, t = np.exp(rng.uniform(-1.6, 1.6, size=2))
        if min(abs(s - 1), abs(t - 1), abs(s * t - 1)) >= 0.1:
            points.append((float(s), float(t)))
    return points


def worst_error(integrator):
    """Largest relative gap between integrator(exps, m) and the Opitz value."""
    worst = 0.0
    with mp.workdps(DPS):
        for m in DIMS:
            for exps in FAMILIES:
                closed = sp.lambdify((S, T), combined(integrator(exps, m)), "mpmath")
                for s, t in seeded_points(10 * m + len(exps)):
                    sv, tv = mp.mpf(s), mp.mpf(t)
                    ref = opitz_value(exps, m, s, t)
                    err = abs(closed(sv, tv) - ref) / max(1, abs(ref))
                    worst = max(worst, float(err))
    return worst


def test_families_cover_every_derivation():
    fed = set()
    for m, operator in [(2, "kdelta"), (4, "kdelta"), (6, "kdelta"), (8, "kdelta"),
                        (4, "nc4tori")]:
        averaged = sphere_average(resolvent_b(2, operator_symbols(operator)), m)
        fed |= {extract_signature(term).b0_exponents for term in averaged.terms}
    assert fed <= set(FAMILIES)


def test_radial_integral_matches_opitz_matrix_function():
    assert worst_error(radial_integral) <= TOL


def test_opitz_oracle_detects_a_dropped_sign():
    def unsigned(exps, m):
        return radial_integral(exps, m).scaled((-1) ** (sum(exps) - 1))

    assert worst_error(unsigned) > 1e-3


def test_opitz_oracle_detects_swapped_nodes():
    def swapped(exps, m):
        p, q, l = tuple(exps) + (0,) * (3 - len(exps))
        return radial_integral((p, l, q), m)

    assert worst_error(swapped) > 1e-3
