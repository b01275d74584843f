"""The exact Taylor layer of the Gauss-Bonnet oracle against the Fraction
pipeline it replaced.

The reference below is that pipeline: ray series of exponentials summed in
``Fraction``, Laurent division in ``Fraction`` and the bivariate coefficients
by Gaussian elimination of a Vandermonde system, with the rays beyond its
rank as consistency checks.  The integer layer must reproduce it exactly:
equal coefficients of type ``Fraction``.  ``_dim2_taylor`` reads G off its
exact restriction to st = 1 instead, so it must equal the pipeline's full
table folded onto that curve.
"""

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from artifact import numeric_oracle as oracle
from artifact.modular_function_engine import PolyTerms, SymbolicFunction, derive_curvature

CASES = [(2, "kdelta"), (4, "kdelta"), (6, "kdelta"), (8, "kdelta"), (4, "nc4tori")]


def _exp_coeffs(k: int, length: int) -> List[Fraction]:
    """Coefficients of e^(k z) in QQ[[z]] up to z^(length-1)."""
    out = [Fraction(1)]
    for n in range(1, length):
        out.append(out[-1] * k / n)
    return out


def _poly_ray_series(terms: PolyTerms, ray: Tuple[int, int], length: int) -> List[Fraction]:
    """Series of P(e^{a z}, e^{b z}) for the polynomial P in (s, t) along
    the ray (s, t) = (e^{ray0 z}, e^{ray1 z})."""
    out = [Fraction(0)] * length
    for (ds, dt), c in terms:
        ec = _exp_coeffs(ray[0] * ds + ray[1] * dt, length)
        for n in range(length):
            out[n] += c * ec[n]
    return out


def _low_index(series: List[Fraction]) -> Optional[int]:
    for i, c in enumerate(series):
        if c:
            return i
    return None


def _series_div(num: List[Fraction], den: List[Fraction], length: int,
                ) -> Tuple[int, List[Fraction]]:
    """Laurent division: returns (offset, q) with num/den = sum q[i] z^(offset+i)."""
    dv = _low_index(den)
    if dv is None:
        raise ZeroDivisionError("series division by zero")
    nv = _low_index(num)
    if nv is None:
        return 0, [Fraction(0)] * length
    dd = den[dv:]
    nn = num[nv:] + [Fraction(0)] * dv
    q = [Fraction(0)] * length
    lead = dd[0]
    for i in range(length):
        acc = nn[i] if i < len(nn) else Fraction(0)
        for j in range(1, min(i, len(dd) - 1) + 1):
            acc -= dd[j] * q[i - j]
        q[i] = acc / lead
    return nv - dv, q


def _ray_taylor(f: SymbolicFunction, ray: Tuple[int, int], order: int,
                ) -> List[Fraction]:
    """Exact Taylor coefficients (z^0 .. z^order) of f(e^{ray0 z}, e^{ray1 z}).

    Individual basis parts may have poles at z = 0; the assembled function
    is analytic there, which is asserted.
    """
    work = order + 14
    log_factor = {"one": None, "log_s": ray[0], "log_st": ray[0] + ray[1]}
    # accumulate as Laurent series with a common floor offset
    floor = 0
    acc: Dict[int, Fraction] = {}
    for tag, (num, den) in f.fraction_terms().items():
        if not num:
            continue
        lf = log_factor[tag]
        ns = _poly_ray_series(num, ray, work)
        ds = _poly_ray_series(den, ray, work)
        off, q = _series_div(ns, ds, work)
        if lf is not None:
            # multiply by log of e^{lf z} = lf * z
            off += 1
            q = [c * lf for c in q]
        floor = min(floor, off)
        for i, c in enumerate(q):
            if c:
                acc[off + i] = acc.get(off + i, Fraction(0)) + c
    for power in range(floor, 0):
        if acc.get(power):
            raise ArithmeticError(
                f"ray series has a genuine pole at z = 0 (power {power})"
            )
    return [acc.get(n, Fraction(0)) for n in range(order + 1)]


def _solve_vandermonde(lams: Sequence[int], rhs: Sequence[Fraction],
                       ) -> List[Fraction]:
    """Solve sum_b c_b lam^b = rhs_lam exactly (Gaussian elimination in QQ)."""
    n = len(rhs)
    A = [[Fraction(lam) ** b for b in range(n)] + [rhs[i]]
         for i, lam in enumerate(lams[:n])]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col])
        A[col], A[piv] = A[piv], A[col]
        inv = 1 / A[col][col]
        A[col] = [v * inv for v in A[col]]
        for r in range(n):
            if r != col and A[r][col]:
                f = A[r][col]
                A[r] = [v - f * w for v, w in zip(A[r], A[col])]
    return [A[r][n] for r in range(n)]


def _bivariate_taylor(f: SymbolicFunction, order: int) -> Dict[Tuple[int, int], Fraction]:
    """Exact coefficients c_(a,b) of f(e^{z1}, e^{z2}) = sum c_(a,b) z1^a z2^b,
    a + b <= order, recovered from the rays z2 = lam * z1, lam = 1..order+1.

    Rays beyond the Vandermonde rank are used as consistency checks.
    """
    lams = list(range(1, order + 2))
    rays = {lam: _ray_taylor(f, (1, lam), order) for lam in lams}
    out: Dict[Tuple[int, int], Fraction] = {}
    for d in range(order + 1):
        rhs = [rays[lam][d] for lam in lams]
        coeffs = _solve_vandermonde(lams, rhs[: d + 1])
        for lam, val in zip(lams[d + 1:], rhs[d + 1:]):
            check = sum(c * Fraction(lam) ** b for b, c in enumerate(coeffs))
            if check != val:
                raise ArithmeticError(
                    f"ray interpolation inconsistent at degree {d}, ray {lam}"
                )
        for b, c in enumerate(coeffs):
            if c:
                out[(d - b, b)] = c
    return out


@lru_cache(maxsize=None)
def reference_dim2_taylor(order: int):
    """The full Taylor table of the dim-2 pair: the coefficients of K(e^z) up
    to z^order, and the rows (a, b, c_ab) of G(e^{z1}, e^{z2}) =
    sum c_ab z1^a z2^b up to total degree order, sorted."""
    report = derive_curvature(2, "kdelta")
    kcoeffs = tuple(_ray_taylor(report.K, (1, 0), order))
    gdict = _bivariate_taylor(report.G, order)
    return kcoeffs, tuple(sorted((a, b, c) for (a, b), c in gdict.items()))


def fold_onto_the_curve(kcoeffs, gcoeffs, order: int):
    """The table as ``_dim2_taylor`` gives it: K(1), and the coefficients
    d_n = sum_(a+b=n) (-1)^a c_ab of G(e^{-z}, e^z), n = 0 .. order."""
    dcoeffs = [Fraction(0)] * (order + 1)
    for a, b, c in gcoeffs:
        if a + b <= order:
            dcoeffs[a + b] += -c if a % 2 else c
    return kcoeffs[0], tuple(dcoeffs)


def _all_fractions(values):
    return all(type(v) is Fraction for v in values)


@pytest.mark.parametrize("order", range(1, 11))
def test_dim2_taylor_matches_the_fraction_pipeline(order):
    k1, dcoeffs = oracle._dim2_taylor(order)
    assert (k1, dcoeffs) == fold_onto_the_curve(*reference_dim2_taylor(order), order)
    assert len(dcoeffs) == order + 1 and _all_fractions((k1, *dcoeffs))


@pytest.mark.parametrize("dim,operator", CASES, ids=[f"{op}-{d}" for d, op in CASES])
@pytest.mark.parametrize("which", ["K", "G"])
@pytest.mark.parametrize("lam", [1, 2, 3, 4])
def test_ray_taylor_matches_the_fraction_pipeline(dim, operator, which, lam):
    f = getattr(derive_curvature(dim, operator), which)
    got = oracle._ray_taylor(f, (1, lam), 8)
    assert got == _ray_taylor(f, (1, lam), 8)
    assert len(got) == 9 and _all_fractions(got)
