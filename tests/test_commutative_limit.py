"""Commutative limit of the curvature functions against Gilkey's a_2.

At s = t = 1 the modular functions reduce to the classical second heat
coefficient.  For a Laplace-type operator P = -(g^ij d_i d_j + A^k d_k + B)
the local coefficient over dx is (Gilkey; Vassilevich, Phys. Rep. 388)

    a_2(x) = (4 pi)^(-m/2) (R/6 + E) sqrt(g),
    E = B - g^ij (d_i w_j + w_i w_j - w_k Gamma^k_ij),
    w_i = (1/2) g_ij (A^j + g^kl Gamma^j_kl).

The engine writes the same density as the recorded normalization
Vol(S^(m-1)) (2 pi)^(-m) times

    K(1) k^(-m/2) lap k + G(1,1) k^(-m/2-1) |grad k|^2 + c_scalar k^(1-m/2) R.

Everything on the Gilkey side is computed here with sympy from each
operator's coefficients, written out below; from the engine only the
outputs of ``derive_curvature`` are read.  Symbols: g^ij = k delta^ij on
flat space, lap k = sum_a d_a^2 k, and k depends on two coordinates, which
is enough to separate the two invariants.
"""

import functools
import math
from fractions import Fraction

import pytest
import sympy as sp

from artifact.modular_function_engine import derive_curvature

report_for = functools.cache(derive_curvature)

S, T = sp.symbols("s t", positive=True)
_E = sp.Symbol("e", positive=True)


def christoffel(ginv, g, xs):
    m = len(xs)
    return [
        [
            [
                sum(
                    ginv[l, q]
                    * (
                        sp.diff(g[q, i], xs[j])
                        + sp.diff(g[q, j], xs[i])
                        - sp.diff(g[i, j], xs[q])
                    )
                    for q in range(m)
                )
                / 2
                for j in range(m)
            ]
            for i in range(m)
        ]
        for l in range(m)
    ]


def scalar_curvature(ginv, gam, xs):
    """R = g^ij R_ij, normalised so that the unit sphere S^2 has R = 2."""
    m = len(xs)
    total = 0
    for i in range(m):
        for j in range(m):
            if ginv[i, j] == 0:
                continue
            ricci = 0
            for q in range(m):
                ricci += sp.diff(gam[q][i][j], xs[q]) - sp.diff(gam[q][i][q], xs[j])
                for l in range(m):
                    ricci += gam[q][l][q] * gam[l][i][j] - gam[q][l][j] * gam[l][i][q]
            total += ginv[i, j] * ricci
    return total


def gilkey_a2(ginv, A, B, xs):
    """(R/6 + E) sqrt(g) for P = -(g^ij d_i d_j + A^k d_k + B)."""
    m = len(xs)
    ginv = sp.Matrix(ginv)
    g = ginv.inv()
    gam = christoffel(ginv, g, xs)
    omega = [
        sum(
            g[i, j]
            * (
                A[j]
                + sum(ginv[k, l] * gam[j][k][l] for k in range(m) for l in range(m))
            )
            for j in range(m)
        )
        / 2
        for i in range(m)
    ]
    E = B - sum(
        ginv[i, j]
        * (
            sp.diff(omega[j], xs[i])
            + omega[i] * omega[j]
            - sum(omega[q] * gam[q][i][j] for q in range(m))
        )
        for i in range(m)
        for j in range(m)
    )
    return (scalar_curvature(ginv, gam, xs) / 6 + E) * sp.sqrt(g.det())


def flat_setting(m):
    xs = sp.symbols(f"x1:{m + 1}")
    k = sp.Function("k", positive=True)(xs[0], xs[1])
    lap = sum(sp.diff(k, x, 2) for x in xs)
    grad2 = sum(sp.diff(k, x) ** 2 for x in xs)
    return xs, k, lap, grad2


def measure_over_gilkey(report):
    """Vol(S^(m-1)) (2 pi)^(-m) / (4 pi)^(-m/2), read from the report."""
    record = dict(report.normalization)
    volume = sp.sympify(record["sphere_volume"].replace("^", "**"))
    momentum = sp.sympify(record["momentum_measure"].replace("^", "**"))
    return sp.simplify(volume * momentum * (4 * sp.pi) ** sp.Rational(report.dim, 2))


def value_at_one(fn):
    """fn(1, 1), exactly, as the limit e -> 0 along s = 1 + e, t = 1 + 2e,
    which meets the removable set {s = 1, t = 1, st = 1} only at e = 0.

    The two logs are replaced by Taylor polynomials of an order above the
    degree of every denominator, so the truncation error still vanishes at
    e = 0 after it is multiplied by the rational parts."""
    ray = {S: 1 + _E, T: 1 + 2 * _E}
    parts = {tag: sp.cancel(part.subs(ray)) for tag, part in fn.parts.items()}
    order = 1 + max(sp.degree(sp.denom(part), _E) for part in parts.values())
    logs = {
        "one": 1,
        "log_s": sp.log(1 + _E),
        "log_st": sp.log((1 + _E) * (1 + 2 * _E)),
    }
    expr = sum(
        parts[tag] * sp.series(logs[tag], _E, 0, order).removeO() for tag in parts
    )
    return sp.cancel(expr).subs(_E, 0)


def engine_density(report, K1, G1, k, lap, grad2):
    return measure_over_gilkey(report) * (
        K1 * k ** dict(report.k_powers)["hess"] * lap
        + G1 * k ** dict(report.k_powers)["gradgrad"] * grad2
    )


def gilkey_scalar_coefficient(report):
    """Gilkey's a_2 for P = k Lap_h, k constant, h = e^(2f) delta curved,
    divided by k^(1-m/2) R_h sqrt(h) and by the engine's measure ratio:
    the value c_scalar must take."""
    m = report.dim
    xs = sp.symbols(f"x1:{m + 1}")
    k = sp.Symbol("k", positive=True)
    f = sp.Function("f", real=True)(xs[0], xs[1])
    h = sp.eye(m) * sp.exp(2 * f)
    h_inv = sp.eye(m) * sp.exp(-2 * f)
    R_h = scalar_curvature(h_inv, christoffel(h_inv, h, xs), xs)
    # k Lap_h = -k e^(-2f) (d^2 + (m-2) (d_j f) d_j)
    A = [k * (m - 2) * sp.exp(-2 * f) * sp.diff(f, x) for x in xs]
    density = gilkey_a2(k * h_inv, A, 0, xs)
    ratio = sp.simplify(
        density / (k ** dict(report.k_powers)["scalar"] * R_h * sp.exp(m * f))
    )
    assert not ratio.free_symbols, ratio
    value = sp.Rational(ratio / measure_over_gilkey(report))
    return Fraction(int(value.p), int(value.q))


def test_curvature_sign_on_unit_sphere():
    th, ph = sp.symbols("theta phi", positive=True)
    ginv = sp.diag(1, 1 / sp.sin(th) ** 2)
    gam = christoffel(ginv, ginv.inv(), (th, ph))
    assert sp.simplify(scalar_curvature(ginv, gam, (th, ph))) == 2


@pytest.mark.parametrize(
    "m, K1, G1",
    [
        (2, sp.Rational(1, 12), sp.Rational(-1, 12)),
        (4, 0, 0),
        (6, sp.Rational(-1, 6), sp.Rational(1, 3)),
    ],
)
def test_kdelta_matches_gilkey(m, K1, G1):
    # P = k * (-sum_a d_a^2): A = 0, B = 0
    report = report_for(m, "kdelta")
    xs, k, lap, grad2 = flat_setting(m)
    gilkey = gilkey_a2(sp.eye(m) * k, [0] * m, 0, xs)
    assert sp.simplify(gilkey - engine_density(report, K1, G1, k, lap, grad2)) == 0
    assert (value_at_one(report.K), value_at_one(report.G)) == (K1, G1)
    assert report.c_scalar == gilkey_scalar_coefficient(report)


def nc4tori_gilkey(potential):
    """Gilkey density for -d_a(k d_a) + potential on flat R^4."""
    xs, k, lap, grad2 = flat_setting(4)
    A = [sp.diff(k, x) for x in xs]
    return gilkey_a2(sp.eye(4) * k, A, -potential(k, lap, grad2), xs)


def test_nc4tori_matches_gilkey_for_the_encoded_operator():
    # p1 = -i (d_a k) xi_a and p0 = lap k + |grad k|^2 / k are the symbols
    # of -d_a(k d_a) + lap k + |grad k|^2 / k with D = -i d
    report = report_for(4, "nc4tori")
    _, k, lap, grad2 = flat_setting(4)
    K1, G1 = value_at_one(report.K), value_at_one(report.G)
    assert (K1, G1) == (sp.Rational(-3, 4), sp.Rational(-3, 8))
    gilkey = nc4tori_gilkey(lambda k, lap, grad2: lap + grad2 / k)
    assert sp.simplify(gilkey - engine_density(report, K1, G1, k, lap, grad2)) == 0


def test_tabulated_nc4tori_pair_is_gilkey_for_half_gradient_potential():
    # the tabulated K = -1/(4s), G = -1/(8 s^2 t) belong to the potential
    # (1/2)|grad k|^2 / k; neither sign of K fits the encoded operator
    report = report_for(4, "nc4tori")
    _, k, lap, grad2 = flat_setting(4)
    encoded = nc4tori_gilkey(lambda k, lap, grad2: lap + grad2 / k)
    half = nc4tori_gilkey(lambda k, lap, grad2: grad2 / (2 * k))
    G1 = sp.Rational(-1, 8)
    for K1 in (sp.Rational(1, 4), sp.Rational(-1, 4)):
        tabulated = engine_density(report, K1, G1, k, lap, grad2)
        assert sp.simplify(encoded - tabulated) != 0
    tabulated = engine_density(report, sp.Rational(-1, 4), G1, k, lap, grad2)
    assert sp.simplify(half - tabulated) == 0


def test_tabulated_dim2_G_sign_fails_gilkey():
    # the tabulated two-variable form is the negative of the engine's G
    report = report_for(2, "kdelta")
    xs, k, lap, grad2 = flat_setting(2)
    gilkey = gilkey_a2(sp.eye(2) * k, [0, 0], 0, xs)
    K1 = value_at_one(report.K)
    tabulated_G1 = value_at_one(-report.G)
    assert tabulated_G1 == sp.Rational(1, 12)
    tabulated = engine_density(report, K1, tabulated_G1, k, lap, grad2)
    assert sp.simplify(gilkey - tabulated) != 0


def test_tabulated_scalar_ladder_sign_fails_gilkey_at_m6():
    # c_scalar = F(1) * 2/(3m) (criterion 05); the tabulated ladder
    # (1/4)(-1)^(m/2-2) (m/2)! gives F(1) = -3/2 at m = 6
    m = 6
    required = gilkey_scalar_coefficient(report_for(m, "kdelta"))
    tabulated = Fraction(-1) ** (m // 2 - 2) * Fraction(math.factorial(m // 2), 4)
    derived = Fraction(math.factorial(m // 2), 4)
    assert tabulated * Fraction(2, 3 * m) != required
    assert derived * Fraction(2, 3 * m) == required
