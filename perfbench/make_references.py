"""Write perfbench/references.json: K(1) and G(1,1) from Gilkey's a_2.

For a Laplace-type operator P = -(g^ij d_i d_j + A^k d_k + B) the local
second heat coefficient over dx is (Gilkey; Vassilevich, Phys. Rep. 388)

    a_2(x) = (4 pi)^(-m/2) (R/6 + E) sqrt(g),
    E = B - g^ij (d_i w_j + w_i w_j - w_k Gamma^k_ij),
    w_i = (1/2) g_ij (A^j + g^kl Gamma^j_kl).

The engine writes the same density as Vol(S^(m-1)) (2 pi)^(-m) times
K(1) k^(-m/2) lap k + G(1,1) k^(-m/2-1) |grad k|^2, so reading the two
coefficients off a_2 gives the values at s = t = 1 that every derived case
must reproduce.  Nothing here imports the engine.

    python3 perfbench/make_references.py            # rewrite the file
    python3 perfbench/make_references.py --check    # recompute and compare
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

import sympy as sp

REFERENCES = pathlib.Path(__file__).with_name("references.json")

# (dimension, operator) pairs the benchmark derives
CASES = ((2, "kdelta"), (4, "kdelta"), (6, "kdelta"), (8, "kdelta"), (4, "nc4tori"))


def _christoffel(ginv, g, xs):
    m = len(xs)
    return [[[sum(ginv[l, q] * (sp.diff(g[q, i], xs[j]) + sp.diff(g[q, j], xs[i])
                                - sp.diff(g[i, j], xs[q])) for q in range(m)) / 2
              for j in range(m)] for i in range(m)] for l in range(m)]


def _scalar_curvature(ginv, gam, xs):
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
    """(R/6 + E) sqrt(g), without the (4 pi)^(-m/2)."""
    m = len(xs)
    ginv = sp.Matrix(ginv)
    g = ginv.inv()
    gam = _christoffel(ginv, g, xs)
    w = [sum(g[i, j] * (A[j] + sum(ginv[k, l] * gam[j][k][l]
                                   for k in range(m) for l in range(m)))
             for j in range(m)) / 2 for i in range(m)]
    E = B - sum(ginv[i, j] * (sp.diff(w[j], xs[i]) + w[i] * w[j]
                              - sum(w[q] * gam[q][i][j] for q in range(m)))
                for i in range(m) for j in range(m))
    return (_scalar_curvature(ginv, gam, xs) / 6 + E) * sp.sqrt(g.det())


def gilkey_values(m: int, operator: str):
    """(K(1), G(1,1)) as sympy Rationals for k(x1, x2) on flat R^m."""
    xs = sp.symbols(f"x1:{m + 1}")
    k = sp.Function("k", positive=True)(xs[0], xs[1])
    lap = sum(sp.diff(k, x, 2) for x in xs)
    grad2 = sum(sp.diff(k, x) ** 2 for x in xs)
    if operator == "kdelta":
        # P = k * (-sum d_a^2)
        A, B = [0] * m, 0
    elif operator == "nc4tori":
        # P = -d_a(k d_a) + lap k + |grad k|^2 / k, the operator whose symbols
        # nc4tori_lower_symbols encodes
        A, B = [sp.diff(k, x) for x in xs], -(lap + grad2 / k)
    else:
        raise ValueError(f"unknown operator {operator!r}")
    density = gilkey_a2(sp.eye(m) * k, A, B, xs)

    kk, a11, a22, a12, b1, b2 = sp.symbols("kk a11 a22 a12 b1 b2")
    x1, x2 = xs[0], xs[1]
    flat = density.xreplace({
        sp.Derivative(k, (x1, 2)): a11,
        sp.Derivative(k, (x2, 2)): a22,
        sp.Derivative(k, x1, x2): a12,
    }).xreplace({sp.Derivative(k, x1): b1, sp.Derivative(k, x2): b2}).xreplace({k: kk})
    poly = sp.Poly(sp.expand(sp.powsimp(flat)), a11, a22, a12, b1, b2)
    coeff = {mono: sp.simplify(c) for mono, c in poly.terms()}

    # Vol(S^(m-1)) (2 pi)^(-m) / (4 pi)^(-m/2) = 2 / (m/2 - 1)!
    measure = sp.Rational(2, math.factorial(m // 2 - 1))
    half = sp.Rational(m, 2)
    hess = coeff.get((1, 0, 0, 0, 0), 0)
    grad = coeff.get((0, 0, 0, 2, 0), 0)
    expected = {(1, 0, 0, 0, 0): hess, (0, 1, 0, 0, 0): hess,
                (0, 0, 0, 2, 0): grad, (0, 0, 0, 0, 2): grad}
    for mono, c in coeff.items():
        if sp.simplify(c - expected.get(mono, 0)) != 0:
            raise ArithmeticError(f"a_2 has an unexpected term {mono}: {c}")
    K1 = sp.simplify(hess * kk**half / measure)
    G1 = sp.simplify(grad * kk ** (half + 1) / measure)
    if K1.free_symbols or G1.free_symbols:
        raise ArithmeticError(f"a_2 is not of the engine's form: {K1}, {G1}")
    return sp.Rational(K1), sp.Rational(G1)


def compute() -> dict:
    return {
        "command": "python3 perfbench/make_references.py",
        "gilkey_K1_G11": {
            f"{op}-{m}": [str(v) for v in gilkey_values(m, op)] for m, op in CASES
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="recompute and compare with the stored file")
    args = parser.parse_args(argv)
    fresh = compute()
    if args.check:
        stored = json.loads(REFERENCES.read_text())
        if stored != fresh:
            print(f"stored references differ from a fresh computation: {fresh}",
                  file=sys.stderr)
            return 1
        print("references.json matches a fresh computation")
        return 0
    REFERENCES.write_text(json.dumps(fresh, indent=2) + "\n")
    print(json.dumps(fresh["gilkey_K1_G11"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
