"""Acceptance gate: every shipped guarantee, one PASS/FAIL line each.

Each test prints ``CRITERION NN PASS|FAIL`` and then asserts, so a verbose
run shows one line per criterion.  Reference expressions are entered by
hand and compared exactly.  Where a classical check that shares no code
with the engine showed a tabulated value to be wrong, the reference was
corrected and the comment beside it names the check (the commutative-limit
checks live in ``test_commutative_limit.py``, the flat one-variable
composition check in ``test_symbol_engine.py``).  Where no such check
settles a disagreement, the criterion fails honestly and the discrepancy
analysis lives in the project notes, never in a weakened comparison.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from artifact import verify
from artifact import numeric_oracle as oracle
from artifact.cosphere_integrator import sphere_average
from artifact.modular_function_engine import (
    derive_curvature,
    dim2_quadrature_decomposition,
    eval_function,
    scalar_profile,
)
from artifact.symbol_engine import (
    NCExpression,
    canonicalize,
    homogeneity_degrees,
    nc4tori_lower_symbols,
    parse_expression,
    render_expression,
    resolvent_b,
    standard_p2,
)
from artifact.theta_algebra import FourierElement, SkewMatrix

S, T = sp.symbols("s t", positive=True)

KDELTA = {"p2": standard_p2()}

THETAS = (0.0, 0.3333333333333333, math.sqrt(2.0) - 1.0)


def conclude(number: int, ok: bool, detail: str = "") -> None:
    line = f"CRITERION {number:02d} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def sym_eq(a: sp.Expr, b: sp.Expr) -> bool:
    return sp.simplify(a - b) == 0


def parts_match(fn, want: dict) -> bool:
    tags = set(fn.parts) | set(want)
    zero = sp.Integer(0)
    return all(
        sym_eq(fn.parts.get(tag, zero), want.get(tag, zero)) for tag in tags
    )


def quad_channel(pieces, s: float, t: float = 1.0) -> float:
    total = 0.0
    for exps, coeff, shifts in pieces:
        factor = float(coeff) * s ** shifts[0]
        if len(shifts) > 1:
            factor *= t ** shifts[1]
        total += factor * oracle.quad_r_integral(exps, s, t)
    return total


def term_set(expr: NCExpression) -> set:
    canon = canonicalize(expr)
    return {render_expression(NCExpression([t])) for t in canon.terms}


def parse_terms(strings) -> set:
    merged = " + ".join(strings)
    return term_set(parse_expression(merged))


# hand-entered reference expression for the one-variable channel in
# dimension two: (-2s + (s+1)log s + 2) / (2(s-1)^3), split over {1, log s}
PRINTED_K_PARTS = {
    "one": (2 - 2 * S) / (2 * (S - 1) ** 3),
    "log_s": (S + 1) / (2 * (S - 1) ** 3),
}

# hand-entered reference expression for the two-variable channel in
# dimension two, split over the log basis {1, log s, log st}.  The
# tabulation prints the negative of these parts, so G(1,1) = +1/12; Gilkey's
# a_2 = (4 pi)^-1 (R/6) sqrt(g) for k * Laplacian on flat T^2 needs
# G(1,1) = -1/12, and so does the Gauss-Bonnet condition K(1) + G(1,1) = 0
# (criterion 12); see test_commutative_limit.py
_D = (S - 1) ** 2 * S * (T - 1) ** 2 * (S * T - 1) ** 3
PRINTED_G_PARTS = {
    "log_s": -((S * T - 1) ** 3) / _D,
    "one": (S - 1) * (T - 1) * (S * (T - 2) + 1) * (S * T - 1) / _D,
    "log_st": (S - 1) ** 2 * (S * T * (2 * T - 1) - 1) / _D,
}

# hand-entered reference terms for the second resolvent coefficient with
# vanishing lower-order symbols (tabulated proposition)
PRINTED_B2_TERMS = [
    # The tabulation prints the four GradK.GradK words with the opposite
    # sign.  A Kohn-Nirenberg composition for p = k(x) xi^2 - lambda on flat
    # R^1 gives their sum as 6 k k'^2 xi^4 b0^4 - 12 k^2 k'^2 xi^6 b0^5,
    # the signs below, under either Fourier convention D = -i d or +i d
    # (test_symbol_engine.py::test_b2_matches_flat_one_variable_composition)
    "-2 * b0^3 * k^2 * GradK[a] * b0 * GradK[b] * b0 * Xi2^2 * DXi2[a] * DXi2[b]",
    "1 * b0^2 * k * GradK[a] * b0 * GradK[b] * b0 * Xi2 * DXi2[a] * DXi2[b]",
    "1 * b0^2 * k * GradK[a] * b0 * GradK[b] * b0 * Xi2^2 * D2Xi2[a,b]",
    "-1 * b0^2 * k * GradK[a] * b0^2 * k * GradK[b] * b0 * Xi2^2 * DXi2[a] * DXi2[b]",
    "-1/2 * b0^3 * k^2 * DXi2[a] * D2Xi2[b,c] * Nabla3L[a,b,c]",
    "-1/2 * b0^3 * k^2 * D2Xi2[a,b] * Nabla2Xi2[a,b]",
    # The tabulation drops this word of a_2(b0, p2).  Its value vanishes in
    # normal coordinates, (Nabla^2 |xi|^2)_{jk} xi_j xi_k =
    # (2/3) xi_p xi_i xi_j xi_k R_{pjik} = 0, but the word algebra applies
    # that identity only in the sphere average (the null_cluster rule), so
    # the word belongs to b2 as the engine writes it.
    "1 * b0^4 * k^3 * DXi2[a] * DXi2[b] * Nabla2Xi2[a,b]",
    "-1/2 * b0^2 * k * HessK[a,b] * b0 * Xi2 * D2Xi2[a,b]",
    "1 * b0^3 * k^2 * HessK[a,b] * b0 * Xi2 * DXi2[a] * DXi2[b]",
]


def printed_sphere_average_terms(m: int):
    """Hand-entered six-term cosphere listing.

    The tabulation gives the three GradK.GradK coefficients the opposite
    sign, carried over from its b2 block (see PRINTED_B2_TERMS).  These three
    words are the whole G channel, so that sign flips G and gives
    G(1,1) = +1/12 where Gilkey's a_2 needs -1/12 (test_commutative_limit.py).
    """
    coeffs = [
        -Fraction(8, m),
        2 + Fraction(4, m),
        -Fraction(4, m),
        Fraction(-1),
        Fraction(4, m),
        Fraction(2, 3 * m),
    ]
    shapes = [
        "b0^3 * k^2 * GradK[a] * b0 * GradK[b] * b0 * Xi2^3 * Ginv[a,b]",
        "b0^2 * k * GradK[a] * b0 * GradK[b] * b0 * Xi2^2 * Ginv[a,b]",
        "b0^2 * k * GradK[a] * b0^2 * k * GradK[b] * b0 * Xi2^3 * Ginv[a,b]",
        "b0^2 * k * HessK[a,b] * b0 * Xi2 * Ginv[a,b]",
        "b0^3 * k^2 * HessK[a,b] * b0 * Xi2^2 * Ginv[a,b]",
        "b0^2 * k^2 * SDelta * b0 * Xi2",
    ]
    return [f"{c} * {shape}" for c, shape in zip(coeffs, shapes)]


def test_criterion_01():
    # one-variable channel, dimension two: exact symbolic closed form plus
    # 20-point quadrature agreement at relative error <= 1e-10, within 10 s
    start = time.monotonic()
    report = derive_curvature(2, "kdelta")
    sym_ok = parts_match(report.K, PRINTED_K_PARTS)
    pieces = dim2_quadrature_decomposition("K")
    max_rel = 0.0
    for s in np.geomspace(0.1, 10.0, 20):
        s = float(s)
        reference = quad_channel(pieces, s)
        rel = abs(eval_function(report.K, s) - reference) / abs(reference)
        max_rel = max(max_rel, rel)
    elapsed = time.monotonic() - start
    ok = sym_ok and max_rel <= 1e-10 and elapsed <= 10.0
    conclude(
        1,
        ok,
        f"symbolic={sym_ok} quad_rel={max_rel:.2e} elapsed={elapsed:.1f}s",
    )


def test_criterion_02():
    # two-variable channel, dimension two: exact match with the hand-entered
    # tabulated form plus 10x10 quadrature grid at relative error <= 1e-9
    report = derive_curvature(2, "kdelta")
    sym_ok = parts_match(report.G, PRINTED_G_PARTS)
    pieces = dim2_quadrature_decomposition("G")
    max_rel = 0.0
    for s in np.linspace(0.2, 5.0, 10):
        for t in np.linspace(0.2, 5.0, 10):
            s_f, t_f = float(s), float(t)
            reference = quad_channel(pieces, s_f, t_f)
            rel = abs(eval_function(report.G, s_f, t_f) - reference) / abs(
                reference
            )
            max_rel = max(max_rel, rel)
    ok = sym_ok and max_rel <= 1e-9
    conclude(2, ok, f"symbolic={sym_ok} quad_rel={max_rel:.2e}")


def test_criterion_03():
    # limit value of the one-variable channel at the fixed point: 1/12
    report = derive_curvature(2, "kdelta")
    err = abs(eval_function(report.K, 1.0) - 1.0 / 12.0)
    conclude(3, err <= 1e-8, f"abs_err={err:.2e}")


def test_criterion_04():
    # dimension four: both channels vanish identically and the scalar term
    # reproduces (4 pi)^-2 / 6 after applying the recorded normalization
    report = derive_curvature(4, "kdelta")
    zero_ok = report.K.is_zero() and report.G.is_zero()
    record = dict(report.normalization)
    vol_coeff = Fraction(record["sphere_volume_coeff"])
    pi_power = int(record["sphere_volume_pi_power"])
    coeff = report.c_scalar * vol_coeff * Fraction(1, 2**4)
    chain_ok = (coeff, pi_power - 4) == (Fraction(1, 96), -2)
    identity_ok = Fraction(1, 96) == Fraction(1, 6) * Fraction(1, 16)
    ok = zero_ok and chain_ok and identity_ok
    conclude(4, ok, f"zero={zero_ok} chain={chain_ok}")


def test_criterion_05():
    # scalar-channel limit ladder F(1) = (m/2)!/4 at m = 4, 6, 8, and the
    # chain c_scalar = F(1) * 2/(3m), c_scalar * sphere_volume_coeff = 1/6.
    # The tabulated pattern (1/4)(-1)^(m/2-2) (m/2)! gives F(1) = -3/2 at
    # m = 6; through the same chain that is -R/6 where Gilkey's universal
    # a_2 = (4 pi)^(-m/2) (R/6) sqrt(g) needs +R/6 (test_commutative_limit.py)
    results = {}
    for m in (4, 6, 8):
        got = eval_function(scalar_profile(m), 1.0)
        exact = Fraction(math.factorial(m // 2), 4)
        want = float(exact)
        report = derive_curvature(m, "kdelta")
        vol_coeff = Fraction(dict(report.normalization)["sphere_volume_coeff"])
        chain_ok = (
            report.c_scalar == exact * Fraction(2, 3 * m)
            and report.c_scalar * vol_coeff == Fraction(1, 6)
        )
        results[m] = (got, want, chain_ok)
    ok = all(
        abs(got - want) <= 1e-10 and chain_ok
        for got, want, chain_ok in results.values()
    )
    detail = " ".join(
        f"m={m}:got={got:g},want={want:g},chain={chain_ok}"
        for m, (got, want, chain_ok) in results.items()
    )
    conclude(5, ok, detail)


def test_criterion_06():
    # four-dimensional deformed-torus operator: tabulated values are
    # G = -1/(8 s^2 t) and |K| = 1/(4 s), with any sign discrepancy
    # recorded in the report notes rather than silently resolved.
    # Unsettled: the engine's -3/(4s), -3/(8 s^2 t) is Gilkey's a_2 for the
    # operator its p1, p0 encode, -d_a(k d_a) + lap k + |grad k|^2/k, and
    # the tabulated pair is Gilkey's a_2 for p0 = (1/2)|grad k|^2/k
    # (test_commutative_limit.py); nothing in the project fixes which
    # operator the tabulation meant
    report = derive_curvature(4, "nc4tori")
    g_parts, k_parts = report.G.parts, report.K.parts
    g_ok = g_parts["log_s"] == 0 and g_parts["log_st"] == 0 and sym_eq(
        g_parts["one"], -1 / (8 * S**2 * T)
    )
    k_ok = k_parts["log_s"] == 0 and k_parts["log_st"] == 0 and (
        sym_eq(k_parts["one"], 1 / (4 * S)) or sym_eq(k_parts["one"], -1 / (4 * S))
    )
    recorded_ok = any("recorded" in note for note in report.notes)
    ok = g_ok and k_ok and recorded_ok
    conclude(
        6,
        ok,
        f"G={report.G.render()} K={report.K.render()} recorded={recorded_ok}",
    )


def test_criterion_07():
    # second resolvent coefficient with vanishing lower-order symbols,
    # term-for-term against the hand-entered tabulated proposition
    engine_terms = term_set(resolvent_b(2, KDELTA))
    printed_terms = parse_terms(PRINTED_B2_TERMS)
    matched = engine_terms & printed_terms
    ok = engine_terms == printed_terms
    conclude(
        7,
        ok,
        f"matched={len(matched)} engine={len(engine_terms)} "
        f"tabulated={len(printed_terms)}",
    )


def test_criterion_08():
    # cosphere average of the criterion-7 expression against the tabulated
    # six-term listing, exact rational coefficients, at m in {2, 4, 6}
    detail_bits = []
    ok = True
    for m in (2, 4, 6):
        engine_terms = term_set(sphere_average(resolvent_b(2, KDELTA), m))
        printed_terms = parse_terms(printed_sphere_average_terms(m))
        matched = engine_terms & printed_terms
        ok = ok and engine_terms == printed_terms
        detail_bits.append(f"m={m}:matched={len(matched)}/{len(engine_terms)}")
    conclude(8, ok, " ".join(detail_bits))


def test_criterion_09():
    # homogeneity audit: every term of the resolvent coefficient of order
    # kappa is homogeneous of degree -2-kappa, exactly, for both operators
    ok = True
    for symbols in (KDELTA, nc4tori_lower_symbols()):
        for kappa in (0, 1, 2):
            degrees = homogeneity_degrees(resolvent_b(kappa, symbols))
            ok = ok and degrees == {-2 - kappa}
    conclude(9, ok)


def test_criterion_10():
    # deformed-algebra laws on 100 random triples: exact mode exactly,
    # floating mode within 1e-12
    results = list(verify.run("algebra", 0, None))
    ok = all(err <= bound for _, err, bound in results)
    worst = max(err for _, err, _ in results)
    conclude(10, ok, f"worst={worst:.2e}")


def test_criterion_11():
    # matrix rearrangement oracle across the five integrand families,
    # three seeds each, relative error <= 1e-6
    families = [
        ((2, 1), False),
        ((3, 1), False),
        ((3, 1, 1), False),
        ((2, 1, 1), False),
        ((2, 2, 1), True),
    ]
    worst = 0.0
    for exponents, s_shift in families:
        for seed in range(3):
            err = oracle.matrix_rearrangement_check(
                6, seed, exponents, s_shift=s_shift
            )
            worst = max(worst, err)
    conclude(11, worst <= 1e-6, f"worst={worst:.2e}")


def test_criterion_12():
    # flat-total-curvature residual: <= 1e-6 for the norm-0.1 exponent at
    # series order 8 and support cap 40, across the three deformation
    # parameters, plus the residual-scaling ratio test
    h = FourierElement(
        2, {(1, 0): 0.05 + 0j, (-1, 0): 0.05 + 0j}, mode="float"
    )
    worst = 0.0
    for theta in THETAS:
        residual = oracle.gauss_bonnet_residual(
            h, SkewMatrix.standard_2d(theta), series_order=8, support_cap=40
        )
        worst = max(worst, residual)
    sweep_ok = worst <= 1e-6
    # ratio test on an exponent whose residual is dominated by genuine
    # series truncation rather than roundoff
    base = FourierElement(
        2, {(1, 0): 0.1 + 0j, (-1, 0): 0.1 + 0j}, mode="float"
    )
    theta = SkewMatrix.standard_2d(THETAS[2])
    r_base = oracle.gauss_bonnet_residual(base, theta)
    ratio_ok = True
    ratios = []
    for eps in (0.5, 0.25):
        r_scaled = oracle.gauss_bonnet_residual(base.scaled(eps), theta)
        ratios.append(r_scaled / r_base)
        ratio_ok = ratio_ok and r_scaled <= 2.0 * eps**2 * r_base
    ok = sweep_ok and ratio_ok
    conclude(
        12,
        ok,
        f"worst={worst:.2e} ratios={ratios[0]:.2e},{ratios[1]:.2e}",
    )
