"""Fiberwise averaging over the unit cosphere.

Replaces the vertical/jet atoms (DXi2, D2Xi2, Nabla2Xi2, Nabla3L) in a word
expression by their exact sphere averages, in any even dimension m >= 2.
Everything is driven by one moment identity — the average of xi_s xi_a over
the unit sphere is delta_sa |xi|^2 / m times the sphere volume — together
with the component formulas for the second horizontal jet of |xi|^2 and the
third jet of the phase, whose curvature contractions collapse to the base
scalar curvature atom SDelta.

The composite rule constants are pinned literally in _RULE_CONSTANTS and
independently re-derived from the moment identity by explicit index
summation in derive_rule_constants(); the test suite keeps the two in sync
(double-entry bookkeeping).

The overall factor Vol(S^{m-1}) is NOT applied here; it belongs to the
normalization metadata of the final curvature assembly.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .exactnum import GaussianRational, as_int
from .symbol_engine import (
    Atom,
    NCExpression,
    NCMonomial,
    canonicalize,
    slot_places,
)


class SphereRuleError(ValueError):
    """A vertical atom pattern survived that no substitution rule covers."""


_VERTICAL = {"DXi2", "D2Xi2", "Nabla2Xi2", "Nabla3L"}

# atoms that may appear in a sphere-averaged expression
_ALLOWED_OUTPUT = {"b0", "k", "kinv", "GradK", "HessK", "Xi2", "Lambda", "Ginv", "SDelta"}

# rule name -> numerator/denominator pattern in m (documented in the module
# docstring); values are functions of the even dimension m
_RULE_CONSTANTS = {
    "pair_DXi2": lambda m: Fraction(4, m),        # DXi2 x DXi2 -> c * Xi2 * Ginv
    "single_D2Xi2": lambda m: Fraction(2),        # D2Xi2 -> c * Ginv (exact identity)
    "phase_cluster": lambda m: Fraction(-8, 3 * m),   # DXi2*D2Xi2*Nabla3L -> c * Xi2 * SDelta
    "jet_cluster": lambda m: Fraction(4, 3 * m),      # D2Xi2*Nabla2Xi2 -> c * Xi2 * SDelta
    "null_cluster": lambda m: Fraction(0),        # DXi2*DXi2*Nabla2Xi2 -> 0
}


def _partners_of_atom(word, occ, idx) -> List[Optional[int]]:
    """For each slot of word[idx], the index of the atom holding the other
    occurrence of that label (None if the slot is uncontracted)."""
    out: List[Optional[int]] = []
    for j, s in enumerate(word[idx].slots):
        others = [i for (i, jj) in occ[s] if (i, jj) != (idx, j)]
        out.append(others[0] if others else None)
    return out


def _substitute_term(term: NCMonomial, m: int) -> Optional[NCMonomial]:
    """Apply the substitution rules to one word until no vertical atom is
    left. Returns None when the term averages to zero."""
    if term.xi_parity() == 1:
        return None  # odd total xi-degree integrates to zero

    coeff = term.coeff
    word = list(term.word)

    if sum(1 for a in word if a.kind == "DXi2") > 2:
        raise SphereRuleError(
            "incomplete substitution table: more than two DXi2 factors "
            "would need a fourth-moment rule"
        )

    while True:
        occ = slot_places(word)
        verticals = [i for i, a in enumerate(word) if a.kind in _VERTICAL]
        if not verticals:
            break

        def atoms_of(kind):
            return [i for i in verticals if word[i].kind == kind]

        matched = False

        # null cluster: both slots of a Nabla2Xi2 land on two DXi2 atoms
        for n in atoms_of("Nabla2Xi2"):
            partners = _partners_of_atom(word, occ, n)
            if (
                len(partners) == 2
                and all(p is not None and word[p].kind == "DXi2" for p in partners)
                and partners[0] != partners[1]
            ):
                return None
            # (continue: this Nabla2Xi2 may instead pair with a D2Xi2)

        # phase cluster: Nabla3L fully contracted against one DXi2 + one D2Xi2
        for n in atoms_of("Nabla3L"):
            partners = _partners_of_atom(word, occ, n)
            if any(p is None for p in partners):
                continue
            kinds = sorted(word[p].kind for p in partners)
            distinct = set(partners)
            if kinds == ["D2Xi2", "D2Xi2", "DXi2"] and len(distinct) == 2:
                dx = next(p for p in partners if word[p].kind == "DXi2")
                d2 = next(p for p in partners if word[p].kind == "D2Xi2")
                if _partners_of_atom(word, occ, dx) == [n] and set(
                    _partners_of_atom(word, occ, d2)
                ) == {n}:
                    coeff = coeff * _RULE_CONSTANTS["phase_cluster"](m)
                    for idx in sorted((n, dx, d2), reverse=True):
                        del word[idx]
                    word.extend([Atom("Xi2"), Atom("SDelta")])
                    matched = True
                    break
        if matched:
            continue

        # jet cluster: D2Xi2 pairwise contracted with Nabla2Xi2
        for n in atoms_of("Nabla2Xi2"):
            partners = _partners_of_atom(word, occ, n)
            if (
                len(set(partners)) == 1
                and partners[0] is not None
                and word[partners[0]].kind == "D2Xi2"
            ):
                d2 = partners[0]
                coeff = coeff * _RULE_CONSTANTS["jet_cluster"](m)
                for idx in sorted((n, d2), reverse=True):
                    del word[idx]
                word.extend([Atom("Xi2"), Atom("SDelta")])
                matched = True
                break
        if matched:
            continue

        # second-moment pair: two DXi2 atoms
        dxs = atoms_of("DXi2")
        if len(dxs) == 2:
            u = word[dxs[0]].slots[0]
            v = word[dxs[1]].slots[0]
            coeff = coeff * _RULE_CONSTANTS["pair_DXi2"](m)
            for idx in sorted(dxs, reverse=True):
                del word[idx]
            word.extend([Atom("Ginv", (u, v)), Atom("Xi2")])
            continue

        # exact identity: a lone D2Xi2 is twice the inverse metric
        d2s = atoms_of("D2Xi2")
        if d2s:
            a = word[d2s[0]]
            coeff = coeff * _RULE_CONSTANTS["single_D2Xi2"](m)
            word[d2s[0]] = Atom("Ginv", a.slots)
            continue

        leftovers = sorted({word[i].kind for i in verticals})
        raise SphereRuleError(
            f"incomplete substitution table: no rule matches {leftovers}"
        )

    return NCMonomial(coeff, tuple(word))


def sphere_average(e: NCExpression, m: int) -> NCExpression:
    """Average a word expression over the unit cosphere in dimension m.

    m must be a concrete even integer >= 2. The output contains no vertical
    atoms, only real rational coefficients, and only atoms meaningful on the
    base (plus Xi2 powers recording the radial degree)."""
    m = as_int(m, "dimension m must be an even integer >= 2", lambda n: n >= 2 and n % 2 == 0)
    out: List[NCMonomial] = []
    for term in canonicalize(e).terms:
        sub = _substitute_term(term, m)
        if sub is None or not sub.coeff:
            continue
        if sub.coeff.im != 0:
            raise SphereRuleError(
                "sphere average produced a non-real coefficient; "
                "the input expression was not balanced"
            )
        bad = {a.kind for a in sub.word} - _ALLOWED_OUTPUT
        if bad:
            raise SphereRuleError(
                f"incomplete substitution table: {sorted(bad)} survived averaging"
            )
        out.append(sub)
    return canonicalize(NCExpression(out))


# --------------------------------------------------------------------------
# independent derivation of the rule constants from the moment identity


def _riemann_like(m: int) -> Dict[Tuple[int, int, int, int], Fraction]:
    """A deterministic exact tensor with all algebraic curvature symmetries
    (pair antisymmetry, pair exchange, first Bianchi), nonzero scalar trace."""
    def seed(a, b, c, d):
        return Fraction((a + 1) * (c + 2) ** 2 + (b + 1) * (d + 3) + (a + 2) * b * c * d + 1, 7)

    idx = range(m)
    t1 = {}
    for a, b, c, d in itertools.product(idx, repeat=4):
        t1[(a, b, c, d)] = Fraction(
            seed(a, b, c, d) - seed(b, a, c, d) - seed(a, b, d, c) + seed(b, a, d, c), 4
        )
    t2 = {}
    for a, b, c, d in itertools.product(idx, repeat=4):
        t2[(a, b, c, d)] = (t1[(a, b, c, d)] + t1[(c, d, a, b)]) / 2
    riem = {}
    for a, b, c, d in itertools.product(idx, repeat=4):
        cyc = (t2[(a, b, c, d)] + t2[(a, c, d, b)] + t2[(a, d, b, c)]) / 3
        riem[(a, b, c, d)] = t2[(a, b, c, d)] - cyc
    return riem


def derive_rule_constants(m: int) -> Dict[str, Fraction]:
    """Re-derive every substitution constant from the second-moment identity
    avg(xi_s xi_a) = delta_sa / m (unit sphere, volume factor dropped) by
    literal index summation, using the component formulas

        (D|xi|^2)_j      = 2 xi_j
        (D^2|xi|^2)_ij   = 2 delta_ij
        (Nabla^3 l)_ijk  = -1/3 xi_p (R_pikj + R_pjki)
        (Nabla^2|xi|^2)_jk = 2/3 xi_p xi_i R_pjik

    evaluated against a deterministic exact curvature-symmetric tensor.
    Quadratic xi-monomials are averaged with the moment identity; quartic
    ones appear only in the null cluster, averaged with the standard
    fourth-moment identity (delta products over pairings / (m(m+2)))."""
    riem = _riemann_like(m)
    idx = range(m)
    s_delta = sum(riem[(p, k, p, k)] for p in idx for k in idx)
    assert s_delta != 0

    out: Dict[str, Fraction] = {}
    # pair_DXi2: avg(4 xi_i xi_j) = (4/m) delta_ij  -> coefficient of Ginv
    out["pair_DXi2"] = Fraction(4, m)
    # single_D2Xi2: 2 delta_ij exactly
    out["single_D2Xi2"] = Fraction(2)

    # phase cluster: sum_{ijk} (2 xi_k)(2 delta_ij) (Nabla3L)_{ijk}, then avg
    # -> rational multiple of s_delta
    total = Fraction(0)
    for i, j, k in itertools.product(idx, repeat=3):
        if i != j:
            continue
        # (Nabla3L)_{ijk} = -1/3 xi_p (R_pikj + R_pjki); xi_k xi_p -> delta/m
        for p in idx:
            if p != k:
                continue
            total += Fraction(4) * Fraction(-1, 3) * (
                riem[(p, i, k, j)] + riem[(p, j, k, i)]
            ) / m
    out["phase_cluster"] = total / s_delta

    # jet cluster: sum_{ij} (2 delta_ij)(Nabla2Xi2)_{ij}, avg xi_p xi_q
    total = Fraction(0)
    for j, k in itertools.product(idx, repeat=2):
        if j != k:
            continue
        for p, i in itertools.product(idx, repeat=2):
            if p != i:
                continue
            total += Fraction(2) * Fraction(2, 3) * riem[(p, j, i, k)] / m
    out["jet_cluster"] = total / s_delta

    # null cluster: sum_{ij} 4 xi_i xi_j (Nabla2Xi2)_{ij}; quartic moment
    # avg(xi_a xi_b xi_c xi_d) = (d_ab d_cd + d_ac d_bd + d_ad d_bc)/(m(m+2))
    total = Fraction(0)
    denom = m * (m + 2)
    for i, j, p, q in itertools.product(idx, repeat=4):
        mom = Fraction(
            (i == j) * (p == q) + (i == p) * (j == q) + (i == q) * (j == p), denom
        )
        if mom:
            total += Fraction(4) * Fraction(2, 3) * riem[(p, i, q, j)] * mom
    out["null_cluster"] = total / s_delta

    return out


def pinned_rule_constants(m: int) -> Dict[str, Fraction]:
    return {name: fn(m) for name, fn in _RULE_CONSTANTS.items()}
