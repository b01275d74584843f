"""Exact noncommutative word algebra for deformed pseudodifferential symbols.

Terms are Gaussian-rational multiples of ordered atom words with explicit
index contractions (a contraction is a label occurring exactly twice, once in
a contravariant slot and once in a covariant slot). The two derivations are
closed-world rewrite systems: an atom without a rule raises instead of being
passed through silently, so a coverage gap in the tables surfaces at the call
site rather than as a wrong final coefficient.

Atom kinds and their conventions
--------------------------------
b0          resolvent factor, inverse of (k*Xi2 - Lambda); homogeneity -2
k, kinv     Weyl factor and its inverse (x-dependent, fiber-constant)
GradK       first horizontal derivative of k (1 covariant slot)
HessK       second horizontal derivative of k (2 covariant slots)
Xi2         fiber norm-square |xi|^2 (homogeneity +2)
Lambda      resolvent parameter (homogeneity +2)
DXi2        vertical derivative of Xi2 (1 contravariant slot, odd)
D2Xi2       second vertical derivative (2 contravariant slots)
Nabla2Xi2   second horizontal derivative of Xi2 (2 covariant slots)
Nabla3L     third derivative of the phase (3 covariant slots, odd)
Ginv        inverse metric (2 contravariant slots)
SDelta      base scalar curvature

Commutation: the fiber-central atoms (Xi2, Lambda, DXi2, D2Xi2, Nabla2Xi2,
Nabla3L, Ginv, SDelta) commute with everything; b0, k, kinv commute with each
other; nothing else commutes.
"""
from __future__ import annotations

import itertools
import re
import string
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .exactnum import GaussianRational

# --------------------------------------------------------------------------
# atom tables


class SymbolRuleError(ValueError):
    """A rewrite was requested for an atom outside the closed rule table."""


class MalformedTermError(ValueError):
    """Word/contraction structure violates the term invariants."""


# kind -> (tensor rank, variance, homogeneity, xi_parity, commutation class)
# variance: 'cov' | 'contra' | None ; parity: 0 even, 1 odd
# classes: 'central', 'kfactor' (k, kinv), 'b0', 'rho' (noncommuting carriers)
_KIND_TABLE: Dict[str, Tuple[int, Optional[str], int, int, str]] = {
    "b0": (0, None, -2, 0, "b0"),
    "k": (0, None, 0, 0, "kfactor"),
    "kinv": (0, None, 0, 0, "kfactor"),
    "GradK": (1, "cov", 0, 0, "rho"),
    "HessK": (2, "cov", 0, 0, "rho"),
    "Xi2": (0, None, 2, 0, "central"),
    "Lambda": (0, None, 2, 0, "central"),
    # internal first-jet seed of Xi2 in a base direction; vanishes at the
    # evaluation point but differentiates to Nabla2Xi2 — it only ever lives
    # between the two passes of an iterated horizontal derivative
    "GradXi2": (1, "cov", 2, 0, "central"),
    "DXi2": (1, "contra", 1, 1, "central"),
    "D2Xi2": (2, "contra", 0, 0, "central"),
    "Nabla2Xi2": (2, "cov", 2, 0, "central"),
    "Nabla3L": (3, "cov", 1, 1, "central"),
    "Ginv": (2, "contra", 0, 0, "central"),
    "SDelta": (0, None, 0, 0, "central"),
}

_CENTRAL_ORDER = ["Xi2", "Lambda", "GradXi2", "DXi2", "D2Xi2", "Nabla2Xi2", "Nabla3L", "Ginv", "SDelta"]


def atom_rank(kind: str) -> int:
    return _KIND_TABLE[kind][0]


def atom_homogeneity(kind: str) -> int:
    return _KIND_TABLE[kind][2]


def atom_parity(kind: str) -> int:
    return _KIND_TABLE[kind][3]


def atom_class(kind: str) -> str:
    return _KIND_TABLE[kind][4]


def is_central(kind: str) -> bool:
    return atom_class(kind) == "central"


@dataclass(frozen=True)
class Atom:
    kind: str
    slots: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in _KIND_TABLE:
            raise MalformedTermError(f"unknown atom kind {self.kind!r}")
        if len(self.slots) != atom_rank(self.kind):
            raise MalformedTermError(
                f"atom {self.kind} carries {len(self.slots)} slots, "
                f"declared rank is {atom_rank(self.kind)}"
            )

    def relabel(self, mapping: Dict[str, str]) -> "Atom":
        if not self.slots:
            return self
        return Atom(self.kind, tuple(mapping.get(s, s) for s in self.slots))


@dataclass(frozen=True)
class NCMonomial:
    coeff: GaussianRational
    word: Tuple[Atom, ...] = ()

    def labels(self) -> List[str]:
        out: List[str] = []
        for a in self.word:
            out.extend(a.slots)
        return out

    def relabel(self, mapping: Dict[str, str]) -> "NCMonomial":
        return NCMonomial(self.coeff, tuple(a.relabel(mapping) for a in self.word))

    def homogeneity(self) -> int:
        return sum(atom_homogeneity(a.kind) for a in self.word)

    def xi_parity(self) -> int:
        return sum(atom_parity(a.kind) for a in self.word) % 2

    def validate(self):
        counts: Dict[str, List[Tuple[int, int]]] = {}
        for i, a in enumerate(self.word):
            for j, s in enumerate(a.slots):
                counts.setdefault(s, []).append((i, j))
        for label, occ in counts.items():
            if len(occ) > 2:
                raise MalformedTermError(f"label {label!r} occurs {len(occ)} times")
            if len(occ) == 2:
                variances = {_KIND_TABLE[self.word[i].kind][1] for i, _ in occ}
                if variances != {"cov", "contra"}:
                    raise MalformedTermError(
                        f"contraction {label!r} does not join covariant with contravariant"
                    )


class NCExpression:
    """Finite sum of monomials. Construction does not canonicalize."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[NCMonomial] = ()):
        self.terms = tuple(t for t in terms if t.coeff)

    @classmethod
    def zero(cls) -> "NCExpression":
        return cls(())

    @classmethod
    def from_atoms(cls, coeff, *atoms: Atom) -> "NCExpression":
        if isinstance(coeff, (int, Fraction)):
            coeff = GaussianRational(coeff)
        return cls((NCMonomial(coeff, tuple(atoms)),))

    def __add__(self, other: "NCExpression") -> "NCExpression":
        return NCExpression(self.terms + other.terms)

    def __sub__(self, other: "NCExpression") -> "NCExpression":
        return self + other.scaled(-1)

    def scaled(self, factor) -> "NCExpression":
        if isinstance(factor, (int, Fraction)):
            factor = GaussianRational(factor)
        return NCExpression(NCMonomial(factor * t.coeff, t.word) for t in self.terms)

    def __neg__(self) -> "NCExpression":
        return self.scaled(-1)

    def __mul__(self, other: "NCExpression") -> "NCExpression":
        """Word concatenation, bilinear; right factor labels freshened."""
        return _mul_sharing(self, other, set())

    def is_zero(self) -> bool:
        return not canonicalize(self).terms

    def __eq__(self, other):
        if not isinstance(other, NCExpression):
            return NotImplemented
        return canonicalize(self).terms == canonicalize(other).terms

    def __hash__(self):
        return hash(canonicalize(self).terms)

    def __repr__(self):
        return f"NCExpression({render_expression(self)!r})"


# --------------------------------------------------------------------------
# canonical form


def _nc_normal(word: Sequence[Atom]) -> List[Atom]:
    """Normalize the noncentral skeleton: between rho atoms, order each
    commuting cluster as b0-power, then k-power, then kinv-power."""
    out: List[Atom] = []
    b0 = k = kinv = 0

    def flush():
        nonlocal b0, k, kinv
        out.extend([Atom("b0")] * b0)
        out.extend([Atom("k")] * k)
        out.extend([Atom("kinv")] * kinv)
        b0 = k = kinv = 0

    for a in word:
        cls = atom_class(a.kind)
        if cls == "b0":
            b0 += 1
        elif cls == "kfactor":
            if a.kind == "k":
                k += 1
            else:
                kinv += 1
        else:  # rho
            flush()
            out.append(a)
    flush()
    return out


def _structure_keys(nc: List[Atom], centrals: List[Atom]):
    """Label-free structural keys for the central atoms (used to sort them
    deterministically before labels are renamed)."""
    # occurrences over the whole term
    occ: Dict[str, List[Tuple[str, int, int]]] = {}
    for i, a in enumerate(nc):
        for j, s in enumerate(a.slots):
            occ.setdefault(s, []).append(("nc", i, j))
    for i, a in enumerate(centrals):
        for j, s in enumerate(a.slots):
            occ.setdefault(s, []).append(("ce", i, j))

    keys = [(a.kind,) for a in centrals]
    for _ in range(3):
        new_keys = []
        for ci, a in enumerate(centrals):
            parts = []
            for j, s in enumerate(a.slots):
                partners = [o for o in occ[s] if o != ("ce", ci, j)]
                if not partners:
                    parts.append(("free",))
                else:
                    where, pi, pj = partners[0]
                    if where == "nc":
                        parts.append(("nc", pi, nc[pi].kind, pj))
                    else:
                        parts.append(("ce", keys[pi], pj))
            new_keys.append((a.kind, tuple(parts)))
        keys = new_keys
    return keys


_CANON_ALPHABET = list(string.ascii_lowercase)


def _canonical_labels(word: Sequence[Atom]) -> Tuple[Atom, ...]:
    mapping: Dict[str, str] = {}
    n = 0
    for a in word:
        for s in a.slots:
            if s not in mapping:
                if n < len(_CANON_ALPHABET):
                    mapping[s] = _CANON_ALPHABET[n]
                else:
                    mapping[s] = f"a{n}"
                n += 1
    return tuple(a.relabel(mapping) for a in word)


def _word_sortkey(word: Tuple[Atom, ...]):
    return (len(word), tuple((a.kind, a.slots) for a in word))


def _canonical_word(term: NCMonomial) -> Tuple[Atom, ...]:
    nc = _nc_normal([a for a in term.word if not is_central(a.kind)])
    centrals = [a for a in term.word if is_central(a.kind)]
    if not centrals:
        return _canonical_labels(nc)

    keys = _structure_keys(nc, centrals)
    order_key = [( _CENTRAL_ORDER.index(a.kind), keys[i]) for i, a in enumerate(centrals)]
    # group ties; try permutations inside tied groups and keep the least word
    decorated = sorted(range(len(centrals)), key=lambda i: order_key[i])
    groups: List[List[int]] = []
    for idx in decorated:
        if groups and order_key[groups[-1][-1]] == order_key[idx]:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    candidates = []
    pools = [list(itertools.permutations(g)) if len(g) > 1 and atom_rank(centrals[g[0]].kind) > 0 else [tuple(g)] for g in groups]
    total = 1
    for p in pools:
        total *= len(p)
    if total > 24:  # never happens on the derivation corpus; stay safe anyway
        pools = [[tuple(g)] for g in groups]
    for combo in itertools.product(*pools):
        seq = [centrals[i] for grp in combo for i in grp]
        candidates.append(_canonical_labels(list(nc) + seq))
    return min(candidates, key=_word_sortkey)


def canonicalize(e: NCExpression) -> NCExpression:
    """Canonical form: centrals rightmost in fixed kind order, commuting
    factors ordered b0/k/kinv, labels renamed in reading order, like terms
    collected, deterministic term order. Idempotent."""
    acc: Dict[Tuple[Atom, ...], GaussianRational] = {}
    for term in e.terms:
        term.validate()
        if not term.coeff:
            continue
        w = _canonical_word(term)
        acc[w] = acc.get(w, GaussianRational(0)) + term.coeff
    terms = [NCMonomial(c, w) for w, c in acc.items() if c]
    terms.sort(key=lambda t: (_word_sortkey(t.word), t.coeff.re, t.coeff.im))
    return NCExpression(terms)


# --------------------------------------------------------------------------
# derivations

# Each rule maps (atom, new_label) -> (coefficient, replacement word).
# Closed world: kinds missing from a table raise SymbolRuleError.

_D_RULES: Dict[str, Optional[Callable[[Atom, str], Tuple[GaussianRational, Tuple[Atom, ...]]]]] = {
    "Xi2": lambda a, L: (GaussianRational(1), (Atom("DXi2", (L,)),)),
    "DXi2": lambda a, L: (GaussianRational(1), (Atom("D2Xi2", (a.slots[0], L)),)),
    "D2Xi2": None,
    "b0": lambda a, L: (
        GaussianRational(-1),
        (Atom("b0"), Atom("b0"), Atom("k"), Atom("DXi2", (L,))),
    ),
    "k": None,
    "GradK": None,
    "HessK": None,
    "Lambda": None,
    "SDelta": None,
}

# The first jet of Xi2 survives as GradXi2, so that a second pass turns it
# into Nabla2Xi2; the point evaluation after the last pass drops whatever
# still carries GradXi2.  The b0 rule keeps only its term that survives a
# single pass (the recursion differentiates only the symbols p, which hold
# no b0).
_H_RULES: Dict[str, Optional[Callable[[Atom, str], Tuple[GaussianRational, Tuple[Atom, ...]]]]] = {
    "Xi2": lambda a, L: (GaussianRational(1), (Atom("GradXi2", (L,)),)),
    "GradXi2": lambda a, L: (GaussianRational(1), (Atom("Nabla2Xi2", (a.slots[0], L)),)),
    "Lambda": None,
    # first jet vanishes at the evaluation point; only p2, which holds no
    # DXi2, is differentiated twice
    "DXi2": None,
    "k": lambda a, L: (GaussianRational(1), (Atom("GradK", (L,)),)),
    "GradK": lambda a, L: (GaussianRational(1), (Atom("HessK", (a.slots[0], L)),)),
    "b0": lambda a, L: (
        GaussianRational(-1),
        (Atom("b0"), Atom("GradK", (L,)), Atom("b0"), Atom("Xi2")),
    ),
}


def _leibniz(e: NCExpression, rules, new_label: str, op_name: str) -> NCExpression:
    out: List[NCMonomial] = []
    for term in e.terms:
        for i, a in enumerate(term.word):
            if a.kind not in rules:
                raise SymbolRuleError(
                    f"rule table exhausted: no {op_name} rule for atom {a.kind!r}"
                )
            rule = rules[a.kind]
            if rule is None:
                continue
            factor, repl = rule(a, new_label)
            out.append(
                NCMonomial(
                    factor * term.coeff,
                    term.word[:i] + repl + term.word[i + 1:],
                )
            )
    return NCExpression(out)


def _vertical(e: NCExpression, *labels: str) -> NCExpression:
    """Iterated fiber derivative D, one new slot per label."""
    for label in labels:
        e = _leibniz(e, _D_RULES, label, "vertical-derivative")
    return e


def _horizontal(e: NCExpression, *labels: str) -> NCExpression:
    """Iterated base derivative, one new slot per label, evaluated at the point."""
    for label in labels:
        e = _leibniz(e, _H_RULES, label, "horizontal-derivative")
    return NCExpression(
        t for t in e.terms if not any(a.kind == "GradXi2" for a in t.word)
    )


# --------------------------------------------------------------------------
# bidifferential operators and the resolvent recursion


def _concat_keeping(t1: NCMonomial, t2: NCMonomial, shared: set) -> NCMonomial:
    """Concatenate with freshening of t2's labels except the shared ones."""
    used = set(t1.labels()) | shared
    mapping: Dict[str, str] = {}
    counter = 0
    for lab in t2.labels():
        if lab in shared or lab in mapping:
            continue
        if lab in used:
            while f"_g{counter}" in used:
                counter += 1
            mapping[lab] = f"_g{counter}"
            used.add(f"_g{counter}")
    t2 = t2.relabel(mapping) if mapping else t2
    return NCMonomial(t1.coeff * t2.coeff, t1.word + t2.word)


def _mul_sharing(e1: NCExpression, e2: NCExpression, shared: set) -> NCExpression:
    out = [
        _concat_keeping(t1, t2, shared)
        for t1 in e1.terms
        for t2 in e2.terms
    ]
    return NCExpression(out)


def a_j(j: int, p: NCExpression, q: NCExpression) -> NCExpression:
    """Bidifferential symbol-product coefficients.

    a0(p,q) = p q
    a1(p,q) = -i (Dp)(grad q), derivative slots contracted with each other
    a2(p,q) = -1/2 (D^2 p)(grad^2 q) - 1/2 (Dp)(D^2 q)(Nabla3L),
              slots paired first-with-first, second-with-second
    """
    if j == 0:
        return canonicalize(p * q)
    if j == 1:
        lab = "_c0"
        out = _mul_sharing(_vertical(p, lab), _horizontal(q, lab), {lab})
        return canonicalize(out.scaled(GaussianRational(0, -1)))
    if j == 2:
        l1, l2, l3 = "_c0", "_c1", "_c2"
        half = Fraction(1, 2)
        # first piece: -1/2 D^2 p * grad^2 q  (iterated grad keeps the first
        # jet alive so second-order fiber curvature terms survive)
        piece1 = _mul_sharing(_vertical(p, l1, l2), _horizontal(q, l1, l2), {l1, l2}).scaled(-half)
        # second piece: -1/2 (Dp)(D^2 q) contracted into the phase tensor
        phase = NCExpression.from_atoms(1, Atom("Nabla3L", (l1, l2, l3)))
        dp_ddq = _mul_sharing(_vertical(p, l1), _vertical(q, l2, l3), {l1, l2, l3})
        piece2 = _mul_sharing(dp_ddq, phase, {l1, l2, l3}).scaled(-half)
        return canonicalize(piece1 + piece2)
    raise NotImplementedError(f"a_j for j = {j} is not implemented")


def b0_expression() -> NCExpression:
    return NCExpression.from_atoms(1, Atom("b0"))


def standard_p2() -> NCExpression:
    """k*Xi2 - Lambda, the only leading symbol the recursion accepts."""
    return NCExpression(
        (
            NCMonomial(GaussianRational(1), (Atom("k"), Atom("Xi2"))),
            NCMonomial(GaussianRational(-1), (Atom("Lambda"),)),
        )
    )


def resolvent_b(kappa: int, symbols: Dict[str, NCExpression]) -> NCExpression:
    """Homogeneous resolvent-parametrix terms b_kappa, kappa <= 2.

    The recursion is b_kappa = -(sum a_j(b_nu, p_mu)) b0 over j + nu +
    (2 - mu) = kappa with nu < kappa; derivatives land on the earlier b
    factors, which is the convention whose output words match the
    downstream sphere-rule patterns.
    """
    if kappa not in (0, 1, 2):
        raise ValueError("kappa must be in {0, 1, 2}")
    p2 = symbols.get("p2")
    if p2 is None or canonicalize(p2).terms != canonicalize(standard_p2()).terms:
        raise ValueError("p2 must be the designated leading word k*Xi2 - Lambda")
    p1 = symbols.get("p1") or NCExpression.zero()
    p0 = symbols.get("p0") or NCExpression.zero()

    b0 = b0_expression()
    if kappa == 0:
        return b0
    b1 = canonicalize(-(a_j(1, b0, p2) + a_j(0, b0, p1)) * b0)
    if kappa == 1:
        return b1
    total = (
        a_j(2, b0, p2)
        + a_j(1, b1, p2)
        + a_j(1, b0, p1)
        + a_j(0, b1, p1)
        + a_j(0, b0, p0)
    )
    return canonicalize(-(total * b0))


def nc4tori_lower_symbols() -> Dict[str, NCExpression]:
    """Eagerly expanded lower-order symbols of the conformally rescaled
    flat 4-torus operator: p1 = (-i/2)(grad k . DXi2), p0 = (hess k)g^{-1}
    + (grad k) k^{-1} (grad k) g^{-1}.

    With D = -i d (the convention of ``a_j``) and DXi2 = 2 xi, these are, in
    the commutative limit, the symbols of

        P = -d_a(k d_a) + lap k + |grad k|^2 / k,

    whose classical heat coefficient a_2 (Gilkey) gives K(1) = -3/4 and
    G(1,1) = -3/8, the values the pipeline derives.  The tabulated pair
    K = -1/(4s), G = -1/(8 s^2 t) is what the pipeline derives for
    p0 = (1/2)(grad k) k^{-1} (grad k) g^{-1} instead; adding -(hess k)g^{-1}
    to that p0 turns K into +1/(4s).
    """
    p1 = NCExpression(
        (
            NCMonomial(
                GaussianRational(0, Fraction(-1, 2)),
                (Atom("GradK", ("a",)), Atom("DXi2", ("a",))),
            ),
        )
    )
    p0 = NCExpression(
        (
            NCMonomial(
                GaussianRational(1),
                (Atom("HessK", ("a", "b")), Atom("Ginv", ("a", "b"))),
            ),
            NCMonomial(
                GaussianRational(1),
                (
                    Atom("GradK", ("a",)),
                    Atom("kinv"),
                    Atom("GradK", ("b",)),
                    Atom("Ginv", ("a", "b")),
                ),
            ),
        )
    )
    return {"p2": standard_p2(), "p1": p1, "p0": p0}


def homogeneity_degrees(e: NCExpression) -> set:
    return {t.homogeneity() for t in canonicalize(e).terms}


# --------------------------------------------------------------------------
# text grammar:  terms joined by " + ";  term = coeff * atom[slots] * ...
# powers of slot-free atoms render as name^p


_ATOM_RE = re.compile(r"^(?P<name>[A-Za-z]\w*?)(?:\^(?P<pow>\d+))?(?:\[(?P<slots>[^\]]*)\])?$")


def _render_coeff(c: GaussianRational) -> str:
    if c.im == 0:
        return str(c.re)
    if c.re == 0:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return f"{c.im}*i"
    # mixed coefficients render without spaces so they survive the " + "
    # term separator and the " * " factor separator
    im = c.im
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    ipart = "i" if mag == 1 else f"{mag}*i"
    return f"({c.re}{sign}{ipart})"


def _parse_coeff(tok: str) -> GaussianRational:
    tok = tok.strip()
    if tok in ("i", "+i"):
        return GaussianRational(0, 1)
    if tok == "-i":
        return GaussianRational(0, -1)
    if tok.startswith("(") and tok.endswith(")"):
        m = re.match(
            r"^\(\s*([+-]?\d+(?:/\d+)?)\s*([+-])\s*(?:(\d+(?:/\d+)?)\s*\*?\s*)?i\s*\)$", tok
        )
        if not m:
            raise ValueError(f"cannot parse coefficient {tok!r}")
        re_part = Fraction(m.group(1))
        im_mag = Fraction(m.group(3)) if m.group(3) else Fraction(1)
        return GaussianRational(re_part, im_mag if m.group(2) == "+" else -im_mag)
    if tok.endswith("i"):
        body = tok[:-1].rstrip("*").strip()
        if body in ("", "+"):
            return GaussianRational(0, 1)
        if body == "-":
            return GaussianRational(0, -1)
        return GaussianRational(0, Fraction(body))
    return GaussianRational(Fraction(tok))


def render_expression(e: NCExpression) -> str:
    e = canonicalize(e)
    if not e.terms:
        return "0"
    parts = []
    for t in e.terms:
        pieces = [_render_coeff(t.coeff)]
        i = 0
        word = t.word
        while i < len(word):
            a = word[i]
            if not a.slots:
                j = i
                while j < len(word) and word[j] == a:
                    j += 1
                count = j - i
                pieces.append(a.kind if count == 1 else f"{a.kind}^{count}")
                i = j
            else:
                pieces.append(f"{a.kind}[{','.join(a.slots)}]")
                i += 1
        parts.append(" * ".join(pieces))
    return " + ".join(parts)


def parse_expression(text: str) -> NCExpression:
    text = text.strip()
    if text == "0" or not text:
        return NCExpression.zero()
    terms = []
    for raw_term in text.split(" + "):
        tokens = [tok.strip() for tok in raw_term.split(" * ")]
        coeff = _parse_coeff(tokens[0])
        atoms: List[Atom] = []
        for tok in tokens[1:]:
            m = _ATOM_RE.match(tok)
            if not m:
                raise ValueError(f"cannot parse atom token {tok!r}")
            name = m.group("name")
            power = int(m.group("pow") or 1)
            slots = tuple(s.strip() for s in m.group("slots").split(",")) if m.group("slots") else ()
            if slots and power != 1:
                raise ValueError("slotted atoms cannot carry powers")
            for _ in range(power):
                atoms.append(Atom(name, slots))
        terms.append(NCMonomial(coeff, tuple(atoms)))
    return NCExpression(terms)
