"""Text forms of symbol words and Fourier elements, for tests that state
them as strings.

Word grammar: terms joined by " + "; a term is ``coeff * atom * ...`` with
``atom`` one of ``name``, ``name^p`` (a power of a slot-free atom) or
``name[a,b]``; a coefficient is a rational, ``i``, ``q*i`` or ``(p+q*i)``.
``render_expression`` writes an expression's canonical form that way and
``parse_expression`` reads it back.  ``format_element`` writes a Fourier
element in the line format ``r1,...,rn : re,im`` that
``theta_algebra.parse_element`` (and the ``gauss-bonnet`` HFILE) reads.
"""

import re
from fractions import Fraction
from typing import List

from artifact.exactnum import GaussianRational
from artifact.symbol_engine import Atom, NCExpression, NCMonomial, canonicalize
from artifact.theta_algebra import FourierElement

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


def format_element(a: FourierElement) -> str:
    """Line format `r1,...,rn : re,im`, sorted by multi-index."""
    lines = []
    for idx in sorted(a.coeffs):
        c = a.coeffs[idx]
        if a.mode == "exact":
            re_s, im_s = str(c.re), str(c.im)
        else:
            re_s, im_s = repr(c.real), repr(c.imag)
        lines.append(f"{','.join(str(x) for x in idx)} : {re_s},{im_s}")
    return "\n".join(lines)
