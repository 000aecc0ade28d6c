"""Reference bar differential, kept for tests only.

This is the differential that ``steinpoly.barcplx`` replaced. Its merged
letters are tagged: ("L", point) for a line and ("S", rows, key) for a
class on the subspace with RREF rows ``rows``, with ``key`` a flag-basis
apartment in that subspace's local coordinates. Each merge maps the two
letters out of their local charts with ``Subspace.from_local``, multiplies
them in the ambient space, maps the product back into the local
coordinates of the joint span and flag-expands it there.

``local_coords`` is the former ``Subspace.local_coords`` method, as a
plain function; other test references that localise use it too.
"""
from fractions import Fraction

from steinpoly.barcplx import Bar
from steinpoly.qlinalg import Subspace, Vec, qv
from steinpoly.steinberg import St, _acc, flag_expand, make_apartment

Letter = tuple  # ('L', point) or ('S', rows, key)


def local_coords(w: Subspace, v) -> Vec:
    """Coordinates of v in the RREF-row basis of w; raises if v is outside."""
    u = qv(v)
    coeffs = tuple(u[p] for p in w.pivots)
    if w.from_local(coeffs) != u:
        raise ValueError("vector is not in the subspace")
    return coeffs


def _letter_subspace(letter: Letter, ambient: int) -> Subspace:
    if letter[0] == "L":
        return Subspace.span([letter[1]], ambient)
    return Subspace(ambient, letter[1])


def _letter_ambient_terms(letter: Letter, ambient: int) -> dict:
    """Letter as {apartment key in ambient coords: coeff}."""
    if letter[0] == "L":
        return {(letter[1],): Fraction(1)}
    w = Subspace(ambient, letter[1])
    pts = [w.from_local(q) for q in letter[2]]
    return dict(make_apartment(pts, ambient).terms)


def _expand_letters(w: Subspace, ambient_terms: dict) -> list[tuple[Letter, Fraction]]:
    """Flag-basis letters of a class supported on w, with coefficients.

    A merged letter must be a single basis element, not a whole class:
    words are multilinear in their letters, so classes have to expand
    for cross-term cancellation to happen.
    """
    k = w.dim
    local = St.zero(k)
    for key, c in ambient_terms.items():
        local += c * make_apartment([local_coords(w, p) for p in key], k)
    local = flag_expand(local)
    return [(("S", w.rows, key), c) for key, c in sorted(local.terms.items())]


def _merge_letters(a: Letter, b: Letter, ambient: int) -> list[tuple[Letter, Fraction]]:
    wa = _letter_subspace(a, ambient)
    wb = _letter_subspace(b, ambient)
    ta = _letter_ambient_terms(a, ambient)
    tb = _letter_ambient_terms(b, ambient)
    prod: dict = {}
    for ka, ca in ta.items():
        for kb, cb in tb.items():
            piece = make_apartment(ka + kb, ambient)
            for k2, s in piece.terms.items():
                _acc(prod, k2, ca * cb * s)
    if not prod:
        return []
    return _expand_letters(wa.add(wb), prod)


def _is_tagged(word: tuple) -> bool:
    return bool(word) and type(word[0][0]) is str


def bar_differential(x: Bar) -> Bar:
    """Sum of adjacent-letter merges with alternating signs.

    Output words hold tagged letters, so the result can be fed back in.
    """
    out = Bar.zero(x.ambient)
    for (word, exps), c in x.terms.items():
        letters = word if _is_tagged(word) else tuple(("L", p) for p in word)
        for j in range(len(letters) - 1):
            for merged, mc in _merge_letters(letters[j], letters[j + 1], x.ambient):
                new_word = letters[:j] + (merged,) + letters[j + 2 :]
                out.add_word(new_word, c * mc * (-1) ** j, exps)
    return out
