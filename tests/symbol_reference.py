"""Reference symbol routes: the per-generator coproduct recursion and the
full-system solve-back, kept verbatim from before the phase-free rewrite so
tests can check that the faster routes agree with them bit for bit.

recursion_symbol_bar sums the symbol of every root-expanded generator of a
pushforward (N^d of them) and runs sigma once per slot tuple;
_bar_slice_to_st2 solves against every word the candidates embed to, not
only the slice's own words.
"""
from __future__ import annotations

from itertools import product as iproduct
from typing import Sequence

from steinpoly.barcplx import Bar
from steinpoly.mpl import (
    ONE,
    ZERO,
    DepthOneNF,
    PushedLi,
    _iterated_top,
    _sym_poly,
    pushed_expand,
    st2_gl_act,
    truncated_symbol_closed,
)
from steinpoly.qlinalg import canonical_point, qm, qv, rank, saturation_index, solve
from steinpoly.st2 import St2, embed_s, make_L


def sigma(factors: Sequence[DepthOneNF], ambient: int) -> Bar:
    """Section of the root-expansion embedding on depth-one tensors.

    Phases are forgotten, the direction tuple picks up its covolume
    factor, and the weights feed the symmetric tail.  Dependent tuples
    and constant slots contribute nothing.
    """
    out = Bar.zero(ambient)
    weights = [f.weight for f in factors]
    k = len(factors)
    for combo in iproduct(*[f.items() for f in factors]):
        coeff = ONE
        vecs = []
        for c, _phase, v in combo:
            coeff *= c
            vecs.append(qv(v))
        if rank(vecs) < k:
            continue
        covol = saturation_index(vecs)
        word = tuple(canonical_point(v) for v in vecs)
        for exps, pc in _sym_poly(vecs, weights, ambient).items():
            out.add_word(word, coeff * covol * pc, exps)
    return out


def recursion_symbol_bar(g) -> Bar:
    """Bar-word symbol through the iterated top coproduct and sigma."""
    if isinstance(g, PushedLi):
        out = Bar.zero(g.ambient)
        for c, gen in pushed_expand(g):
            out += c * recursion_symbol_bar(gen)
        return out
    out = Bar.zero(g.ambient)
    for slots in _iterated_top(g):
        out += sigma(slots, g.ambient)
    return out


def _bar_slice_to_st2(slice_terms: dict, exps: tuple, ambient: int) -> St2:
    """Solve a bar-word slice back into the Steinberg tensor square.

    Candidates are L generators on each word read right to left; the
    result is guarded by re-embedding, so failure raises instead of
    returning a wrong element.
    """
    cands: dict = {}
    for word in slice_terms:
        vecs = tuple(qv(p) for p in reversed(word))
        cand = make_L(vecs, ambient, exps=exps)
        key = tuple(sorted(cand.terms))
        if key not in cands:
            cands[key] = cand
    family = list(cands.values())
    fam_bars = [embed_s(c) for c in family]
    words = set(slice_terms)
    for fb in fam_bars:
        words.update(w for (w, _) in fb.terms)
    rows = []
    rhs = []
    for w in sorted(words):
        rows.append([fb.terms.get((w, exps), ZERO) for fb in fam_bars])
        rhs.append(slice_terms.get(w, ZERO))
    coeffs = solve(qm(rows), qv(rhs)) if family else None
    if coeffs is None:
        raise ArithmeticError("bar slice not in the L-generator span")
    out = St2.zero(ambient)
    for c, cand in zip(coeffs, family):
        out += c * cand
    check = embed_s(out)
    want = {(w, exps): c for w, c in slice_terms.items()}
    if check.terms != want:
        raise ArithmeticError("solve-back failed to reproduce the bar slice")
    return out


def truncated_symbol(g) -> St2:
    """Truncated symbol in the Steinberg tensor square.

    Standard generators go through the coproduct recursion and a
    solve-back; pushforwards act on the closed form by their matrix.
    """
    if isinstance(g, PushedLi):
        base = truncated_symbol_closed(g.ns, g.ambient)
        return g.coeff * st2_gl_act(g.matrix, base)
    bar = recursion_symbol_bar(g)
    d = g.ambient
    slices: dict = {}
    for (word, exps), c in bar.terms.items():
        slices.setdefault(exps, {})[word] = c
    out = St2.zero(d)
    for exps in sorted(slices):
        out += _bar_slice_to_st2(slices[exps], exps, d)
    return out

