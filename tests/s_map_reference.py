"""Reference implementations of the s-map and the coproduct, kept for tests only.

These are the Fraction-based routines the integer walks in
``steinpoly.st2`` replaced: the flat loop over all pairs of permutations
with letters from ``Subspace.intersect`` and an independence test by
``Subspace.add``, the coproduct whose splits and cut lines come from
``Subspace`` spans, and ``embed_s`` adding one ``Fraction`` per word of
every term (the kernel now sums integer numerators over one common
denominator). Tests require the kernel to agree with them exactly.

symbol_L and symbol_I are the second route to the symbols of the L and I
generators that the package carried before embed_s(make_L(v)) and
embed_s(make_I(v)) became the only one: the contraction and omission
recursions over Fraction vectors. On independent vectors they equal the
s-map as whole Bars; on dependent ones they return words where the
generators vanish, so tests compare them on independent input only.
"""
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Sequence

from steinpoly.barcplx import Bar
from steinpoly.qlinalg import ONE, Subspace, Vec, canonical_point, qv, vec_add, vec_sub
from steinpoly.st2 import St2, _s_pair, make_pair, zero_exps
from steinpoly.steinberg import Point, _acc, _sort_sign


def s_pair(key_a, key_b):
    d = len(key_a)
    n = len(key_a[0])
    va = [qv(p) for p in key_a]
    vb = [qv(p) for p in key_b]

    span_a = {}
    span_b = {}

    def spa(fs):
        if fs not in span_a:
            span_a[fs] = Subspace.span([va[i] for i in fs], n)
        return span_a[fs]

    def spb(fs):
        if fs not in span_b:
            span_b[fs] = Subspace.span([vb[i] for i in fs], n)
        return span_b[fs]

    inter_cache = {}

    def line_of(fa, fb):
        key = (fa, fb)
        if key not in inter_cache:
            w = spa(fa).intersect(spb(fb))
            inter_cache[key] = canonical_point(w.rows[0]) if w.dim == 1 else None
        return inter_cache[key]

    words = {}
    for sigma in permutations(range(d)):
        sgn_s = _sort_sign(sigma)[1]
        prefs = [frozenset(sigma[:i]) for i in range(1, d + 1)]
        for tau in permutations(range(d)):
            letters = []
            span = Subspace.zero(n)
            for i in range(1, d + 1):
                line = line_of(prefs[i - 1], frozenset(tau[i - 1 :]))
                if line is None:
                    break
                grown = span.add(Subspace.span([qv(line)], n))
                if grown.dim == span.dim:
                    break
                span = grown
                letters.append(line)
            else:
                w = tuple(letters)
                words[w] = words.get(w, 0) + sgn_s * _sort_sign(tau)[1]
    return tuple(sorted((w, c) for w, c in words.items() if c))


def embed_s(x):
    """Bar-word expansion of a tensor of apartment pairs.

    Terms where the two flags are not in general position drop out; the
    result is a combination of words of d independent lines, carrying
    the sym exponents of the input along.
    """
    out = Bar.zero(x.ambient)
    for (ka, kb, exps), c in x.terms.items():
        for word, wc in _s_pair(ka, kb):
            out.add_word(word, c * wc, exps)
    return out


def _unit_st2(n, c):
    out = St2.zero(n)
    out.add_term((), (), c)
    return out


def _subset_front_sign(subset, d):
    """Parity of the permutation listing subset ascending, then the rest: listed and sorted."""
    listing = list(subset) + [i for i in range(d) if i not in subset]
    return _sort_sign(listing)[1]


def st2_coproduct(x):
    out = []
    n = x.ambient
    for (key_a, key_b, exps), c in x.terms.items():
        if any(exps):
            raise ValueError("coproduct is defined on the plain component")
        d = len(key_a)
        if d != n:
            raise ValueError("coproduct needs full-rank terms")
        va = [qv(p) for p in key_a]
        vb = [qv(p) for p in key_b]
        for k in range(d + 1):
            for i_set in combinations(range(d), k):
                a_i = Subspace.span([va[i] for i in i_set], n) if i_set else Subspace.zero(n)
                for j_set in combinations(range(d), d - k):
                    b_j = Subspace.span([vb[j] for j in j_set], n) if j_set else Subspace.zero(n)
                    if a_i.add(b_j).dim != d:
                        continue
                    j_comp = tuple(j for j in range(d) if j not in j_set)
                    i_comp = tuple(i for i in range(d) if i not in i_set)
                    sign = _subset_front_sign(i_set, d) * _subset_front_sign(j_comp, d)
                    left_b_lines = []
                    ok = True
                    for j in j_comp:
                        cut = a_i.intersect(b_j.add(Subspace.span([vb[j]], n)))
                        if cut.dim != 1:
                            ok = False
                            break
                        left_b_lines.append(canonical_point(cut.rows[0]))
                    if not ok:
                        continue
                    right_a_lines = []
                    for i in i_comp:
                        cut = b_j.intersect(a_i.add(Subspace.span([va[i]], n)))
                        if cut.dim != 1:
                            ok = False
                            break
                        right_a_lines.append(canonical_point(cut.rows[0]))
                    if not ok:
                        continue
                    left = make_pair(
                        [va[i] for i in i_set], left_b_lines, n, c=c * sign, exps=zero_exps(n)
                    ) if i_set else _unit_st2(n, c * sign)
                    right = make_pair(
                        right_a_lines, [vb[j] for j in j_set], n, exps=zero_exps(n)
                    ) if j_set else _unit_st2(n, 1)
                    if not left.terms or not right.terms:
                        continue
                    out.append((i_set, j_set, left, right))
    return out


@lru_cache(maxsize=None)
def _symbol_L(vecs: tuple[Vec, ...]) -> tuple[tuple[tuple[Point, ...], Fraction], ...]:
    d = len(vecs)
    if d == 1:
        return (((canonical_point(vecs[0]),), ONE),)
    out: dict = {}
    for word, c in _symbol_L(vecs[1:]):
        _acc(out, word + (canonical_point(vecs[0]),), c)
    for i in range(d - 1):
        merged = vecs[:i] + (vec_add(vecs[i], vecs[i + 1]),) + vecs[i + 2 :]
        tail_plus = canonical_point(vecs[i + 1])
        tail_minus = canonical_point(vecs[i])
        for word, c in _symbol_L(merged):
            _acc(out, word + (tail_plus,), c)
            _acc(out, word + (tail_minus,), -c)
    return tuple(sorted(out.items()))


@lru_cache(maxsize=None)
def _symbol_I(vecs: tuple[Vec, ...]) -> tuple[tuple[tuple[Point, ...], Fraction], ...]:
    d = len(vecs)
    if d == 1:
        return (((canonical_point(vecs[0]),), -ONE),)
    out: dict = {}
    for word, c in _symbol_I(vecs[:-1]):
        _acc(out, word + (canonical_point(vecs[-1]),), -c)
    for i in range(d - 1):
        drop_hi = vecs[: i + 1] + vecs[i + 2 :]
        drop_lo = vecs[:i] + vecs[i + 1 :]
        letter = canonical_point(vec_sub(vecs[i + 1], vecs[i]))
        for word, c in _symbol_I(drop_hi):
            _acc(out, word + (letter,), c)
        for word, c in _symbol_I(drop_lo):
            _acc(out, word + (letter,), -c)
    return tuple(sorted(out.items()))


def symbol_L(vectors: Sequence, ambient: int | None = None) -> Bar:
    """Bar-word symbol of the L generator, by the contraction recursion."""
    vecs = tuple(qv(v) for v in vectors)
    n = ambient if ambient is not None else len(vecs[0])
    out = Bar.zero(n)
    for word, c in _symbol_L(vecs):
        out.add_word(word, c)
    return out


def symbol_I(vectors: Sequence, ambient: int | None = None) -> Bar:
    """Bar-word symbol of the I generator, by the omission recursion."""
    vecs = tuple(qv(v) for v in vectors)
    n = ambient if ambient is not None else len(vecs[0])
    out = Bar.zero(n)
    for word, c in _symbol_I(vecs):
        out.add_word(word, c)
    return out
