"""Reference implementations of the flag normal form, kept for tests only.

These are the Fraction-based routines the integer kernel in
``steinpoly.steinberg`` and ``steinpoly.st2`` replaced: a flat walk over
all permutations with cut lines from ``Subspace.intersect``, Fraction
canonicalisation of apartments, and a normal form that takes the outer
product of both factors' expansions term by term. Tests require the
kernel to agree with them exactly.
"""
from fractions import Fraction
from itertools import permutations

from steinpoly.qlinalg import Subspace, canonical_point, det, qv, rank
from steinpoly.steinberg import _sort_sign


def _acc(d, key, c):
    v = d.get(key, 0) + c
    if v:
        d[key] = v
    else:
        d.pop(key, None)


def normalize_apartment(vectors, ambient=None):
    vecs = [qv(v) for v in vectors]
    if not vecs:
        raise ValueError("empty apartment")
    n = ambient if ambient is not None else len(vecs[0])
    if any(len(v) != n for v in vecs):
        raise ValueError("mixed vector lengths in apartment")
    if any(all(x == 0 for x in v) for v in vecs):
        return None
    points = [canonical_point(v) for v in vecs]
    k = len(points)
    if k > n:
        return None
    if k == n:
        if det(tuple(qv(p) for p in points)) == 0:
            return None
    elif rank(tuple(qv(p) for p in points)) < k:
        return None
    return _sort_sign(points)


def flag_expand_apartment(key, steps):
    """{basis key: Fraction} expansion of one apartment key in the basis of a flag.

    steps[i] is the (i + 1)-dimensional step of the flag, a Subspace.
    """
    d = len(key)
    results = {}
    w = [qv(p) for p in key]
    span_of = {frozenset(): Subspace.zero(len(w[0]))}

    def span_set(ix):
        got = span_of.get(ix)
        if got is None:
            i = next(iter(ix))
            got = span_set(ix - {i}).add(Subspace.span([w[i]]))
            span_of[ix] = got
        return got

    line_of = {}

    def cut_line(i, ix):
        kk = (i, ix)
        if kk not in line_of:
            inter = steps[i - 1].intersect(span_set(ix))
            line_of[kk] = canonical_point(inter.rows[0]) if inter.dim == 1 else None
        return line_of[kk]

    for tau in permutations(range(d)):
        lines = []
        for i in range(1, d + 1):
            got = cut_line(i, frozenset(tau[i - 1 :]))
            if got is None:
                break
            lines.append(got)
        else:
            norm = normalize_apartment(lines)
            if norm is not None:
                _acc(results, norm[0], Fraction(_sort_sign(tau)[1] * norm[1]))
    return results


def flag_expand_terms(terms, ambient, basis=None):
    """Reference expansion of a {key: coeff} dict in the flag of a basis.

    The i-th flag step is the span of the first i basis vectors; the
    default basis is the standard one.
    """
    if basis is None:
        basis = [[int(i == j) for j in range(ambient)] for i in range(ambient)]
    steps = [Subspace.span(basis[: i + 1], ambient) for i in range(ambient)]
    out = {}
    for key, c in terms.items():
        for k2, c2 in flag_expand_apartment(key, steps).items():
            _acc(out, k2, c * c2)
    return out


def st2_normal_form(x):
    """Reference normal form: the outer product of both expansions, per term."""
    out = {}
    n = x.ambient
    for (key_a, key_b, exps), c in x.terms.items():
        ea = flag_expand_terms({key_a: Fraction(1)}, n)
        eb = flag_expand_terms({key_b: Fraction(1)}, n)
        for ka, ca in ea.items():
            for kb, cb in eb.items():
                _acc(out, (ka, kb, exps), c * ca * cb)
    return out
