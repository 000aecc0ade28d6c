"""Reference cobracket checks, kept for tests only.

``cobracket_matches_coproduct`` is the localised route that the ambient
fingerprints in ``steinpoly.st2`` replaced: every factor is moved into the
echelon basis of its support with ``local_coords`` before the
s-map, the projection and the shuffle-span reduction, and the wedge keys
carry a small id per support.

``wedge_matches_coproduct`` is the ambient route as it was before it
fingerprinted each distinct factor once and summed in integers: ``_wedge``
fingerprints both factors of every pair and builds each route's whole
antisymmetric ``Fraction`` dictionary, and the two are compared.

Both project along the seeded functionals of ``stable_reference``, as
the kernel did before it reduced modulo the shuffle span directly.

``factor_matches_coproduct`` is the kernel as it was before every factor
became one int apartment pair: it builds each factor as an ``St2``
through ``make_L`` and ``st2_coproduct``, fingerprints each distinct
factor (by its sorted ``Fraction`` terms) once through ``_stable_ints``,
and sums the wedge in integers. It is that kernel verbatim, except that
the terms come in as an argument.

Unlike the kernel, all three take the list of cobracket terms as an
argument, so tests can feed every route the same mutated terms and
require the same verdict.
"""
from fractions import Fraction
from math import lcm

from barcplx_reference import local_coords
from stable_reference import _h_functional, st_infty_fingerprint as ambient_fingerprint
from steinpoly.barcplx import p_H_project, shuffle_span_reduce
from steinpoly.qlinalg import Subspace, qv
from steinpoly.st2 import St2, _stable_ints, embed_s, make_L, make_pair, st2_coproduct
from steinpoly.steinberg import _acc, _independent, _int_vectors

ONE = Fraction(1)


def _fingerprint_local(x_local, w, seed):
    """st_infty_fingerprint of a tensor already in w's local coordinates."""
    words = embed_s(x_local)
    h = _h_functional(seed, w.dim, label=repr(w.rows))
    reduced = shuffle_span_reduce(p_H_project(words, h))
    return dict(reduced.terms)


def st_infty_fingerprint(x, w, seed=0):
    k = w.dim
    local = St2.zero(k)
    for (key_a, key_b, _exps), c in x.terms.items():
        local += make_pair(
            [local_coords(w, p) for p in key_a], [local_coords(w, p) for p in key_b], k, c
        )
    return _fingerprint_local(local, w, seed)


def _wedge_expand(acc, ids, c, wa, fpa, wb, fpb):
    # small ints from ids stand in for the subspaces' Fraction rows in the keys
    a = ids.setdefault(wa.rows, len(ids))
    b = ids.setdefault(wb.rows, len(ids))
    for ka, ca in fpa.items():
        for kb, cb in fpb.items():
            _acc(acc, (a, ka, b, kb), c * ca * cb)
            _acc(acc, (b, kb, a, ka), -c * ca * cb)


def _support_subspace(x, n):
    pts = []
    for (key_a, key_b, _), _c in x.terms.items():
        pts.extend(key_a)
    return Subspace.span(pts, n)


def cobracket_matches_coproduct(vectors, terms, seed=0):
    """Compare the cobracket terms (c, left, right) with the coproduct of L(vectors)."""
    vecs = [qv(v) for v in vectors]
    n = len(vecs[0])
    ids: dict = {}
    route_a: dict = {}
    for c, left, right in terms:
        wa = Subspace.span(left, n)
        wb = Subspace.span(right, n)
        la = make_L([local_coords(wa, v) for v in left], wa.dim)
        lb = make_L([local_coords(wb, v) for v in right], wb.dim)
        fpa = _fingerprint_local(la, wa, seed)
        fpb = _fingerprint_local(lb, wb, seed)
        _wedge_expand(route_a, ids, c, wa, fpa, wb, fpb)

    route_b: dict = {}
    for i_set, j_set, left, right in st2_coproduct(make_L(vecs, n)):
        if not i_set or not j_set:
            continue
        wa = _support_subspace(left, n)
        wb = _support_subspace(right, n)
        fpa = st_infty_fingerprint(left, wa, seed)
        fpb = st_infty_fingerprint(right, wb, seed)
        _wedge_expand(route_b, ids, ONE, wa, fpa, wb, fpb)
    return route_a == route_b


def _wedge(pairs, seed):
    """Sum of c fp(a) ^ fp(b) over (c, a, b), keyed by (key of a, key of b).

    The letters of each fingerprint word span the word's support, so
    ambient keys keep factors on different supports apart.
    """
    acc: dict = {}
    for c, a, b in pairs:
        fpa = ambient_fingerprint(a, seed)
        fpb = ambient_fingerprint(b, seed)
        for ka, ca in fpa.items():
            for kb, cb in fpb.items():
                _acc(acc, (ka, kb), c * ca * cb)
                _acc(acc, (kb, ka), -c * ca * cb)
    return acc


def wedge_matches_coproduct(vectors, terms, seed=0):
    """Compare the cobracket terms (c, left, right) with the coproduct of L(vectors)."""
    vecs = [qv(v) for v in vectors]
    n = len(vecs[0])
    route_a = _wedge(((c, make_L(left, n), make_L(right, n)) for c, left, right in terms), seed)
    splits = st2_coproduct(make_L(vecs, n))
    route_b = _wedge(((ONE, left, right) for i, j, left, right in splits if i and j), seed)
    return route_a == route_b


def factor_matches_coproduct(vectors, terms) -> bool:
    """Compare the cobracket terms (c, left, right) with the coproduct of L(vectors)."""
    vecs, n = _int_vectors(vectors, None)
    if not _independent(vecs, n):
        raise ValueError("cobracket check needs independent vectors")
    pairs = [(c, make_L(left, n), make_L(right, n)) for c, left, right in terms]
    pairs += [(-ONE, a, b) for i, j, a, b in st2_coproduct(make_L(vecs, n)) if i and j]
    ids: dict = {}
    fps: dict = {}

    def fingerprint(x: St2) -> tuple[int, list[tuple[int, int]]]:
        """(den, [(key id, numerator)]) of x's fingerprint, once per distinct x."""
        fk = tuple(sorted(x.terms.items()))
        if fk not in fps:
            den, nums = _stable_ints(x)
            fps[fk] = den, [(ids.setdefault(k, len(ids)), num) for k, num in nums.items()]
        return fps[fk]

    terms = [(c, fingerprint(a), fingerprint(b)) for c, a, b in pairs]
    # each pair carries c / (den_a den_b); one lcm clears them all
    den = lcm(*(c.denominator * da * db for c, (da, _na), (db, _nb) in terms))
    acc: dict = {}
    for c, (da, nums_a), (db, nums_b) in terms:
        scale = c.numerator * (den // (c.denominator * da * db))
        for ia, na in nums_a:
            s = scale * na
            for ib, nb in nums_b:
                if ia < ib:
                    acc[(ia, ib)] = acc.get((ia, ib), 0) + s * nb
                elif ib < ia:
                    acc[(ib, ia)] = acc.get((ib, ia), 0) - s * nb
    return not any(acc.values())
