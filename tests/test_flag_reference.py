"""The integer flag normal form against the Fraction reference it replaced.

``flag_reference`` keeps the flat permutation walk over ``Subspace`` cuts
and the per-term outer-product normal form; the kernel must agree with
them exactly, on generic keys and on keys where some cuts are not lines,
and on elements sharing one factor, which the normal form groups by
either side. The normal form comes in ascending key order and stops after
its limit, so its first terms are the reference's least ones.
Flags other than the standard one go to the kernel as the integer rows
of a basis, and the reference builds its steps from the same basis.
A rank-k key inside Q^n must expand as its coordinates in the flag rows
do in Q^k.
"""
from fractions import Fraction
from itertools import combinations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import flag_reference as ref
from qlinalg_reference import _int_rank
from steinpoly.qlinalg import canonical_point, qm, qv, rank, solve
from steinpoly.st2 import St2, is_zero_st2, make_I, make_L, st2_normal_form, st2_product
from steinpoly.steinberg import (
    St,
    _flag_expand_apartment,
    _independent,
    _int_vectors,
    _sort_sign,
    flag_expand,
    make_apartment,
    normalize_apartment,
)

COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


def vectors(d, count, bound=2):
    return st.lists(
        st.tuples(*[st.integers(-bound, bound)] * d), min_size=count, max_size=count
    )


@st.composite
def keys(draw, d):
    norm = ref.normalize_apartment(draw(vectors(d, d)))
    assume(norm is not None)
    return norm[0]


@st.composite
def flags(draw, d):
    if draw(st.booleans()):
        return None
    basis = draw(vectors(d, d))
    assume(rank(tuple(qv(v) for v in basis)) == d)
    return basis


def expand(x, basis):
    """flag_expand for the standard flag (basis None), else the kernel on the basis rows."""
    if basis is None:
        return flag_expand(x).terms
    out: dict = {}
    for key, c in x.terms.items():
        for k2, c2 in _flag_expand_apartment(key, tuple(map(tuple, basis))):
            out[k2] = out.get(k2, 0) + c * c2
    return {k: v for k, v in out.items() if v}


@st.composite
def elements(draw):
    d = draw(st.integers(2, 4))
    terms = draw(st.dictionaries(keys(d), COEFFS, min_size=1, max_size=3))
    return St(d, terms), draw(flags(d))


@st.composite
def st2_elements(draw):
    d = draw(st.integers(2, 4))
    x = St2.zero(d)
    for _ in range(draw(st.integers(1, 4))):
        exps = draw(st.tuples(*[st.integers(0, 1)] * d))
        x.add_term(draw(keys(d)), draw(keys(d)), draw(COEFFS), exps)
    return x


@given(elements())
@settings(max_examples=80, deadline=None)
def test_flag_expand_matches_reference(case):
    x, basis = case
    assert expand(x, basis) == ref.flag_expand_terms(x.terms, x.ambient, basis)


@st.composite
def shared_factor_elements(draw):
    """St2 elements whose terms share one factor, so either grouping order runs.

    "first" and "second" share a key in that slot against several keys in
    the other; "tie" pairs as many keys on each side. The shared key is
    also drawn into the other side now and then, and the exponents come
    from a pool of two, so both sides' distinct (key, exps) counts vary.
    """
    d = draw(st.integers(2, 4))
    shape = draw(st.sampled_from(["first", "second", "tie"]))
    shared = draw(keys(d))
    others = draw(st.lists(keys(d) | st.just(shared), min_size=1, max_size=4))
    pool = draw(st.lists(st.tuples(*[st.integers(0, 1)] * d), min_size=1, max_size=2))
    x = St2.zero(d)
    for other in others:
        if shape == "tie":
            pair = (other, draw(keys(d)))
        else:
            pair = (shared, other) if shape == "first" else (other, shared)
        x.add_term(*pair, draw(COEFFS), draw(st.sampled_from(pool)))
    return x


@given(st2_elements())
@settings(max_examples=40, deadline=None)
def test_st2_normal_form_matches_reference(x):
    assert st2_normal_form(x) == ref.st2_normal_form(x)


@given(shared_factor_elements())
@settings(max_examples=60, deadline=None)
def test_shared_factor_normal_form_matches_reference(x):
    assert st2_normal_form(x) == ref.st2_normal_form(x)


def test_shuffle_residual_groups_by_the_shared_second_factor():
    """An L shuffle residual has one second factor and many first factors."""
    basis = [(1, 2, 0, -1), (0, 1, 1, 2), (2, -1, 1, 0), (1, 0, -1, 1)]
    x = St2.zero(4)
    for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        rest = [k for k in range(4) if k not in (i, j)]
        x += make_L([basis[k] for k in (i, j, *rest)], c=i + j + 1)
    assert len({kb for _ka, kb, _e in x.terms}) == 1 < len({ka for ka, _kb, _e in x.terms})
    assert st2_normal_form(x) == ref.st2_normal_form(x)


@st.composite
def apartment_inputs(draw):
    """(n, k vectors in Q^n): n <= 4, k <= n + 2, at most one zero vector, as ints or Fractions.

    The Fractions divide every entry by 3, each vector by its own
    denominator, or each entry by its own, so clearing by one common
    denominator meets scales that differ between and within vectors.
    """
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n)) + draw(st.sampled_from([0, 0, 0, 1, 2]))
    vecs = draw(vectors(n, k))
    if draw(st.sampled_from([False, False, True])):
        vecs[draw(st.integers(0, k - 1))] = (0,) * n
    form = draw(st.sampled_from(["int", "common", "vector", "entry"]))
    dens = st.integers(1, 12)
    if form == "common":
        return n, [tuple(Fraction(x, 3) for x in v) for v in vecs]
    if form == "vector":
        per_vector = draw(st.lists(dens, min_size=k, max_size=k))
        return n, [tuple(Fraction(x, d) for x in v) for v, d in zip(vecs, per_vector)]
    if form == "entry":
        return n, [tuple(Fraction(x, draw(dens)) for x in v) for v in vecs]
    return n, vecs


@given(apartment_inputs())
@settings(max_examples=200, deadline=None)
def test_normalize_apartment_matches_reference(case):
    n, vecs = case
    assert normalize_apartment(vecs, n) == ref.normalize_apartment(vecs, n)


@given(apartment_inputs())
@settings(max_examples=200, deadline=None)
def test_one_independence_test_is_full_rank(case):
    n, vecs = case
    ints, m = _int_vectors(vecs, n)
    assert m == n and all(type(x) is int for v in ints for x in v)
    assert _int_rank(ints) == rank(qm(vecs))
    assert _independent(ints, n) == (rank(qm(vecs)) == len(vecs))
    # families shorter than the dimension go through the Gauss-Jordan pivot
    # count; the empty family is independent
    for k in range(min(len(ints), n - 1) + 1):
        assert _independent(ints[:k], n) == (_int_rank(ints[:k]) == k)


DIM5_KEYS = [
    ((1, 0, 2, -1, 3), (0, 1, -1, 2, 1), (2, 1, 0, 1, -1), (1, -1, 1, 0, 2), (0, 2, 1, -3, 1)),
    ((1, 0, 0, 0, 1), (0, 1, 0, 1, 0), (0, 0, 1, 0, 0), (1, 1, 0, 0, 0), (0, 0, 0, 1, 2)),
]
DIM5_FLAG = [(1, 1, 0, 0, 0), (0, 1, 2, 0, 0), (1, 0, 0, 1, -1), (0, 0, 1, 1, 1), (2, 0, 1, 0, 1)]


def test_flag_expand_dim5_matches_reference():
    for vecs in DIM5_KEYS:
        key = ref.normalize_apartment(vecs)[0]
        for basis in (None, DIM5_FLAG):
            x = St(5, {key: Fraction(2, 3)})
            assert expand(x, basis) == ref.flag_expand_terms(x.terms, 5, basis)


DIM5_BASIS = [(1, 2, 0, 1, -1), (0, 1, 1, 0, 2), (1, 0, -1, 1, 0), (2, 1, 0, 0, 1), (0, 0, 1, 1, 1)]


def test_st2_normal_form_dim5_matches_reference():
    x = make_L(DIM5_BASIS) - make_I(list(reversed(DIM5_BASIS)), c=Fraction(1, 2))
    assert st2_normal_form(x) == ref.st2_normal_form(x)


LIMITS = (0, 1, 3, 8, None)


def assert_least_terms(x, want=None):
    """Each limit gives the reference's least terms, in order; is_zero_st2 agrees."""
    want = sorted((ref.st2_normal_form(x) if want is None else want).items())
    for limit in LIMITS:
        assert list(st2_normal_form(x, limit).items()) == want[:limit]
    assert is_zero_st2(x) == (not want)


@given(st2_elements())
@settings(max_examples=40, deadline=None)
def test_limited_normal_form_is_least_terms(x):
    assert_least_terms(x)


@given(shared_factor_elements())
@settings(max_examples=60, deadline=None)
def test_limited_shared_factor_normal_form_is_least_terms(x):
    assert_least_terms(x)


def test_limited_normal_form_dim5():
    x = make_L(DIM5_BASIS) - make_I(list(reversed(DIM5_BASIS)), c=Fraction(1, 2))
    want = ref.st2_normal_form(x)
    assert len(want) > 8
    assert_least_terms(x, want)


def test_limited_normal_form_of_a_shuffle_relation_is_empty():
    """L(v1 v2) L(v3 v4) minus its six shuffles: seven nonzero terms, zero normal form."""
    basis = [(1, 2, 0, -1), (0, 1, 1, 2), (2, -1, 1, 0), (1, 0, -1, 1)]
    x = st2_product(make_L(basis[:2], 4), make_L(basis[2:], 4))
    for pos in combinations(range(4), 2):
        rest = [k for k in range(4) if k not in pos]
        arranged = [None] * 4
        for k, p in enumerate(pos + tuple(rest)):
            arranged[p] = basis[k]
        x -= make_L(arranged, 4)
    assert x.terms
    assert_least_terms(x)
    assert is_zero_st2(x)


@st.composite
def subspace_keys(draw):
    """k < n independent flag rows in Q^n and a rank-k key in their span."""
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, n - 1))
    rows = draw(vectors(n, k))
    if draw(st.booleans()):
        # the first k columns are singular, so the minors must skip ahead
        rows = [(0,) + r[1:] for r in rows]
    assume(_int_rank(rows) == k)
    coeffs = draw(vectors(k, k))
    pts = [tuple(sum(c * r[j] for c, r in zip(cs, rows)) for j in range(n)) for cs in coeffs]
    norm = normalize_apartment(pts, n)
    assume(norm is not None)
    return tuple(rows), norm[0]


@given(subspace_keys())
@settings(max_examples=120, deadline=None)
def test_rank_k_flag_expand_matches_local_flag_expand(case):
    rows, key = case
    n, k = len(rows[0]), len(rows)
    cols = tuple(tuple(qv(r[j] for r in rows)) for j in range(n))
    local = make_apartment([solve(cols, qv(p)) for p in key], k)
    want: dict = {}
    for lkey, c in flag_expand(local).terms.items():
        pts = [canonical_point([sum(q * r[j] for q, r in zip(lp, rows)) for j in range(n)]) for lp in lkey]
        akey, sign = _sort_sign(pts)
        want[akey] = want.get(akey, 0) + sign * c
    assert dict(_flag_expand_apartment(key, rows)) == want
