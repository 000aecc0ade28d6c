"""The integer s-map walk and coproduct cuts against the Fraction reference.

``s_map_reference`` keeps the flat loop over all pairs of permutations with
``Subspace`` letters, the coproduct with ``Subspace`` splits, and the
``embed_s`` that added one ``Fraction`` per word; the kernel must agree with
them exactly (its words in any order, as the walk leaves them), also for pairs of rank below the ambient dimension, pairs of
different spans and pairs sharing entries, and for sums whose terms have
different denominators and exponent tuples.
"""
from fractions import Fraction
from itertools import combinations
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import flag_reference
import s_map_reference as ref
from qlinalg_reference import _int_rank
from steinpoly import st2, steinberg
from steinpoly.barcplx import Bar
from steinpoly.qlinalg import _int_gauss_jordan, int_point
from steinpoly.st2 import St2, _s_pair, embed_s, make_I, make_L, make_pair, st2_coproduct
from steinpoly.steinberg import _flag_expand_apartment, _sort_sign, _standard_rows

COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


def vectors(n, count, bound=2):
    return st.lists(
        st.tuples(*[st.integers(-bound, bound)] * n), min_size=count, max_size=count
    )


def key_of(vecs, n):
    norm = flag_reference.normalize_apartment(vecs, n)
    assume(norm is not None)
    return norm[0]


@st.composite
def pairs(draw, d=None, n=None):
    d = d or draw(st.integers(1, 4))
    n = n or d + draw(st.integers(0, 2))
    key_a = key_of(draw(vectors(n, d)), n)
    if draw(st.booleans()):
        vecs_b = draw(vectors(n, d))
    else:
        # integer combinations of A's entries stay in span A
        combos = draw(vectors(d, d))
        vecs_b = [tuple(sum(c * p[j] for c, p in zip(cs, key_a)) for j in range(n)) for cs in combos]
    if draw(st.booleans()):
        keep = draw(st.integers(1, d))
        vecs_b = list(key_a[:keep]) + vecs_b[keep:]
    return key_a, key_of(vecs_b, n)


@given(pairs())
@settings(max_examples=150, deadline=None)
def test_s_pair_matches_reference(pair):
    key_a, key_b = pair
    assert sorted(_s_pair(key_a, key_b)) == sorted(ref.s_pair(key_a, key_b))


@st.composite
def flag_cases(draw):
    """A rank-d key and a flag of its span: standard, random full, or RREF rows as _merge_letters builds them."""
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["standard", "full", "rank-k"]))
    if kind == "rank-k":
        n = d + draw(st.integers(1, 2))
        span = draw(vectors(n, d))
        assume(_int_rank(span) == d)
        combos = draw(vectors(d, d))
        key = key_of([tuple(sum(c * r[j] for c, r in zip(cs, span)) for j in range(n)) for cs in combos], n)
        work = [list(p) for p in key]
        _int_gauss_jordan(work)
        return key, tuple(map(int_point, work))
    key = key_of(draw(vectors(d, d)), d)
    if kind == "standard":
        return key, _standard_rows(d)
    frows = tuple(draw(vectors(d, d)))
    assume(_int_rank(frows) == d)
    return key, frows


@given(flag_cases())
@settings(max_examples=100, deadline=None)
def test_flag_basis_is_the_s_map_with_the_prefix_fixed(case):
    """The words of the s-map of (flag rows, key) with sigma = id, each sorted, sum to the flag expansion."""
    key, frows = case
    want: dict = {}
    for word, c in ref.s_pair(frows, key):
        # letter i lies in the i-th flag step exactly when sigma_1..sigma_i = 1..i
        if all(_int_rank(frows[: i + 1] + (line,)) == i + 1 for i, line in enumerate(word)):
            sorted_key, sign = _sort_sign(word)
            want[sorted_key] = want.get(sorted_key, 0) + sign * c
    assert {k: c for k, c in want.items() if c} == dict(_flag_expand_apartment(key, frows))


@st.composite
def st2_sums(draw):
    d = draw(st.integers(1, 4))
    x = St2.zero(d)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from([make_L, make_I, make_pair]))
        c = draw(COEFFS)
        if kind is make_pair:
            x = x + make_pair(draw(vectors(d, d)), draw(vectors(d, d)), d, c=c)
        else:
            x = x + kind(draw(vectors(d, d)), d, c=c)
    assume(x.terms)
    return x


@given(st2_sums(), st.data())
@settings(max_examples=100, deadline=None)
def test_embed_s_matches_reference(x, data):
    assert embed_s(x) == ref.embed_s(x)
    # the same terms spread over several exponent groups
    n = x.ambient
    spread = St2.zero(n)
    for (key_a, key_b, _e), c in x.terms.items():
        exps = data.draw(st.sampled_from([(0,) * n, (1,) + (0,) * (n - 1), (0,) * (n - 1) + (2,)]))
        spread.add_term(key_a, key_b, c, exps)
    assert embed_s(spread) == ref.embed_s(spread)


@given(st.integers(1, 4), st.integers(0, 2), st.data())
@settings(max_examples=60, deadline=None)
def test_embed_s_below_ambient_rank_matches_reference(d, extra, data):
    n = d + extra
    x = St2.zero(n)
    for _ in range(data.draw(st.integers(1, 3))):
        key_a, key_b = data.draw(pairs(d, n))
        x.add_term(key_a, key_b, data.draw(COEFFS))
    assert embed_s(x) == ref.embed_s(x)


def test_embed_s_of_zero_matches_reference():
    for n in (1, 3):
        assert embed_s(St2.zero(n)) == ref.embed_s(St2.zero(n)) == Bar.zero(n)


@given(st2_sums())
@settings(max_examples=60, deadline=None)
def test_st2_coproduct_matches_reference(x):
    assert st2_coproduct(x) == ref.st2_coproduct(x)


DIM5_BASIS = [(1, 2, 0, 1, -1), (0, 1, 1, 0, 2), (1, 0, -1, 1, 0), (2, 1, 0, 0, 1), (0, 0, 1, 1, 1)]


def test_embed_s_dim5_matches_reference():
    x = make_L(DIM5_BASIS, c=Fraction(2, 3))
    ((key_a, key_b, _), c), = x.terms.items()
    want = ref.s_pair(key_a, key_b)
    assert len(want) == 945
    assert sorted(_s_pair(key_a, key_b)) == sorted(want)
    assert embed_s(x).terms == {(w, (0,) * 5): c * wc for w, wc in want}


def test_subset_front_sign_is_the_listing_parity():
    """The closed-form parity against listing the subset, then the rest, and sorting."""
    for d in range(7):
        for k in range(d + 1):
            for subset in combinations(range(d), k):
                assert st2._subset_front_sign(subset) == ref._subset_front_sign(subset, d), subset


def test_st2_coproduct_dim5_matches_reference():
    x = make_L(DIM5_BASIS)
    want = ref.st2_coproduct(x)
    assert len(want) == 89
    assert st2_coproduct(x) == want


def test_s_map_and_coproduct_take_no_determinant():
    """Every cut and every split test comes from the minor table, with no rank test either."""
    x = make_L([(1, 0, 2, -1), (0, 1, -1, 2), (2, 1, 0, 1), (1, -1, 1, 0)])
    ((key_a, key_b, _), _c), = x.terms.items()
    other = make_pair([(1, 0, 1, 0), (0, 1, 0, 1)], [(1, 1, 1, 1), (1, -1, 1, -1)], 4)
    ((low_a, low_b, _), _c), = other.terms.items()
    outside = (low_a, ((0, 1, 0, 1), (1, 0, 0, 0)))
    pairs = [(key_a, key_b), (low_a, low_b), outside]
    want = [ref.s_pair(*p) for p in pairs], ref.st2_coproduct(x)
    boom = mock.Mock(side_effect=AssertionError("called"))
    with mock.patch.multiple(steinberg, _int_det=boom, _independent=boom), \
            mock.patch.multiple(st2, _int_det=boom, _independent=boom, create=True):
        got = [sorted(_s_pair.__wrapped__(*p)) for p in pairs], st2_coproduct(x)
    assert got == ([sorted(words) for words in want[0]], want[1])
    assert len(want[0][0]) > 1 and len(want[0][1]) > 1 and want[0][2] == ()
