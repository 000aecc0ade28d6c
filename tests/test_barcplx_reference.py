"""The ambient-key bar differential against the tagged one it replaced.

``barcplx_reference`` keeps the differential whose merged letters were
("S", rows, key) with key in the local coordinates of the subspace with
RREF rows ``rows``. Mapping each such letter to the canonical ambient
points of its key, with the sort sign folded into the coefficient, and
each ("L", p) to (p,), must give exactly the kernel's output: on random
words (repeated and dependent letters included), on single terms of that
output fed back in, and on s-map images of the generators.
"""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import barcplx_reference as ref
from steinpoly.barcplx import Bar, bar_differential, bar_word
from steinpoly.qlinalg import Subspace, canonical_point, qv, rank
from steinpoly.st2 import embed_s, make_I, make_L
from steinpoly.steinberg import _sort_sign


def ambient_letter(letter, n):
    """(ambient key, sign) of a tagged reference letter."""
    if letter[0] == "L":
        return (letter[1],), 1
    w = Subspace(n, letter[1])
    return _sort_sign([canonical_point(w.from_local(q)) for q in letter[2]])


def ambient_terms(x: Bar) -> dict:
    out: dict = {}
    for (word, exps), c in x.terms.items():
        sign = 1
        letters = []
        for letter in word:
            key, s = ambient_letter(letter, x.ambient)
            letters.append(key)
            sign *= s
        k = (tuple(letters), exps)
        out[k] = out.get(k, Fraction(0)) + sign * c
    return {k: v for k, v in out.items() if v}


def nonzero(v):
    return v if any(v) else (1,) + v[1:]


@st.composite
def words(draw):
    # letters come from a few random lines and their pairwise sums, so
    # words repeat letters and hold dependent ones
    n = draw(st.integers(2, 5))
    base = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n).map(nonzero), min_size=1, max_size=5))
    pool = base + [nonzero(tuple(map(sum, zip(a, b)))) for a in base for b in base]
    pts = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=5))
    c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))
    exps = draw(st.tuples(*[st.integers(0, 1)] * n))
    return bar_word(pts, n, c, exps)


@given(words())
@settings(max_examples=120, deadline=None)
def test_differential_matches_reference(x):
    assert bar_differential(x).terms == ambient_terms(ref.bar_differential(x))


@given(words())
@settings(max_examples=60, deadline=None)
def test_differential_of_merged_words_matches_reference(x):
    # each output term fed back in alone, so the comparison is not 0 == 0
    for (word, exps), c in ref.bar_differential(x).terms.items():
        tagged = Bar(x.ambient, {(word, exps): c})
        keyed = Bar(x.ambient, ambient_terms(tagged))
        assert bar_differential(keyed).terms == ambient_terms(ref.bar_differential(tagged))
    assert not bar_differential(bar_differential(x))


@st.composite
def s_images(draw):
    d = draw(st.integers(2, 4))
    vecs = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=d, max_size=d))
    if rank(tuple(qv(v) for v in vecs)) < d:
        vecs = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    make = draw(st.sampled_from([make_L, make_I]))
    return embed_s(make(vecs, d))


@given(s_images())
@settings(max_examples=25, deadline=None)
def test_differential_of_s_images_matches_reference(x):
    # s-images are closed, so the words are also compared one at a time
    assert bar_differential(x).terms == ambient_terms(ref.bar_differential(x)) == {}
    for key, c in x.terms.items():
        one = Bar(x.ambient, {key: c})
        assert bar_differential(one).terms == ambient_terms(ref.bar_differential(one))
