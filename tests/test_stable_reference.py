"""The unprojected stable-quotient zero test against the projected one it replaced.

``stable_reference`` keeps the route that projected the s-image along a
seeded functional h before reducing it modulo the shuffle span. The
kernel reduces without projecting. At ranks up to 4 the two must give
the same verdict on dihedral residuals with and without a perturbation,
on sums of L and I generators and on coproduct factors below full rank,
whatever the seed; where the reference functional pairs nonzero with
every letter they must give the same remainder. The kernel rests on the
projection being faithful for any h that is nonzero on the support, so
that is checked too at full rank, with h orthogonal to one of the letters
that occur.
"""
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stable_reference as ref
from steinpoly.barcplx import bar_word, p_H_project, shuffle_span_reduce
from steinpoly.qlinalg import nullspace, qv, rank
from steinpoly.st2 import (
    St2,
    bar_infty_reduce,
    embed_s,
    is_zero_st_infty,
    make_I,
    make_L,
    st2_coproduct,
    st2_product,
)

COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
SEEDS = st.integers(0, 7)


def vectors(n, count, bound=3):
    return st.lists(
        st.tuples(*[st.integers(-bound, bound)] * n), min_size=count, max_size=count
    )


@st.composite
def bases(draw, d_min=2):
    d = draw(st.integers(d_min, 4))
    vecs = draw(vectors(d, d))
    assume(rank(tuple(qv(v) for v in vecs)) == d)
    return vecs


@st.composite
def dihedral_residuals(draw):
    """One dihedral relation of the CLI suite, perturbed by an L half the time."""
    vecs = draw(bases())
    n = len(vecs)
    v0 = tuple(-sum(v[i] for v in vecs) for i in range(n))
    relation = draw(st.sampled_from(["rotation", "negation", "L reversal", "I reversal"]))
    if relation == "rotation":
        x = make_L(vecs, n) - make_L(vecs[1:] + [v0], n)
    elif relation == "negation":
        x = make_L(vecs, n) - make_L([tuple(-e for e in v) for v in vecs], n)
    elif relation == "L reversal":
        x = make_L(vecs, n) - make_L(list(reversed(vecs)), n, c=(-1) ** (n + 1))
    else:
        x = make_I(vecs, n) - make_I(list(reversed(vecs)), n, c=(-1) ** (n + 1))
    if draw(st.booleans()):
        x = x + draw(COEFFS) * make_L(draw(vectors(n, n)), n)
    return x


@st.composite
def generator_sums(draw):
    """Sums of L and I generators, plus a product of lower ranks half the time."""
    d = draw(st.integers(2, 4))
    x = St2.zero(d)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from([make_L, make_I]))
        x = x + kind(draw(vectors(d, d)), d, c=draw(COEFFS))
    if draw(st.booleans()):
        k = draw(st.integers(1, d - 1))
        vecs = draw(vectors(d, d))
        x = x + draw(COEFFS) * st2_product(make_L(vecs[:k], d), make_L(vecs[k:], d))
    return x


@st.composite
def coproduct_factors(draw):
    """A left or right factor of a split of L(basis), or their sum."""
    vecs = draw(bases())
    n = len(vecs)
    splits = [(left, right) for i, j, left, right in st2_coproduct(make_L(vecs, n)) if i and j]
    left, right = draw(st.sampled_from(splits))
    return draw(st.sampled_from([left, right, left + draw(COEFFS) * right]))


def letters(bar):
    return sorted({p for (word, _exps) in bar.terms for p in word})


ELEMENTS = st.one_of(dihedral_residuals(), generator_sums(), coproduct_factors())


@given(ELEMENTS, SEEDS)
@settings(max_examples=120, deadline=None)
def test_zero_test_matches_reference(x, seed):
    assert is_zero_st_infty(x) == ref.is_zero_st_infty(x, seed)


@given(ELEMENTS, SEEDS, st.data())
@settings(max_examples=80, deadline=None)
def test_remainder_matches_reference_for_a_transverse_functional(x, seed, data):
    bar = embed_s(x)
    n = x.ambient
    # stray words, repeated and dependent letters included
    for _ in range(data.draw(st.integers(0, 2))):
        word = data.draw(vectors(n, data.draw(st.integers(1, n)), bound=2))
        assume(all(any(p) for p in word))
        bar = bar + bar_word(word, n, data.draw(COEFFS))
    h = ref._h_functional(seed, n, lines=tuple(letters(bar)))
    assume(all(sum(a * b for a, b in zip(h, p)) for p in letters(bar)))
    assert bar_infty_reduce(bar).terms == ref.bar_infty_reduce(bar, seed).terms


@given(st.one_of(dihedral_residuals(), generator_sums()), st.data())
@settings(max_examples=120, deadline=None)
def test_projection_along_a_letter_annihilator_is_faithful(x, data):
    bar = embed_s(x)
    assume(bar.terms)
    p = data.draw(st.sampled_from(letters(bar)))
    perp = nullspace((qv(p),))
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(perp), max_size=len(perp)))
    h = tuple(sum((c * v[i] for c, v in zip(coeffs, perp)), Fraction(0)) for i in range(x.ambient))
    assume(any(h))
    projected = shuffle_span_reduce(p_H_project(bar, h))
    assert (not projected.terms) == is_zero_st_infty(x)
