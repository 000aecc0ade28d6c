"""The int L, I and duality kernels against their Fraction references.

``generator_reference`` keeps the bodies that canonicalised each entry of
the Fraction vectors and tested each apartment on its own, and the
``dualize`` that inverted each key with the Fraction ``dual_basis``. The
kernels take int vectors as they come, decide degeneracy by one rank test
of the input and read dual lines off an int adjugate. Inputs come as
ints, Fractions, 'p/q' strings and uniformly rescaled vectors, in ranks up
to one more than the ambient dimension, with dependent and zero vectors
among them.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import generator_reference as ref
from steinpoly.st2 import St2, dualize, make_corr, make_I, make_L, make_pair

COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
GENERATORS = ((make_L, ref.make_L), (make_I, ref.make_I))


@st.composite
def generator_inputs(draw):
    """(n, d vectors in Q^n) as ints, Fractions or 'p/q' strings, n <= 6, d <= n + 1.

    d = n + 1 vectors are always dependent, so the one rank test must give
    zero there too.
    """
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, n + 1))
    nums = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=d, max_size=d))
    form = draw(st.sampled_from(["int", "fraction", "string"]))
    if form == "int":
        return n, nums
    dens = draw(st.lists(st.tuples(*[st.integers(1, 4)] * n), min_size=d, max_size=d))
    fracs = [tuple(Fraction(a, b) for a, b in zip(v, w)) for v, w in zip(nums, dens)]
    if form == "string":
        return n, [tuple(f"{x.numerator}/{x.denominator}" for x in v) for v in fracs]
    return n, fracs


@given(generator_inputs(), COEFFS, st.booleans())
@settings(max_examples=150, deadline=None)
def test_generators_match_reference(case, c, with_exps):
    n, vecs = case
    exps = tuple(range(n)) if with_exps else None
    for make, want in GENERATORS:
        assert make(vecs, n, c=c, exps=exps).terms == want(vecs, n, c=c, exps=exps).terms


@given(st.data(), COEFFS, st.booleans())
@settings(max_examples=100, deadline=None)
def test_pair_matches_reference(data, c, with_exps):
    n, vecs_a = data.draw(generator_inputs())
    vecs_b = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=len(vecs_a), max_size=len(vecs_a)))
    exps = tuple(range(n)) if with_exps else None
    assert make_pair(vecs_a, vecs_b, n, c, exps).terms == ref.make_pair(vecs_a, vecs_b, n, c, exps).terms


@given(generator_inputs(), COEFFS)
@settings(max_examples=100, deadline=None)
def test_generators_ignore_a_common_scale(case, scale):
    n, vecs = case
    scaled = [tuple(scale * Fraction(x) for x in v) for v in vecs]
    for make, want in GENERATORS:
        assert make(scaled, n).terms == want(vecs, n).terms


@given(generator_inputs(), COEFFS)
@settings(max_examples=100, deadline=None)
def test_correlator_matches_reference(case, c):
    n, vecs = case
    total = [sum(Fraction(v[i]) for v in vecs) for i in range(n)]
    corr = [tuple(-x for x in total)] + list(vecs)
    assert make_corr(corr, n, c=c).terms == ref.make_corr(corr, n, c=c).terms


def test_empty_and_mixed_length_input_raise_as_the_reference_does():
    for make, want in GENERATORS:
        for vecs in ([], [(1, 0), (0, 1, 0)], [(1, 0, 0)] * 2, [(1, 0), ("1/2", 1, 0)]):
            with pytest.raises(ValueError):
                want(vecs, 2)
            with pytest.raises(ValueError):
                make(vecs, 2)


@st.composite
def st2_combinations(draw):
    """An St2 of rank n <= 5: a few pairs of random bases, rational coefficients, with or without tails."""
    n = draw(st.integers(1, 5))
    tails = draw(st.booleans())
    basis = st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=n, max_size=n)
    x = St2.zero(n)
    for _ in range(draw(st.integers(1, 4))):
        exps = draw(st.tuples(*[st.integers(0, 2)] * n)) if tails else None
        x += ref.make_pair(draw(basis), draw(basis), n, draw(COEFFS), exps)
    return x


@given(st2_combinations())
@settings(max_examples=150, deadline=None)
def test_dualize_matches_reference(x):
    assert dualize(x).terms == ref.dualize(x).terms


@given(generator_inputs(), COEFFS, st.booleans())
@settings(max_examples=100, deadline=None)
def test_dualize_of_generators_matches_reference(case, c, with_exps):
    n, vecs = case
    exps = tuple(range(n)) if with_exps else None
    for make, _want in GENERATORS:
        x = make(vecs, n, c=c, exps=exps)
        if len(vecs) == n:
            assert dualize(x).terms == ref.dualize(x).terms
        elif x:
            for route in (dualize, ref.dualize):
                with pytest.raises(ValueError, match="full-rank"):
                    route(x)
