"""The cleared-integer L and I generators against their Fraction reference.

``generator_reference`` keeps the bodies that canonicalised each entry of
the Fraction vectors; the kernel scales all vectors by one common
denominator and builds int apartments. Inputs come as ints, Fractions,
'p/q' strings and uniformly rescaled vectors, in ranks up to the ambient
dimension, with dependent and zero vectors among them.
"""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import generator_reference as ref
from steinpoly.st2 import make_corr, make_I, make_L

COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
GENERATORS = ((make_L, ref.make_L), (make_I, ref.make_I))


@st.composite
def generator_inputs(draw):
    """(n, d vectors in Q^n) as ints, Fractions or 'p/q' strings, d <= n <= 4."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, n))
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
