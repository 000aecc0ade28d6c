"""The integer lattice kernels against the seed's box search, the Fraction
descent and the Fraction sum.

ash_rudolph_reduce takes one pivot rule at every rank, with the pivot
enumerated from an LLL-reduced lattice; truncated_fourier_sum runs in
integers, one row of the box at a time. In rank 2 both must give exactly
what the references in lattice_reference.py give: the same pivot as the box
search and the same reduction term for term. In ranks 3 and 4 the reference descends line by
line instead, so there the reductions must be equal classes. The Fourier
sum must give the same complex float bit for bit, from no generators (the
one point 0) to three, and the same first pole.
"""
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lattice_reference as ref
from steinpoly.cones import PoleError, truncated_fourier_sum
from steinpoly.qlinalg import _int_det, qv, rank
from steinpoly.steinberg import _least_pivot, _line_chart, ash_rudolph_reduce, int_point, is_zero

F = Fraction
SETTINGS = settings(max_examples=60, deadline=None)


def _primitive(v):
    return gcd(*v) == 1


@st.composite
def rank2_pairs(draw, max_det=20_000):
    """Primitive (a, b) with 1 < |det| <= max_det: generic pairs and skew
    ones, a = (1, 0), b = (c, det), whose lattice has a very short vector."""
    if draw(st.booleans()):
        a = (draw(st.integers(-100, 100)), draw(st.integers(-100, 100)))
        b = (draw(st.integers(-100, 100)), draw(st.integers(-100, 100)))
    else:
        dd = draw(st.integers(2, max_det)) * draw(st.sampled_from((1, -1)))
        a, b = (1, 0), (draw(st.integers(-max_det, max_det)), dd)
    assume(_primitive(a) and _primitive(b))
    dd = _int_det([a, b])
    assume(1 < abs(dd) <= max_det)
    return a, b, dd


@SETTINGS
@given(rank2_pairs())
def test_pivot_equals_box_search(pair):
    a, b, dd = pair
    assert _least_pivot((a, b), dd)[0] == ref.box_pivot(a, b, dd)


@SETTINGS
@given(rank2_pairs())
def test_rank2_reduction_equals_reference(pair):
    a, b, _ = pair
    new, old = ash_rudolph_reduce([a, b]), ref.ash_rudolph_reduce([a, b])
    assert list(new.terms.items()) == list(old.terms.items())


small_square_rows = st.integers(3, 4).flatmap(
    lambda d: st.lists(
        st.lists(st.integers(-3, 3) if d == 3 else st.integers(-2, 2), min_size=d, max_size=d),
        min_size=d,
        max_size=d,
    )
)


@settings(max_examples=40, deadline=None)
@given(small_square_rows)
def test_pivot_is_least_above_rank_2(rows):
    # every admissible numerator vector c in the box of the pivot's own sup
    # norm m, by brute force: none may come before it
    assume(all(any(r) for r in rows))
    key = tuple(int_point(r) for r in rows)
    dd, n = _int_det(key), len(key)
    assume(1 < abs(dd) <= (30 if n == 3 else 12))
    w, c = _least_pivot(key, dd)
    m = max(map(abs, c))
    least = None
    for cand in product(range(-m, m + 1), repeat=n):
        num = [sum(ci * p[k] for ci, p in zip(cand, key)) for k in range(n)]
        if any(cand) and not any(x % dd for x in num):
            order = (max(map(abs, cand)), sum(map(abs, cand)), tuple(x // dd for x in num))
            least = order if least is None else min(least, order)
    assert (m, sum(map(abs, c)), w) == least


@settings(max_examples=40, deadline=None)
@given(small_square_rows)
def test_descent_equals_reference(rows):
    dd = _int_det(rows)
    assume(dd != 0 and abs(dd) <= 60)
    new, old = ash_rudolph_reduce(rows), ref.ash_rudolph_reduce(rows)
    assert all(abs(_int_det(key)) == 1 for key in new.terms)
    assert is_zero(new - old)


@SETTINGS
@given(st.lists(st.integers(-40, 40), min_size=2, max_size=5))
def test_line_chart_equals_reference(v):
    assume(any(v))
    p = int_point(v)
    t = _line_chart(p)
    assert t == ref._line_chart(p)[1]
    assert all(type(x) is int for row in t for x in row)


rationals = st.builds(F, st.integers(-9, 9), st.sampled_from((1, 1, 2, 3, 7)))
big_den = st.builds(
    F,
    st.integers(-(10**9), 10**9),
    st.sampled_from((1, 3, 999_999_937, 10**9 + 7, 10**9 - 1)),
)


@st.composite
def cone_sums(draw):
    # d = 0 is the one point nu = 0; d = 3 runs the rows over two outer axes
    d = draw(st.integers(0, 3))
    n = draw(st.integers(d, d + 1))
    vec = st.lists(rationals, min_size=n, max_size=n)
    gens = draw(st.lists(vec, min_size=d, max_size=d))
    assume(rank([qv(g) for g in gens]) == d)  # dependent generators are refused, see below
    forms = draw(st.lists(vec, min_size=0, max_size=2))
    ns = draw(st.lists(st.sampled_from((1, 2, 3, 0, -1)), min_size=len(forms), max_size=len(forms)))
    x = draw(st.lists(st.one_of(rationals, big_den), min_size=n, max_size=n))
    m_max = draw(st.integers(0, {0: 2, 1: 60, 2: 8, 3: 4}[d]))
    return gens, forms, ns, x, m_max


def _sum_or_pole(fn, args):
    try:
        return repr(fn(*args))
    except PoleError:
        return "pole"


@settings(max_examples=150, deadline=None)
@given(cone_sums())
def test_fourier_sum_bit_equal(args):
    # repr tells apart every two floats, -0.0 and 0.0 included
    assert _sum_or_pole(truncated_fourier_sum, args) == _sum_or_pole(ref.truncated_fourier_sum, args)


@pytest.mark.parametrize(
    "ns, want", [([], "(1+0j)"), ([-1], "0j"), ([0], "(1+0j)"), ([2], "pole")]
)
def test_fourier_sum_without_generators(ns, want):
    # lam in [1, m]^0 is the one empty tuple: the single point nu = 0, where
    # every form pairs to 0 and the phase is 1, whatever m is
    args = ([], [(1,)] * len(ns), ns, (F(1, 3),), 5)
    assert _sum_or_pole(truncated_fourier_sum, args) == want
    assert _sum_or_pole(ref.truncated_fourier_sum, args) == want


def test_fourier_sum_names_the_first_pole_off_the_first_row():
    # 2 lam_1 - lam_2 first vanishes at lam = (1, 2), in the second row
    with pytest.raises(PoleError) as exc:
        truncated_fourier_sum([(1, 0), (0, 1)], [(2, -1)], [1], (F(1, 3), F(1, 5)), 3)
    assert str(exc.value) == "lattice point (1, 2) pairs to zero with a form"


@pytest.mark.parametrize("gens", [[(1, 0), (1, 0)], [(1, 2), (F(-1, 2), -1)], [(0, 0), (0, 1)], [(0,)]])
def test_fourier_sum_refuses_dependent_generators(gens):
    # lam in [1, m]^k would reach a lattice point once per way of writing it
    with pytest.raises(ValueError, match="dependent"):
        truncated_fourier_sum(gens, [], [], (F(1, 3),) * len(gens[0]), 5)


@pytest.mark.parametrize("x", [F(1, 3), F(2, 7), F(123_456_789, 999_999_937)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_bernoulli_sums_bit_equal(n, x):
    for gen in ((1,), (-1,)):
        args = ([gen], [(1,)], [n], (x,), 2_000)
        assert repr(truncated_fourier_sum(*args)) == repr(ref.truncated_fourier_sum(*args))
