"""The integer, phase-free symbol routes against the references.

recursion_symbol_bar runs the top coproduct on integer exponent rows with
no phases and runs sigma's per-tuple work once per distinct direction
tuple; bar_gl_act and st2_gl_act act by a cleared integer matrix, and
li_identity_residual sums the integer images of its generators before one
s-map and one reduction; _bar_to_st2 peels the bar's own words off one
candidate at a time; goncharov_symbol_bar runs the iterated-integral
coproduct on integer rows with its own depth-one count. Each must give
exactly what symbol_reference.py gives, either the per-generator routes or
the phased Fraction kernels they replaced: the same Bar terms, the same
St2 terms, and an ArithmeticError exactly where the reference raises one.
"""
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import symbol_reference as ref
from qlinalg_reference import _int_rank
from steinpoly.barcplx import Bar
from steinpoly.mpl import (
    LiGen,
    Monomial,
    PushedLi,
    _bar_to_st2,
    bar_gl_act,
    bar_infty_reduce,
    goncharov_symbol_bar,
    li_identity_residual,
    recursion_symbol_bar,
    st2_gl_act,
    std_args,
    std_li,
    truncated_symbol,
)
from steinpoly.qlinalg import _int_det, det, int_point, qm
from steinpoly.st2 import St2, embed_s, make_pair

F = Fraction
SETTINGS = settings(max_examples=40, deadline=None)

PHASES = st.sampled_from((F(0), F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 5)))


def _tuples(k_max, w_max):
    out = [()]
    for _ in range(k_max):
        out = out + [t + (a,) for t in out for a in range(1, w_max + 1)]
    return [t for t in out if t and sum(t) <= w_max]


@st.composite
def pushforwards(draw):
    """c * (A . Li_ns) with d <= 3, 0 < |det A| <= 4, depth 1..d, n_i <= 3."""
    d = draw(st.integers(1, 3))
    a = [[draw(st.integers(-2, 2)) for _ in range(d)] for _ in range(d)]
    assume(0 < abs(_int_det(a)) <= 4)
    k = draw(st.integers(1, d))
    ns = [draw(st.integers(1, 3)) for _ in range(k)]
    c = F(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return PushedLi(c, a, ns)


@st.composite
def li_gens(draw, min_depth=1, max_depth=3):
    """Li_ns at independent monomials: exponent rows in [-2, 2]^d / {1, 2}, any phases."""
    k = draw(st.integers(min_depth, max_depth))
    d = draw(st.integers(k, max_depth))
    ns = [draw(st.integers(1, 3)) for _ in range(k)]
    ints = [[draw(st.integers(-2, 2)) for _ in range(d)] for _ in range(k)]
    assume(_int_rank(ints) == k)
    dens = [draw(st.sampled_from((1, 2))) for _ in ints]
    args = [Monomial(draw(PHASES), [F(e, m) for e in row]) for row, m in zip(ints, dens)]
    return LiGen(ns, args)


@st.composite
def small_det_pushforwards(draw):
    """c * (A . Li_ns) with d <= 4 and 0 < |det A| <= 3, A = L U built to that det."""
    d = draw(st.integers(1, 4))
    diag = [1] * d
    diag[draw(st.integers(0, d - 1))] = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
    lower = [[diag[i] if i == j else draw(st.integers(-2, 2)) if j < i else 0 for j in range(d)]
             for i in range(d)]
    upper = [[1 if i == j else draw(st.integers(-1, 1)) if j > i else 0 for j in range(d)]
             for i in range(d)]
    a = [[sum(lower[i][t] * upper[t][j] for t in range(d)) for j in range(d)] for i in range(d)]
    k = draw(st.integers(1, d))
    ns = [draw(st.integers(1, 3)) for _ in range(k)]
    c = F(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return PushedLi(c, a, ns)


@st.composite
def rational_li_gens(draw, max_depth=3, max_slot=3):
    """Li_ns at monomials with some exponent denominator > 1 and every phase nonzero."""
    k = draw(st.integers(1, max_depth))
    d = draw(st.integers(k, max_depth))
    ns = [draw(st.integers(1, max_slot)) for _ in range(k)]
    ints = [[draw(st.integers(-2, 2)) for _ in range(d)] for _ in range(k)]
    assume(_int_rank(ints) == k)
    dens = [draw(st.sampled_from((1, 2, 3, 6))) for _ in ints]
    args = [
        Monomial(draw(PHASES.filter(bool)), [F(e, m) for e in row]) for row, m in zip(ints, dens)
    ]
    assume(any(e.denominator > 1 for a in args for e in a.exps))
    return LiGen(ns, args)


@st.composite
def rational_actions(draw):
    """(A, x): A invertible with a non-integral entry, x a Bar of mixed tail degrees."""
    d = draw(st.integers(1, 3))
    a = [[F(draw(st.integers(-3, 3)), draw(st.integers(1, 4))) for _ in range(d)] for _ in range(d)]
    assume(det(qm(a)) != 0 and any(e.denominator > 1 for row in a for e in row))
    nonzero = st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any)
    x = Bar.zero(d)
    for _ in range(draw(st.integers(1, 6))):
        word = [int_point(draw(nonzero)) for _ in range(draw(st.integers(1, d)))]
        exps = tuple(draw(st.integers(0, 2)) for _ in range(d))
        x.add_word(word, F(draw(st.integers(-5, 5)), draw(st.integers(1, 6))), exps)
    assume(len({sum(e) for _w, e in x.terms}) > 1)
    return a, x


def _symbol_or_raise(route, g):
    try:
        return route(g).terms
    except ArithmeticError:
        return ArithmeticError


@SETTINGS
@given(pushforwards())
def test_pushforward_symbol_equals_reference(p):
    assert recursion_symbol_bar(p).terms == ref.recursion_symbol_bar(p).terms


@SETTINGS
@given(pushforwards())
def test_pushforward_symbol_is_gl_equivariant(p):
    std = LiGen(p.ns, std_args(p.ambient)[: p.depth])
    lhs = recursion_symbol_bar(p)
    rhs = p.coeff * bar_gl_act(p.matrix, recursion_symbol_bar(std))
    assert lhs.terms == rhs.terms


@SETTINGS
@given(st.lists(st.integers(1, 3), min_size=1, max_size=4))
def test_standard_symbol_equals_phased_reference(ns):
    g = std_li(*ns)
    assert recursion_symbol_bar(g).terms == ref.phased_symbol_bar(g).terms


@SETTINGS
@given(small_det_pushforwards())
def test_small_det_pushforward_equals_phased_reference(p):
    assert recursion_symbol_bar(p).terms == ref.phased_symbol_bar(p).terms


@SETTINGS
@given(rational_li_gens())
def test_rational_phased_symbol_equals_phased_reference(g):
    assert recursion_symbol_bar(g).terms == ref.phased_symbol_bar(g).terms


@SETTINGS
@given(rational_actions())
def test_rational_gl_action_equals_reference(case):
    a, x = case
    assert bar_gl_act(a, x).terms == ref.bar_gl_act(a, x).terms


@st.composite
def st2_actions(draw):
    """(A, x): A rational, possibly singular, x an St2 of pairs of mixed ranks and tail degrees."""
    d = draw(st.integers(1, 3))
    a = [[F(draw(st.integers(-3, 3)), draw(st.integers(1, 4))) for _ in range(d)] for _ in range(d)]
    nonzero = st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any)
    x = St2.zero(d)
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(1, d))
        key_a, key_b = ([int_point(draw(nonzero)) for _ in range(k)] for _side in "ab")
        assume(_int_rank(key_a) == k and _int_rank(key_b) == k)
        exps = tuple(draw(st.integers(0, 2)) for _ in range(d))
        x += make_pair(key_a, key_b, d, F(draw(st.integers(-5, 5)), draw(st.integers(1, 6))), exps)
    return a, x


@SETTINGS
@given(st2_actions())
def test_st2_gl_action_equals_reference(case):
    a, x = case
    got, want = st2_gl_act(a, x).terms, ref.st2_gl_act(a, x).terms
    assert got == want
    assert sorted(got.items()) == sorted(want.items())
    assert all(type(c) is F for c in got.values())


@st.composite
def identities(draw):
    """Terms c * (A . Li_ns) of one ambient dimension d <= 3 and one weight, full depth or not."""
    d = draw(st.integers(1, 3))
    weight = draw(st.integers(d, d + 2))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        a = [[draw(st.integers(-2, 2)) for _ in range(d)] for _ in range(d)]
        assume(0 < abs(_int_det(a)) <= 4)
        k = draw(st.integers(max(1, d - 1), d))
        ns = [1] * k
        for _ in range(weight - k):
            ns[draw(st.integers(0, k - 1))] += 1
        terms.append((F(draw(st.integers(-3, 3)), draw(st.integers(1, 3))), PushedLi(1, a, ns)))
    return terms


@settings(max_examples=30, deadline=None)
@given(identities())
def test_identity_residual_equals_the_fraction_route(terms):
    """One int sum of the images, one s-map and one reduction give the Fraction route's residual."""
    d = terms[0][1].ambient
    want = Bar.zero(d)
    for c, p in terms:
        if p.depth == d:
            want += c * embed_s(ref.truncated_symbol(p))
    assert li_identity_residual(terms).terms == bar_infty_reduce(want).terms


def test_gl_action_raises_on_a_letter_sent_to_zero():
    x = Bar(2, {(((1, 1),), (1, 0)): F(1)})
    for route in (bar_gl_act, ref.bar_gl_act):
        with pytest.raises(ValueError):
            route([[1, -1], [1, -1]], x)


# rows r1 = (-6, 2), r2 = (4, -6) over W = 3: r1 and r1 + r2 are lex-negative of content 2
FLIPPED = (Monomial(F(1, 3), (-2, F(2, 3))), Monomial(F(1, 2), (F(4, 3), -2)))


@SETTINGS
@given(rational_li_gens(max_depth=2, max_slot=4))
@example(LiGen((3, 2), FLIPPED))
@example(LiGen((2, 2), FLIPPED))
@example(LiGen((2,), FLIPPED[:1]))
@example(LiGen((3,), FLIPPED[:1]))
def test_goncharov_route_equals_reference(g):
    assert goncharov_symbol_bar(g).terms == ref.goncharov_symbol_bar(g).terms


@pytest.mark.parametrize("ns", _tuples(3, 5), ids=str)
def test_standard_symbol_equals_reference(ns):
    g = std_li(*ns)
    assert recursion_symbol_bar(g).terms == ref.recursion_symbol_bar(g).terms


@SETTINGS
@given(li_gens())
def test_symbol_is_phase_independent(g):
    zero = LiGen(g.ns, [Monomial(0, a.exps) for a in g.args])
    assert recursion_symbol_bar(g).terms == recursion_symbol_bar(zero).terms
    assert recursion_symbol_bar(g).terms == ref.recursion_symbol_bar(g).terms


@pytest.mark.parametrize("ns", [t for t in _tuples(3, 5) if len(t) >= 2], ids=str)
def test_standard_truncated_symbol_equals_reference(ns):
    g = std_li(*ns)
    assert truncated_symbol(g).terms == ref.truncated_symbol(g).terms


def test_standard_truncated_symbol_solves_no_system():
    # the candidates' graph is acyclic, so the peel needs no elimination
    import steinpoly.mpl as mpl
    import steinpoly.qlinalg as qlinalg

    assert not hasattr(mpl, "solve") and not hasattr(mpl, "rref")
    with (
        mock.patch.object(qlinalg, "solve", side_effect=AssertionError),
        mock.patch.object(qlinalg, "rref", side_effect=AssertionError),
    ):
        for ns in [t for t in _tuples(5, 5) if len(t) >= 2]:
            assert truncated_symbol(std_li(*ns)).terms, ns


def test_goncharov_route_builds_no_monomial_and_no_phased_form():
    # the route runs on int rows at depths one and two: the package has no
    # Monomial product or power (symbol_reference keeps them for the phased
    # routes) and no phased depth-one normal form
    import steinpoly.mpl as mpl

    assert not hasattr(mpl, "depth1_nf") and not hasattr(mpl, "DepthOneNF")
    assert not hasattr(Monomial, "__mul__") and not hasattr(Monomial, "__pow__")
    gens = [std_li(*ns) for ns in _tuples(2, 6)]
    got = [goncharov_symbol_bar(g).terms for g in gens]
    assert got == [recursion_symbol_bar(g).terms for g in gens]


@settings(max_examples=30, deadline=None)
@given(li_gens(min_depth=2))
def test_nonstandard_truncated_symbol_equals_reference(g):
    assert _symbol_or_raise(truncated_symbol, g) == _symbol_or_raise(ref.truncated_symbol, g)


@SETTINGS
@given(li_gens(max_depth=2))
def test_goncharov_route_equals_recursion(g):
    assert goncharov_symbol_bar(g).terms == recursion_symbol_bar(g).terms


@pytest.mark.parametrize("ns", _tuples(2, 5), ids=str)
def test_goncharov_route_equals_recursion_on_standard(ns):
    g = std_li(*ns)
    assert goncharov_symbol_bar(g).terms == recursion_symbol_bar(g).terms


@pytest.mark.parametrize(
    "slice_terms",
    [
        {((1, 0), (0, 1)): F(1)},
        {((1, 0), (0, 1)): F(1), ((1, 1), (0, 1)): F(1)},
    ],
    ids=["one-word", "two-words"],
)
def test_solve_back_guard_raises_on_unreproducible_slice(slice_terms):
    # L on each word also embeds to words outside the slice, which no
    # bar word's candidate can peel off, so the rest stays nonempty
    bar = Bar(2, {(w, (0, 0)): c for w, c in slice_terms.items()})
    with pytest.raises(ArithmeticError):
        _bar_to_st2(bar)
    with pytest.raises(ArithmeticError):
        ref._bar_slice_to_st2(slice_terms, (0, 0), 2)
