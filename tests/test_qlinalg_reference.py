"""The fraction-free elimination against the Fraction Gauss-Jordan it replaced.

``qlinalg_reference`` keeps the old ``rref`` and the routines built on it,
and the per-row clearing that ``det`` and the saturation index used before
the kernel cleared all rows by one common denominator, and that
``inverse`` and ``canonical_point`` used before they cleared through
``_cleared``. The kernel must return the same rows, pivots, ranks,
inverses, solutions, kernel bases, determinants, saturation indices (the
gcd of the maximal minors of the commonly cleared rows) and canonical
points, with Fraction entries, on matrices with zero rows, zero columns,
dependent rows, and integer, Fraction or mixed entries whose denominators
reach 10**9 + 7.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlinalg_reference as ref
from steinpoly.qlinalg import (
    Subspace,
    _cleared,
    _minor_gcd,
    canonical_point,
    det,
    inverse,
    nullspace,
    qm,
    rank,
    rref,
    solve,
)

BIG = 10**9 + 7

ENTRIES = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
    st.fractions(min_value=-BIG, max_value=BIG, max_denominator=BIG),
    st.builds(Fraction, st.integers(-BIG, BIG), st.just(BIG)),
)


@st.composite
def matrices(draw, nrows=None, ncols=None):
    """Rows of ints and Fractions, some zeroed, some combinations of others."""
    nrows = nrows or draw(st.integers(1, 7))
    ncols = ncols or draw(st.integers(1, 8))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols - 1))
    rows = []
    for i in range(nrows):
        kind = draw(st.sampled_from(("free", "free", "zero", "combo"))) if i else "free"
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "combo":
            cs = draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(cs, rows)) for j in range(ncols)])
        else:
            rows.append([0 if j in zero_cols else draw(ENTRIES) for j in range(ncols)])
    return [tuple(r) for r in rows]


def all_fractions(rows) -> bool:
    return all(type(x) is Fraction for row in rows for x in row)


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_rref_rank_nullspace_span_match_reference(rows):
    want = ref.rref(qm(rows))
    got = rref(rows)
    assert got == want and all_fractions(got[0])
    assert rank(rows) == ref.rank(qm(rows))
    kernel = nullspace(rows)
    assert kernel == ref.nullspace(qm(rows)) and all_fractions(kernel)
    span = Subspace.span(rows).rows
    assert span == want[0] and all_fractions(span)


@st.composite
def systems(draw):
    rows = draw(matrices())
    ncols = len(rows[0])
    if draw(st.booleans()):
        x0 = draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols))
        rhs = tuple(sum(a * b for a, b in zip(row, x0)) for row in rows)
    else:
        rhs = tuple(draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows))))
    return rows, rhs


@given(systems())
@settings(max_examples=200, deadline=None)
def test_solve_matches_reference(system):
    rows, rhs = system
    want = ref.solve(qm(rows), qm([rhs])[0])
    got = solve(rows, rhs)
    assert got == want
    if got is not None:
        assert all_fractions([got])


@st.composite
def square(draw):
    n = draw(st.integers(1, 7))
    return draw(matrices(n, n))


@given(square())
@settings(max_examples=200, deadline=None)
def test_inverse_matches_reference(rows):
    try:
        want = ref.inverse(qm(rows))
    except ValueError:
        want = None
    try:
        got = inverse(rows)
    except ValueError:
        got = None
    assert got == want
    if got is not None:
        assert all_fractions(got)


@given(square())
@settings(max_examples=200, deadline=None)
def test_inverse_matches_per_row_clearing(rows):
    try:
        want = ref.inverse_per_row(qm(rows))
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            inverse(rows)
        return
    got = inverse(rows)
    assert got == want and all_fractions(got)


@given(st.lists(ENTRIES, min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_canonical_point_matches_per_row_clearing(v):
    if not any(v):
        with pytest.raises(ValueError):
            ref.canonical_point_per_row(v)
        with pytest.raises(ValueError):
            canonical_point(v)
        return
    got = canonical_point(v)
    assert got == ref.canonical_point_per_row(v)
    assert all(type(x) is int for x in got)


@given(square())
@settings(max_examples=200, deadline=None)
def test_det_matches_per_row_clearing(rows):
    got = det(rows)
    assert got == ref.det(qm(rows)) and type(got) is Fraction


@st.composite
def wide(draw):
    """k rows in Q^d with k <= d, so only dependent rows have no index."""
    ncols = draw(st.integers(1, 8))
    return draw(matrices(draw(st.integers(1, ncols)), ncols))


@given(wide())
@settings(max_examples=200, deadline=None)
def test_saturation_index_matches_per_row_clearing(rows):
    """The covolume of rows cleared by one common denominator, against per-row clearing."""
    scaled, den = _cleared(qm(rows))
    got = Fraction(_minor_gcd(scaled), den ** len(rows))
    try:
        want = ref.saturation_index(rows)
    except ValueError:
        assert got == 0
        return
    assert got == want and got > 0
