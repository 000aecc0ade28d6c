"""The minor-table flag walk against the determinant walk it replaced.

``flag_walk_reference`` keeps the walk that cut every line from Bareiss
determinants and re-sorted every leaf. The kernel must give exactly its
(key, coefficient) pairs, in any order (the kernel's callers fold them
into dicts, so it does not sort them), on keys with entries in {-1, 0, 1}, where many tail minors vanish,
for standard flags, random full flags, and the RREF rank-k flags that
``barcplx._merge_letters`` builds for a merged letter.
"""
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import flag_walk_reference as ref
from qlinalg_reference import _int_rank
from steinpoly import steinberg
from steinpoly.qlinalg import _int_det, _int_gauss_jordan, int_point
from steinpoly.steinberg import (
    _flag_coords,
    _flag_expand_apartment,
    _minors,
    _standard_rows,
    normalize_apartment,
)

walk = _flag_expand_apartment.__wrapped__  # the kernel itself, not its cache


def rows(n, count, bound=1):
    return st.lists(
        st.tuples(*[st.integers(-bound, bound)] * n), min_size=count, max_size=count
    )


@st.composite
def full_cases(draw):
    """A dim-d key and the standard flag or a random full flag of Q^d."""
    d = draw(st.integers(1, 5))
    norm = normalize_apartment(draw(rows(d, d)))
    assume(norm is not None)
    if draw(st.booleans()):
        return norm[0], _standard_rows(d)
    frows = tuple(draw(rows(d, d, bound=2)))
    assume(_int_rank(frows) == d)
    return norm[0], frows


@st.composite
def rank_k_cases(draw):
    """A rank-k key in Q^n, k < n, with the RREF flag of its span, as _merge_letters builds it."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k + 1, min(k + 2, 6)))
    span = draw(rows(n, k))
    assume(_int_rank(span) == k)
    coeffs = draw(rows(k, k))
    pts = [tuple(sum(c * r[j] for c, r in zip(cs, span)) for j in range(n)) for cs in coeffs]
    norm = normalize_apartment(pts, n)
    assume(norm is not None)
    work = [list(p) for p in norm[0]]
    _int_gauss_jordan(work)
    return norm[0], tuple(map(int_point, work))


@given(st.one_of(full_cases(), rank_k_cases()))
@settings(max_examples=300, deadline=None)
def test_walk_equals_determinant_walk(case):
    key, frows = case
    assert sorted(walk(key, frows)) == sorted(ref.flag_expand_apartment(key, frows))


def test_minors_are_determinants():
    """The minor table against _int_det: every equal-size minor, and every entry of the suffix fill.

    The suffix fill, which the flag walk reads, holds the minors on the
    column sets {i, ..., d-1} and zero everywhere else.
    """
    rng = random.Random(19)
    for d in range(1, 7):
        full = (1 << d) - 1
        suffixes = {full ^ full >> k for k in range(d + 1)}
        for _ in range(5):
            coords = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
            every, suffix = _minors(coords, False), _minors(coords, True)
            assert len(every) == len(suffix) == 1 << 2 * d
            for rows in range(1 << d):
                for cols in range(1 << d):
                    at = rows << d | cols
                    if rows.bit_count() != cols.bit_count():
                        assert every[at] == suffix[at] == 0, (coords, rows, cols)
                        continue
                    sub_r = [t for t in range(d) if rows >> t & 1]
                    sub_c = [q for q in range(d) if cols >> q & 1]
                    want = _int_det([[coords[t][q] for q in sub_c] for t in sub_r])
                    assert every[at] == want, (coords, sub_r, sub_c)
                    assert suffix[at] == (want if cols in suffixes else 0), (coords, sub_r, sub_c)


@pytest.mark.parametrize("key, frows", [
    (((1, 0, 0, 0), (0, 1, -1, 2), (1, 1, 0, 0), (0, 0, 1, 3)),
     ((1, 2, 0, 1), (0, 1, 1, 0), (2, 0, 1, 1), (1, 1, 1, 2))),
    # a rank-2 key in Q^4 whose flag rows vanish on the first coordinate
    (((0, 1, 1, 2), (0, 1, -1, 0)), ((0, 1, 0, 1), (0, 0, 1, 1))),
], ids=["full", "rank-2"])
def test_flag_coords_are_coordinates_up_to_one_scalar(key, frows):
    coords = _flag_coords(key, frows)
    images = [[sum(y * f[j] for y, f in zip(c, frows)) for j in range(len(p))] for p, c in zip(key, coords)]
    j = next(j for j, x in enumerate(key[0]) if x)
    scale = Fraction(images[0][j], key[0][j])
    assert scale and images == [[scale * x for x in p] for p in key]
    # a point off the flag's span has no flag coordinates
    if len(frows) < len(key[0]):
        off = next(p for p in _standard_rows(len(key[0])) if _int_rank(frows + (p,)) > len(frows))
        assert _flag_coords(key + (off,), frows) is None


@pytest.mark.parametrize("frows", [
    _standard_rows(4),
    ((1, 2, 0, 1), (0, 1, 1, 0), (2, 0, 1, 1), (1, 1, 1, 2)),
], ids=["standard", "full"])
def test_walk_takes_no_determinant_and_sorts_no_leaf(frows):
    key = normalize_apartment([(1, 0, 2, -1), (0, 1, -1, 2), (2, 1, 0, 1), (1, -1, 1, 0)])[0]
    want = ref.flag_expand_apartment(key, frows)
    boom = mock.Mock(side_effect=AssertionError("called"))
    with mock.patch.multiple(steinberg, _int_det=boom, _independent=boom, _sort_sign=boom):
        got = walk(key, frows)
    assert sorted(got) == sorted(want) and len(got) > 1
