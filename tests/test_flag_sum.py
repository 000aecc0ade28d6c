"""The merged flag walk of a sum of keys against the sum of one-apartment walks.

``steinberg._flag_expand_sum`` expands a combination {key: int} in one
walk, merging the states of different keys that share their letters and
sub-apartment, and dropping states that cancel at each level. It must
equal the sum of ``_flag_expand_apartment`` over its keys with the zeros
dropped: on keys with entries in {-1, 0, 1}, where many minors vanish and
dependent keys drop, on repeated keys and coefficients that cancel, and
on the empty sum.
"""
from collections import Counter, defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from steinpoly import steinberg
from steinpoly.qlinalg import int_point
from steinpoly.steinberg import _flag_expand_apartment, _flag_expand_sum, _standard_rows, normalize_apartment
from test_call_memory import BASIS, counting


def summed_walks(nums: dict, n: int) -> dict:
    acc: defaultdict = defaultdict(int)
    for key, c in nums.items():
        for k2, c2 in _flag_expand_apartment(key, _standard_rows(n)):
            acc[k2] += c * c2
    return {k: v for k, v in acc.items() if v}


@st.composite
def sums(draw):
    """(nums, n): up to 6 draws of a rank-n key of nonzero points with entries in {-1, 0, 1}.

    Keys are tuples of canonical points, all sorted as St holds them or
    all in drawn order, and dependent ones are kept; a key drawn twice adds
    its coefficients, which may cancel to zero.
    """
    n = draw(st.integers(1, 5))
    point = st.tuples(*[st.integers(-1, 1)] * n).filter(any).map(int_point)
    order = sorted if draw(st.booleans()) else list
    nums: dict = {}
    for key in draw(st.lists(st.lists(point, min_size=n, max_size=n).map(lambda ps: tuple(order(ps))), max_size=6)):
        nums[key] = nums.get(key, 0) + draw(st.integers(-2, 2))
    if nums and draw(st.booleans()):  # a key whose coefficients cancel to zero
        nums[draw(st.sampled_from(sorted(nums)))] = 0
    return nums, n


@given(sums())
@settings(max_examples=400, deadline=None)
def test_merged_walk_equals_summed_walks(case):
    nums, n = case
    assert _flag_expand_sum(nums, n) == summed_walks(nums, n)


def test_cancelling_keys_and_the_empty_sum():
    assert _flag_expand_sum({}, 3) == {}
    assert _flag_expand_sum({((0, 0, 1), (0, 1, 1), (1, 1, 1)): 0, ((0, 1, 0), (1, 0, 1), (1, 1, 0)): 0}, 3) == {}
    # the boundary relation sum_i (-1)^i [v_0..^v_i..v_3]: four keys whose walks cancel
    vecs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    nums = {}
    for i in range(4):
        key, sign = normalize_apartment(vecs[:i] + vecs[i + 1 :])
        nums[key] = (-1) ** i * sign
    assert len(nums) == 4 and summed_walks(dict(list(nums.items())[:3]), 3)
    assert _flag_expand_sum(nums, 3) == {}


def test_one_key_is_the_one_apartment_walk(monkeypatch):
    key = normalize_apartment(BASIS)[0]
    walks = counting(monkeypatch, steinberg, "_flag_expand_apartment")
    got = _flag_expand_sum({key: 3}, 4)
    assert walks == Counter({(key, _standard_rows(4)): 1})
    assert got == {k: 3 * c for k, c in _flag_expand_apartment(key, _standard_rows(4))}
    # a sum of several keys is one merged walk, with no walk of a key alone
    walks.clear()
    other = normalize_apartment([(0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 1, 0)])[0]
    assert _flag_expand_sum({key: 3, other: -1}, 4)
    assert not walks
