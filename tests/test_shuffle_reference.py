"""The least-letter Dynkin projection against the elimination reference.

``shuffle_reference`` keeps the dense lex elimination over all words of a
letter multiset. The two reductions pick different representatives, so
they are compared as classes: the same zero verdict, each one's output
reducing to the other's, and the projection fixing its own output. Words
repeat letters, including multisets in which every letter repeats, and
terms carry different exponent groups.

``shuffle_reference.dynkin_reduce`` keeps the same projection with its
sums in ``Fraction``; the kernel's integer sums over one common
denominator must give exactly its output. The int kernel itself,
``barcplx._shuffle_quotient``, sums int combinations one group of blocks
(sorted letters, exps) at a time and can stop after the first nonzero
blocks: its output over its scale must be dynkin_reduce's, and a limited
reduction must be the least nonzero blocks of the full one.
"""
from fractions import Fraction
from itertools import permutations
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

import shuffle_reference as ref
from steinpoly.barcplx import Bar, _Groups, _shuffle_quotient, shuffle_span_reduce, shuffle_words
from steinpoly.steinberg import _numerators

COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
LETTERS = [(0, 0, 1), (0, 1, 0), (1, 1, 0)]
EXPS = [(), (1, 0, 0), (0, 2, 0)]


@st.composite
def multisets(draw):
    n = draw(st.integers(0, 6))
    if n >= 2 and draw(st.booleans()):
        # every letter occurs at least twice
        half = draw(st.lists(st.sampled_from(LETTERS), min_size=n // 2, max_size=n // 2))
        return half + half + half[: n % 2]
    return draw(st.lists(st.sampled_from(LETTERS), min_size=n, max_size=n))


@st.composite
def bars(draw):
    x = Bar.zero(3)
    for _ in range(draw(st.integers(1, 3))):
        letters = draw(multisets())
        exps = draw(st.sampled_from(EXPS))
        for _ in range(draw(st.integers(1, 3))):
            word = tuple(draw(st.permutations(letters)))
            c = draw(COEFFS)
            if len(word) >= 2 and draw(st.booleans()):
                cut = draw(st.integers(1, len(word) - 1))
                for w in shuffle_words(word[:cut], word[cut:]):
                    x.add_word(w, c, exps)
            else:
                x.add_word(word, c, exps)
    return x


@given(bars())
@settings(max_examples=200, deadline=None)
def test_same_verdict_and_class_as_reference(x):
    new = shuffle_span_reduce(x)
    old = ref.shuffle_span_reduce(x)
    assert (not new.terms) == (not old.terms)
    assert ref.shuffle_span_reduce(new) == old
    assert shuffle_span_reduce(old) == new
    assert shuffle_span_reduce(new) == new


@given(bars())
@settings(max_examples=200, deadline=None)
def test_integer_sums_equal_fraction_reference(x):
    assert shuffle_span_reduce(x) == ref.dynkin_reduce(x)


@given(st.lists(st.integers(0, 6), min_size=2, max_size=5, unique=True), st.data())
@settings(max_examples=60, deadline=None)
def test_mixed_word_lengths_equal_fraction_reference(lengths, data):
    # one lcm(1..longest) scale serves every length and every multiplicity
    x = Bar.zero(3)
    for n in lengths:
        word = tuple(data.draw(st.lists(st.sampled_from(LETTERS), min_size=n, max_size=n)))
        x.add_word(word, data.draw(COEFFS), data.draw(st.sampled_from(EXPS)))
    assert shuffle_span_reduce(x) == ref.dynkin_reduce(x)


def _block(key):
    (word, exps) = key
    return tuple(sorted(word)), exps


@given(st.lists(st.tuples(st.integers(-3, 3), bars()), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_int_kernel_equals_fraction_reference(parts):
    """sum_t num_t x_t through the kernel, one source a part, is dynkin_reduce of the sum."""
    total = Bar.zero(3)
    for num, x in parts:
        total += num * x
    # num_t x_t = num_t (den / den_t) nums_t / den over one common denominator
    split = [(num, _numerators(x.terms)) for num, x in parts]
    den = lcm(*(d for _num, (d, _nums) in split))
    sources = [(num * (den // d), _Groups(nums.items())) for num, (d, nums) in split]
    scale, out = _shuffle_quotient(sources)
    assert all(type(v) is int and v for v in out.values())
    assert {k: Fraction(v, den * scale) for k, v in out.items()} == ref.dynkin_reduce(total).terms


@given(bars(), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_limited_reduction_is_the_least_nonzero_blocks(x, limit):
    full = shuffle_span_reduce(x)
    blocks = sorted({_block(k) for k in full.terms})
    least = set(blocks[:limit])
    want = {k: c for k, c in full.terms.items() if _block(k) in least}
    den, nums = _numerators(x.terms)
    scale, out = _shuffle_quotient([(1, _Groups(nums.items()))], limit)
    assert {k: Fraction(v, den * scale) for k, v in out.items()} == want


def test_zero_equals_fraction_reference():
    assert shuffle_span_reduce(Bar.zero(3)) == ref.dynkin_reduce(Bar.zero(3)) == Bar.zero(3)


@given(multisets().filter(lambda m: len(m) >= 2), st.data())
@settings(max_examples=100, deadline=None)
def test_both_kill_shuffle_products(letters, data):
    x = Bar.zero(3)
    for _ in range(data.draw(st.integers(1, 3))):
        word = tuple(data.draw(st.permutations(letters)))
        cut = data.draw(st.integers(1, len(word) - 1))
        c, exps = data.draw(COEFFS), data.draw(st.sampled_from(EXPS))
        for w in shuffle_words(word[:cut], word[cut:]):
            x.add_word(w, c, exps)
    assert not shuffle_span_reduce(x).terms
    assert not ref.shuffle_span_reduce(x).terms


@given(bars())
@settings(max_examples=100, deadline=None)
def test_output_starts_with_least_letter(x):
    for (word, exps), c in shuffle_span_reduce(x).terms.items():
        assert c and (len(word) <= 1 or word[0] == min(word))


def _left_normed(word):
    """Expansion of the bracket [...[w_1, w_2], ..., w_n] as {word: coeff}."""
    out = {word[:1]: 1}
    for letter in word[1:]:
        nxt: dict = {}
        for u, c in out.items():
            nxt[u + (letter,)] = nxt.get(u + (letter,), 0) + c
            nxt[(letter,) + u] = nxt.get((letter,) + u, 0) - c
        out = nxt
    return out


def test_distinct_letters_n6():
    letters = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    word = tuple(letters[i] for i in (3, 1, 5, 0, 2, 4))
    x = Bar.zero(6)
    x.add_word(word, 1)
    red = shuffle_span_reduce(x)
    assert red.terms and shuffle_span_reduce(red) == red
    assert all(w[0] == min(letters) for w, _ in red.terms)
    # a word that starts with its least letter, once, is its own representative
    for w, _ in red.terms:
        y = Bar.zero(6)
        y.add_word(w, 2)
        assert shuffle_span_reduce(y) == y
    # the class is unchanged: red - x pairs to zero with every Lie polynomial
    diff = dict(red.terms)
    diff[(word, ())] = diff.get((word, ()), 0) - 1
    for v in permutations(letters):
        lie = _left_normed(v)
        assert sum(c * lie.get(w, 0) for (w, _), c in diff.items()) == 0
    # and every shuffle product of two nonempty factors vanishes
    for cut in range(1, 6):
        prod = Bar.zero(6)
        for w in shuffle_words(word[:cut], word[cut:]):
            prod.add_word(w, 1)
        assert not shuffle_span_reduce(prod).terms
