"""Bar words of lines: differential, shuffles, projections, reduction."""
from collections import Counter
from fractions import Fraction

import pytest

from steinpoly import barcplx
from steinpoly.barcplx import (
    bar_differential,
    bar_shuffle,
    bar_word,
    deconcat,
    p_H_project,
    shuffle_span_reduce,
    shuffle_words,
)
from steinpoly.qlinalg import split_seed
from steinpoly.st2 import embed_s, make_L
from test_call_memory import BASIS, KEPT, counting, package_caches

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def rand_word(rng, n, m):
    while True:
        pts = tuple(
            tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m)
        )
        if all(any(x for x in p) for p in pts):
            return pts


class TestBarWord:
    @pytest.mark.parametrize("points, ambient", [
        ([(1, 0), (0, 1, 0)], 2),
        ([(1, 0, 0), (0, 1)], None),
        ([(1, 0)], 3),
    ])
    def test_letter_of_wrong_length_rejected(self, points, ambient):
        with pytest.raises(ValueError):
            bar_word(points, ambient)

    def test_empty_word_needs_ambient(self):
        with pytest.raises(ValueError):
            bar_word([])
        x = bar_word([], 2, c=3)
        assert x.ambient == 2
        assert x.terms == {((), (0, 0)): Fraction(3)}


class TestDifferential:
    def test_two_letter_word_merges_once(self):
        d = bar_differential(bar_word([E1, E2], 3))
        assert len(d.terms) == 1
        ((letters, exps),) = d.terms.keys()
        assert exps == (0, 0, 0)
        # the merged letter is an ambient apartment key; its lex-sorted
        # storage folds a swap sign into the coefficient
        assert letters == (((0, 1, 0), (1, 0, 0)),)
        assert list(d.terms.values()) == [Fraction(-1)]

    def test_merged_letters_are_flag_basis_keys_of_the_span(self):
        # [e1+e2, e2] = [e1, e2] - [e1, e1+e2]: a merge onto span(e1, e2)
        # is written in the letters of that span's flag basis, whatever the
        # merged lines were
        e12 = (1, 1, 0)
        d = bar_differential(bar_word([e12, E2], 3))
        assert d.terms == {
            (((E2, E1),), (0, 0, 0)): Fraction(-1),
            (((E1, e12),), (0, 0, 0)): Fraction(-1),
        }

    def test_adjacent_equal_lines_merge_to_zero(self):
        d = bar_differential(bar_word([E1, E1], 3))
        assert not d

    def test_sign_alternation(self):
        # [a|b|c]: merges at j=0 and j=1 carry opposite signs
        d = bar_differential(bar_word([E1, E2, E3], 3))
        assert sorted(d.terms.values()) == [Fraction(-1), Fraction(1)]

    def test_differential_squares_to_zero(self):
        rng = split_seed(11, "dd")
        for _ in range(12):
            w = rand_word(rng, 3, rng.randint(3, 4))
            x = bar_word(w, 3)
            assert not bar_differential(bar_differential(x))

    def test_differential_squares_to_zero_dim4(self):
        rng = split_seed(12, "dd4")
        for _ in range(4):
            x = bar_word(rand_word(rng, 4, 4), 4)
            assert not bar_differential(bar_differential(x))


class TestShuffle:
    def test_word_count(self):
        assert len(list(shuffle_words((1, 2), (3,)))) == 3
        assert len(list(shuffle_words((1, 2), (3, 4)))) == 6

    def test_singletons(self):
        got = bar_shuffle(bar_word([E1], 3), bar_word([E2], 3))
        want = bar_word([E1, E2], 3) + bar_word([E2, E1], 3)
        assert got == want

    def test_commutative_and_associative(self):
        x = bar_word([E1], 3)
        y = bar_word([E2], 3, c=2)
        z = bar_word([E3], 3, c=-3)
        assert bar_shuffle(x, y) == bar_shuffle(y, x)
        assert bar_shuffle(bar_shuffle(x, y), z) == bar_shuffle(x, bar_shuffle(y, z))

    def test_overlapping_supports_rejected(self):
        with pytest.raises(ValueError):
            bar_shuffle(bar_word([E1], 3), bar_word([E1], 3))
        with pytest.raises(ValueError):
            bar_shuffle(bar_word([E1, E2], 3), bar_word([(1, 1, 0)], 3))

    def test_exps_add(self):
        x = bar_word([E1], 3, exps=(1, 0, 0))
        y = bar_word([E2], 3, exps=(0, 2, 0))
        got = bar_shuffle(x, y)
        assert set(e for (_, e) in got.terms) == {(1, 2, 0)}


class TestDeconcat:
    def test_split_count_and_content(self):
        x = bar_word([E1, E2], 3, c=5)
        pieces = deconcat(x)
        assert len(pieces) == 3
        rebuilt = {}
        for left, right in pieces:
            ((lw, _), lc), = left.terms.items()
            ((rw, _), rc), = right.terms.items()
            rebuilt[(lw, rw)] = lc * rc
        assert rebuilt == {
            ((), ((1, 0, 0), (0, 1, 0))): Fraction(5),
            (((1, 0, 0),), ((0, 1, 0),)): Fraction(5),
            (((1, 0, 0), (0, 1, 0)), ()): Fraction(5),
        }


class TestProjection:
    def test_drops_words_on_kernel_lines(self):
        x = bar_word([E1, E2], 3) + bar_word([E1, E3], 3, c=7)
        got = p_H_project(x, (1, 1, 0))
        assert got == bar_word([E1, E2], 3)

    def test_keeps_all_when_h_generic(self):
        x = bar_word([E1, E2], 3) + bar_word([E2, E3], 3)
        assert p_H_project(x, (1, 1, 1)) == x


class TestShuffleSpanReduce:
    def test_kills_shuffle_products(self):
        prod = bar_shuffle(bar_word([E1], 3), bar_word([E2], 3))
        assert not shuffle_span_reduce(prod)
        prod = bar_shuffle(bar_word([E1, E2], 3), bar_word([E3], 3))
        assert not shuffle_span_reduce(prod)

    def test_single_word_survives(self):
        x = bar_word([E1, E2], 3)
        red = shuffle_span_reduce(x)
        assert red.terms
        # reduction is a projector
        assert shuffle_span_reduce(red) == red

    def test_respects_exps_grouping(self):
        # same letters, different sym exponents: reduced independently
        x = bar_word([E1, E2], 3, exps=(1, 0, 0))
        y = bar_word([E2, E1], 3, exps=(0, 1, 0))
        red = shuffle_span_reduce(x + y)
        assert len(red.terms) == 2

    def test_shuffle_with_coefficients(self):
        rng = split_seed(3, "ssr")
        for _ in range(8):
            u = rand_word(rng, 3, 2)
            v = rand_word(rng, 3, 1)
            try:
                prod = bar_shuffle(bar_word(u, 3, c=rng.randint(1, 5)), bar_word(v, 3))
            except ValueError:
                continue
            assert not shuffle_span_reduce(prod)


def test_differential_merges_each_letter_pair_once_per_call(monkeypatch):
    """Words repeat few distinct letter pairs: each is merged once in a call, and no cache keeps it."""
    x = embed_s(make_L(BASIS))
    pairs = Counter(
        (((word[j],), (word[j + 1],)) for (word, _exps) in x.terms for j in range(len(word) - 1))
    )
    assert sum(pairs.values()) > 2 * len(pairs)  # most merges repeat a pair
    merges = counting(monkeypatch, barcplx, "_merge_letters")
    assert not bar_differential(x)  # d(s(L)) = 0
    assert merges == Counter(dict.fromkeys(pairs, 1))
    assert set(package_caches().values()) <= {f"{mod}.{name}" for mod, name in KEPT}
