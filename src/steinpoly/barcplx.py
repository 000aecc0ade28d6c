"""Bar-complex words over the algebra of apartment classes.

A word is an ordered tuple of letters. Letters of the basic words are
lines (canonical integer points of the ambient space). The differential
merges adjacent letters into classes on higher-dimensional subspaces W,
and every letter of its output is an apartment key in ambient
coordinates: a line p becomes the one-point key (p,), and a merged letter
is a key of the flag basis of W, whose flag is spanned by the canonical
integer points of W's RREF rows. Merged letters only appear in
differential outputs, which live in the same Bar terms as every other
word. The projection and shuffle-reduction operators work on all-lines
words and refuse key-letter input.

Each term carries a full-length exponent tuple (a coordinate monomial of
the ambient space) recording a symmetric-power factor, zero_exps when
there is none; the bar operators leave it untouched.

The quotient by shuffle products is computed word by word, with no
matrix: shuffle_span_reduce sends each word to the part of its Dynkin
adjoint that begins with the word's least letter. By Ree's theorem that
map kills exactly the shuffle products and keeps each word's class, so
its output is a canonical representative on words that start with the
least letter of their multiset. A shuffle permutes letters, so the
quotient is a direct sum of blocks, one per (sorted letters, exps). The
int kernel (_shuffle_quotient) reduces int combinations one group of
blocks at a time, the groups of words with one least letter in
ascending order, so the blocks come in ascending order and a zero test
or a witness stops at the group of the first nonzero block. Every
interleaving is read off a concatenated word by an index pattern cached
per pair of lengths (_interleavings); shuffle_words uses the same
patterns.
"""
from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from operator import itemgetter
from typing import Iterable, Sequence

from .qlinalg import _cleared, _int_gauss_jordan, canonical_point, int_point, qv
from .steinberg import (
    ApKey,
    LinComb,
    _acc,
    _flag_expand_apartment,
    _numerators,
    normalize_apartment,
    zero_exps,
)

Point = tuple[int, ...]
Word = tuple[Point, ...]


class Bar(LinComb):
    """Combination of bar words, each with a symmetric-power exponent tuple.

    terms: {(word, exps): coeff}. Letters are lines (canonical points),
    except in bar_differential outputs, whose letters are apartment keys
    in ambient coordinates; exps defaults to zero_exps.
    """

    __slots__ = ()

    def add_word(self, word: Word, c, exps=None) -> None:
        e = tuple(exps) if exps else zero_exps(self.ambient)
        _acc(self.terms, (tuple(word), e), Fraction(c))


def bar_word(points: Sequence[Sequence], ambient: int | None = None, c=1, exps=None) -> Bar:
    """One word of lines; the empty word needs its ambient dimension given."""
    pts = [canonical_point(p) for p in points]
    if ambient is None and not pts:
        raise ValueError("empty word needs an ambient dimension")
    n = ambient if ambient is not None else len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("mixed vector lengths in word")
    out = Bar.zero(n)
    out.add_word(pts, c, exps)
    return out


# ----------------------------------------------------------------- letters


def _merge_letters(a: ApKey, b: ApKey) -> tuple[tuple[ApKey, int], ...]:
    """Flag-basis letters of the product of two letters, with coefficients.

    A merged letter must be a single basis element, not a whole class:
    words are multilinear in their letters, so classes have to expand
    for cross-term cancellation to happen. The flag is the canonical
    integer points of the RREF rows of the span W, which depend on W
    alone, so equal letters get equal keys; fraction-free Gauss-Jordan
    leaves those rows times its last pivot.
    """
    norm = normalize_apartment(a + b)
    if norm is None:
        return ()
    key, sign = norm
    work = [list(p) for p in key]
    _int_gauss_jordan(work)
    frows = tuple(map(int_point, work))
    return tuple((k, sign * c) for k, c in _flag_expand_apartment(key, frows))


def _is_keyed(word: tuple) -> bool:
    return bool(word) and type(word[0][0]) is tuple


def bar_differential(x: Bar) -> Bar:
    """Sum of adjacent-letter merges with alternating signs.

    Output words hold apartment-key letters, so the result can be fed
    back in; a line p of an input word is the letter (p,). Words repeat
    few distinct letter pairs, so each pair is merged once per call and
    its letters are kept until the call ends.
    """
    out = Bar.zero(x.ambient)
    merges: dict = {}
    for (word, exps), c in x.terms.items():
        letters = word if _is_keyed(word) else tuple((p,) for p in word)
        for j in range(len(letters) - 1):
            pair = letters[j], letters[j + 1]
            if pair not in merges:
                merges[pair] = _merge_letters(*pair)
            for merged, mc in merges[pair]:
                new_word = letters[:j] + (merged,) + letters[j + 2 :]
                out.add_word(new_word, c * mc * (-1) ** j, exps)
    return out


# ---------------------------------------------------------------- shuffles


def _require_lines(x: Bar, op: str) -> None:
    if any(_is_keyed(word) for word, _ in x.terms):
        raise ValueError(f"{op} is only defined on all-lines words")


@lru_cache(maxsize=None)
def _interleavings(head: int, lu: int, lv: int) -> tuple[itemgetter, ...]:
    """Index patterns reading each interleaving of u and v off w = h + u + v, len h = head.

    Each pattern keeps the head in front and the internal orders of u and
    v; they come in the order of the positions of u (combinations order).
    head + lu + lv must be at least 2, so each pattern reads a tuple.
    """
    out = []
    for positions in combinations(range(lu + lv), lu):
        idx = list(range(head))
        iu, iv = head, head + lu
        for t in range(lu + lv):
            if iu - head < lu and positions[iu - head] == t:
                idx.append(iu)
                iu += 1
            else:
                idx.append(iv)
                iv += 1
        out.append(itemgetter(*idx))
    return tuple(out)


def shuffle_words(u: Word, v: Word) -> Iterable[Word]:
    """All interleavings of u and v preserving the internal orders."""
    w = tuple(u) + tuple(v)
    if not u or not v:
        return (w,)
    return [g(w) for g in _interleavings(0, len(u), len(v))]


def bar_shuffle(x: Bar, y: Bar) -> Bar:
    """Shuffle product; letters of each word pair must stay independent."""
    _require_lines(x, "bar_shuffle")
    _require_lines(y, "bar_shuffle")
    if x.ambient != y.ambient:
        raise ValueError("ambient dimensions differ")
    out = Bar.zero(x.ambient)
    for (u, e1), cu in x.terms.items():
        for (v, e2), cv in y.terms.items():
            joint = u + v
            if normalize_apartment(joint, x.ambient) is None:
                raise ValueError("bar_shuffle with overlapping supports")
            exps = tuple(a + b for a, b in zip(e1, e2, strict=True))
            for word in shuffle_words(u, v):
                out.add_word(word, cu * cv, exps)
    return out


def deconcat(x: Bar) -> list[tuple[Bar, Bar]]:
    """All splits word = prefix . suffix, including the empty ends."""
    _require_lines(x, "deconcat")
    out = []
    for (word, exps), c in x.terms.items():
        for k in range(len(word) + 1):
            left = Bar.zero(x.ambient)
            right = Bar.zero(x.ambient)
            left.add_word(word[:k], c, exps)
            right.add_word(word[k:], Fraction(1), exps)
            out.append((left, right))
    return out


def p_H_project(x: Bar, h: Sequence) -> Bar:
    """Keep words all of whose lines pair nontrivially with h."""
    _require_lines(x, "p_H_project")
    hv = qv(h)
    if len(hv) != x.ambient:
        raise ValueError("functional length does not match ambient dimension")
    # h with its denominators cleared pairs with the integer letters in int
    (hi,), _ = _cleared([hv])
    live: dict[Point, bool] = {}
    out = Bar.zero(x.ambient)
    for key, c in x.terms.items():
        word = key[0]
        for p in word:
            if p not in live:
                live[p] = sum(a * b for a, b in zip(hi, p, strict=True)) != 0
        if all(live[p] for p in word):
            out.terms[key] = c
    return out


# ------------------------------------------------- shuffle-span reduction


class _Groups:
    """The words of an int combination {(word, exps): int}, by least letter, each group reduced once.

    Every word of a block (sorted letters, exps) has the block's least
    letter, so a group holds whole blocks, and groups in ascending order
    of their least letter hold the blocks in ascending order (the empty
    word first). reduced(group) is the group's Dynkin projection times
    scale = lcm(1, ..., longest word), so every division by a multiplicity
    is exact: each occurrence of the least letter a at position p of a
    word contributes (-1)^p a (rev(w_<p) sh w_>p), read off
    a + rev(w_<p) + w_>p by the cached patterns. It is computed on first
    use, with its zero entries dropped.
    """

    __slots__ = ("groups", "scale", "done")

    def __init__(self, nums: Iterable[tuple[tuple[Word, tuple], int]]):
        groups: defaultdict = defaultdict(list)
        longest = 0
        for (word, exps), num in nums:
            if num:
                # the empty word is its own group ()
                groups[word and (min(word),)].append((word, exps, num))
                if len(word) > longest:
                    longest = len(word)
        self.groups = groups
        self.scale = lcm(*range(1, longest + 1))
        self.done: dict = {}

    def reduced(self, group: tuple) -> dict:
        red = self.done.get(group)
        if red is not None:
            return red
        acc: defaultdict = defaultdict(int)
        a = group[0] if group else None
        for word, exps, num in self.groups[group]:
            num *= self.scale
            if len(word) <= 1:
                acc[word, exps] += num
                continue
            n = len(word) - 1
            num //= word.count(a)
            for p, letter in enumerate(word):
                if letter == a:
                    s = -num if p % 2 else num
                    w = (a,) + word[p - 1 :: -1] + word[p + 1 :] if p else word
                    for g in _interleavings(1, p, n - p):
                        acc[g(w), exps] += s
        red = self.done[group] = {k: v for k, v in acc.items() if v}
        return red


def _shuffle_quotient(sources: Sequence[tuple[int, _Groups]], limit: int | None = None) -> tuple[int, dict]:
    """(scale, {(word, exps): int}): sum_t num_t source_t modulo the shuffle ideal, times scale.

    The output is the least-letter Dynkin projection of the sum, blocks
    (sorted letters, exps) in ascending order, and only its first limit
    nonzero blocks (all when limit is None, else limit >= 1). The sum is
    reduced one group of blocks at a time, groups in ascending order of
    their least letter, and it stops at the group holding the limit-th
    nonzero block, so a zero test takes limit 1 and stops at the group of
    the first nonzero block. A block is zero exactly when its part of the
    sum is a combination of shuffle products. scale is the lcm of the
    sources' scales.
    """
    sources = [(num, src) for num, src in sources if num]
    scale = lcm(*(src.scale for _num, src in sources))
    rows: defaultdict = defaultdict(list)
    for num, src in sources:
        f = num * (scale // src.scale)
        for group in src.groups:
            rows[group].append((f, src))
    out: dict = {}
    found = 0
    for group in sorted(rows):
        row = rows[group]
        if len(row) == 1:
            f, src = row[0]
            nonzero = src.reduced(group)
            if f != 1:
                nonzero = {k: f * v for k, v in nonzero.items()}
        else:
            acc: defaultdict = defaultdict(int)
            for f, src in row:
                for k, v in src.reduced(group).items():
                    acc[k] += f * v
            nonzero = {k: v for k, v in acc.items() if v}
        if not nonzero:
            continue
        if limit is None:
            out.update(nonzero)
            continue
        blocks: defaultdict = defaultdict(dict)
        for (w, exps), v in nonzero.items():
            blocks[tuple(sorted(w)), exps][w, exps] = v
        for block in sorted(blocks):
            out.update(blocks[block])
            found += 1
            if found == limit:
                return scale, out
    return scale, out


def shuffle_span_reduce(x: Bar) -> Bar:
    """Canonical representative of x modulo the shuffle ideal.

    The Dynkin adjoint D^T(w) = sum_p (-1)^p w_p (rev(w_<p) sh w_>p) of
    left-normed bracketing kills exactly the shuffle products in length
    >= 2 (Ree's theorem), and its summand at each position p is congruent
    to w. Keeping the summands at the m occurrences of w's least letter a,
    divided by m, therefore gives a representative of w's class on words
    that begin with a, and the map still kills the shuffle products: the
    output is zero exactly when x is a combination of shuffle products,
    and reducing it again returns it unchanged. Words of length <= 1 pass
    through, and exponent groups stay apart. The sums run in ints, in
    _shuffle_quotient.
    """
    _require_lines(x, "shuffle_span_reduce")
    den, nums = _numerators(x.terms)
    scale, out = _shuffle_quotient([(1, _Groups(nums.items()))])
    den *= scale
    return Bar(x.ambient, {k: Fraction(v, den) for k, v in out.items()})
