"""Reference shuffle-span reductions, kept for tests only.

``shuffle_span_reduce`` is the dense elimination the least-letter Dynkin
projection in ``steinpoly.barcplx.shuffle_span_reduce`` replaced: for each
letter multiset it lists all words, row-reduces the span of every shuffle
product over ``Fraction`` with lex-first pivots, and returns the lex
remainder. Tests require the kernel to give the same zero verdicts and
the same classes as this one.

``dynkin_reduce`` is that Dynkin projection as it was before its sums
moved to integer numerators: one ``Fraction`` division by the least
letter's multiplicity per word and one ``Fraction`` addition per output
word. Tests require the kernel to give exactly its output.
"""
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

from steinpoly.barcplx import Bar, Point, _require_lines, shuffle_words
from steinpoly.steinberg import _acc

ZERO = Fraction(0)


@lru_cache(maxsize=None)
def _shuffle_reducer(multiset: tuple[Point, ...]):
    """RREF rows of the shuffle span on words with the given letters.

    Returns (columns, rows) where columns is the lex-ordered tuple of
    words and rows are reduced generator vectors with pivot map.
    """
    letters = list(multiset)
    n = len(letters)
    words = sorted(set(permutations(letters)))
    col_index = {w: i for i, w in enumerate(words)}
    rows: list[list[Fraction]] = []
    seen_splits = set()
    for r in range(1, n):
        for idx in combinations(range(n), r):
            left = tuple(sorted(letters[i] for i in idx))
            rest = [letters[i] for i in range(n) if i not in idx]
            right = tuple(sorted(rest))
            if (left, right) in seen_splits:
                continue
            seen_splits.add((left, right))
            for u in sorted(set(permutations(left))):
                for v in sorted(set(permutations(right))):
                    vec = [ZERO] * len(words)
                    for w in shuffle_words(u, v):
                        vec[col_index[w]] += 1
                    rows.append(vec)
    # gaussian elimination with lex-first pivots
    reduced: list[tuple[int, list[Fraction]]] = []  # (pivot, row)
    for vec in rows:
        for p, rrow in reduced:
            if vec[p] != 0:
                f = vec[p]
                vec = [a - f * b for a, b in zip(vec, rrow)]
        pivot = next((i for i, a in enumerate(vec) if a != 0), None)
        if pivot is None:
            continue
        pv = vec[pivot]
        vec = [a / pv for a in vec]
        for _, rrow in reduced:
            if rrow[pivot] != 0:
                f = rrow[pivot]
                rrow[:] = [a - f * b for a, b in zip(rrow, vec)]
        reduced.append((pivot, vec))
    reduced.sort(key=lambda pr: pr[0])
    return tuple(words), tuple((p, tuple(r)) for p, r in reduced)


def shuffle_span_reduce(x: Bar) -> Bar:
    """Canonical remainder of x modulo the shuffle ideal, per letter multiset.

    The output is zero exactly when x is a combination of shuffle
    products, so this is the workhorse zero test for the quotient by
    decomposables.
    """
    _require_lines(x, "shuffle_span_reduce")
    groups: dict = {}
    for (word, exps), c in x.terms.items():
        key = (tuple(sorted(word)), exps)
        groups.setdefault(key, {})[word] = groups.setdefault(key, {}).get(word, ZERO) + c
    out = Bar.zero(x.ambient)
    for (multiset, exps), wordmap in groups.items():
        if len(multiset) <= 1:
            for w, c in wordmap.items():
                if c:
                    out.add_word(w, c, exps)
            continue
        words, rows = _shuffle_reducer(multiset)
        vec = [wordmap.get(w, ZERO) for w in words]
        for p, rrow in rows:
            if vec[p] != 0:
                f = vec[p]
                vec = [a - f * b for a, b in zip(vec, rrow)]
        for w, a in zip(words, vec):
            if a:
                out.add_word(w, a, exps)
    return out


def dynkin_reduce(x: Bar) -> Bar:
    """Canonical representative of x modulo the shuffle ideal.

    The Dynkin adjoint D^T(w) = sum_p (-1)^p w_p (rev(w_<p) sh w_>p) of
    left-normed bracketing kills exactly the shuffle products in length
    >= 2 (Ree's theorem), and its summand at each position p is congruent
    to w. Keeping the summands at the m occurrences of w's least letter a,
    divided by m, therefore gives a representative of w's class on words
    that begin with a, and the map still kills the shuffle products: the
    output is zero exactly when x is a combination of shuffle products,
    and reducing it again returns it unchanged. Words of length <= 1 pass
    through, and exponent groups stay apart.
    """
    _require_lines(x, "shuffle_span_reduce")
    out = Bar.zero(x.ambient)
    for (word, exps), c in x.terms.items():
        if len(word) <= 1:
            _acc(out.terms, (word, exps), c)
            continue
        a = min(word)
        c = c / word.count(a)
        for p, letter in enumerate(word):
            if letter == a:
                s = -c if p % 2 else c
                for w in shuffle_words(word[:p][::-1], word[p + 1 :]):
                    _acc(out.terms, ((a,) + w, exps), s)
    return out
