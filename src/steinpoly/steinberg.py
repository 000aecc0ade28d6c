"""Apartment classes of the rational Steinberg module.

LinComb is the one sparse linear-combination type of the package: St here,
St2 and Bar subclass it and only add their key builders. A term's
symmetric-power tail is always a full-length exponent tuple; "no tail" is
zero_exps(ambient).

An apartment class [v_1, ..., v_d] is indexed by d independent lines in
Q^d (or in a subspace). The defining relations are: reordering by the
sign of the permutation, rescaling any entry by a nonzero scalar, the
(d+1)-term boundary relation, and vanishing on dependent tuples. The
canonical storage key is the lex-sorted tuple of canonical line points
with the sort sign folded into the coefficient.

Since a class ignores the scale of each entry, rational vectors come in
one way: _int_vectors takes int vectors as they come and clears rational
ones once, by one common denominator, and _independent tests them once
(one determinant, or the pivot count of one Gauss-Jordan elimination
when there are fewer vectors than coordinates). normalize_apartment,
the generators of st2, mpl's LiGen, the cones and the command line all
go through the two. _dual_lines reads
the dual basis of an int basis, times its determinant, off the columns
of its adjugate; duality in st2 and, cached, the evaluation oracle of
cones both use it.

flag_expand rewrites a class in the basis attached to the standard
flag. Its kernel _flag_expand_apartment takes any flag as integer rows
f_1..f_k, the i-th step being span(f_1..f_i); it is the s-map of st2
with the prefix held at the flag, and one walk (_walk) serves both. The
walk goes down suffix chains S_1 > S_2 > ... of the apartment's entries:
step i cuts the i-th flag step with the span of S_i, a state whose cut is
no line prunes every chain through it, and the sign grows by the
position of each dropped entry. Keys, flag rows and cut lines are plain
ints. The key is written once in flag coordinates, and every pruning test
and every cut line is read off one flat table of its minors (_minors,
m[rows << d | cols], filled in one loop over its row sets, each entry a
Laplace sum over minors one size smaller) by one Cramer rule (_cut_line),
so the walk computes no determinant and no Fraction. A state of the walk
is the index of its own minor, and a child's minor is tested in the table
before the walk recurses into it. The flag walk fills only the suffix
column sets it reads; the s-map and the coproduct of st2, which cuts its
lines with the same rule, fill every equal-size minor. The lines of a
chain are kept sorted as it grows, with the sign carried along, so no
leaf is sorted, and the words come out in the order the walk reaches
them: every caller folds them into a dict. What depends only on d and
the mode is built once per (d, mode), in _walk_tables: the row sets in
order with their Laplace terms, the column sets the table fills, the
signed rows of each cut, and the entries each state may take; a key
only adds its own coordinates and lines.

ash_rudolph_reduce rewrites an integral apartment as a sum of unimodular
ones by one Ash-Rudolph step at every rank: [v_1..v_n] = sum_i [v_1..w..v_n]
(w in slot i) at an integral pivot w = sum_i c_i v_i / det whose numerators
c_i, the child determinants, have the least sup norm. The admissible c form
a lattice of index |det|^(n-1); its minimum, at most |det|^((n-1)/n) by
Minkowski, is enumerated exactly from an LLL-reduced basis. The whole
reduction runs on int keys and int coefficients. Each step holds for any
pivot, so the table of pivots the reduction chose proves its result:
replay_ash_rudolph rewrites the apartment from that table alone, with
its own sort sign and no search, and fails (CertificateError) on a
missing entry or a child whose |det| does not drop.
"""
from __future__ import annotations

from bisect import bisect
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import lcm
from operator import mul
from typing import Sequence

from .qlinalg import (
    Mat,
    _cleared,
    _int_adjugate,
    _int_det,
    _int_gauss_jordan,
    canonical_point,
    int_point,
    qv,
)

Point = tuple[int, ...]
ApKey = tuple[Point, ...]


def _acc(d: dict, key, c) -> None:
    """d[key] += c, dropping the key at zero; int sums stay int, Fraction sums Fraction."""
    v = d.get(key, 0) + c
    if v:
        d[key] = v
    else:
        d.pop(key, None)


def _numerators(terms: dict, scale: int = 1) -> tuple[int, dict]:
    """(den, {key: num}) with terms[key] = num / den, den = scale * lcm of the denominators.

    Kernels that multiply rational coefficients by integers sum these
    numerators in int and build one Fraction(sum, den) per output key.
    """
    den = scale * lcm(*(c.denominator for c in terms.values()))
    return den, {k: c.numerator * (den // c.denominator) for k, c in terms.items()}


def zero_exps(n: int) -> tuple[int, ...]:
    """The exponent tuple of "no symmetric tail" in ambient dimension n."""
    return (0,) * n


def _power_product(forms: Sequence[Sequence], exps: Sequence[int], n: int) -> dict:
    """prod_j (sum_i forms[j][i] X_i)^exps[j] as a monomial dict {exponents: coeff}.

    The monomials are in n variables; no forms give the constant 1. Int
    forms give int coefficients, Fraction forms Fraction ones.
    """
    poly: dict = {zero_exps(n): 1}
    for form, e in zip(forms, exps, strict=True):
        terms = [(i, a) for i, a in enumerate(form) if a]
        for _ in range(e):
            out: dict = {}
            for mono, c in poly.items():
                for i, a in terms:
                    _acc(out, mono[:i] + (mono[i] + 1,) + mono[i + 1 :], c * a)
            poly = out
    return poly


class LinComb:
    """Sparse linear combination {key: nonzero Fraction} in Q^ambient.

    Subclasses only build keys. ``+=`` and ``-=`` add into the left
    operand; ``+``, ``-``, ``c * x`` and ``-x`` return new combinations.
    Combinations are mutable, so they compare by value but do not hash.
    """

    __slots__ = ("ambient", "terms")

    def __init__(self, ambient: int, terms: dict | None = None):
        self.ambient = ambient
        self.terms: dict = dict(terms) if terms else {}

    @classmethod
    def zero(cls, ambient: int):
        return cls(ambient)

    def _check(self, other: "LinComb") -> None:
        """Refuse an operand of another type or ambient dimension."""
        if type(other) is not type(self):
            raise TypeError(f"cannot add {type(other).__name__} to {type(self).__name__}")
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")

    def __iadd__(self, other: "LinComb"):
        self._check(other)
        for k, c in other.terms.items():
            _acc(self.terms, k, c)
        return self

    def __isub__(self, other: "LinComb"):
        self._check(other)
        if other is self:
            # x -= x: the loop below would shrink the dict it iterates
            self.terms.clear()
        for k, c in other.terms.items():
            _acc(self.terms, k, -c)
        return self

    def __add__(self, other: "LinComb"):
        out = type(self)(self.ambient, self.terms)
        out += other
        return out

    def __sub__(self, other: "LinComb"):
        out = type(self)(self.ambient, self.terms)
        out -= other
        return out

    def __rmul__(self, c):
        c = Fraction(c)
        if not c:
            return type(self)(self.ambient)
        return type(self)(self.ambient, {k: c * v for k, v in self.terms.items()})

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.ambient == other.ambient
            and self.terms == other.terms
        )

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self.terms)

    def items(self):
        return self.terms.items()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.terms)} terms, ambient={self.ambient})"


def _sort_sign(points: Sequence[Point]) -> tuple[ApKey, int]:
    order = sorted(range(len(points)), key=lambda i: points[i])
    sign = 1
    seen = [False] * len(order)
    for i in range(len(order)):
        if seen[i]:
            continue
        # cycle length parity
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = order[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return tuple(points[i] for i in order), sign


def _int_vectors(vectors: Sequence, ambient: int | None) -> tuple[list[Point], int]:
    """(vectors as int tuples, n): ints as they come, rationals cleared by one common denominator.

    n is the ambient dimension, every vector's length. A class ignores
    the scale of each entry, and one common scale keeps every line
    spanned by sums and differences of the vectors too, so every route
    from rational vectors to keys goes through here and then works in
    ints. Raises ValueError on empty input and on mixed lengths.
    """
    if not vectors:
        raise ValueError("empty apartment")
    if all(type(x) is int for v in vectors for x in v):
        vecs = [tuple(v) for v in vectors]
    else:
        vecs, _ = _cleared([qv(v) for v in vectors])
    n = ambient if ambient is not None else len(vecs[0])
    if any(len(v) != n for v in vecs):
        raise ValueError("mixed vector lengths in apartment")
    return vecs, n


def _independent(vecs: Sequence[Point], n: int) -> bool:
    """Whether the int vectors in Q^n are independent: one determinant, or one Gauss-Jordan pivot count.

    The empty family is independent.
    """
    d = len(vecs)
    if d == n:
        return _int_det(vecs) != 0
    return d < n and (not vecs or len(_int_gauss_jordan(list(vecs))[0]) == d)


def _dual_lines(basis: Sequence[Sequence[int]]) -> tuple[tuple[Point, ...], int]:
    """(lines, det): the dual basis of an int basis times det, read off the columns of its adjugate.

    One common scale, so the lines and every sum and difference of them
    are those of the dual basis. A singular basis gives ((), 0). The
    result is immutable, so a cache may hand it to every caller.
    """
    adj, det = _int_adjugate(basis)
    return tuple(zip(*adj)), det


def normalize_apartment(vectors: Sequence[Sequence], ambient: int | None = None):
    """Canonical (key, sign) for an apartment, or None when degenerate."""
    vecs, n = _int_vectors(vectors, ambient)
    if not _independent(vecs, n):
        return None
    return _sort_sign([int_point(v) for v in vecs])


class St(LinComb):
    """Linear combination of apartment classes with rational coefficients."""

    __slots__ = ()

    def add_term(self, key: ApKey, c: Fraction) -> None:
        _acc(self.terms, key, c)


def make_apartment(vectors: Sequence[Sequence], ambient: int | None = None) -> St:
    vecs = list(vectors)
    norm = normalize_apartment(vecs, ambient)
    out = St.zero(ambient if ambient is not None else len(qv(vecs[0])))
    if norm is not None:
        key, sign = norm
        out.add_term(key, Fraction(sign))
    return out


def st_multiply(a: St, b: St) -> St:
    """Concatenation product; supports must be independent termwise."""
    if a.ambient != b.ambient:
        raise ValueError("ambient dimensions differ")
    out = St.zero(a.ambient)
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            out += ca * cb * make_apartment(ka + kb, a.ambient)
    return out


def block_embed(x: St, offset: int, total: int) -> St:
    """Reinterpret x inside Q^total with coordinates shifted by offset."""
    out = St.zero(total)
    for key, c in x.terms.items():
        new_key = tuple(
            (0,) * offset + p + (0,) * (total - offset - len(p)) for p in key
        )
        out.add_term(new_key, c)
    return out


# ---------------------------------------------------------------- flag basis


FlagRows = tuple[Point, ...]  # f_1..f_k, the i-th flag step being span(f_1..f_i)


@lru_cache(maxsize=16)
def _standard_rows(n: int) -> FlagRows:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _flag_coords(key_b: Sequence[Point], key_a: Sequence[Point]) -> list[list[int]] | None:
    """B written in the basis A, all times one nonzero scalar; None when B leaves span A.

    The rows of A are independent. Fraction-free Gauss-Jordan takes the n
    coordinate rows of [A^T | B^T] to [p I | p C^T] over n - |A| zero rows,
    where C A = B. A pivot in the right block means some entry of B is
    outside span A. The rank-0 pair has no coordinate rows and gives [].
    """
    d = len(key_a)
    work = [list(col) for col in zip(*key_a, *key_b)]
    if work and len(_int_gauss_jordan(work)[0]) > d:
        return None
    return [[row[j] for row in work[:d]] for j in range(d, d + len(key_b))]


@lru_cache(maxsize=None)
def _walk_tables(d: int, suffixes: bool) -> tuple[tuple, tuple, tuple]:
    """(plan, laplace, takes): everything _minors, _cut_line and _walk read that depends only on d and the mode.

    laplace[rows] lists (t, (rows - t) << d, sign) for the rows t of the
    row set rows, ascending, the sign alternating from +1: the Laplace
    terms of a minor on rows, and the signed rows of a cut off rows.
    plan lists (rows << d, laplace[rows], column sets) for every nonempty
    row set in increasing order, each column set of its size as
    (cols, its first column, cols without it): with suffixes only the
    column sets {i, ..., d-1}, otherwise all of them. takes[U] lists the
    entries s a walk state with unused A-entries U may take: with
    suffixes U is a suffix and s its lowest entry (other U take none),
    otherwise every entry of U. A cache hands the result to every caller,
    so it is all tuples.
    """
    full = (1 << d) - 1
    col_sets: list[list] = [[] for _ in range(d + 1)]
    for cols in [full ^ full >> k for k in range(1, d + 1)] if suffixes else range(1, 1 << d):
        col_sets[cols.bit_count()].append((cols, (cols & -cols).bit_length() - 1, cols & (cols - 1)))
    laplace: list[tuple] = [()]
    for rows in range(1, 1 << d):
        terms = []
        sign, left = 1, rows
        while left:
            bit = left & -left
            left ^= bit
            terms.append((bit.bit_length() - 1, (rows ^ bit) << d, sign))
            sign = -sign
        laplace.append(tuple(terms))
    plan = tuple((rows << d, laplace[rows], tuple(col_sets[rows.bit_count()])) for rows in range(1, 1 << d))
    if suffixes:
        takes: list[tuple] = [()] * (1 << d)
        for k in range(1, d + 1):
            takes[full ^ full >> k] = (1 << d - k,)
    else:
        takes = [()]
        for t in range(d):
            takes += [ss + (1 << t,) for ss in takes]
    return plan, tuple(laplace), tuple(takes)


def _minors(coords: Sequence[Sequence[int]], suffixes: bool) -> list[int]:
    """The flat table m[rows << d | cols] = det C[rows, cols] of the d x d int matrix C = coords.

    rows and cols are bitmasks of equal size; m[0] = 1. One loop over the
    row sets R in increasing order fills the table, each entry by Laplace
    along the first column q of cols,
    M(R, Q) = sum_t (-1)^t C[R_t][q] M(R - R_t, Q - q), so every minor one
    size smaller that it reads is already filled. With suffixes only the
    column sets {i, ..., d-1} are filled, which are all the flag walk
    reads; otherwise every column set is. Other entries stay 0. The row
    sets, column sets and Laplace terms come from _walk_tables.
    """
    d = len(coords)
    columns = list(zip(*coords))
    m = [0] * (1 << 2 * d)
    m[0] = 1
    for at, laplace, col_sets in _walk_tables(d, suffixes)[0]:
        for cols, q, rest in col_sets:
            column = columns[q]
            total = 0
            for t, sub, sign in laplace:
                x = column[t]
                if x:
                    total += sign * x * m[sub | rest]
            m[at | cols] = total
    return m


def _cut_line(m: list[int], vecs: Sequence[Point], cut: int, laplace: Sequence[tuple]) -> Point:
    """The line where span(vecs[rows]) meets {coordinates cols = 0}, for cut = rows << d | cols.

    |cols| = |rows| - 1, and the coordinates are those of the minor table
    m, one row per vec; laplace is _walk_tables' list of the signed rows
    of each row set. By Cramer the line is
    sum_t (-1)^t M(rows - rows_t, cols) vecs[rows_t], and the index of
    M(rows - rows_t, cols) is cut with bit rows_t cleared: each coordinate
    in cols is a Laplace sum of a minor with a repeated column. The caller
    knows the sum is nonzero: for a column c outside cols, its c-th
    coordinate is +-M(rows, cols + c).
    """
    d = len(vecs)
    cols = cut & (1 << d) - 1
    point = None
    for t, sub, sign in laplace[cut >> d]:
        c = m[sub | cols]
        if c:
            c *= sign
            v = vecs[t]
            point = [c * y for y in v] if point is None else [x + c * y for x, y in zip(point, v)]
    return int_point(point)


Word = tuple[Point, ...]


def _walk(coords: Sequence[Sequence[int]], vecs: Sequence[Point], fixed: bool) -> tuple[tuple[Word, int], ...]:
    """Signed words of a pair of apartments A, B = vecs, walking (suffix of B, unused A-entries).

    A pair of permutations (sigma, tau) gives the word whose i-th letter is
    span(a[sigma_1..sigma_i]) cut with span(b[tau_i..tau_d]), with the sign
    of sigma times the sign of tau, when the d letters are independent
    lines. The walk builds sigma and tau one entry at a time. A state is
    the suffix S of B and the set U of unused A-entries, as the int
    S << d | U of two bitmasks: the index of M(S, U) in the minor table.
    Its step takes an A-entry s of U, signed by its position in U, and
    after the letter drops one entry of S, signed by its position in S.

    In the coordinates C of B in the basis A (coords, one row per entry
    of B), the letter is where span(b[S]) has zero coordinates on U - s:
    _cut_line of S off U - s, whose index is the state with bit s cleared.
    The earlier letters span a[not U], so the letter is independent of
    them exactly when its s-coordinate, +-M(S, U), is nonzero. That minor
    does not depend on s, and the child that drops t from S has index
    cut - t, the index of its Cramer coefficient: the walk tests it in the
    table before recursing, and computes no determinant. Each cut is
    computed once. A child whose S is one entry t is a leaf, whose one
    letter is the line of b_t: the walk adds its word without visiting it.

    With fixed, sigma is the identity: s is the lowest entry of U, so U is
    always a suffix and only suffix columns of the table are filled, and
    the letters are kept sorted, a letter inserted before k of them
    flipping the sign by (-1)^k, so a leaf reads an apartment key and its
    sign off the list. With A the rows of a flag this is the flag basis.
    Otherwise s runs over U and the letters stay in order, as bar words.

    The per-dimension tables of _walk_tables(d, fixed) are built once and
    shared by every key of that rank and mode: the table's row sets,
    column sets and Laplace terms (_minors), the signed rows of each cut
    (_cut_line), and the entries s of each U (takes). Per key the walk
    builds only the minor table, the cut cache and the one-entry leaves.
    """
    d = len(vecs)
    if not d:  # the rank-0 pair is the empty word
        return (((), 1),)
    m = _minors(coords, fixed)
    _plan, laplace, takes = _walk_tables(d, fixed)
    full = (1 << d) - 1
    root = full << d | full
    if not m[root]:
        return ()
    if d == 1:
        return (((int_point(vecs[0]),), 1),)
    last = {1 << t: int_point(v) for t, v in enumerate(vecs)}  # for S = {t}, the one letter left
    cuts: list[Point | None] = [None] * (1 << 2 * d)
    words: defaultdict[Word, int] = defaultdict(int)
    letters: list[Point] = []

    def visit(state: int, sign: int) -> None:
        """The words below a state whose S has two or more entries; children with one are leaves."""
        suffix = state >> d
        leaves = suffix.bit_count() == 2
        odd = 0
        for s in takes[state & full]:
            cut = state ^ s  # S << d | U - s
            line = cuts[cut]
            if line is None:
                line = cuts[cut] = _cut_line(m, vecs, cut, laplace)
            at = bisect(letters, line) if fixed else len(letters)
            sgn = -sign if (len(letters) - at + odd) % 2 else sign
            letters.insert(at, line)
            rest = suffix
            while rest:
                t = rest & -rest
                rest ^= t
                kid = cut ^ t << d
                if not m[kid]:
                    pass
                elif not leaves:
                    visit(kid, sgn)
                elif fixed:
                    end = last[suffix ^ t]
                    at_end = bisect(letters, end)
                    letters.insert(at_end, end)
                    words[tuple(letters)] += -sgn if (len(letters) - 1 - at_end) % 2 else sgn
                    del letters[at_end]
                else:
                    words[(*letters, last[suffix ^ t])] += sgn
                sgn = -sgn
            del letters[at]
            odd ^= 1

    visit(root, 1)
    return tuple((w, c) for w, c in words.items() if c)


@lru_cache(maxsize=None)
def _flag_expand_apartment(key: ApKey, frows: FlagRows) -> tuple[tuple[ApKey, int], ...]:
    """Flag-basis expansion of one apartment: the fixed _walk of the flag rows against the key.

    The basis apartment cut from the i-th flag step by the suffix
    S = {tau_i, ..., tau_d} is where flag coordinates i+1..d vanish on
    span(key[S]); the standard flag needs no change of coordinates. The
    flag may have fewer rows than the ambient space: a rank-k key in the
    span W of k flag rows expands inside W, in the flag basis of W, and
    its output keys stay in ambient coordinates.
    """
    return _walk(key if frows == _standard_rows(len(frows)) else _flag_coords(key, frows), key, True)


def flag_expand(x: St) -> St:
    """Rewrite x in the basis of apartments adapted to the standard flag.

    Basis apartments are exactly those whose first i entries span the
    first i coordinate vectors, so the expansion is idempotent and a zero
    test for the module. _flag_expand_apartment takes any integer flag
    rows.
    """
    frows = _standard_rows(x.ambient)
    den, nums = _numerators(x.terms)
    acc: defaultdict[ApKey, int] = defaultdict(int)
    for key, num in nums.items():
        if len(key) != x.ambient:
            raise ValueError("flag expansion needs full-length apartments")
        for k2, c2 in _flag_expand_apartment(key, frows):
            acc[k2] += num * c2
    return St(x.ambient, {k: Fraction(v, den) for k, v in acc.items() if v})


def is_zero(x: St) -> bool:
    return not flag_expand(x).terms


# ------------------------------------------------------------------ residue


def residue(x: St, p: Sequence) -> St:
    """Boundary component of x at the line through p.

    Keeps only apartments with an entry on the line, removes that entry
    with the sign of its slot, and pushes the rest to the quotient
    Q^n / <p>, written in the integer coordinates of the unimodular chart
    _line_chart(p). In Q^1 the one apartment [p] goes to the empty
    apartment of Q^0.
    """
    p_can = canonical_point(qv(p))
    if len(p_can) != x.ambient:
        raise ValueError("point length does not match ambient dimension")
    if x.ambient == 1:
        return St(0, {(): c for c in x.terms.values()})
    t_mat = _line_chart(p_can)
    out: dict[ApKey, Fraction] = {}
    for key, c in x.terms.items():
        if p_can in key:
            slot = key.index(p_can)
            rest = [_chart_coords(t_mat, q) for q in key[:slot] + key[slot + 1 :]]
            norm = normalize_apartment(rest, x.ambient - 1)
            if norm is not None:
                _acc(out, norm[0], c * (-1) ** slot * norm[1])
    return St(x.ambient - 1, out)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


@lru_cache(maxsize=None)
def _line_chart(p: Point) -> Mat:
    """Unimodular T with T p = e_1; lattice-exact chart of Z^n / Z p.

    T is built from the bottom up by 2 x 2 xgcd steps of determinant 1 on
    rows i-1, i, so it is an integer matrix and no inverse is solved for.
    """
    n = len(p)
    t_rows = [[int(i == j) for j in range(n)] for i in range(n)]
    w = list(p)
    for i in range(n - 1, 0, -1):
        a, b = w[i - 1], w[i]
        if b == 0:
            continue
        g, sa, sb = _xgcd(a, b)
        # rows go by [[sa, sb], [-b/g, a/g]]
        ra, rb = t_rows[i - 1], t_rows[i]
        t_rows[i - 1] = [sa * x + sb * y for x, y in zip(ra, rb)]
        t_rows[i] = [(-b // g) * x + (a // g) * y for x, y in zip(ra, rb)]
        w[i - 1], w[i] = g, 0
    if w[0] == -1:
        t_rows[0] = [-x for x in t_rows[0]]
        w[0] = 1
    assert w[0] == 1 and not any(w[1:])
    return tuple(tuple(r) for r in t_rows)


def _chart_coords(t_mat: Mat, v: Point) -> Point:
    """Integer coordinates of v in Z^n / Z p, for T = _line_chart(p)."""
    return tuple(sum(map(mul, row, v)) for row in t_mat[1:])


# --------------------------------------------------- Ash-Rudolph reduction


def ash_rudolph_reduce(vectors: Sequence[Sequence], pivots: dict | None = None) -> St:
    """Express an integral apartment as a sum of unimodular apartments.

    Every rank takes the same Ash-Rudolph step at the pivot of
    _least_pivot (see _ar_step); each child determinant is at most
    |det|^((n-1)/n), so the recursion is shallow. A dict passed as pivots
    receives the pivot of every non-unimodular key the reduction visits,
    key -> w, read from the same steps: the table replay_ash_rudolph
    checks the reduction by.
    """
    vecs, den = _cleared([qv(v) for v in vectors])
    if not vecs:
        raise ValueError("ash_rudolph_reduce needs at least one vector")
    if den != 1:
        raise ValueError("ash_rudolph_reduce needs integral vectors")
    n = len(vecs[0])
    if len(vecs) != n:
        raise ValueError("apartment must have as many vectors as coordinates")
    start = make_apartment(vecs, n)
    out = St.zero(n)
    for key, c in start.terms.items():
        for k2, c2 in _ar_apartment(key):
            out.add_term(k2, c * c2)
    if pivots is not None:
        stack = list(start.terms)
        while stack:
            key = stack.pop()
            step = _ar_step(key)
            if step is not None and key not in pivots:
                pivots[key] = step[0]
                stack.extend(child for child, _sign in step[1])
    return out


@lru_cache(maxsize=None)
def _ar_step(key: ApKey) -> tuple[Point, tuple[tuple[ApKey, int], ...]] | None:
    """(w, nonzero children with their sort signs) of the step at key; None when |det| = 1.

    With D = det(key) and the pivot w = sum_i c_i key[i] / D of
    _least_pivot, the boundary relation of (w, key[0], ..., key[n-1])
    gives [key] = sum_i [key with key[i] replaced by w]. The i-th child
    has determinant c_i, so children with c_i = 0 are degenerate and
    left out.
    """
    dd = _int_det(key)
    if abs(dd) == 1:
        return None
    w, nums = _least_pivot(key, dd)
    w = int_point(w)
    return w, tuple(_sort_sign(key[:i] + (w,) + key[i + 1 :]) for i, ci in enumerate(nums) if ci)


@lru_cache(maxsize=None)
def _ar_apartment(key: ApKey) -> tuple[tuple[ApKey, int], ...]:
    """Unimodular reduction of one apartment, with integer coefficients: _ar_step down to |det| = 1."""
    step = _ar_step(key)
    if step is None:
        return ((key, 1),)
    out: dict[ApKey, int] = {}
    for child, sign in step[1]:
        for k2, c2 in _ar_apartment(child):
            _acc(out, k2, sign * c2)
    return tuple(sorted(out.items()))


class CertificateError(ValueError):
    """A pivot table that does not prove a reduction; key is the step at fault."""

    def __init__(self, key: ApKey, why: str):
        super().__init__(f"{why} at {key}")
        self.key = key


def replay_ash_rudolph(x: St, pivots: dict) -> St:
    """x rewritten by the boundary relations of a pivot table {key: w} alone.

    For any line w, [key] = sum_i [key with key[i] replaced by w], and a
    child with dependent vectors is zero. Each key of |det| > 1 is
    replaced so at pivots[key], in order of decreasing |det|, so every
    key is replaced once with its whole coefficient. Every nonzero child
    must have a smaller |det| than its key, so the replay ends, at keys
    of |det| 1. It uses no pivot search, no LLL and its own sort sign
    (an inversion count), so a result equal to ash_rudolph_reduce(x)
    proves that reduction exact whatever the search did. Raises
    CertificateError naming the key of a missing entry, of a pivot that
    is not a nonzero int vector of the key's length, or of a child whose
    |det| does not drop.
    """
    den, pending = _numerators(x.terms)
    heap = [(-abs(_int_det(key)), key) for key in pending]
    heapify(heap)
    out = {}
    while heap:
        size, key = heappop(heap)
        c = pending.pop(key)
        if size == -1:
            out[key] = c
            continue
        if not c:
            continue
        w = pivots.get(key)
        if w is None:
            raise CertificateError(key, "no pivot")
        if len(w) != len(key) or any(type(e) is not int for e in w) or not any(w):
            raise CertificateError(key, f"bad pivot {w}")
        for i in range(len(key)):
            child = key[:i] + (w,) + key[i + 1 :]
            d = abs(_int_det(child))
            if not d:
                continue
            if d >= -size:
                raise CertificateError(key, f"a child of |det| {d} >= {-size}")
            inversions = sum(a > b for j, a in enumerate(child) for b in child[j + 1 :])
            child = tuple(sorted(child))
            if child not in pending:
                pending[child] = 0
                heappush(heap, (-d, child))
            pending[child] += -c if inversions % 2 else c
    return St(x.ambient, {k: Fraction(v, den) for k, v in out.items() if v})


def _least_pivot(key: ApKey, dd: int) -> tuple[Point, list[int]]:
    """Pivot w = sum_i c_i key[i] / dd of the Ash-Rudolph step, and its c.

    The c making w integral are the row lattice of adj(key) (w is the
    coefficient vector), of index |dd|^(n-1). Among its nonzero points
    this takes the one minimising (max |c_i|, sum |c_i|, w), which by
    Minkowski has max |c_i| <= |dd|^((n-1)/n) < |dd| and, the rows of key
    being primitive, at least two nonzero c_i (Ash-Rudolph 1979). The
    search LLL-reduces the lattice basis B, takes as radius r the least
    sup norm of a reduced row, and visits the c = z B with
    |z_j| <= r sum_i |B^-1_ij|, which holds for every c of sup norm at
    most r; the minimum is thus exact however good the reduction is
    (Gunnells 2000 finds modular-symbol pivots the same way).
    """
    basis, _ = _int_adjugate(key)
    cols = [list(col) for col in zip(*key)]
    _lll(basis, cols)
    absd = abs(dd)
    n = len(key)
    radius = min(max(map(abs, b)) for b in basis)
    # basis * cols = dd I, so z = c B^-1 has z_j = <c, cols[j]> / dd
    bounds = [radius * sum(map(abs, col)) // absd for col in cols]
    # the most that rows j.. can add to coordinate i
    slack = [[0] * n for _ in range(n + 1)]
    for j in range(n - 1, -1, -1):
        slack[j] = [s + bounds[j] * abs(x) for s, x in zip(slack[j + 1], basis[j])]
    best = None  # (max |c_i|, sum |c_i|, w, c)

    def walk(j: int, part: list[int]) -> None:
        nonlocal best, radius
        # the z keeping every coordinate within reach of the box
        row, lo, hi = basis[j], -bounds[j], bounds[j]
        for x, y, s in zip(part, row, slack[j + 1]):
            if y < 0:
                x, y = -x, -y
            if y:
                lo, hi = max(lo, -((radius + s + x) // y)), min(hi, (radius + s - x) // y)
            elif abs(x) > radius + s:
                return
        if not any(part):  # of c and -c, visit the one whose first nonzero z is positive
            lo = max(lo, 0)
        for z in range(lo, hi + 1):
            c = [x + z * y for x, y in zip(part, row)]
            if j + 1 < n:
                walk(j + 1, c)
                continue
            m, s = max(map(abs, c)), sum(map(abs, c))
            if m and (best is None or (m, s) <= best[:2]):
                w = tuple(sum(ci * p[k] for ci, p in zip(c, key)) // dd for k in range(n))
                neg = tuple(-x for x in w)
                if neg < w:
                    w, c = neg, [-x for x in c]
                if best is None or (m, s, w) < best[:3]:
                    best, radius = (m, s, w, c), m

    walk(0, [0] * n)
    return best[2], best[3]


def _lll(basis: list[list[int]], cols: list[list[int]]) -> None:
    """LLL-reduce the integer rows of basis in place, with delta = 99/100.

    The integral algorithm of Cohen 1993, Alg. 2.6.7: the Gram
    determinants d and the scaled Gram-Schmidt coefficients lam stay
    integers. Each row step b_k -= q b_l is mirrored on cols as
    cols[l] += q cols[k], and each row swap as a column swap, so a
    product basis * cols keeps its value.
    """
    n = len(basis)
    d = [1] * (n + 1)  # d[i + 1] is the Gram determinant of rows 0..i
    lam = [[0] * n for _ in range(n)]  # lam[k][j] = d[j + 1] mu_kj

    k, k_max = 1, 0
    d[1] = sum(x * x for x in basis[0])
    while k < n:
        if k > k_max:
            k_max = k
            for j in range(k + 1):
                u = sum(map(mul, basis[k], basis[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k + 1] = u
        for l in range(k - 1, -1, -1):  # size reduction
            if 2 * abs(lam[k][l]) > d[l + 1]:
                q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[l])]
                cols[l] = [x + q * y for x, y in zip(cols[l], cols[k])]
                lam[k][l] -= q * d[l + 1]
                for i in range(l):
                    lam[k][i] -= q * lam[l][i]
        if 100 * d[k + 1] * d[k - 1] < 99 * d[k] ** 2 - 100 * lam[k][k - 1] ** 2:
            basis[k - 1], basis[k] = basis[k], basis[k - 1]
            cols[k - 1], cols[k] = cols[k], cols[k - 1]
            for j in range(k - 1):
                lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
            mu = lam[k][k - 1]
            b = (d[k - 1] * d[k + 1] + mu * mu) // d[k]
            for i in range(k + 1, k_max + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - mu * t) // d[k]
                lam[i][k - 1] = (b * t + mu * lam[i][k]) // d[k + 1]
            d[k] = b
            k = max(1, k - 1)
        else:
            k += 1
