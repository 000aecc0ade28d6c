"""Tensor squares of apartment classes and their Lie-coalgebra structure.

Elements here are combinations [A] (x) [B] of pairs of apartments of the
same rank, each times a coordinate monomial recording a symmetric power:
a full-length exponent tuple, zero_exps when there is none. The s-map
embeds such a pair into bar words of lines, carrying the tuple along; it
is the one route to the symbols of the generators, embed_s(make_L(v)) and
embed_s(make_I(v)), which vanish when the vectors v are dependent.
Products are slotwise concatenation; the coproduct splits the ambient
space into a piece of each tensor factor. The two distinguished generator
families L and I, duality, and the cyclic cobracket all live here,
together with the zero test for the quotient by shuffle products (the
"stable" quotient below, in which decomposables vanish).

The s-map is steinberg._walk with the prefix of the first factor's entries
free: it walks (suffix of the second factor, unused entries of the first)
depth first and keeps each word in order, where the flag basis holds the
prefix fixed and sorts. The coproduct tests each split with one minor. Both
write the second factor once in the basis of the first and read every test
and every cut line off one flat table of its minors by one Cramer rule
(steinberg._minors and _cut_line), so neither computes a determinant or
does Fraction arithmetic on the apartment keys. The coproduct's splits
come in ints from _splits, which st2_coproduct wraps in St2s.

Apartment pairs (make_pair) and the L and I generators come in through
steinberg's one way for rational vectors: _int_vectors takes ints as
they come and clears rationals by one common denominator, and
_independent tests them once. Each of the two apartments of L and I is
the input, or a unitriangular image of it, up to order, so that one test
of the input decides whether the pair vanishes, and each key is then
only canonicalised and sorted. The key builders (_L_keys, _I_keys) are
split from that test, for callers that have decided it already: the
shuffle, dihedral and duality suites of the command line, whose terms
are all sub-tuples, permutations, negations, duals or cyclic rotations
of one tested basis, and the cobracket check, whose sides are at most d
of the d + 1 cyclic vectors of one.
Duality reads the dual lines of a key off
steinberg._dual_lines, the columns of its int adjugate: the dual basis
times the determinant, one common scale, which the lines ignore and
which keeps their differences in I those of the dual basis.

The tensor normal form (st2_normal_form) flag-expands both factors with
steinberg._flag_expand_apartment, in ints over one common denominator. It
comes out in ascending key order, one block per first-factor basis
apartment, and a block is summed only when it is reached, so a caller
that needs only the least terms (a FAIL witness, the zero test) stops
there instead of building the whole expansion.

The stable quotient is reached in ints too (_stable_ints): the tensor's
numerators over one denominator go through the int s-map and
barcplx._shuffle_quotient, so the zero test stops at the group of the
first nonzero block. The cobracket check runs in ints a pair at a time:
every factor on both of its routes is one apartment pair, fingerprinted
once (_pair_fingerprint) as int numerators over one denominator, with
no St2 and no Fraction per factor or word.
"""
from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, islice
from math import lcm
from typing import Sequence

from .barcplx import Bar, _Groups, _shuffle_quotient, shuffle_span_reduce
from .qlinalg import int_point, qv, vec_add, vec_sub
from .steinberg import (
    ApKey,
    LinComb,
    Point,
    _acc,
    _cut_line,
    _dual_lines,
    _flag_coords,
    _flag_expand_apartment,
    _independent,
    _int_vectors,
    _minors,
    _numerators,
    _sort_sign,
    _standard_rows,
    _walk,
    _walk_tables,
    zero_exps,
)


class St2(LinComb):
    """Combination of apartment pairs [A] (x) [B] times sym monomials.

    terms: {(key_a, key_b, exps): coeff}; exps defaults to zero_exps.
    """

    __slots__ = ()

    def add_term(self, key_a: ApKey, key_b: ApKey, c, exps=None) -> None:
        if len(key_a) != len(key_b):
            raise ValueError("tensor factors must have equal rank")
        e = tuple(exps) if exps else zero_exps(self.ambient)
        _acc(self.terms, (key_a, key_b, e), Fraction(c))


def _pair_key(first: Sequence[Point], second: Sequence[Point]) -> tuple[ApKey, ApKey, int]:
    """(key_a, key_b, sign): [first] (x) [second] = sign [key_a] (x) [key_b] for independent int vectors.

    Each factor is only canonicalised and sorted: the caller has decided
    that both are independent.
    """
    key_a, sign_a = _sort_sign([int_point(v) for v in first])
    key_b, sign_b = _sort_sign([int_point(v) for v in second])
    return key_a, key_b, sign_a * sign_b


def _add_pair(out: St2, pair: tuple[ApKey, ApKey, int], c, exps) -> None:
    """out += c sign [key_a] (x) [key_b] for pair = (key_a, key_b, sign)."""
    key_a, key_b, sign = pair
    c = Fraction(c)
    out.add_term(key_a, key_b, c if sign == 1 else -c, exps)


def make_pair(vecs_a: Sequence, vecs_b: Sequence, ambient: int | None = None, c=1, exps=None) -> St2:
    """c [vecs_a] (x) [vecs_b]; zero unless each factor's vectors are independent."""
    a, n = _int_vectors(vecs_a, ambient)
    out = St2.zero(n)
    if _independent(a, n):
        b, _ = _int_vectors(vecs_b, n)
        if _independent(b, n):
            _add_pair(out, _pair_key(a, b), c, exps)
    return out


def st2_product(x: St2, y: St2) -> St2:
    """Slotwise concatenation product on both tensor factors."""
    if x.ambient != y.ambient:
        raise ValueError("ambient dimensions differ")
    out = St2.zero(x.ambient)
    for (ka1, kb1, e1), c1 in x.terms.items():
        for (ka2, kb2, e2), c2 in y.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2, strict=True))
            out += make_pair(ka1 + ka2, kb1 + kb2, x.ambient, c1 * c2, e)
    return out


# ------------------------------------------------------------------- s-map


@lru_cache(maxsize=None)
def _s_pair(key_a: ApKey, key_b: ApKey) -> tuple[tuple[tuple[Point, ...], int], ...]:
    """Bar words of a pair of apartments: the free steinberg._walk of A against B.

    All letters lie in span A and span B, so pairs of different spans give
    no words.
    """
    coords = _flag_coords(key_b, key_a)
    return () if coords is None else _walk(coords, key_b, False)


def _s_map(nums: dict) -> defaultdict:
    """The s-image of an int combination {(key_a, key_b, exps): int}, as {(word, exps): int}.

    Entries that cancel stay in as zeros.
    """
    acc: defaultdict = defaultdict(int)
    for (ka, kb, exps), num in nums.items():
        for word, wc in _s_pair(ka, kb):
            acc[word, exps] += num * wc
    return acc


def embed_s(x: St2) -> Bar:
    """Bar-word expansion of a tensor of apartment pairs.

    Terms where the two flags are not in general position drop out; the
    result is a combination of words of d independent lines, carrying
    the sym exponents of the input along.
    """
    den, nums = _numerators(x.terms)
    return Bar(x.ambient, {k: Fraction(v, den) for k, v in _s_map(nums).items() if v})


# --------------------------------------------------------------- coproduct


def _subset_front_sign(subset: tuple[int, ...]) -> int:
    """Parity of the permutation listing subset ascending, then the rest.

    The r-th entry i_r of the ascending subset passes the i_r - r smaller
    entries left out of it, so the parity is (-1)^sum(i_r - r).
    """
    return -1 if (sum(subset) - len(subset) * (len(subset) - 1) // 2) % 2 else 1


Pair = tuple[ApKey, ApKey]


def _splits(key_a: ApKey, key_b: ApKey):
    """The int splits of [A] (x) [B], A = key_a and B = key_b of full rank d.

    Yields (I, J, left, right, sign_l, sign_r) per split that counts, in
    st2_coproduct's order: left and right are the apartment pairs
    (a_I, lines cut out of a_I) and (lines cut out of b_J, b_J), each
    sorted, with sign_l the split's sign times left's sort sign and
    sign_r right's sort sign.
    """
    d = len(key_a)
    m = _minors(_flag_coords(key_b, key_a), False)
    laplace = _walk_tables(d, False)[1]
    full = (1 << d) - 1
    for k in range(d + 1):
        for i_set in combinations(range(d), k):
            not_i = full - sum(1 << i for i in i_set)
            i_comp = tuple(i for i in range(d) if not_i >> i & 1)
            sign_i = _subset_front_sign(i_set)
            for j_set in combinations(range(d), d - k):
                j_rows = sum(1 << j for j in j_set) << d
                if not m[j_rows | not_i]:
                    continue
                j_comp = tuple(j for j in range(d) if not j_rows >> d + j & 1)
                sign = sign_i * _subset_front_sign(j_comp)
                # left: A-entries at I, against lines cut out of A_I
                key_l, sign_l = _sort_sign([_cut_line(m, key_b, j_rows | 1 << d + j | not_i, laplace) for j in j_comp])
                key_r, sign_r = _sort_sign([_cut_line(m, key_b, j_rows | not_i ^ 1 << i, laplace) for i in i_comp])
                left = tuple(key_a[i] for i in i_set), key_l
                right = key_r, tuple(key_b[j] for j in j_set)
                yield i_set, j_set, left, right, sign * sign_l, sign_r


def st2_coproduct(x: St2) -> list[tuple[tuple[int, ...], tuple[int, ...], St2, St2]]:
    """Split terms across complementary spans of subsets of the two factors.

    Returns (I, J, left, right) with I indices into the first factor's
    entries and J into the second factor's; left lives on the span of
    the I-entries, right on the span of the J-entries, both written in
    ambient coordinates. Signs and coefficients are folded into left.
    Counit pieces (I or J empty) are included.

    In the coordinates C of B in the basis A (_flag_coords), a split
    (I, J) counts when M(J, not I) = det C[J, not I] != 0, which is
    det[a_I; b_J] != 0 up to det A. Then a_I + b_J is the whole space, so
    the cuts a_I with span(b_J, b_j) and b_J with span(a_I, a_i) are always
    lines: b[J + j] cut off not I, and b[J] cut off not I - i (_cut_line).
    Projecting along b_J maps the b_j, j not in J, onto a basis of a_I, and
    the left lines are their images, so they are independent; so are the
    right lines, by projecting along a_I. Each factor is therefore only
    sorted, with no rank test, and a split with I or J empty gives the
    empty pair on that side. The int splits come from _splits.
    """
    out: list[tuple[tuple[int, ...], tuple[int, ...], St2, St2]] = []
    n = x.ambient
    for (key_a, key_b, exps), c in x.terms.items():
        if any(exps):
            raise ValueError("coproduct is defined on the plain component")
        if len(key_a) != n:
            raise ValueError("coproduct needs full-rank terms")
        for i_set, j_set, (la, lb), (ra, rb), sign_l, sign_r in _splits(key_a, key_b):
            left, right = St2.zero(n), St2.zero(n)
            left.add_term(la, lb, c * sign_l)
            right.add_term(ra, rb, sign_r)
            out.append((i_set, j_set, left, right))
    return out


# ------------------------------------------------------------- generators


def _L_keys(vecs: Sequence[Point]) -> tuple[ApKey, ApKey, int]:
    """make_L of independent int vectors as one (key_a, key_b, sign), with no rank test.

    The caller has decided that the vectors are independent: a sub-tuple
    or a permutation of an independent tuple is.
    """
    rev = vecs[::-1]
    return _pair_key(list(accumulate(rev, vec_add)), rev)


def _I_keys(vecs: Sequence[Point]) -> tuple[ApKey, ApKey, int]:
    """make_I of independent int vectors as one (key_a, key_b, sign), with no rank test; see _L_keys."""
    rev = vecs[::-1]
    key_a, key_b, sign = _pair_key(rev, [rev[0], *(vec_sub(a, b) for a, b in zip(rev[1:], rev))])
    return key_a, key_b, -sign if len(vecs) % 2 else sign


def make_L(vectors: Sequence, ambient: int | None = None, c=1, exps=None) -> St2:
    """Pair of the reversed-suffix-sum apartment against the reversed one.

    Both apartments are unitriangular images of the vectors up to order,
    so one rank test of the vectors decides whether the pair vanishes.
    """
    vecs, n = _int_vectors(vectors, ambient)
    out = St2.zero(n)
    if _independent(vecs, n):
        _add_pair(out, _L_keys(vecs), c, exps)
    return out


def make_I(vectors: Sequence, ambient: int | None = None, c=1, exps=None) -> St2:
    """Companion generator: reversed tuple against consecutive differences.

    As for make_L, one rank test of the vectors decides both apartments.
    """
    vecs, n = _int_vectors(vectors, ambient)
    out = St2.zero(n)
    if _independent(vecs, n):
        _add_pair(out, _I_keys(vecs), c, exps)
    return out


def make_corr(vectors: Sequence, ambient: int | None = None, c=1) -> St2:
    """Correlator on d+1 vectors summing to zero; equals make_L of the tail."""
    vecs = [qv(v) for v in vectors]
    if any(sum(col) for col in zip(*vecs, strict=True)):
        raise ValueError("correlator vectors must sum to zero")
    return make_L(vecs[1:], ambient, c=c)


def dualize(x: St2) -> St2:
    """Swap the tensor factors and replace each apartment by its dual basis."""
    out = St2.zero(x.ambient)
    for (key_a, key_b, exps), c in x.terms.items():
        if len(key_a) != x.ambient:
            raise ValueError("duality needs full-rank terms")
        (dual_a, det_a), (dual_b, det_b) = _dual_lines(key_a), _dual_lines(key_b)
        if not det_a or not det_b:
            raise ValueError("duality needs independent keys")
        _add_pair(out, _pair_key(dual_b, dual_a), c, exps)
    return out


# ------------------------------------------------------------- zero tests


def st2_normal_form(x: St2, limit: int | None = None) -> dict:
    """Canonical coordinates in ascending (ka, kb, exps) order: flag-expand both factors.

    Terms are grouped by the side with fewer distinct (key, exps) pairs
    (ties by the first factor), and each group's sum on the other side is
    expanded first, so its terms cancel before the second expansion. Only
    outer apartments whose group keeps a term are expanded. The result
    comes in one block per first-factor basis apartment ka, in ascending
    order: ka is a first-stage key when the grouped side is the second
    factor, and a key of an outer expansion otherwise. A block's
    (kb, exps) rows are summed and sorted only when it is reached, and
    the output stops after limit terms (all when limit is None), so a
    nonzero element is witnessed by its least terms without building the
    rest. Everything is summed as ints over one common denominator, with
    one Fraction per output term. The coordinates do not depend on the
    grouping: both give the bilinear expansion term by term.
    """
    n = x.ambient
    frows = _standard_rows(n)
    den, nums = _numerators(x.terms)
    firsts = {(key_a, exps) for key_a, _kb, exps in nums}
    seconds = {(key_b, exps) for _ka, key_b, exps in nums}
    swap = len(seconds) < len(firsts)
    groups: defaultdict = defaultdict(dict)
    for (key_a, key_b, exps), num in nums.items():
        if len(key_a) != n:
            raise ValueError("normal form needs full-rank terms")
        outer, inner = (key_b, key_a) if swap else (key_a, key_b)
        groups[outer, exps][inner] = num
    kept: defaultdict = defaultdict(list)  # outer -> [(exps, {inner basis key: int})]
    for (outer, exps), inner in groups.items():
        acc: defaultdict = defaultdict(int)
        for key, num in inner.items():
            for k2, c2 in _flag_expand_apartment(key, frows):
                acc[k2] += num * c2
        stage1 = {k: v for k, v in acc.items() if v}
        if stage1:
            kept[outer].append((exps, stage1))
    # ka -> [(scale, exps, second)]: second is an outer key still to expand
    # when swapped, else the first stage's {kb: int}
    blocks: defaultdict = defaultdict(list)
    for outer, rows in kept.items():
        if swap:
            for exps, stage1 in rows:
                for ka, v in stage1.items():
                    blocks[ka].append((v, exps, outer))
        else:
            for ka, c in _flag_expand_apartment(outer, frows):
                blocks[ka].extend((c, exps, stage1) for exps, stage1 in rows)

    def terms():
        for ka in sorted(blocks):
            row: defaultdict = defaultdict(int)
            for scale, exps, second in blocks[ka]:
                for kb, c in _flag_expand_apartment(second, frows) if swap else second.items():
                    row[kb, exps] += scale * c
            for (kb, exps), v in sorted(item for item in row.items() if item[1]):
                yield (ka, kb, exps), Fraction(v, den)

    return dict(islice(terms(), limit))


def is_zero_st2(x: St2) -> bool:
    return not st2_normal_form(x, 1)


def bar_infty_reduce(x: Bar) -> Bar:
    """Canonical remainder of a bar element in the stable quotient.

    This is barcplx.shuffle_span_reduce under the name that mpl and the
    benchmark's traced spans use; empty output certifies zero.
    """
    return shuffle_span_reduce(x)


def _s_groups(key_a: ApKey, key_b: ApKey, exps: tuple) -> _Groups:
    """The s-image of the pair [key_a] (x) [key_b] times exps, grouped for barcplx._shuffle_quotient."""
    return _Groups(((word, exps), c) for word, c in _s_pair(key_a, key_b))


def _stable_ints(x: St2, limit: int | None = None, memo: dict | None = None) -> tuple[int, dict]:
    """(den, {(word, exps): int}): the s-image of x modulo the shuffle span, over den.

    The int route from the tensor to the stable class: x's numerators go
    through the int s-map and barcplx's kernel, with no Fraction per word.
    Only the first limit nonzero blocks (sorted letters, exps) are
    returned (all when limit is None), and the reduction stops at the
    group of words holding the last of them, so limit 1 decides zero. Each
    term's s-image is grouped by least letter and reduced a group at a
    time, and the terms are summed per group. A memo shared across calls
    keeps those groups, keyed by the term, so every group of a term is
    reduced once across the calls: the reduction is linear, so a generator
    that several residuals share is reduced once.
    """
    den, nums = _numerators(x.terms)
    memo = {} if memo is None else memo
    sources = []
    for term, num in nums.items():
        src = memo.get(term)
        if src is None:
            src = memo[term] = _s_groups(*term)
        sources.append((num, src))
    scale, out = _shuffle_quotient(sources, limit)
    return den * scale, out


def is_zero_st_infty(x: St2) -> bool:
    """Zero test in the quotient where shuffle products vanish: no nonzero block."""
    return not _stable_ints(x, 1)[1]


def st_infty_fingerprint(x: St2) -> dict:
    """Canonical class coordinates of a tensor, read in ambient coordinates.

    The s-image reduced modulo the shuffle span: equal classes give equal
    dictionaries regardless of presentation. The letters of each word
    span the support of the pair it came from.
    """
    den, out = _stable_ints(x)
    return {k: Fraction(v, den) for k, v in out.items()}


# -------------------------------------------------------------- cobracket


def cobracket_L(vectors: Sequence):
    """Cyclic cobracket terms of the L generator.

    Returns a list of (coeff, left_vectors, right_vectors); each side is
    to be read as an L generator on the span of its vectors, and the
    pair as a wedge. Int vectors stay int, others are read as rationals.
    """
    if all(type(x) is int for v in vectors for x in v):
        vecs = [tuple(v) for v in vectors]
    else:
        vecs = [qv(v) for v in vectors]
    d = len(vecs)
    v0 = vecs[0]
    for v in vecs[1:]:
        v0 = vec_add(v0, v)
    cyc = [tuple(-x for x in v0)] + vecs  # v_0, v_1, ..., v_d
    terms = []
    for j in range(d + 1):
        for i in range(1, d):
            left = tuple(cyc[(j + t) % (d + 1)] for t in range(1, i + 1))
            right = tuple(cyc[(j + t) % (d + 1)] for t in range(i + 1, d + 1))
            terms.append((Fraction(-1), left, right))
    return terms


def _pair_fingerprint(key_a: ApKey, key_b: ApKey, n: int) -> tuple[int, dict]:
    """(den, {(word, exps): int}): the stable class of [key_a] (x) [key_b] in Q^n, as _stable_ints gives it."""
    return _shuffle_quotient([(1, _s_groups(key_a, key_b, zero_exps(n)))])


def cobracket_matches_coproduct(vectors: Sequence) -> bool:
    """Cross-check of the cyclic cobracket against the coproduct route.

    Expands both sides into the stable-quotient fingerprints of their
    factors (the s-image modulo the shuffle span, in ambient coordinates,
    as _stable_ints gives it in ints over one denominator) and compares
    exactly. The coproduct route antisymmetrizes every split and keeps
    only the splits where both sides are nontrivial.

    Every factor on both routes is one apartment pair: an L generator of
    the cobracket side (_L_keys of cobracket_L's int vectors) or a side of
    an int split of L (_splits). Its sign goes into the term's
    coefficient, and each distinct pair is fingerprinted once
    (_pair_fingerprint). One rank test, of the whole basis, decides every
    factor: each cobracket side is at most d of the d + 1 cyclic vectors
    of the basis, and any d of them are independent. The letters of each fingerprint word span the
    word's support, so ambient keys keep factors on different supports
    apart; each key gets a small id. Both routes are sums of
    c fp(a) ^ fp(b), so route A minus route B is kept on the pairs of ids
    ia < ib, with (ib, ia) folded in by sign and ia = ib cancelling, in
    integers over one common denominator.

    Raises ValueError on a dependent basis, where L(vectors) is zero but
    the cobracket terms on its independent sub-tuples are not.
    """
    vecs, n = _int_vectors(vectors, None)
    if not _independent(vecs, n):
        raise ValueError("cobracket check needs independent vectors")
    key_a, key_b, sign = _L_keys(vecs)
    if len(key_a) != n:
        raise ValueError("coproduct needs full-rank terms")
    terms = []  # (c, pair a, pair b) for c fp(a) ^ fp(b)
    for c, left, right in cobracket_L(vecs):
        a, b = _L_keys(left), _L_keys(right)
        terms.append((c * a[2] * b[2], a[:2], b[:2]))
    for i, j, left, right, sign_l, sign_r in _splits(key_a, key_b):
        if i and j:
            terms.append((-sign * sign_l * sign_r, left, right))
    ids: dict = {}
    fps: dict = {}

    def fingerprint(pair: Pair) -> tuple[int, list[tuple[int, int]]]:
        """(den, [(key id, numerator)]) of the pair's fingerprint, once per distinct pair."""
        fp = fps.get(pair)
        if fp is None:
            den, nums = _pair_fingerprint(*pair, n)
            fp = fps[pair] = den, [(ids.setdefault(k, len(ids)), num) for k, num in nums.items()]
        return fp

    expanded = [(c, fingerprint(a), fingerprint(b)) for c, a, b in terms]
    # each pair carries c / (den_a den_b); one lcm clears them all
    den = lcm(*(c.denominator * da * db for c, (da, _na), (db, _nb) in expanded))
    acc: dict = {}
    for c, (da, nums_a), (db, nums_b) in expanded:
        scale = c.numerator * (den // (c.denominator * da * db))
        for ia, na in nums_a:
            s = scale * na
            for ib, nb in nums_b:
                if ia < ib:
                    acc[(ia, ib)] = acc.get((ia, ib), 0) + s * nb
                elif ib < ia:
                    acc[(ib, ia)] = acc.get((ib, ia), 0) - s * nb
    return not any(acc.values())

