"""The determinant flag walk, kept for tests only.

This is the suffix-chain walk ``steinpoly.steinberg._flag_expand_apartment``
used before it read its cut lines off one table of tail minors: every cut
line comes from up to d Bareiss determinants (``_cut_point``) and every
leaf is re-sorted (``_sort_sign``). Tests require the kernel to give
exactly its output. ``_cut_point`` and ``_spanning_cols``, which the
s-map and the coproduct also used before every cut came from one minor
table, are kept here verbatim, so the reference does not share the cut
of the kernel it checks.
"""
from itertools import combinations
from typing import Sequence

from steinpoly.qlinalg import _int_det, int_point
from steinpoly.steinberg import ApKey, FlagRows, Point, _sort_sign


def _spanning_cols(rows: Sequence[Point]) -> tuple[int, ...] | None:
    """First d coordinates on which d independent rows have a nonzero maximal minor.

    The rows' span projects injectively onto those coordinates. None when
    the rows span the whole space.
    """
    d, n = len(rows), len(rows[0])
    if d == n:
        return None
    return next(c for c in combinations(range(n), d) if _int_det([[p[j] for j in c] for p in rows]))


def _cut_point(frows: Sequence[Point], vecs: Sequence[Point], cols: Sequence[int] | None = None) -> Point | None:
    """Canonical point of span(frows) cut with span(vecs), len(frows) + len(vecs) = d + 1.

    Both row sets are independent and lie in a d-dimensional space; cols
    names d coordinates on which that space projects injectively (all of
    them by default). The stacked d+1 rows [f_1..f_i; vecs], read on cols,
    have the signed maximal minors y_r = (-1)^r det(rows without r) in
    their left kernel, so y_0 f_1 + ... + y_{i-1} f_i lies in the cut.
    Returns None unless the cut is a line outside span(f_1..f_{i-1}),
    which holds exactly when y_{i-1} != 0 (all minors vanish when the cut
    is not a line).
    """
    i = len(frows)
    stacked = [*frows, *vecs]
    if cols is not None:
        stacked = [[r[c] for c in cols] for r in stacked]
    last = _int_det(stacked[: i - 1] + stacked[i:])
    if not last:
        return None
    if len(vecs) == 1:  # span(frows) is the whole space
        return int_point(vecs[0])
    ys = [_int_det(stacked[:r] + stacked[r + 1 :]) * (-1) ** r for r in range(i - 1)]
    ys.append(last * (-1) ** (i - 1))
    return int_point([sum(y * f[j] for y, f in zip(ys, frows)) for j in range(len(frows[0]))])


def flag_expand_apartment(key: ApKey, frows: FlagRows) -> tuple[tuple[ApKey, int], ...]:
    """Flag-basis expansion of one apartment, walking suffix chains.

    A permutation tau of the entries contributes the points cut from F_i
    by the span of the suffix S_i = {tau_i, ..., tau_d}, with the sign of
    tau; that sign is the product over the steps of (-1)^(position of
    tau_i in sorted S_i). The cut at step i depends on S_i alone, so it is
    computed once per subset, and a subset whose cut is not a line prunes
    every chain through it. The points of a chain are independent exactly
    when no point lies in the previous flag step, which _cut_point tests,
    so every chain that reaches a leaf contributes.

    The flag may have fewer rows than the ambient space: a rank-k key in
    the span W of k flag rows expands inside W, in the flag basis of W,
    with the minors read on k coordinates onto which W projects
    injectively, and its output keys stay in ambient coordinates.
    """
    d = len(key)
    if not d:  # the empty apartment of Q^0 is its own basis
        return (((), 1),)
    cols = _spanning_cols(frows)
    cuts: dict[tuple[int, ...], Point | None] = {}
    results: dict[ApKey, int] = {}
    lines: list[Point] = []

    def walk(suffix: tuple[int, ...], sign: int) -> None:
        if suffix not in cuts:
            step = d - len(suffix) + 1
            cuts[suffix] = _cut_point(frows[:step], [key[j] for j in suffix], cols)
        line = cuts[suffix]
        if line is None:
            return
        lines.append(line)
        if len(suffix) == 1:
            k2, s2 = _sort_sign(lines)
            results[k2] = results.get(k2, 0) + sign * s2
        else:
            for pos in range(len(suffix)):
                walk(suffix[:pos] + suffix[pos + 1 :], -sign if pos % 2 else sign)
        lines.pop()

    walk(tuple(range(d)), 1)
    return tuple(sorted((k, c) for k, c in results.items() if c))
