"""The determinant flag walk, kept for tests only.

This is the suffix-chain walk ``steinpoly.steinberg._flag_expand_apartment``
used before it read its cut lines off one table of tail minors: every cut
line comes from up to d Bareiss determinants (``_cut_point``) and every
leaf is re-sorted (``_sort_sign``). Tests require the kernel to give
exactly its output.
"""
from steinpoly.steinberg import ApKey, FlagRows, Point, _cut_point, _sort_sign, _spanning_cols


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
