"""Reference Fraction elimination, kept for tests only.

``rref`` is the Gauss-Jordan elimination over ``Fraction`` that the
fraction-free one in ``steinpoly.qlinalg`` replaced; ``inverse``, ``solve``
and ``nullspace`` are the unchanged routines, run on it. Tests require the
kernel to give the same rows, pivots and solutions. Feed it Fraction
entries only: on two ints its division would give a float.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from steinpoly.qlinalg import Mat, Vec

ZERO = Fraction(0)
ONE = Fraction(1)


def rref(rows: Sequence[Vec]) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    out = tuple(tuple(row) for row in work[:r])
    return out, tuple(pivots)


def rank(rows: Sequence[Vec]) -> int:
    return len(rref(rows)[0])


def inverse(m: Mat) -> Mat:
    """Inverse of a square rational matrix; raises on singular input."""
    n = len(m)
    aug = [list(m[i]) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    reduced, pivots = rref(tuple(tuple(r) for r in aug))
    if pivots[:n] != tuple(range(n)) or len(reduced) != n:
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def solve(m: Mat, rhs: Vec) -> Vec | None:
    """One solution of m x = rhs (free variables set to 0), or None."""
    nrows = len(m)
    if nrows == 0:
        return () if all(x == 0 for x in rhs) else None
    ncols = len(m[0])
    aug = tuple(tuple(m[i]) + (rhs[i],) for i in range(nrows))
    reduced, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for row, p in zip(reduced, pivots):
        x[p] = row[-1]
    return tuple(x)


def nullspace(m: Mat) -> Mat:
    """Basis of the right kernel of m, one vector per free column."""
    if not m:
        return ()
    ncols = len(m[0])
    reduced, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for row, p in zip(reduced, pivots):
            v[p] = -row[fc]
        basis.append(tuple(v))
    return tuple(basis)
