"""Reference Fraction elimination and per-row clearing, kept for tests only.

``rref`` is the Gauss-Jordan elimination over ``Fraction`` that the
fraction-free one in ``steinpoly.qlinalg`` replaced; ``inverse``, ``solve``
and ``nullspace`` are the unchanged routines, run on it. Tests require the
kernel to give the same rows, pivots and solutions. Feed it Fraction
entries only: on two ints its division would give a float.

``det`` and ``saturation_index`` clear each row by its own denominators
(``_rows_to_int``) and divide by the product of those scales, where the
kernel clears all rows by one common denominator; tests require both
routes to give the same rational.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from steinpoly.qlinalg import Mat, Vec, _int_det, _minor_gcd, qm

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


def _rows_to_int(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Scale each rational row to integers on its own; return (rows, product of the scales)."""
    scaled = []
    denom = 1
    for row in rows:
        mult = lcm(*(f.denominator for f in row)) if row else 1
        scaled.append([f.numerator * (mult // f.denominator) for f in row])
        denom *= mult
    return scaled, denom


def det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square rational matrix (Bareiss on a per-row scaled copy)."""
    n = len(m)
    if n == 0:
        return ONE
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
    scaled, denom = _rows_to_int(m)
    return Fraction(_int_det(scaled), denom)


def saturation_index(vectors: Sequence[Vec]) -> Fraction:
    """gcd of the k x k minors of k rational rows, each row scaled on its own first."""
    rows = qm(vectors)
    if not rows:
        return ONE
    if len(rows) > len(rows[0]):
        raise ValueError("more vectors than the ambient dimension")
    scaled, denom = _rows_to_int(rows)
    g = _minor_gcd(scaled)
    if g == 0:
        raise ValueError("saturation index of dependent vectors")
    return Fraction(g, denom)
