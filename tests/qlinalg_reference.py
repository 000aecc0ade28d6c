"""Reference Fraction elimination and per-row clearing, kept for tests only.

``rref`` is the Gauss-Jordan elimination over ``Fraction`` that the
fraction-free one in ``steinpoly.qlinalg`` replaced; ``inverse``, ``solve``
and ``nullspace`` are the unchanged routines, run on it. Tests require the
kernel to give the same rows, pivots and solutions. Feed it Fraction
entries only: on two ints its division would give a float. ``dual_basis``
is the Fraction dual basis that ``steinberg._dual_lines`` replaced in the
package, here on this module's ``inverse``.

``det`` and ``saturation_index`` clear each row by its own denominators
(``_rows_to_int``) and divide by the product of those scales, where the
kernel clears all rows by one common denominator; tests require both
routes to give the same rational. ``inverse_per_row`` and
``canonical_point_per_row`` are the kernel's ``inverse`` and
``canonical_point`` as they were before they cleared through ``_cleared``:
each row scaled to integers on its own (``_row_to_int``).

``_int_rank`` is the third fraction-free elimination the package had, a
Bareiss rank beside ``_int_det`` and ``_int_gauss_jordan``; the package
now reads every rank off the pivot count of ``_int_gauss_jordan``, and
tests use this one as the reference rank of integer rows.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from steinpoly.qlinalg import (
    Mat,
    Vec,
    _int_adjugate,
    _int_det,
    _minor_gcd,
    int_point,
    is_zero_vec,
    qm,
    qv,
    transpose,
)

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


def dual_basis(basis: Sequence[Vec]) -> Mat:
    """Rows w^i with <w^i, w_j> = delta_ij for a square basis (w_j)."""
    return inverse(transpose(qm(basis)))


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


def _int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    After r pivots every entry below them is an (r+1)-minor of the input,
    so the division by the previous pivot stays exact when zero columns
    are skipped.
    """
    m = [list(r) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r, prev = 0, 1
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][c]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[i][j] * pivot - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = pivot
        r += 1
        if r == nrows:
            break
    return r


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


def _row_to_int(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """Scale a rational row to integers; return (row, multiplier)."""
    m = lcm(*(f.denominator for f in row)) if row else 1
    return [f.numerator * (m // f.denominator) for f in row], m


def inverse_per_row(m: Mat) -> Mat:
    """Inverse of a square rational matrix; raises ValueError on singular input.

    Row i is scaled to integers by s_i, M' = S m, so m^-1 = M'^-1 S and
    entry (i, j) is adj(M')[i][j] * s_j / det M'.
    """
    rows, scales = zip(*map(_row_to_int, m)) if m else ((), ())
    adj, dd = _int_adjugate(rows)
    if not dd:
        raise ValueError("matrix is singular")
    return tuple(tuple(Fraction(x * s, dd) for x, s in zip(row, scales)) for row in adj)


def canonical_point_per_row(v: Sequence) -> tuple[int, ...]:
    """Projective normal form of a nonzero rational vector, cleared by _row_to_int."""
    w = qv(v)
    if is_zero_vec(w):
        raise ValueError("canonical_point of the zero vector")
    return int_point(_row_to_int(w)[0])
