"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction, matrices are tuples of row vectors.
Everything here is exact, no floats. Every elimination is fraction-free:
the rows are cleared to integers once, by the lcm of all their
denominators (_cleared, the package's one clearing of a family of rows),
and reduced by Bareiss steps with exact division, and Fraction appears
only in the output. There are two eliminations: _int_det for a
determinant, and _int_gauss_jordan for everything else, whose pivot
count is every rank (rank, and steinberg._independent for fewer vectors
than coordinates). Subspaces are kept in reduced row echelon form so
that equality of subspaces is equality of the stored rows, and
downstream modules can use them as dict keys.
"""
from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def qv(entries: Iterable) -> Vec:
    """Coerce an iterable of numbers or 'p/q' strings to a rational vector."""
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def qm(rows: Iterable[Iterable]) -> Mat:
    return tuple(qv(r) for r in rows)


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), start=ZERO)


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(vec_dot(row, col) for col in bt) for row in a)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m, strict=True)) if m else ()


def _cleared(rows: Sequence[Sequence[Fraction]]) -> tuple[list[tuple[int, ...]], int]:
    """The rows times the lcm of all their denominators, as int tuples, and that lcm.

    The one way rational rows become integer ones: a common scale keeps
    every line spanned by sums and differences of the rows, so the
    generators of st2 build their apartment keys from the cleared rows,
    the adjugate of a cleared basis holds its dual basis at one common
    scale, and every minor is the rational one times a power of the lcm.
    """
    den = lcm(*(x.denominator for row in rows for x in row))
    return [tuple(x.numerator * (den // x.denominator) for x in row) for row in rows], den


def _int_det(rows: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division is the Bareiss invariant
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square rational matrix (Bareiss on a scaled copy)."""
    n = len(m)
    if n == 0:
        return ONE
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
    scaled, den = _cleared(m)
    return Fraction(_int_det(scaled), den**n)


def _int_gauss_jordan(work: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan on integer rows, in place.

    Each pivot eliminates its column above and below with a division by the
    previous pivot that is exact. After k pivots every entry is a minor of
    the input (of order k or k + 1) and every pivot entry equals the last
    pivot, so the first len(pivots) rows end as that pivot times the RREF.
    Returns (pivot columns, last pivot, sign of the row permutation); for a
    nonsingular square block the last pivot is that sign times its
    determinant.
    """
    nrows, ncols = len(work), len(work[0])
    pivots: list[int] = []
    r, prev, sign = 0, 1, 1
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if work[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            sign = -sign
        top = work[r]
        pv = top[c]
        for i, row in enumerate(work):
            if i == r:
                continue
            f = row[c]
            if f:
                work[i] = [(x * pv - f * y) // prev for x, y in zip(row, top)]
            elif pv != prev:
                work[i] = [x * pv // prev for x in row]
        pivots.append(c)
        prev = pv
        r += 1
        if r == nrows:
            break
    return pivots, prev, sign


def _int_adjugate(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Adjugate and determinant of a square integer matrix; ([], 0) if singular.

    Gauss-Jordan on [M | I] ends at [p I | p M^-1] with p = sign * det M,
    so the adjugate det M * M^-1 is the right block times the sign.
    Raises ValueError on a non-square matrix.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    if not n:
        return [], 1
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    pivots, prev, sign = _int_gauss_jordan(work)
    if pivots[n - 1 : n] != [n - 1]:
        return [], 0
    return [[sign * x for x in row[n:]] for row in work], sign * prev


def rref(rows: Sequence[Vec]) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    The rows are cleared to integers and reduced by _int_gauss_jordan; one
    division per entry by the last pivot at the end gives the RREF, which
    is unique.
    """
    work, _ = _cleared(rows)
    if not work:
        return (), ()
    pivots, prev, _ = _int_gauss_jordan(work)
    out = tuple(tuple(Fraction(x, prev) for x in row) for row in work[: len(pivots)])
    return out, tuple(pivots)


def rank(rows: Sequence[Vec]) -> int:
    return len(rref(rows)[1])


def inverse(m: Mat) -> Mat:
    """Inverse of a square rational matrix; raises ValueError on singular input.

    The rows are cleared once (_cleared), M' = s m for the common scale s,
    so m^-1 = s M'^-1 and entry (i, j) is adj(M')[i][j] * s / det M'.
    """
    rows, scale = _cleared(m)
    adj, dd = _int_adjugate(rows)
    if not dd:
        raise ValueError("matrix is singular")
    return tuple(tuple(Fraction(x * scale, dd) for x in row) for row in adj)


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


def canonical_point(v: Sequence) -> tuple[int, ...]:
    """Projective normal form of a nonzero rational vector.

    Clears denominators, divides by the content, and flips the sign so
    the first nonzero entry is positive. The result is the canonical
    integer representative of the line through v.
    """
    w = qv(v)
    if is_zero_vec(w):
        raise ValueError("canonical_point of the zero vector")
    return int_point(_cleared([w])[0][0])


def int_point(v: Sequence[int]) -> tuple[int, ...]:
    """canonical_point of a nonzero integer vector, without Fractions."""
    g = gcd(*v)
    for x in v:
        if x:
            if x < 0:
                g = -g
            break
    return tuple(v) if g == 1 else tuple([x // g for x in v])


def _minor_gcd(rows: Sequence[Sequence[int]]) -> int:
    """gcd of the k x k minors of k integer rows; 0 exactly when they are dependent."""
    k = len(rows)
    g = 0
    for cols in combinations(range(len(rows[0])), k):
        g = gcd(g, _int_det([[row[c] for c in cols] for row in rows]))
        if g == 1:
            break
    return g


class Subspace:
    """A linear subspace of Q^n, stored as RREF rows (canonical)."""

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient: int, rows: Mat):
        self.ambient = ambient
        self.rows = rows

    @classmethod
    def span(cls, vectors: Sequence[Sequence], ambient: int | None = None) -> "Subspace":
        vecs = qm(vectors)
        if ambient is None:
            if not vecs:
                raise ValueError("cannot infer ambient dimension of an empty span")
            ambient = len(vecs[0])
        for v in vecs:
            if len(v) != ambient:
                raise ValueError("vector length does not match ambient dimension")
        rows, _ = rref(vecs)
        return cls(ambient, rows)

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, ())

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        """Pivot column of each RREF row: a 1 in that row, a 0 in the others."""
        return tuple(next(i for i, x in enumerate(row) if x) for row in self.rows)

    def contains(self, v: Sequence) -> bool:
        w = qv(v)
        return self.from_local(tuple(w[p] for p in self.pivots)) == w

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")
        if not self.rows or not other.rows:
            return Subspace.zero(self.ambient)
        # kernel of [A^T | -B^T] gives the common combinations
        a, b = self.rows, other.rows
        stacked = tuple(
            tuple(a[i][c] for i in range(len(a))) + tuple(-b[j][c] for j in range(len(b)))
            for c in range(self.ambient)
        )
        combos = nullspace(stacked)
        vecs = []
        for combo in combos:
            v = [ZERO] * self.ambient
            for coef, row in zip(combo[: len(a)], a):
                v = [x + coef * y for x, y in zip(v, row)]
            vecs.append(tuple(v))
        return Subspace.span(vecs, self.ambient) if vecs else Subspace.zero(self.ambient)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")
        return Subspace.span(self.rows + other.rows, self.ambient)

    def from_local(self, coeffs: Sequence) -> Vec:
        cs = qv(coeffs)
        if len(cs) != self.dim:
            raise ValueError("wrong number of coordinates")
        v = [ZERO] * self.ambient
        for c, row in zip(cs, self.rows):
            v = [x + c * y for x, y in zip(v, row)]
        return tuple(v)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.rows))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def frac_to_str(f: Fraction) -> str:
    f = Fraction(f)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def frac_from_str(s) -> Fraction:
    """A rational JSON value, by the one rule every input file follows.

    An int is taken as is, a float by its decimal text (0.5 is 1/2) and a
    string as a rational or a decimal. true and false (ints to
    isinstance), NaN, +-Infinity, a zero denominator and any other value
    raise ValueError.
    """
    if isinstance(s, Fraction) or type(s) is int:
        return Fraction(s)
    if type(s) is not float and not isinstance(s, str):
        raise ValueError(f"cannot parse rational from {s!r}")
    try:
        return Fraction(str(s))
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {s!r}") from exc


def positive_int_from_json(value, what: str) -> int:
    """A positive integer read through its exact rational, so 3.9, true and "3/2" are refused."""
    try:
        f = Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        f = None
    if f is None or f.denominator != 1 or f < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return int(f)


def vec_to_json(v: Sequence[Fraction]) -> list[str]:
    return [frac_to_str(x) for x in v]


def split_seed(seed: int, label: str) -> random.Random:
    """Deterministic child RNG for (seed, label); stable across runs."""
    h = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    return random.Random(int.from_bytes(h, "big"))
