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

flag_expand rewrites a class in the basis attached to a complete flag.
It walks suffix chains S_1 > S_2 > ... of the apartment's entries depth
first: step i cuts the i-th flag step with the span of S_i, a subset whose
cut is no line prunes every chain through it, and the sign grows by the
position of each dropped entry. Keys, flag rows and cut lines are plain
ints; cut lines come from signed maximal minors (Bareiss determinants), so
the walk does no Fraction arithmetic.

ash_rudolph_reduce rewrites an integral apartment as a sum of unimodular
ones. In rank 2 it splits [a, b] = [a, w] + [w, b] at a pivot w whose child
determinants are at most ceil(sqrt|det|); the admissible pivots form a
rank-2 lattice of index |det|, and the pivot is read off its Lagrange-reduced
basis in O(log |det|) steps instead of a scan of a box of side 2 sqrt|det|.
Higher rank uses residue/coresidue descent in unimodular integer charts.
The whole reduction runs on int keys and int coefficients.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import isqrt, lcm
from operator import mul
from typing import Sequence

from .qlinalg import (
    Flag,
    Mat,
    _int_det,
    _int_rank,
    canonical_point,
    int_point,
    qv,
    rational_point,
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


def _poly_times_linear(poly: dict, vec: Sequence) -> dict:
    """Product of a monomial dict {exponents: coeff} with the form sum_i vec[i] X_i."""
    out: dict = {}
    for exps, c in poly.items():
        for i, vi in enumerate(vec):
            if vi:
                key = exps[:i] + (exps[i] + 1,) + exps[i + 1 :]
                _acc(out, key, c * vi)
    return out


def zero_exps(n: int) -> tuple[int, ...]:
    """The exponent tuple of "no symmetric tail" in ambient dimension n."""
    return (0,) * n


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

    def __iadd__(self, other: "LinComb"):
        if type(other) is not type(self):
            raise TypeError(f"cannot add {type(other).__name__} to {type(self).__name__}")
        if self.ambient != other.ambient:
            raise ValueError("ambient dimensions differ")
        for k, c in other.terms.items():
            _acc(self.terms, k, c)
        return self

    def __isub__(self, other: "LinComb"):
        self += -other
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


def normalize_apartment(vectors: Sequence[Sequence], ambient: int | None = None):
    """Canonical (key, sign) for an apartment, or None when degenerate.

    Vectors of plain ints (apartment keys, flag-walk points) skip the
    conversion to Fraction.
    """
    if not vectors:
        raise ValueError("empty apartment")
    ints = all(type(x) is int for v in vectors for x in v)
    vecs = vectors if ints else [qv(v) for v in vectors]
    n = ambient if ambient is not None else len(vecs[0])
    if any(len(v) != n for v in vecs):
        raise ValueError("mixed vector lengths in apartment")
    if any(not any(v) for v in vecs):
        return None
    points = [int_point(v) if ints else rational_point(v) for v in vecs]
    k = len(points)
    if k > n:
        return None
    if k == n:
        if _int_det(points) == 0:
            return None
    elif _int_rank(points) < k:
        return None
    return _sort_sign(points)


class St(LinComb):
    """Linear combination of apartment classes with rational coefficients."""

    __slots__ = ()

    def add_term(self, key: ApKey, c: Fraction) -> None:
        _acc(self.terms, key, c)


def make_apartment(vectors: Sequence[Sequence], ambient: int | None = None) -> St:
    vecs = list(vectors)
    n = ambient if ambient is not None else len(qv(vecs[0]))
    norm = normalize_apartment(vecs, n)
    out = St.zero(n)
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


FlagRows = tuple[Point, ...]


@lru_cache(maxsize=16)
def _standard_rows(n: int) -> FlagRows:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _flag_rows(flag: Flag, n: int) -> FlagRows:
    """Integer basis f_1..f_k of the flag, with F_i = span(f_1..f_i)."""
    rows: list[Point] = []
    prev = None
    for step in flag.steps:
        if step.ambient != n:
            raise ValueError("flag and apartments live in different ambient spaces")
        row = next(r for r in step.rows if prev is None or not prev.contains(r))
        rows.append(canonical_point(row))
        prev = step
    return tuple(rows)


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


@lru_cache(maxsize=None)
def _flag_expand_apartment(key: ApKey, frows: FlagRows) -> tuple[tuple[ApKey, int], ...]:
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


def _perm_sign(tau: Sequence[int]) -> int:
    sign = 1
    for i in range(len(tau)):
        for j in range(i + 1, len(tau)):
            if tau[i] > tau[j]:
                sign = -sign
    return sign


def flag_expand(x: St, flag: Flag | None = None) -> St:
    """Rewrite x in the basis of apartments adapted to the flag.

    The default flag is the standard coordinate flag. Basis apartments
    are exactly those whose first i entries span the i-th flag step, so
    the expansion is idempotent and a zero test for the module.
    """
    if flag is None:
        frows = _standard_rows(x.ambient)
    elif len(flag) != x.ambient:
        raise ValueError("flag length must match the ambient dimension")
    else:
        frows = _flag_rows(flag, x.ambient)
    den, nums = _numerators(x.terms)
    acc: dict[ApKey, int] = {}
    for key, num in nums.items():
        if len(key) != x.ambient:
            raise ValueError("flag expansion needs full-length apartments")
        for k2, c2 in _flag_expand_apartment(key, frows):
            acc[k2] = acc.get(k2, 0) + num * c2
    return St(x.ambient, {k: Fraction(v, den) for k, v in acc.items() if v})


def is_zero(x: St) -> bool:
    return not flag_expand(x).terms


# ------------------------------------------------------------------ residue


def residue(x: St, p: Sequence) -> St:
    """Boundary component of x at the line through p.

    Keeps only apartments with an entry on the line, removes that entry
    with the sign of its slot, and pushes the rest to the quotient
    Q^n / <p>, written in the unimodular chart of _line_chart(p) (the
    one the Ash-Rudolph descent uses). In Q^1 the one apartment [p] goes
    to the empty apartment of Q^0.
    """
    p_can = canonical_point(qv(p))
    if len(p_can) != x.ambient:
        raise ValueError("point length does not match ambient dimension")
    if x.ambient == 1:
        return St(0, {(): c for c in x.terms.values()})
    return St(x.ambient - 1, _delta_line(x.terms, p_can, _line_chart(p_can)[1], False))


# --------------------------------------------------- Ash-Rudolph style reduction


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
def _line_chart(p: Point) -> tuple[Mat, Mat]:
    """Unimodular U with U e_1 = p, plus T = U^{-1}; lattice-exact chart.

    T is built from the bottom up by 2 x 2 xgcd steps of determinant 1 on
    rows i-1, i, and U by the inverse steps on columns i-1, i in the same
    order, so both are integer matrices and no inverse is solved for.
    """
    n = len(p)
    t_rows = [[int(i == j) for j in range(n)] for i in range(n)]
    u_cols = [[int(i == j) for j in range(n)] for i in range(n)]
    w = list(p)
    for i in range(n - 1, 0, -1):
        a, b = w[i - 1], w[i]
        if b == 0:
            continue
        g, sa, sb = _xgcd(a, b)
        ag, bg = a // g, -b // g
        # rows go by [[sa, sb], [-b/g, a/g]], columns by its inverse [[a/g, -sb], [b/g, sa]]
        ra, rb = t_rows[i - 1], t_rows[i]
        t_rows[i - 1] = [sa * x + sb * y for x, y in zip(ra, rb)]
        t_rows[i] = [bg * x + ag * y for x, y in zip(ra, rb)]
        ca, cb = u_cols[i - 1], u_cols[i]
        u_cols[i - 1] = [ag * x - bg * y for x, y in zip(ca, cb)]
        u_cols[i] = [sa * y - sb * x for x, y in zip(ca, cb)]
        w[i - 1], w[i] = g, 0
    if w[0] == -1:
        t_rows[0] = [-x for x in t_rows[0]]
        u_cols[0] = [-x for x in u_cols[0]]
        w[0] = 1
    assert w[0] == 1 and not any(w[1:])
    return tuple(zip(*u_cols)), tuple(tuple(r) for r in t_rows)


def _chart_coords(t_mat: Mat, v: Point) -> Point:
    """Integer coordinates of v in Z^n / Z p, for T = _line_chart(p)[1]."""
    return tuple(sum(map(mul, row, v)) for row in t_mat[1:])


def ash_rudolph_reduce(vectors: Sequence[Sequence]) -> St:
    """Express an integral apartment as a sum of unimodular apartments.

    The rank-2 case subdivides [a, b] = [a, w] + [w, b] at the pivot of
    _ar_pivot, whose child determinants are at most ceil(sqrt|det|), so the
    recursion is shallow and each node costs O(log |det|); higher rank
    peels boundary components at one line at a time and rebuilds the
    element from unimodular lifts, level by level, in integer charts.
    """
    vecs = [qv(v) for v in vectors]
    for v in vecs:
        for x in v:
            if x.denominator != 1:
                raise ValueError("ash_rudolph_reduce needs integral vectors")
    n = len(vecs[0])
    if len(vecs) != n:
        raise ValueError("apartment must have as many vectors as coordinates")
    start = make_apartment([tuple(int(x) for x in v) for v in vecs], n)
    return _ar_elem(start)


def _ar_elem(x: St) -> St:
    out = St.zero(x.ambient)
    for key, c in x.terms.items():
        for k2, c2 in _ar_apartment(key):
            out.add_term(k2, c * c2)
    return out


@lru_cache(maxsize=None)
def _ar_apartment(key: ApKey) -> tuple[tuple[ApKey, int], ...]:
    """Unimodular reduction of one apartment, with integer coefficients."""
    d = len(key)
    dd = _int_det(key)
    if d == 1 or abs(dd) == 1:
        return ((key, 1),)
    if d == 2:
        terms = _ar_rank2(key, dd)
    else:
        terms = _ar_descent(key)
    return tuple(sorted(terms.items()))


def _add_apartment(out: dict, vectors: Sequence[Point], c: int, ambient: int, reduce: bool) -> None:
    """out += c [vectors], or c times its unimodular reduction when reduce."""
    norm = normalize_apartment(vectors, ambient)
    if norm is None:
        return
    key, sign = norm
    for k2, c2 in _ar_apartment(key) if reduce else ((key, 1),):
        _acc(out, k2, c * sign * c2)


def _lagrange_reduce(u: Point, v: Point) -> tuple[Point, Point]:
    """Gauss-Lagrange reduced basis of u Z + v Z in Z^2: |u| <= |v|, 2|u.v| <= |u|^2."""
    nu, nv = u[0] * u[0] + u[1] * u[1], v[0] * v[0] + v[1] * v[1]
    if nv < nu:
        u, v, nu, nv = v, u, nv, nu
    while True:
        q = (2 * (u[0] * v[0] + u[1] * v[1]) + nu) // (2 * nu)  # nearest to u.v / |u|^2
        v = (v[0] - q * u[0], v[1] - q * u[1])
        nv = v[0] * v[0] + v[1] * v[1]
        if nv >= nu:
            return u, v
        u, v, nu, nv = v, u, nv, nu


def _short_vectors(u: Point, v: Point, bound: int):
    """Every alpha u + beta v of squared length at most bound, u, v reduced.

    For fixed beta the squared length is ((uu alpha + uv beta)^2 + G beta^2) / uu
    with G = uu vv - uv^2, so beta^2 <= bound uu / G and
    |uu alpha + uv beta| <= isqrt(uu bound - G beta^2); both bounds are exact.
    """
    uu, uv, vv = u[0] * u[0] + u[1] * u[1], u[0] * v[0] + u[1] * v[1], v[0] * v[0] + v[1] * v[1]
    gram = uu * vv - uv * uv
    top = isqrt(bound * uu // gram)
    for beta in range(-top, top + 1):
        root = isqrt(uu * bound - gram * beta * beta)
        lo, hi = -((uv * beta + root) // uu), (root - uv * beta) // uu
        for alpha in range(lo, hi + 1):
            yield alpha * u[0] + beta * v[0], alpha * u[1] + beta * v[1]


def _ar_pivot(a: Point, b: Point, dd: int) -> Point:
    """Pivot w = (t a + s b) / dd of the rank-2 step [a, b] = [a, w] + [w, b].

    Among the integral w with 0 < |s|, |t| < |dd| and max(|s|, |t|) at most
    r = ceil(sqrt|dd|), it takes the one minimising
    (max(|s|, |t|), |s| + |t|, w). The child determinants are s and t.
    The admissible (t, s) form the lattice adj[a; b] Z^2 of index |dd|,
    with basis (b_2, -a_2), (-b_1, a_1) (and w is the coefficient vector
    in it). After Lagrange reduction an admissible point among u, v, u + v,
    u - v bounds the sup norm of the minimiser, and only the few lattice
    points in the disc around that sup-norm box are visited, so the step
    costs O(log |dd|) (Ash-Rudolph 1979; Cohen 1993, section 1.3).
    """
    absd = abs(dd)
    r = isqrt(absd)
    if r * r < absd:
        r += 1
    u, v = _lagrange_reduce((b[1], -a[1]), (-b[0], a[0]))

    def norm(p: Point) -> int | None:
        t, s = p
        m = max(abs(t), abs(s))
        return m if t and s and m <= r and m < absd else None

    radius = r
    for p in (u, v, (u[0] + v[0], u[1] + v[1]), (u[0] - v[0], u[1] - v[1])):
        m = norm(p)
        if m is not None:
            radius = min(radius, m)
    best = None
    for t, s in _short_vectors(u, v, 2 * radius * radius):
        m = norm((t, s))
        if m is None or m > radius:
            continue
        w = tuple((t * ai + s * bi) // dd for ai, bi in zip(a, b))
        cand = (m, abs(s) + abs(t), w)
        if best is None or cand < best:
            best = cand
    assert best is not None, "no admissible pivot; determinant box too small"
    return best[2]


def _ar_rank2(key: ApKey, dd: int) -> dict[ApKey, int]:
    a, b = key
    w = _ar_pivot(a, b, dd)
    out: dict[ApKey, int] = {}
    _add_apartment(out, (a, w), 1, 2, True)
    _add_apartment(out, (w, b), 1, 2, True)
    return out


def _ar_descent(key: ApKey) -> dict[ApKey, int]:
    d = len(key)
    # reduced boundary targets of the input, one per line with nonzero height
    targets = {p: _delta_line({key: 1}, p, _line_chart(p)[1], True) for p in key if p[-1] != 0}

    x: dict[ApKey, int] = {}
    processed: set[Point] = set()
    while True:
        live: set[Point] = {p for p in targets if p not in processed}
        for ap in x:
            for pt in ap:
                if pt[-1] != 0 and pt not in processed:
                    live.add(pt)
        if not live:
            break
        k_level = max(abs(p[-1]) for p in live)
        lines = sorted(p for p in live if abs(p[-1]) == k_level)
        for p_line in lines:
            processed.add(p_line)
            u_mat, t_mat = _line_chart(p_line)
            need: dict[ApKey, int] = dict(targets.get(p_line, {}))
            for k2, c2 in _delta_line(x, p_line, t_mat, False).items():
                _acc(need, k2, -c2)
            if not need:
                continue
            step = p_line if p_line[-1] > 0 else tuple(-c for c in p_line)
            for q_ap, c in need.items():
                lifts = []
                for q in q_ap:
                    u0 = [sum(map(mul, row, (0,) + q)) for row in u_mat]
                    shift = u0[-1] // k_level
                    lifts.append(tuple(a - shift * b for a, b in zip(u0, step)))
                _add_apartment(x, (p_line, *lifts), c, d, False)
    return x


def _delta_line(x: dict[ApKey, int], p: Point, t_mat: Mat, reduce: bool) -> dict[ApKey, int]:
    """Residue of x at the line p in the chart T = t_mat, reduced when reduce."""
    out: dict[ApKey, int] = {}
    for ap, c in x.items():
        for slot, pt in enumerate(ap):
            if pt == p:
                rest = [_chart_coords(t_mat, q) for q in ap[:slot] + ap[slot + 1 :]]
                _add_apartment(out, rest, c * (-1) ** slot, len(p) - 1, reduce)
                break
    return out
