"""Reference lattice kernels: the Ash-Rudolph reduction by box search in
rank 2 and by line-by-line descent above, and the Fraction truncated
Fourier sum, kept verbatim from before the integer rewrite so tests can
check that the faster kernels agree with them (bit for bit, and as classes
where the reduction above rank 2 picks other terms).

The box search visits every (s, t) with max(|s|, |t|) <= ceil(sqrt|det|),
so it costs O(|det|) per node; the Fourier sum builds Fraction dot products
at every lattice point.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Sequence

from steinpoly.cones import ONE, ZERO, PoleError
from steinpoly.qlinalg import Mat, Vec, det, inverse, qv, vec_dot
from steinpoly.steinberg import ApKey, Point, St, _acc, _xgcd, make_apartment

# --------------------------------------------------- Ash-Rudolph style reduction


@lru_cache(maxsize=None)
def _line_chart(p: Point) -> tuple[Mat, Mat]:
    """Unimodular U with U e_1 = p, plus T = U^{-1}; lattice-exact chart."""
    n = len(p)
    t_rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    w = [Fraction(x) for x in p]
    for i in range(n - 1, 0, -1):
        a, b = int(w[i - 1]), int(w[i])
        if b == 0:
            continue
        g, sa, sb = _xgcd(a, b)
        row_a, row_b = t_rows[i - 1], t_rows[i]
        new_a = [sa * x + sb * y for x, y in zip(row_a, row_b)]
        new_b = [
            Fraction(-b // g) * x + Fraction(a // g) * y for x, y in zip(row_a, row_b)
        ]
        t_rows[i - 1], t_rows[i] = new_a, new_b
        w[i - 1], w[i] = Fraction(g), Fraction(0)
    if w[0] == -1:
        t_rows[0] = [-x for x in t_rows[0]]
        w[0] = Fraction(1)
    assert w[0] == 1 and all(x == 0 for x in w[1:])
    t_mat = tuple(tuple(r) for r in t_rows)
    u_mat = inverse(t_mat)
    return u_mat, t_mat


def _chart_coords(t_mat: Mat, v: Point) -> tuple[Fraction, Vec]:
    img = tuple(
        sum((row[i] * v[i] for i in range(len(v))), start=ZERO) for row in t_mat
    )
    return img[0], img[1:]


def ash_rudolph_reduce(vectors: Sequence[Sequence]) -> St:
    """Express an integral apartment as a sum of unimodular apartments.

    The rank-2 case runs a continued-fraction style subdivision with a
    deterministic pivot (minimal child determinants, lexicographic tie
    break); higher rank peels boundary components at one line at a time
    and rebuilds the element from unimodular lifts, level by level.
    """
    vecs = [qv(v) for v in vectors]
    for v in vecs:
        for x in v:
            if x.denominator != 1:
                raise ValueError("ash_rudolph_reduce needs integral vectors")
    n = len(vecs[0])
    if len(vecs) != n:
        raise ValueError("apartment must have as many vectors as coordinates")
    start = make_apartment(vecs, n)
    return _ar_elem(start)


def _ar_elem(x: St) -> St:
    out = St.zero(x.ambient)
    for key, c in x.terms.items():
        for k2, c2 in _ar_apartment(key):
            out.add_term(k2, c * c2)
    return out


@lru_cache(maxsize=None)
def _ar_apartment(key: ApKey) -> tuple[tuple[ApKey, Fraction], ...]:
    d = len(key)
    mat = tuple(qv(p) for p in key)
    dd = int(det(mat))
    if d == 1 or abs(dd) == 1:
        return ((key, Fraction(1)),)
    if d == 2:
        terms = _ar_rank2(key, dd)
    else:
        terms = _ar_descent(key)
    return tuple(sorted(terms.items()))


def box_pivot(a: Point, b: Point, dd: int) -> Point:
    """The pivot of _ar_rank2, by scanning every (s, t) in the box."""
    absd = abs(dd)
    r = isqrt(absd)
    if r * r < absd:
        r += 1
    best = None
    for s in range(-r, r + 1):
        if s == 0 or abs(s) >= absd:
            continue
        for t in range(-r, r + 1):
            if t == 0 or abs(t) >= absd:
                continue
            num = tuple(t * ai + s * bi for ai, bi in zip(a, b))
            if any(x % dd for x in num):
                continue
            w = tuple(x // dd for x in num)
            cand = (max(abs(s), abs(t)), abs(s) + abs(t), w)
            if best is None or cand < best:
                best = cand
    assert best is not None, "no admissible pivot; determinant box too small"
    return best[2]


def _ar_rank2(key: ApKey, dd: int) -> dict[ApKey, Fraction]:
    a, b = key
    w = box_pivot(a, b, dd)
    out: dict[ApKey, Fraction] = {}
    for child in (make_apartment((a, w)), make_apartment((w, b))):
        for ckey, cc in child.terms.items():
            for k2, c2 in _ar_apartment(ckey):
                _acc(out, k2, cc * c2)
    return out


def _ar_descent(key: ApKey) -> dict[ApKey, Fraction]:
    d = len(key)

    # boundary targets of the input, one per line with nonzero height
    targets: dict[Point, dict[ApKey, Fraction]] = {}
    for slot, p in enumerate(key):
        if p[-1] == 0:
            continue
        _, t_mat = _line_chart(p)
        rest = []
        for q in key[:slot] + key[slot + 1 :]:
            _, qc = _chart_coords(t_mat, q)
            rest.append(qc)
        piece = make_apartment(rest, d - 1)
        reduced = _ar_elem(piece)
        bucket = targets.setdefault(p, {})
        for k2, c2 in reduced.terms.items():
            _acc(bucket, k2, Fraction((-1) ** slot) * c2)

    x: dict[ApKey, Fraction] = {}
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
            need: dict[ApKey, Fraction] = dict(targets.get(p_line, {}))
            for k2, c2 in _delta_line(x, p_line, t_mat).items():
                _acc(need, k2, -c2)
            if not need:
                continue
            step = p_line if p_line[-1] > 0 else tuple(-c for c in p_line)
            for q_ap, c in need.items():
                lifts = []
                for q in q_ap:
                    u0 = tuple(
                        int(sum(u_mat[r][i] * Fraction(qi) for i, qi in enumerate((0,) + q)))
                        for r in range(d)
                    )
                    shift = u0[-1] // k_level
                    lifts.append(tuple(a - shift * b for a, b in zip(u0, step)))
                piece = make_apartment((p_line,) + tuple(lifts), d)
                for k3, c3 in piece.terms.items():
                    _acc(x, k3, c * c3)
    return x


def _delta_line(x: dict[ApKey, Fraction], p: Point, t_mat: Mat) -> dict[ApKey, Fraction]:
    out: dict[ApKey, Fraction] = {}
    for ap, c in x.items():
        for slot, pt in enumerate(ap):
            if pt == p:
                rest = []
                for q in ap[:slot] + ap[slot + 1 :]:
                    _, qc = _chart_coords(t_mat, q)
                    rest.append(qc)
                piece = make_apartment(rest, len(p) - 1)
                for k2, c2 in piece.terms.items():
                    _acc(out, k2, c * c2 * (-1) ** slot)
                break
    return out


# ------------------------------------------------------------ lattice side


def truncated_fourier_sum(
    generators: Sequence, forms: Sequence, ns: Sequence[int], x: Sequence, m_max: int
) -> complex:
    """Partial exponential sum over the open cone's lattice points.

    Runs the generator multiples over 1..m_max each; the phase at nu is
    exp(2 pi i <x, nu>) with <x, nu> reduced mod 1 exactly first.
    """
    gens = [qv(g) for g in generators]
    xv = qv(x)
    d = len(gens)
    total = 0j
    from itertools import product as iproduct

    for lam in iproduct(range(1, m_max + 1), repeat=d):
        nu = tuple(
            sum(lam[j] * gens[j][r] for j in range(d)) for r in range(len(xv))
        )
        coeff = ONE
        try:
            for u, m in zip(forms, ns, strict=True):
                coeff *= vec_dot(qv(u), nu) ** (-m)
        except ZeroDivisionError:
            raise PoleError(f"lattice point {nu} pairs to zero with a form") from None
        phase = vec_dot(xv, nu)
        frac = phase - math.floor(phase)
        total += float(coeff) * cmath.exp(2j * math.pi * float(frac))
    return total
