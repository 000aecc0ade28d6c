"""Reference bodies of the apartment pair, the L and I generators and duality, kept for tests only.

These build their apartments from the Fraction vectors as given: each
apartment goes through ``normalize_apartment`` on its own, with its own
clearing and its own degeneracy test (``test_flag_reference`` holds that
to a per-entry ``canonical_point`` and a Fraction determinant).
The kernels in ``steinpoly.st2`` take int vectors as they come (clearing
rationals by one common denominator), decide the degeneracy of L and I by
one rank test of the input, and read dual lines off an int adjugate;
tests require both to give the same terms.

``make_corr_colon`` and ``coxeter_to_basis`` have no consumer in the
package; they live here with the tests that use them.
"""
from fractions import Fraction
from typing import Sequence

from qlinalg_reference import dual_basis
from steinpoly.qlinalg import Vec, canonical_point, qv, rank, solve, vec_add, vec_sub
from steinpoly.st2 import St2
from steinpoly.steinberg import normalize_apartment


def make_pair(vecs_a, vecs_b, ambient=None, c=1, exps=None):
    """Pair of two apartments, each normalised on its own by normalize_apartment."""
    na = normalize_apartment(vecs_a, ambient)
    n = ambient if ambient is not None else len(vecs_a[0])
    out = St2.zero(n)
    nb = normalize_apartment(vecs_b, n) if na is not None else None
    if nb is None:
        return out
    out.add_term(na[0], nb[0], Fraction(c) * na[1] * nb[1], exps)
    return out


def make_L(vectors, ambient=None, c=1, exps=None):
    """Pair of the reversed-suffix-sum apartment against the reversed one."""
    vecs = [qv(v) for v in vectors]
    n = ambient if ambient is not None else len(vecs[0])
    sums = []
    acc = None
    for v in reversed(vecs):
        acc = v if acc is None else vec_add(acc, v)
        sums.append(acc)
    return make_pair(sums, list(reversed(vecs)), n, c=c, exps=exps)


def make_I(vectors, ambient=None, c=1, exps=None):
    """Companion generator: reversed tuple against consecutive differences."""
    vecs = [qv(v) for v in vectors]
    n = ambient if ambient is not None else len(vecs[0])
    d = len(vecs)
    second = vecs[-1:]
    for j in range(d - 2, -1, -1):
        second.append(vec_sub(vecs[j], vecs[j + 1]))
    sign = (-1) ** d
    return make_pair(list(reversed(vecs)), second, n, c=Fraction(c) * sign, exps=exps)


def make_corr(vectors, ambient=None, c=1):
    """Correlator on d+1 vectors summing to zero; equals make_L of the tail."""
    vecs = [qv(v) for v in vectors]
    n = ambient if ambient is not None else len(vecs[0])
    total = vecs[0]
    for v in vecs[1:]:
        total = vec_add(total, v)
    if any(x != 0 for x in total):
        raise ValueError("correlator vectors must sum to zero")
    return make_L(vecs[1:], n, c=c)


def dualize(x: St2) -> St2:
    """Swap the tensor factors and replace each apartment by its dual basis."""
    out = St2.zero(x.ambient)
    for (key_a, key_b, exps), c in x.terms.items():
        if len(key_a) != x.ambient:
            raise ValueError("duality needs full-rank terms")
        out += make_pair(dual_basis(key_b), dual_basis(key_a), x.ambient, c, exps)
    return out


def make_corr_colon(points: Sequence, ambient: int | None = None, c=1) -> St2:
    """Correlator in homogeneous arguments [u_0 : ... : u_d]."""
    pts = [qv(p) for p in points]
    if not pts:
        raise ValueError("empty apartment")
    d = len(pts) - 1
    diffs = [vec_sub(pts[i], pts[(i + 1) % (d + 1)]) for i in range(d + 1)]
    if rank(diffs[1:]) != d:
        raise ValueError("points are not affinely independent")
    return make_L(diffs[1:], ambient, c=c)


def coxeter_to_basis(p_points: Sequence, q_points: Sequence) -> tuple[Vec, ...]:
    """Recover the parameterizing basis of a generic incident pair of flags.

    Given line representatives p_i, q_i with p_1 parallel to q_1 and
    q_i in the span of p_{i-1} and p_i, returns v_1..v_d with
    v_1 + ... + v_i on p_i and v_i on q_i. Raises with a diagnosis of
    the first failing incidence or genericity condition.
    """
    ps = [qv(p) for p in p_points]
    qs = [qv(q) for q in q_points]
    d = len(ps)
    n = len(ps[0])
    if canonical_point(ps[0]) != canonical_point(qs[0]):
        raise ValueError("first entries must span the same line")
    vs: list[Vec] = [qv(canonical_point(qs[0]))]
    partial = vs[0]
    for i in range(1, d):
        if canonical_point(ps[i]) == canonical_point(qs[i]):
            raise ValueError(f"pair is non-generic at slot {i + 1}: equal lines")
        # partial + alpha q_i = beta p_i
        cols = tuple((qs[i][r], -ps[i][r]) for r in range(n))
        rhs = tuple(-partial[r] for r in range(n))
        sol = solve(cols, rhs)
        if sol is None:
            raise ValueError(
                f"slot {i + 1} line of the second flag is outside the span of "
                f"the neighboring first-flag lines"
            )
        alpha, beta = sol
        if alpha == 0:
            raise ValueError(f"degenerate incidence at slot {i + 1}: zero component")
        v = tuple(alpha * x for x in qs[i])
        vs.append(v)
        partial = vec_add(partial, v)
        if all(x == 0 for x in partial):
            raise ValueError(f"partial sums collapse at slot {i + 1}")
    if normalize_apartment(vs, n) is None:
        raise ValueError("recovered vectors are dependent")
    return tuple(vs)
