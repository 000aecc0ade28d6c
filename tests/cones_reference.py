"""Reference evaluation oracle: the Fraction dual-basis route, kept
verbatim from before the integer rewrite so tests can check that the
faster kernel agrees with it value for value.

_dual_data inverts each key with the Fraction dual_basis of
qlinalg_reference; rho_term expands the monomial with Fraction
coefficients and builds a Fraction per factor; the oracles sample
Fraction points.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from qlinalg_reference import dual_basis
from steinpoly.cones import ONE, ZERO, PoleError, _vanishes_at_samples
from steinpoly.qlinalg import Vec, _int_det, qv, split_seed, vec_dot
from steinpoly.st2 import St2
from steinpoly.steinberg import ApKey, St, _acc


def _poly_times_linear(poly: dict, vec: Sequence) -> dict:
    """Product of a monomial dict {exponents: coeff} with the form sum_i vec[i] X_i."""
    out: dict = {}
    for exps, c in poly.items():
        for i, vi in enumerate(vec):
            if vi:
                key = exps[:i] + (exps[i] + 1,) + exps[i + 1 :]
                _acc(out, key, c * vi)
    return out


@lru_cache(maxsize=None)
def _dual_data(key: ApKey) -> tuple[tuple[Vec, ...], Fraction]:
    return dual_basis(key), Fraction(1, _int_det(key))


def rho_term(key: ApKey, exps: Sequence[int], z: Sequence) -> Fraction:
    """Evaluate one apartment times an ambient coordinate monomial.

    The monomial is re-expanded in the apartment basis; a basis monomial
    prod v_i^{k_i} contributes prod k_i! * det over the dual forms at z
    raised to k_i + 1.
    """
    zv = qv(z)
    d = len(key)
    dual, ddet = _dual_data(key)
    pairings = [vec_dot(u, zv) for u in dual]
    if any(p == 0 for p in pairings):
        raise PoleError(f"evaluation point on a pole hyperplane of {key}")
    # coordinates of e_j in the apartment basis are the j-th entries of
    # the dual vectors
    mono_dict: dict = {(0,) * d: ONE}
    for j, m in enumerate(exps):
        for _ in range(m):
            mono_dict = _poly_times_linear(mono_dict, [u[j] for u in dual])
    total = ZERO
    for mono, c in mono_dict.items():
        val = ddet * c
        for i, k in enumerate(mono):
            val *= Fraction(math.factorial(k)) / pairings[i] ** (k + 1)
        total += val
    return total


def rho_st(x: St, z: Sequence) -> Fraction:
    total = ZERO
    zeros = (0,) * x.ambient
    for key, c in x.terms.items():
        total += c * rho_term(key, zeros, z)
    return total


def _draw_point(rng, n: int) -> tuple:
    return tuple(Fraction(rng.randint(1, 10_000)) for _ in range(n))


def st_equality_oracle(x: St, y: St, seed: int = 0, points: int = 5) -> bool:
    if x.ambient != y.ambient:
        return False
    diff = x - y
    if not diff.terms:
        return True
    rng = split_seed(seed, "st-oracle")
    return _vanishes_at_samples(lambda: rho_st(diff, _draw_point(rng, x.ambient)) == 0, points)


def st2_equality_oracle(x: St2, y: St2, seed: int = 0, points: int = 5) -> bool:
    if x.ambient != y.ambient:
        return False
    diff = x - y
    if not diff.terms:
        return True
    rng = split_seed(seed, "st2-oracle")
    zeros = (0,) * x.ambient

    def vanishes() -> bool:
        z = _draw_point(rng, x.ambient)
        zp = _draw_point(rng, x.ambient)
        by_exps: dict = {}
        for (ka, kb, exps), c in diff.terms.items():
            v = c * rho_term(ka, zeros, z) * rho_term(kb, zeros, zp)
            by_exps[exps] = by_exps.get(exps, ZERO) + v
        return not any(by_exps.values())

    return _vanishes_at_samples(vanishes, points)

