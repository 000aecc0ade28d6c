"""The St2 bodies of the shuffle, dihedral and duality suites, kept for tests only.

``suite_shuffle``, ``suite_dihedral`` and ``suite_duality`` are
``steinpoly.cli._suite_shuffle``, ``_suite_dihedral`` and
``_suite_duality`` as they were before their residuals became int pairs
from one cleared basis: every term is a generator built by ``make_L`` or
``make_I`` (one rank test each), the product of the shuffle relation goes
through ``st2_product``, and the residual is summed as a ``St2``. They are those bodies verbatim, with the package names
imported. Tests require the suites to return the same witnesses.
"""
from fractions import Fraction
from itertools import combinations

from steinpoly.barcplx import Bar
from steinpoly.cli import _bar_to_json, _st2_nf_to_json
from steinpoly.qlinalg import _cleared
from steinpoly.st2 import _stable_ints, dualize, make_I, make_L, st2_normal_form, st2_product
from steinpoly.steinberg import _dual_lines


def suite_shuffle(vecs, n, extra):
    for d1 in range(1, n):
        for make in (make_L, make_I):
            # lhs minus every shuffle, subtracted in place
            residual = st2_product(make(vecs[:d1], n), make(vecs[d1:], n))
            for pos in combinations(range(n), d1):
                arranged = [None] * n
                rest = [i for i in range(n) if i not in pos]
                for k, p in enumerate(pos):
                    arranged[p] = vecs[k]
                for k, p in enumerate(rest):
                    arranged[p] = vecs[d1 + k]
                residual -= make(arranged, n)
            if extra is not None:
                residual += extra
            nf = st2_normal_form(residual, 8)
            if nf:
                return {
                    "relation": f"{make.__name__} split {d1}",
                    "residual": _st2_nf_to_json(nf),
                }
    return None


def suite_dihedral(vecs, n, extra):
    total = tuple(sum(v[i] for v in vecs) for i in range(n))
    v0 = tuple(-e for e in total)
    L = make_L(vecs, n)
    I = make_I(vecs, n)
    checks = [
        ("rotation", L - make_L(vecs[1:] + [v0], n)),
        ("negation", L - make_L([tuple(-e for e in v) for v in vecs], n)),
        ("L reversal", L - make_L(list(reversed(vecs)), n, c=(-1) ** (n + 1))),
        ("I reversal", I - make_I(list(reversed(vecs)), n, c=(-1) ** (n + 1))),
    ]
    # the stable class is linear in the terms, so one memo reduces each
    # generator's words once across the checks and keeps a generator only
    # while a later check uses it; a residual with no terms (negation, with
    # canonical keys) is decided before any reduction
    memo: dict = {}
    for i, (name, residual) in enumerate(checks):
        if extra is not None:
            residual = residual + extra
        den, block = _stable_ints(residual, 1, memo)
        if block:
            least = sorted(block.items())[:8]
            return {"relation": name, "residual": _bar_to_json(Bar(n, {k: Fraction(v, den) for k, v in least}))}
        for term in memo.keys() - {t for _name, later in checks[i + 1 :] for t in later.terms}:
            del memo[term]
    return None


def suite_duality(vecs, n, extra):
    L = make_L(vecs, n)
    dual_L = dualize(L)
    # one common denominator, so the dual lines share one scale and their
    # differences in I are those of the dual basis
    dual, _ = _dual_lines(_cleared(vecs)[0])
    checks = [
        ("L to I", dual_L - make_I(dual[::-1], n, c=(-1) ** n)),
        ("involution", dualize(dual_L) - L),
    ]
    for name, residual in checks:
        if extra is not None:
            residual = residual + extra
        nf = st2_normal_form(residual, 8)
        if nf:
            return {"relation": name, "residual": _st2_nf_to_json(nf)}
    return None
