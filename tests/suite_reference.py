"""The St2 bodies of the shuffle and duality suites, kept for tests only.

``suite_shuffle`` and ``suite_duality`` are ``steinpoly.cli._suite_shuffle``
and ``_suite_duality`` as they were before their residuals became int
pairs from one cleared basis: every term is a generator built by
``make_L`` or ``make_I`` (one rank test each), the product of the shuffle
relation goes through ``st2_product``, and the residual is summed as a
``St2``. They are those bodies verbatim, with the package names imported.
Tests require the suites to return the same witnesses.
"""
from itertools import combinations

from steinpoly.cli import _st2_nf_to_json
from steinpoly.qlinalg import _cleared
from steinpoly.st2 import dualize, make_I, make_L, st2_normal_form, st2_product
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
