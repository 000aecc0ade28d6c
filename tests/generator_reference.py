"""Reference bodies of the L and I generators, kept for tests only.

These build their apartments from the Fraction vectors as given, so
``normalize_apartment`` canonicalises every entry through
``rational_point``. The kernel in ``steinpoly.st2`` clears all the
vectors by one common denominator first and takes the int path; tests
require both to give the same terms.
"""
from fractions import Fraction

from steinpoly.qlinalg import qv, vec_add, vec_sub
from steinpoly.st2 import make_pair


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
    second = [vecs[-1]]
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
