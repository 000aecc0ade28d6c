"""The ambient cobracket check against the localised reference.

``cobracket_reference`` keeps the route that moved every factor into the
echelon basis of its support before fingerprinting it. On random bases
both routes must accept the true cobracket terms, and both must reject
the same terms with one sign flipped, one term dropped or one term's
sides swapped. The kernel reads its terms from ``st2.cobracket_L``, so
the mutated terms are fed to it by patching that name; they then go
through ``st2._wedge`` like the true ones.
"""
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cobracket_reference as ref
from steinpoly import st2
from steinpoly.qlinalg import qv, rank


@st.composite
def bases(draw):
    d = draw(st.integers(2, 4))
    entries = st.integers(-3, 3)
    vecs = draw(st.lists(st.tuples(*[entries] * d), min_size=d, max_size=d))
    assume(rank(tuple(qv(v) for v in vecs)) == d)
    return vecs


def mutate(terms, kind, i):
    c, left, right = terms[i]
    if kind == "sign":
        return terms[:i] + [(-c, left, right)] + terms[i + 1 :]
    if kind == "drop":
        return terms[:i] + terms[i + 1 :]
    return terms[:i] + [(c, right, left)] + terms[i + 1 :]


def kernel_verdict(vecs, terms, seed):
    with mock.patch.object(st2, "cobracket_L", return_value=terms):
        return st2.cobracket_matches_coproduct(vecs, seed=seed)


@given(bases(), st.integers(0, 7))
@settings(max_examples=20, deadline=None)
def test_both_routes_accept_the_cobracket(vecs, seed):
    terms = st2.cobracket_L(vecs)
    assert ref.cobracket_matches_coproduct(vecs, terms, seed=seed)
    assert st2.cobracket_matches_coproduct(vecs, seed=seed)


@given(bases(), st.integers(0, 7), st.sampled_from(["sign", "drop", "swap"]), st.data())
@settings(max_examples=30, deadline=None)
def test_both_routes_reject_mutated_terms(vecs, seed, kind, data):
    terms = st2.cobracket_L(vecs)
    bad = mutate(terms, kind, data.draw(st.integers(0, len(terms) - 1)))
    assert not ref.cobracket_matches_coproduct(vecs, bad, seed=seed)
    assert not kernel_verdict(vecs, bad, seed)
