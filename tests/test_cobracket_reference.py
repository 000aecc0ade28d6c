"""The ambient cobracket check against its three earlier routes.

``cobracket_reference`` keeps the localised route, which moved every
factor into the echelon basis of its support before fingerprinting it,
and the ambient ``_wedge`` route, which fingerprinted both factors of
every pair and compared two antisymmetric ``Fraction`` dictionaries. Both
project along seeded functionals before the shuffle-span reduction; the
kernel does not project. On random bases and seeds all three must accept
the true cobracket terms, and all three must reject the same terms with
one sign flipped, one term dropped or one term's sides swapped. The kernel reads its terms from ``st2.cobracket_L``,
so the mutated terms are fed to it by patching that name.

The third route, ``factor_matches_coproduct``, is the kernel before its
factors became int apartment pairs: it fingerprints ``St2`` factors
through ``st2._stable_ints``. Its verdict must equal the kernel's on
random bases of dims 2-5, on true and on mutated terms. The kernel
fingerprints each distinct apartment pair once, through
``st2._pair_fingerprint``.
"""
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cobracket_reference as ref
from steinpoly import st2
from steinpoly.qlinalg import qv, rank


@st.composite
def bases(draw, dims=(2, 4)):
    d = draw(st.integers(*dims))
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


def kernel_verdict(vecs, terms):
    with mock.patch.object(st2, "cobracket_L", return_value=terms):
        return st2.cobracket_matches_coproduct(vecs)


@given(bases(), st.integers(0, 7))
@settings(max_examples=20, deadline=None)
def test_both_routes_accept_the_cobracket(vecs, seed):
    terms = st2.cobracket_L(vecs)
    assert ref.cobracket_matches_coproduct(vecs, terms, seed=seed)
    assert ref.wedge_matches_coproduct(vecs, terms, seed=seed)
    assert st2.cobracket_matches_coproduct(vecs)


@given(bases(), st.integers(0, 7), st.sampled_from(["sign", "drop", "swap"]), st.data())
@settings(max_examples=30, deadline=None)
def test_both_routes_reject_mutated_terms(vecs, seed, kind, data):
    terms = st2.cobracket_L(vecs)
    bad = mutate(terms, kind, data.draw(st.integers(0, len(terms) - 1)))
    assert not ref.cobracket_matches_coproduct(vecs, bad, seed=seed)
    assert not ref.wedge_matches_coproduct(vecs, bad, seed=seed)
    assert not kernel_verdict(vecs, bad)


@given(bases(dims=(2, 5)), st.sampled_from(["none", "sign", "drop", "swap"]), st.data())
@settings(max_examples=40, deadline=None)
def test_kernel_verdict_equals_the_factor_route(vecs, kind, data):
    terms = st2.cobracket_L(vecs)
    if kind != "none":
        terms = mutate(terms, kind, data.draw(st.integers(0, len(terms) - 1)))
    want = ref.factor_matches_coproduct(vecs, terms)
    assert want == (kind == "none")
    assert kernel_verdict(vecs, terms) == want


def factor_pairs(vecs):
    """The apartment pair of every factor the kernel fingerprints, with repeats."""
    n = len(vecs)
    factors = [st2.make_L(side, n) for _c, a, b in st2.cobracket_L(vecs) for side in (a, b)]
    for i, j, left, right in st2.st2_coproduct(st2.make_L(vecs, n)):
        if i and j:
            factors += [left, right]
    return [(key_a, key_b) for x in factors for key_a, key_b, _exps in x.terms]


@pytest.mark.parametrize("vecs", [
    [(1, 0), (1, 2)],
    [(1, 0, 2), (0, 1, -1), (1, 1, 2)],
    [(2, 1, 0, 0), (0, 1, -1, 1), (1, 0, 1, 0), (0, 0, 1, 3)],
])
def test_each_distinct_factor_is_fingerprinted_once(vecs):
    pairs = factor_pairs(vecs)
    with mock.patch.object(st2, "_pair_fingerprint", wraps=st2._pair_fingerprint) as spy:
        assert st2.cobracket_matches_coproduct(vecs)
    seen = [call.args[:2] for call in spy.call_args_list]
    assert len(seen) == len(set(seen)) and set(seen) == set(pairs)
    if len(vecs) > 2:
        # factors repeat across the cyclic terms and the splits
        assert len(pairs) > len(seen)
