"""The shuffle, dihedral and duality suites against their St2 bodies.

``suite_reference`` keeps ``cli._suite_shuffle``, ``_suite_dihedral`` and
``_suite_duality`` as they were before their residuals became int pairs
from one cleared basis, with a generator and a rank test per term. On
random bases of dims 2-5, integral and rational, with and without a perturbation, both
must return the same witness: both None, or the same relation and the
same residual rows. A passing case must make no rank test inside the
suite: the one in ``cli._case_basis`` decides every term.
"""
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import suite_reference as ref
from steinpoly import cli, st2, steinberg
from steinpoly.st2 import make_L
from steinpoly.steinberg import _independent, _int_vectors

SUITES = {
    "shuffle": (cli._suite_shuffle, ref.suite_shuffle),
    "dihedral": (cli._suite_dihedral, ref.suite_dihedral),
    "duality": (cli._suite_duality, ref.suite_duality),
}


@st.composite
def bases(draw, n, rational):
    """An n-basis, integral or with a denominator per entry, as cli._case_basis returns it."""
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n))
    if rational:
        dens = st.integers(1, 6)
        basis = [tuple(Fraction(x, draw(dens)) for x in row) for row in rows]
    else:
        basis = [tuple(row) for row in rows]
    assume(_independent(_int_vectors(basis, n)[0], n))
    return basis


@st.composite
def cases(draw):
    n = draw(st.integers(2, 5))
    rational = draw(st.booleans())
    basis = draw(bases(n, rational))
    extra = None
    if draw(st.booleans()):
        c = draw(st.sampled_from([Fraction(-2, 3), Fraction(1), Fraction(5, 7)]))
        extra = c * make_L(draw(bases(n, rational)), n)
    return basis, n, extra


@pytest.mark.parametrize("suite", sorted(SUITES))
@given(cases())
@settings(max_examples=40, deadline=None)
def test_witness_equals_reference(suite, case):
    basis, n, extra = case
    kernel, reference = SUITES[suite]
    assert kernel(basis, n, extra) == reference(basis, n, extra)


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("rational", [False, True])
def test_passing_case_makes_no_rank_test(suite, rational):
    basis = [(1, 0, 2, 0), (0, 1, -1, 1), (1, 1, 0, 2), (2, 0, 1, -1)]
    if rational:
        basis = [tuple(Fraction(x, i + 2) for x in v) for i, v in enumerate(basis)]
    spy = mock.Mock(wraps=steinberg._independent)
    with (
        mock.patch.object(steinberg, "_independent", spy),
        mock.patch.object(st2, "_independent", spy),
        mock.patch.object(cli, "_independent", spy),
    ):
        assert SUITES[suite][0](basis, 4, None) is None
    assert spy.call_count == 0
