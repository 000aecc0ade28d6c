"""The Ash-Rudolph pivot table as a certificate of the reduction.

ash_rudolph_reduce records the pivot of every non-unimodular key it
visits. replay_ash_rudolph rewrites the apartment by the boundary
relations of that table alone, and `verify ashrudolph` decides on the
replay, with the exact flag test on the terms where replay and reduction
differ. Verdicts are checked against the flag test on the whole
difference; a corrupted table or a wrong reduction must not pass.
"""
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steinpoly import steinberg
from steinpoly.cli import _suite_ashrudolph
from steinpoly.qlinalg import _int_det
from steinpoly.steinberg import (
    CertificateError,
    St,
    ash_rudolph_reduce,
    is_zero,
    make_apartment,
    normalize_apartment,
    replay_ash_rudolph,
)

# |det| 30 with primitive rows; its table has six steps over three levels
BASIS = [(3, 1, 2), (1, -2, 1), (2, 1, -3)]


@pytest.fixture
def fresh_caches():
    steinberg._ar_step.cache_clear()
    steinberg._ar_apartment.cache_clear()
    yield
    steinberg._ar_step.cache_clear()
    steinberg._ar_apartment.cache_clear()


def reduced(basis):
    pivots: dict = {}
    red = ash_rudolph_reduce(basis, pivots)
    return red, pivots


def fails(x, pivots, red) -> bool:
    try:
        return replay_ash_rudolph(x, pivots) != red
    except CertificateError:
        return True


@pytest.mark.parametrize("basis", [
    [(1, 0), (1, 2)],
    [(7, 3), (-2, 11)],
    BASIS,
    [(2, 1, 0, 1), (0, 3, 1, -1), (1, 0, 2, 2), (-1, 1, 1, 3)],
    [(2, 1, 0, 1, 0), (0, 3, 1, -1, 1), (1, 0, 2, 2, -1), (-1, 1, 1, 3, 0), (1, 1, 0, 0, 2)],
])
def test_replay_equals_reduction(basis):
    red, pivots = reduced(basis)
    assert pivots and all(abs(_int_det(key)) > 1 for key in pivots)
    assert replay_ash_rudolph(make_apartment(basis), pivots) == red


def test_unimodular_apartment_needs_no_table():
    x = make_apartment([(1, 0), (5, 1)])
    red, pivots = reduced([(1, 0), (5, 1)])
    assert pivots == {} and replay_ash_rudolph(x, {}) == red == x


def test_missing_entry_names_its_key():
    red, pivots = reduced(BASIS)
    x = make_apartment(BASIS)
    for key in pivots:
        table = {k: w for k, w in pivots.items() if k != key}
        with pytest.raises(CertificateError) as exc:
            replay_ash_rudolph(x, table)
        assert exc.value.key == key


def test_corrupted_pivot_fails():
    red, pivots = reduced(BASIS)
    x = make_apartment(BASIS)
    for key, w in pivots.items():
        for bad in (
            tuple(a + b for a, b in zip(w, key[0])),  # another line
            tuple(-a for a in w),  # the same line, not in canonical form
            tuple(2 * a for a in w),
        ):
            assert fails(x, {**pivots, key: bad}, red), (key, bad)
        for bad in ((0, 0, 0), w[:2], tuple(Fraction(a) for a in w)):
            with pytest.raises(CertificateError) as exc:
                replay_ash_rudolph(x, {**pivots, key: bad})
            assert exc.value.key == key


def test_child_whose_det_does_not_drop_fails():
    # w = key[0] + key[1] is a line, and its relation holds, but the child
    # replacing key[2] keeps |det|: the replay need not end
    x = make_apartment(BASIS)
    (key,) = x.terms
    w = tuple(a + b for a, b in zip(key[0], key[1]))
    with pytest.raises(CertificateError) as exc:
        replay_ash_rudolph(x, {key: w})
    assert exc.value.key == key


def mutated(monkeypatch, target, mutate):
    """Let the reduction's step at target go wrong as mutate says."""
    real = steinberg._ar_step

    def step(key):
        out = real(key)
        return mutate(*out) if key == target else out

    monkeypatch.setattr(steinberg, "_ar_step", step)
    steinberg._ar_apartment.cache_clear()


@pytest.mark.parametrize("mutation", ["flipped sign", "dropped child", "corrupted pivot"])
def test_wrong_step_of_the_reduction(monkeypatch, fresh_caches, mutation):
    right, pivots = reduced(BASIS)
    for target in pivots:
        if mutation == "flipped sign":
            def mutate(w, children):
                (child, sign), *rest = children
                return w, ((child, -sign), *rest)
        elif mutation == "dropped child":
            def mutate(w, children):
                return w, children[1:]
        else:
            def mutate(w, children):
                return tuple(a + b for a, b in zip(w, target[0])), children
        mutated(monkeypatch, target, mutate)
        red, table = reduced(BASIS)
        witness = _suite_ashrudolph(BASIS, 3, None)
        if mutation == "corrupted pivot":
            # the reduction is right and only its table is wrong
            assert red == right
            assert fails(make_apartment(BASIS), table, red)
            assert witness is None or witness["relation"] == "certificate"
        else:
            assert not is_zero(make_apartment(BASIS) - red)
            assert witness is not None, (mutation, target)
            assert witness["relation"] in ("certificate", "evaluation mismatch")
        monkeypatch.undo()
        steinberg._ar_apartment.cache_clear()
        steinberg._ar_step.cache_clear()


BOUND = {2: 9, 3: 4, 4: 3, 5: 2}


@st.composite
def non_unimodular_bases(draw):
    n = draw(st.integers(2, 5))
    entries = st.integers(-BOUND[n], BOUND[n])
    basis = [tuple(draw(st.lists(entries, min_size=n, max_size=n))) for _ in range(n)]
    norm = normalize_apartment(basis)
    assume(norm is not None and abs(_int_det(norm[0])) > 1)
    return basis


@given(
    basis=non_unimodular_bases(),
    kind=st.sampled_from([None, "apartment", "term", "relation"]),
    coeff=st.sampled_from([Fraction(1), Fraction(-1), Fraction(3, 2), Fraction(-2, 5)]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_suite_verdict_is_the_flag_test(basis, kind, coeff, data):
    n = len(basis)
    red = ash_rudolph_reduce(basis)
    extra = None
    if kind == "apartment":
        rows = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n))
        extra = coeff * make_apartment(rows, n)
    elif kind == "term":
        # cancel one term of the reduction
        key = data.draw(st.sampled_from(sorted(red.terms)))
        extra = St(n, {key: -red.terms[key]})
    elif kind == "relation":
        # c ([e] - [e, e1 -> e1 + e2] - [e, e2 -> e1 + e2]) is zero and
        # unimodular: the replay differs from red + extra, the class does not
        e = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        s = tuple(a + b for a, b in zip(e[0], e[1]))
        extra = coeff * (make_apartment(e) - make_apartment([s] + e[1:]) - make_apartment(e[:1] + [s] + e[2:]))
        assert extra.terms and is_zero(extra)
    expect = is_zero(make_apartment(basis, n) - (red if extra is None else red + extra))
    witness = _suite_ashrudolph(basis, n, extra)
    assert (witness is None) is expect
    if witness is not None:
        assert witness["relation"] in ("unimodularity", "evaluation mismatch")
