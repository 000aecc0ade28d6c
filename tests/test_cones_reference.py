"""The integer evaluation oracle against the Fraction route in
cones_reference.py.

rho_term evaluates through the integer adjugate of the key as one Fraction
per term, and the St oracle samples integer points. Every value must equal
the reference, every pole must be a pole of both, and every St oracle
verdict must be the same for the same seed. The reference's tensor oracle
must give the verdict of the exact zero test st2.is_zero_st2.
"""
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cones_reference as ref
from steinpoly import cones
from steinpoly.cones import PoleError, rho_st, rho_term, st_equality_oracle
from steinpoly.qlinalg import _int_det
from steinpoly.st2 import St2, is_zero_st2, make_I, make_L
from steinpoly.steinberg import St, ash_rudolph_reduce, flag_expand, make_apartment

F = Fraction
SETTINGS = settings(max_examples=80, deadline=None)


def _outcome(f, *args):
    """The value of f(*args), or the type of the arithmetic error it raised."""
    try:
        return f(*args)
    except (PoleError, RuntimeError) as exc:
        return type(exc)


rationals = st.builds(F, st.integers(-30, 30), st.integers(1, 6))


@st.composite
def keys(draw, max_dim=5, bound=4):
    """Nonsingular integer keys, unimodular or not."""
    d = draw(st.integers(1, max_dim))
    key = tuple(
        tuple(draw(st.integers(-bound, bound)) for _ in range(d)) for _ in range(d)
    )
    assume(_int_det(key) != 0)
    return key


@st.composite
def rho_inputs(draw):
    key = draw(keys())
    d = len(key)
    exps = tuple(draw(st.integers(0, 2)) for _ in range(d))
    if draw(st.booleans()):
        z = tuple(draw(st.integers(-6, 6)) for _ in range(d))
    else:
        z = tuple(draw(rationals) for _ in range(d))
    return key, exps, z


@SETTINGS
@given(rho_inputs())
def test_rho_term_equals_reference(args):
    assert _outcome(rho_term, *args) == _outcome(ref.rho_term, *args)


def test_rho_term_pole_in_both():
    key, z = ((1, 2), (3, 1)), (6, 2)  # z on the line of v_2
    for exps in ((0, 0), (1, 2)):
        with pytest.raises(PoleError):
            rho_term(key, exps, z)
        with pytest.raises(PoleError):
            ref.rho_term(key, exps, z)


@st.composite
def st_sums(draw, dims=(2, 3), bound=3):
    n = draw(st.sampled_from(dims))
    x = St.zero(n)
    for _ in range(draw(st.integers(1, 4))):
        vecs = [tuple(draw(st.integers(-bound, bound)) for _ in range(n)) for _ in range(n)]
        x += draw(rationals) * make_apartment(vecs, n)
    return x


@SETTINGS
@given(st_sums(), st.data())
def test_rho_st_equals_reference(x, data):
    z = tuple(data.draw(st.integers(-20, 20)) for _ in range(x.ambient))
    assert _outcome(rho_st, x, z) == _outcome(ref.rho_st, x, z)


@settings(max_examples=40, deadline=None)
@given(st_sums(), st.integers(0, 10**6), st.sampled_from(("flag", "ar", "other")), st.data())
def test_st_oracle_verdicts_equal_reference(x, seed, partner, data):
    if partner == "flag":
        y = flag_expand(x)
    elif partner == "ar":
        key = next(iter(x.terms), None)
        assume(key is not None)
        x = make_apartment(key, x.ambient)
        y = ash_rudolph_reduce(key)
    else:
        y = data.draw(st_sums(dims=(x.ambient,)))
    assert _outcome(st_equality_oracle, x, y, seed) == _outcome(
        ref.st_equality_oracle, x, y, seed
    )


@st.composite
def st2_sums(draw, n, bound=2):
    x = St2.zero(n)
    for _ in range(draw(st.integers(1, 3))):
        vecs = [tuple(draw(st.integers(-bound, bound)) for _ in range(n)) for _ in range(n)]
        make = draw(st.sampled_from((make_L, make_I)))
        x += make(vecs, n, c=draw(rationals))
    return x


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((2, 3)), st.integers(0, 10**6), st.data())
def test_st2_oracle_verdicts_equal_reference(n, seed, data):
    x = data.draw(st2_sums(n))
    if data.draw(st.booleans()):
        y = St2(n, dict(x.terms))
        if y.terms:
            y.terms.popitem()
    else:
        y = data.draw(st2_sums(n))
    # the tensor oracle's verdict is the exact flag normal-form zero test's
    assert _outcome(ref.st2_equality_oracle, x, y, seed) is is_zero_st2(x - y)


def test_rho_term_builds_one_fraction(monkeypatch):
    """Integer z: the only Fraction a term makes is its value."""
    new = Fraction.__dict__["__new__"]
    count = [0]

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    cases = [
        (((1, 2, 0), (0, 3, 1), (1, 1, 5)), (0, 0, 0), (3, 4, 5)),
        (((1, 2, 0), (0, 3, 1), (1, 1, 5)), (1, 2, 0), (3, 4, 5)),
        (((2, 1), (1, 3)), (2, 1), (7, 11)),
    ]
    cones._dual_data.cache_clear()
    monkeypatch.setattr(Fraction, "__new__", counting)
    for key, exps, z in cases:
        before = count[0]
        rho_term(key, exps, z)
        assert count[0] - before <= 1
    monkeypatch.undo()
    for key, exps, z in cases:
        assert rho_term(key, exps, z) == ref.rho_term(key, exps, z)
