"""Apartment relations, the flag basis, boundary maps, and the reduction.

The reduction is checked two independent ways: exact class equality via
the flag-basis zero test here, and a partial-fraction evaluation oracle
in the cones tests.
"""
import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinpoly.barcplx import bar_word
from steinpoly.cli import _rand_basis
from steinpoly.qlinalg import Subspace, det, qm, qv, split_seed
from steinpoly.st2 import make_I, make_L
from steinpoly.steinberg import (
    St,
    _flag_expand_apartment,
    _power_product,
    _sort_sign,
    ash_rudolph_reduce,
    block_embed,
    flag_expand,
    is_zero,
    make_apartment,
    normalize_apartment,
    residue,
    st_multiply,
)

F = Fraction


def rand_vec(rng, d, span=5, nonzero=True):
    while True:
        v = tuple(rng.randint(-span, span) for _ in range(d))
        if not nonzero or any(v):
            return v


def rand_apartment_vecs(rng, d, span=5):
    while True:
        vecs = [rand_vec(rng, d, span) for _ in range(d)]
        if det(qm(vecs)) != 0:
            return vecs


def rand_general_position(rng, d, count, span=5):
    """count vectors, every d of them independent."""
    from itertools import combinations

    while True:
        vecs = [rand_vec(rng, d, span) for _ in range(count)]
        if all(det(qm(sub)) != 0 for sub in combinations(vecs, d)):
            return vecs


class TestRelations:
    def test_reorder_sign(self):
        a = make_apartment([(1, 0), (1, 2)])
        b = make_apartment([(1, 2), (1, 0)])
        assert a == (-1) * b

    def test_rescale_entries(self):
        a = make_apartment([(2, 0), (-3, -6)])
        b = make_apartment([(1, 0), (1, 2)])
        assert a == b

    def test_dependent_is_zero(self):
        assert not make_apartment([(1, 2), (2, 4)]).terms
        assert not make_apartment([(1, 2, 0), (0, 1, 1), (1, 3, 1)]).terms
        assert normalize_apartment([(0, 0), (1, 0)]) is None

    def test_boundary_relation(self):
        rng = split_seed(11, "boundary")
        for d in (2, 3, 4):
            for _ in range(6):
                vecs = rand_general_position(rng, d, d + 1)
                total = St.zero(d)
                for i in range(d + 1):
                    omitted = vecs[:i] + vecs[i + 1 :]
                    total = total + (-1) ** i * make_apartment(omitted)
                assert is_zero(total), (d, vecs)


# two combinations of each LinComb subclass, sharing one key, in Q^3
PAIRS = {
    "St": lambda: (
        make_apartment([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) + 2 * make_apartment([(1, 1, 0), (0, 1, 0), (0, 0, 1)]),
        make_apartment([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) - make_apartment([(1, 2, 3), (0, 1, 0), (0, 0, 1)]),
    ),
    "St2": lambda: (
        make_L([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) + make_I([(1, 2, 0), (0, 1, 0), (0, 0, 1)], c=F(1, 2)),
        make_L([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) + make_L([(1, 0, 0), (1, 1, 0), (0, 0, 1)]),
    ),
    "Bar": lambda: (
        bar_word([(1, 0, 0), (0, 1, 0)]) + bar_word([(0, 0, 1)], c=3),
        bar_word([(1, 0, 0), (0, 1, 0)], c=-2) + bar_word([(1, 1, 1)]),
    ),
}


class TestLinComb:
    @pytest.mark.parametrize("kind", sorted(PAIRS))
    def test_subtracting_itself_gives_zero(self, kind):
        x, _y = PAIRS[kind]()
        assert len(x.terms) == 2
        x -= x
        assert not x and x == type(x).zero(3)

    @pytest.mark.parametrize("kind", sorted(PAIRS))
    def test_subtraction_in_place_leaves_the_right_operand(self, kind):
        x, y = PAIRS[kind]()
        want = x + (-1) * y
        y_terms = dict(y.terms)
        x -= y
        assert x == want and x.terms == want.terms
        assert y.terms == y_terms and x.terms is not y.terms

    def test_subtraction_checks_type_and_ambient(self):
        x = make_apartment([(1, 0), (0, 1)])
        with pytest.raises(TypeError, match="cannot add"):
            x -= bar_word([(1, 0)])
        with pytest.raises(ValueError, match="ambient"):
            x -= make_apartment([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


class TestHelpers:
    def test_sort_sign_is_the_permutation_parity(self):
        for n in range(7):
            for tau in permutations(range(n)):
                inversions = sum(tau[i] > tau[j] for i in range(n) for j in range(i + 1, n))
                assert _sort_sign(tau)[1] == (-1) ** inversions

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.tuples(st.tuples(*[st.integers(-3, 3)] * n), st.integers(0, 3)),
                    max_size=3,
                ),
                st.tuples(*[st.integers(-5, 5)] * n),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_power_product_evaluates_to_the_product(self, case):
        pairs, z = case
        forms, exps = [f for f, _ in pairs], [e for _, e in pairs]
        poly = _power_product(forms, exps, len(z))
        assert all(type(c) is int and c for c in poly.values())
        value = sum(c * math.prod(x**k for x, k in zip(z, mono, strict=True)) for mono, c in poly.items())
        assert value == math.prod(sum(a * x for a, x in zip(f, z)) ** e for f, e in pairs)


class TestFlagExpand:
    def test_hand_example(self):
        x = make_apartment([(0, 1), (1, 1)])
        expect = make_apartment([(1, 0), (1, 1)]) - make_apartment([(1, 0), (0, 1)])
        assert flag_expand(x) == expect

    def test_idempotent(self):
        rng = split_seed(11, "flag-idem")
        for d in (2, 3, 4):
            for _ in range(5):
                x = make_apartment(rand_apartment_vecs(rng, d))
                e = flag_expand(x)
                assert flag_expand(e) == e

    def test_basis_terms_adapted_to_flag(self):
        rng = split_seed(11, "flag-adapted")
        steps = [Subspace.span([[int(i == j) for j in range(3)] for i in range(r)]) for r in (1, 2, 3)]
        for _ in range(5):
            x = make_apartment(rand_apartment_vecs(rng, 3))
            for key, _ in flag_expand(x).items():
                # an apartment appears in the basis only if the span of the
                # first i entries is the i-th flag step, up to reordering of
                # the stored key; check via sorted pivot structure instead
                spans = set()
                for r in range(1, 4):
                    found = False
                    from itertools import combinations

                    for sub in combinations(key, r):
                        if Subspace.span([qv(p) for p in sub]) == steps[r - 1]:
                            found = True
                            break
                    assert found, key

    def test_nonstandard_flag(self):
        rows = ((1, 1), (0, 1))

        def expand(x):
            out = St.zero(2)
            for key, c in x.terms.items():
                for k2, c2 in _flag_expand_apartment(key, rows):
                    out.add_term(k2, c * c2)
            return out

        x = make_apartment([(1, 0), (0, 1)])
        e = expand(x)
        assert e.terms and e != x
        assert expand(e) == e
        assert is_zero(x - e)

    def test_zero_test_completeness(self):
        # relation combinations expand to nothing
        rng = split_seed(11, "flag-zero")
        for _ in range(5):
            vecs = rand_general_position(rng, 3, 4)
            total = St.zero(3)
            for i in range(4):
                omitted = vecs[:i] + vecs[i + 1 :]
                total = total + (-1) ** i * make_apartment(omitted)
            assert not flag_expand(total).terms


class TestProduct:
    def test_block_product(self):
        a = make_apartment([(1,)])
        b = make_apartment([(1,)])
        prod = st_multiply(block_embed(a, 0, 2), block_embed(b, 1, 2))
        assert prod == make_apartment([(1, 0), (0, 1)])

    def test_graded_commutativity(self):
        rng = split_seed(11, "graded")
        for d1, d2 in ((1, 1), (1, 2), (2, 2)):
            d = d1 + d2
            for _ in range(4):
                vecs = rand_general_position(rng, d, d)
                left = _embedded(vecs[:d1], d)
                right = _embedded(vecs[d1:], d)
                lhs = st_multiply(left, right)
                rhs = (-1) ** (d1 * d2) * st_multiply(right, left)
                assert lhs == rhs

    def test_overlapping_supports_vanish(self):
        a = make_apartment([(1, 0)], 2)
        assert not st_multiply(a, a).terms


def _embedded(vecs, ambient):
    out = St.zero(ambient)
    piece = normalize_apartment(vecs, ambient)
    assert piece is not None
    out.add_term(piece[0], F(piece[1]))
    return out


class TestResidue:
    def test_basic_slots(self):
        x = make_apartment([(1, 0), (0, 1)])
        assert residue(x, (1, 0)) == make_apartment([(1,)], 1)
        assert residue(x, (0, 1)) == (-1) * make_apartment([(1,)], 1)
        assert not residue(x, (1, 1)).terms

    def test_ambient_one(self):
        x = Fraction(3, 2) * make_apartment([(-2,)], 1)
        assert residue(x, (5,)) == St(0, {(): Fraction(3, 2)})
        assert not residue(St.zero(1), (1,)).terms

    def test_rank_zero_flag_expansion(self):
        # the empty apartment of Q^0 is its own flag basis
        unit = St(0, {(): Fraction(1)})
        assert flag_expand(unit) == unit
        assert not is_zero(residue(make_apartment([(2,)], 1), (1,)))
        assert is_zero(St.zero(0))

    def test_scale_of_point_irrelevant(self):
        x = make_apartment([(1, 2), (3, 1)])
        assert residue(x, (2, 4)) == residue(x, (1, 2))

    def test_well_defined_on_relations(self):
        rng = split_seed(11, "residue-rel")
        for d in (2, 3):
            for _ in range(6):
                vecs = rand_general_position(rng, d, d + 1)
                total = St.zero(d)
                for i in range(d + 1):
                    omitted = vecs[:i] + vecs[i + 1 :]
                    total = total + (-1) ** i * make_apartment(omitted)
                p = vecs[rng.randrange(d + 1)]
                res = residue(total, p)
                if res.ambient >= 2:
                    assert is_zero(res)
                else:
                    assert not res.terms

    def test_representation_independent(self):
        x = make_apartment([(0, 1, 0), (1, 1, 1), (1, 0, 2)])
        y = flag_expand(x)
        for p in ((1, 1, 1), (1, 0, 2), (0, 1, 0), (1, 1, 0)):
            rx = residue(x, p)
            ry = residue(y, p)
            assert is_zero(rx - ry)


class TestAshRudolph:
    def test_frozen_example(self):
        got = ash_rudolph_reduce([(1, 0), (1, 2)])
        expect = make_apartment([(1, 0), (1, 1)]) + make_apartment([(1, 1), (1, 2)])
        assert got == expect

    def test_unimodular_fixed(self):
        got = ash_rudolph_reduce([(1, 0), (5, 1)])
        assert got == make_apartment([(1, 0), (5, 1)])

    def test_rank2_exact_class_and_unimodular(self):
        rng = split_seed(11, "ar2")
        for _ in range(25):
            vecs = rand_apartment_vecs(rng, 2, span=9)
            out = ash_rudolph_reduce(vecs)
            for key in out.terms:
                assert abs(det(qm(key))) == 1
            assert is_zero(out - make_apartment(vecs))

    def test_rank2_logarithmic_size(self):
        rng = split_seed(11, "ar2-size")
        for _ in range(10):
            vecs = rand_apartment_vecs(rng, 2, span=40)
            d = abs(det(qm(vecs)))
            out = ash_rudolph_reduce(vecs)
            assert len(out.terms) <= 4 * math.log2(max(d, 2)) + 4

    def test_rank3_exact_class_and_unimodular(self):
        rng = split_seed(11, "ar3")
        for _ in range(8):
            vecs = rand_apartment_vecs(rng, 3, span=4)
            out = ash_rudolph_reduce(vecs)
            for key in out.terms:
                assert abs(det(qm(key))) == 1
            assert is_zero(out - make_apartment(vecs))

    def test_rank4_small(self):
        rng = split_seed(11, "ar4")
        for d in (4, 4, 5):
            vecs = rand_apartment_vecs(rng, d, span=2)
            out = ash_rudolph_reduce(vecs)
            for key in out.terms:
                assert abs(det(qm(key))) == 1
            assert is_zero(out - make_apartment(vecs))

    def test_verify_bases_term_growth(self):
        # the bases `steinpoly verify ashrudolph --dim d --cases 1 --seed 1`
        # draws; reducing line by line gave 271 terms at dim 4 and 4,754 at
        # dim 5, the one pivot rule 31 and 144
        for d, most in ((4, 40), (5, 200)):
            vecs = _rand_basis(split_seed(1, "verify-ashrudolph"), d)
            out = ash_rudolph_reduce(vecs)
            assert len(out.terms) <= most
            assert is_zero(out - make_apartment(vecs))

    def test_degenerate_is_zero(self):
        assert not ash_rudolph_reduce([(1, 2), (2, 4)]).terms

    def test_non_integral_rejected(self):
        for vecs in ([(F(1, 2), 0), (0, 1)], []):
            with pytest.raises(ValueError):
                ash_rudolph_reduce(vecs)
