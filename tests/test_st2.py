"""Tensor pairs of apartments: s-map, generators, coproduct, cobracket."""
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import s_map_reference as ref
from generator_reference import coxeter_to_basis, make_corr_colon
from steinpoly.barcplx import bar_differential, bar_shuffle
from steinpoly.mpl import bar_infty_reduce
from steinpoly.qlinalg import (
    canonical_point,
    inverse,
    qv,
    rank,
    split_seed,
    transpose,
    vec_add,
)
from steinpoly.st2 import (
    St2,
    cobracket_L,
    cobracket_matches_coproduct,
    dualize,
    embed_s,
    is_zero_st2,
    is_zero_st_infty,
    make_I,
    make_L,
    make_corr,
    make_pair,
    st2_coproduct,
    st2_product,
    st_infty_fingerprint,
)
from steinpoly.steinberg import make_apartment

E1, E2 = (1, 0), (0, 1)
F1, F2, F3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def rand_basis(rng, n, bound=4):
    from steinpoly.qlinalg import rank

    while True:
        vecs = tuple(
            tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n)
        )
        if rank(tuple(qv(v) for v in vecs)) == n:
            return vecs


def words_of(bar):
    return {w: c for (w, _e), c in bar.terms.items()}


def coxeter_lines(vecs):
    ps, acc = [], None
    for v in vecs:
        acc = qv(v) if acc is None else vec_add(acc, qv(v))
        ps.append(tuple(acc))
    return ps, [tuple(qv(v)) for v in vecs]


class TestGenerators:
    def test_make_L_d2_term(self):
        x = make_L([E1, E2])
        assert x.terms == {
            (((0, 1), (1, 1)), ((0, 1), (1, 0)), (0, 0)): Fraction(1)
        }

    def test_make_I_d2_term(self):
        x = make_I([E1, E2])
        # (-1)^2 [v2, v1] (x) [v2, v1 - v2]
        assert x.terms == {
            (((0, 1), (1, 0)), ((0, 1), (1, -1)), (0, 0)): Fraction(1)
        }

    def test_L_I_exchange_d3(self):
        rng = split_seed(5, "li")
        for _ in range(6):
            v = [qv(x) for x in rand_basis(rng, 3)]
            # L[v1..vd] = (-1)^d I[v1+...+vd, v2+...+vd, ..., vd]
            sums = [tuple(v[0]), tuple(vec_add(v[0], v[1]))]
            tails = []
            for i in range(3):
                acc = v[i]
                for w in v[i + 1 :]:
                    acc = vec_add(acc, w)
                tails.append(tuple(acc))
            lhs = make_L(v, 3)
            rhs = make_I(tails, 3, c=(-1) ** 3)
            assert is_zero_st2(lhs - rhs)

    @pytest.mark.parametrize("build", [
        lambda: make_apartment([]),
        lambda: make_pair([], []),
        lambda: make_L([]),
        lambda: make_I([]),
        lambda: make_corr([]),
        lambda: make_corr_colon([]),
    ], ids=["make_apartment", "make_pair", "make_L", "make_I", "make_corr",
            "make_corr_colon"])
    def test_empty_input_is_an_empty_apartment(self, build):
        with pytest.raises(ValueError, match="empty apartment"):
            build()

    def test_corr_requires_zero_sum(self):
        with pytest.raises(ValueError):
            make_corr([E1, E2, E1])
        v0 = tuple(-x for x in vec_add(qv(E1), qv(E2)))
        x = make_corr([v0, E1, E2])
        assert x == make_L([E1, E2])

    def test_corr_colon_requires_affine_independence(self):
        with pytest.raises(ValueError):
            make_corr_colon([(0, 0), (1, 0), (2, 0)])

    def test_corr_colon_matches_difference_form(self):
        # C[u_0 : ... : u_d] = (-1)^d I[u_1 - u_0, ..., u_d - u_0] stably
        rng = split_seed(7, "corr")
        for _ in range(4):
            pts = [qv(p) for p in rand_basis(rng, 2, bound=3)]
            pts.append(tuple(rng.randint(-3, 3) for _ in range(2)))
            u0 = pts[2]
            diffs = [tuple(a - b for a, b in zip(p, u0)) for p in pts[:2]]
            try:
                lhs = make_corr_colon([u0] + pts[:2])
            except ValueError:
                continue
            rhs = make_I(diffs, 2, c=(-1) ** 2)
            assert is_zero_st_infty(lhs - rhs)


class TestSMap:
    def test_d2_L_display(self):
        # s of the L pair: [v2|v1] - [v1+v2|v1] + [v1+v2|v2]
        got = words_of(embed_s(make_L([E1, E2])))
        assert got == {
            ((0, 1), (1, 0)): Fraction(1),
            ((1, 1), (1, 0)): Fraction(-1),
            ((1, 1), (0, 1)): Fraction(1),
        }

    def test_d2_I_display(self):
        # s of the I pair: [v1|v2] - [v1|v2-v1] + [v2|v2-v1]
        got = words_of(embed_s(make_I([E1, E2])))
        assert got == {
            ((1, 0), (0, 1)): Fraction(1),
            ((1, 0), (1, -1)): Fraction(-1),
            ((0, 1), (1, -1)): Fraction(1),
        }

    def test_d3_I_fifteen_terms(self):
        v1, v2, v3 = (qv(F1), qv(F2), qv(F3))
        d21 = tuple(a - b for a, b in zip(v2, v1))
        d31 = tuple(a - b for a, b in zip(v3, v1))
        d32 = tuple(a - b for a, b in zip(v3, v2))
        stated = [
            (-1, (v1, v2, v3)),
            (1, (v1, d21, v3)),
            (-1, (v2, d21, v3)),
            (1, (v1, v3, d21)),
            (-1, (v1, d31, d21)),
            (1, (v3, d31, d21)),
            (-1, (v2, v3, d21)),
            (1, (v2, d32, d21)),
            (-1, (v3, d32, d21)),
            (1, (v1, v2, d32)),
            (-1, (v1, d21, d32)),
            (1, (v2, d21, d32)),
            (-1, (v1, v3, d32)),
            (1, (v1, d31, d32)),
            (-1, (v3, d31, d32)),
        ]
        want = {tuple(canonical_point(p) for p in w): Fraction(c) for c, w in stated}
        assert len(want) == 15
        want = {(w, (0, 0, 0)): c for w, c in want.items()}
        assert ref.symbol_I([F1, F2, F3]).terms == want
        assert embed_s(make_I([F1, F2, F3])).terms == want

    @pytest.mark.parametrize("vecs", [
        [(1, 0), (2, 0)],
        [(1, 2, 0), (2, 4, 0), (0, 0, 1)],
        [(1, 0, 0), (0, 1, 0), (1, 1, 0)],
    ])
    def test_generators_vanish_on_dependent_vectors(self, vecs):
        n = len(vecs[0])
        for make in (make_L, make_I):
            x = make(vecs, n)
            assert x == St2.zero(n)
            assert not embed_s(x).terms

    def test_recursions_match_s_map(self):
        rng = split_seed(21, "rec")
        for n in (2, 3, 4):
            for _ in range(3 if n < 4 else 2):
                vecs = rand_basis(rng, n)
                assert ref.symbol_L(vecs, n) == embed_s(make_L(vecs, n))
                assert ref.symbol_I(vecs, n) == embed_s(make_I(vecs, n))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_recursions_equal_s_map_with_tails(self, data):
        # d independent vectors in Q^n, n <= 4; the routes agree as whole Bars,
        # symmetric tails included
        n = data.draw(st.integers(1, 4))
        d = data.draw(st.integers(1, n))
        vecs = data.draw(
            st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=d, max_size=d).filter(
                lambda vs: rank([qv(v) for v in vs]) == d
            )
        )
        assert ref.symbol_L(vecs, n) == embed_s(make_L(vecs, n))
        assert ref.symbol_I(vecs, n) == embed_s(make_I(vecs, n))

    @pytest.mark.parametrize("vecs", [
        (F1, F2, F3),
        ((1, 0, 0), (0, 2, 0), (1, 0, 3)),
        ((1, 1, 0), (0, 1, 2), (2, 0, 1)),
    ])
    def test_recursions_equal_s_map_in_stable_quotient(self, vecs):
        assert not bar_infty_reduce(ref.symbol_L(vecs, 3) - embed_s(make_L(vecs, 3))).terms
        assert not bar_infty_reduce(ref.symbol_I(vecs, 3) - embed_s(make_I(vecs, 3))).terms

    def test_s_image_is_closed(self):
        rng = split_seed(22, "cocycle")
        for n in (2, 3):
            for _ in range(4):
                vecs = rand_basis(rng, n)
                assert not bar_differential(embed_s(make_L(vecs, n)))

    def test_s_respects_relations(self):
        # same class presented two ways maps to the same word combination
        a = make_pair([E1, E2], [(2, 0), (1, 1)], 2)
        b = make_pair([(1, 0), (0, 3)], [(1, 0), (1, 1)], 2)
        assert words_of(embed_s(a)) == words_of(embed_s(b))

    def test_s_is_multiplicative_into_shuffles(self):
        x = make_pair([(1, 0, 0)], [(1, 0, 0)], 3)
        y = make_L([(0, 1, 0), (0, 1, 1)], 3)
        lhs = embed_s(st2_product(x, y))
        rhs = bar_shuffle(embed_s(x), embed_s(y))
        assert lhs == rhs


class TestProduct:
    def test_concatenation(self):
        x = make_pair([E1], [E1], 2)
        y = make_pair([E2], [E2], 2)
        got = st2_product(x, y)
        assert got == make_pair([E1, E2], [E1, E2], 2)

    def test_double_shuffle_L_and_I(self):
        rng = split_seed(31, "dsh")
        for n in (2, 3):
            vecs = [qv(v) for v in rand_basis(rng, n)]
            for d1 in range(1, n):
                for make in (make_L, make_I):
                    lhs = st2_product(make(vecs[:d1], n), make(vecs[d1:], n))
                    rhs = St2.zero(n)
                    for pos in combinations(range(n), d1):
                        arranged = [None] * n
                        rest = [i for i in range(n) if i not in pos]
                        for k, p in enumerate(pos):
                            arranged[p] = vecs[k]
                        for k, p in enumerate(rest):
                            arranged[p] = vecs[d1 + k]
                        rhs = rhs + make(arranged, n)
                    assert is_zero_st2(lhs - rhs)


class TestCoproduct:
    def test_counit_terms_present(self):
        x = make_L([E1, E2])
        splits = st2_coproduct(x)
        units = [t for t in splits if not t[0] or not t[1]]
        assert len(units) == 2

    def test_counit_pieces_embed_to_the_empty_word(self):
        for i_set, j_set, left, right in st2_coproduct(make_L([E1, E2])):
            if i_set and j_set:
                continue
            unit = right if i_set else left
            ((_ka, _kb, exps), c), = unit.terms.items()
            assert embed_s(unit).terms == {((), exps): c}
            assert not is_zero_st_infty(unit)
            assert st_infty_fingerprint(unit) == {((), exps): c}
            assert is_zero_st_infty(unit - unit)

    def test_kills_defining_relation(self):
        # the alternating sum over dropped entries is zero, so its split
        # expansion must cancel termwise after normal-forming the factors
        from barcplx_reference import local_coords
        from steinpoly.qlinalg import Subspace
        from steinpoly.steinberg import flag_expand

        def local_nf(x, n):
            pts = [qv(p) for (ka, _kb, _e), _ in x.terms.items() for p in ka]
            w = Subspace.span(pts, n)
            out = {}
            for (ka, kb, _e), c in x.terms.items():
                la = make_apartment([local_coords(w, p) for p in ka], w.dim)
                lb = make_apartment([local_coords(w, p) for p in kb], w.dim)
                for k1, c1 in flag_expand(la).terms.items():
                    for k2, c2 in flag_expand(lb).terms.items():
                        key = (w.rows, k1, k2)
                        out[key] = out.get(key, Fraction(0)) + c * c1 * c2
            return [(k, v) for k, v in sorted(out.items()) if v]

        def expanded(x):
            out = {}
            for i_set, j_set, left, right in st2_coproduct(x):
                if not i_set or not j_set:
                    continue
                for kl, cl in local_nf(left, x.ambient):
                    for kr, cr in local_nf(right, x.ambient):
                        out[(kl, kr)] = out.get((kl, kr), Fraction(0)) + cl * cr
            return {k: v for k, v in out.items() if v}

        u = [qv(p) for p in ((1, 0), (0, 1), (1, 2))]
        b_side = [(1, 1), (1, -1)]
        y = St2.zero(2)
        for i in range(3):
            dropped = [u[j] for j in range(3) if j != i]
            y = y + make_pair(dropped, b_side, 2, c=(-1) ** i)
        assert is_zero_st2(y)
        assert expanded(y) == {}


class TestDuality:
    def test_L_dualizes_to_reversed_dual_I(self):
        rng = split_seed(41, "dual")
        for n in (2, 3, 4):
            vecs = tuple(qv(v) for v in rand_basis(rng, n))
            dual = inverse(transpose(vecs))
            lhs = dualize(make_L(vecs, n))
            rhs = make_I(list(reversed(dual)), n, c=(-1) ** n)
            assert is_zero_st2(lhs - rhs)
            lhs = dualize(make_I(vecs, n))
            rhs = make_L(list(reversed(dual)), n, c=(-1) ** n)
            assert is_zero_st2(lhs - rhs)

    def test_involution(self):
        rng = split_seed(42, "invol")
        for n in (2, 3):
            vecs = rand_basis(rng, n)
            x = make_L(vecs, n) + 2 * make_I(rand_basis(rng, n), n)
            assert is_zero_st2(dualize(dualize(x)) - x)

    def test_rejects_partial_rank(self):
        with pytest.raises(ValueError):
            dualize(make_pair([(1, 0, 0)], [(1, 0, 0)], 3))


class TestStableQuotient:
    def test_products_vanish(self):
        x = st2_product(make_L([(1, 0)], 2), make_L([(0, 1)], 2))
        assert not is_zero_st2(x)
        assert is_zero_st_infty(x)

    def test_generators_survive(self):
        assert not is_zero_st_infty(make_L([E1, E2]))
        assert not is_zero_st_infty(make_I([F1, F2, F3], 3))

    def test_product_of_unequal_ranks_vanishes(self):
        x = st2_product(make_L([F1], 3), make_L([F2, (0, 1, 1)], 3))
        y = make_L([F1, F2, F3], 3)
        assert is_zero_st_infty(x)
        assert not is_zero_st_infty(y)

    def test_dihedral_forms(self):
        rng = split_seed(51, "dihedral")
        for n in (2, 3):
            vecs = [qv(v) for v in rand_basis(rng, n, bound=3)]
            total = vecs[0]
            for v in vecs[1:]:
                total = vec_add(total, v)
            v0 = tuple(-x for x in total)
            L = make_L(vecs, n)
            rot = make_L(vecs[1:] + [v0], n)
            neg = make_L([tuple(-x for x in v) for v in vecs], n)
            rev = make_L(list(reversed(vecs)), n, c=(-1) ** (n + 1))
            assert is_zero_st_infty(L - rot)
            assert is_zero_st_infty(L - neg)
            assert is_zero_st_infty(L - rev)
            I = make_I(vecs, n)
            irev = make_I(list(reversed(vecs)), n, c=(-1) ** (n + 1))
            assert is_zero_st_infty(I - irev)

    def test_nongeneric_pairs_vanish(self):
        rng = split_seed(52, "nongen")
        vecs = rand_basis(rng, 3)
        ps, qs = coxeter_lines(vecs)
        for slot in (1, 2):
            qq = list(qs)
            qq[slot] = ps[slot]
            x = make_pair(ps, qq, 3)
            assert x.terms
            assert is_zero_st_infty(x)


class TestCobracket:
    def test_term_count(self):
        terms = cobracket_L([E1, E2])
        assert len(terms) == 3  # (d+1) rotations, one split each at d=2
        assert all(c == Fraction(-1) for c, _l, _r in terms)

    def test_matches_coproduct_route(self):
        assert cobracket_matches_coproduct([E1, E2])
        assert cobracket_matches_coproduct([(1, 2), (1, -1)])
        assert cobracket_matches_coproduct([F1, F2, F3])
        assert cobracket_matches_coproduct([(1, 2, 0), (0, 1, 3), (1, 1, 1)])

    def test_no_localisation(self):
        # both routes fingerprint in ambient coordinates: no local chart of a
        # subspace is read or written on the way
        from unittest import mock

        from steinpoly.qlinalg import Subspace

        assert not hasattr(Subspace, "local_coords")
        with mock.patch.object(Subspace, "from_local", side_effect=AssertionError):
            assert cobracket_matches_coproduct([(1, 2, 0), (0, 1, 3), (1, 1, 1)])
            assert cobracket_matches_coproduct(
                [(1, 0, 2, 0), (0, 1, -1, 1), (1, 1, 0, 2), (2, 0, 1, -1)]
            )

    def test_one_rank_test_per_check(self):
        # the rank test of the whole basis decides every factor: each
        # cobracket side is at most d of the d + 1 cyclic vectors, and any d
        # of them are independent
        from unittest import mock

        from steinpoly import st2, steinberg

        for vecs in (
            [E1, E2],
            [(1, 2, 0), (0, 1, 3), (1, 1, 1)],
            [(1, 0, 2, 0), (0, 1, -1, 1), (1, 1, 0, 2), (2, 0, 1, -1)],
        ):
            spy = mock.Mock(wraps=steinberg._independent)
            with mock.patch.object(st2, "_independent", spy), mock.patch.object(steinberg, "_independent", spy):
                assert cobracket_matches_coproduct(vecs)
            assert spy.call_count == 1, vecs

    def test_dependent_basis_rejected(self):
        # L of a dependent basis is zero, but its cobracket terms are not
        with pytest.raises(ValueError, match="independent"):
            cobracket_matches_coproduct([(1, 0, 2), (0, 1, -1), (1, 1, 1)])
        with pytest.raises(ValueError, match="independent"):
            cobracket_matches_coproduct([(1, 2), (2, 4)])


class TestCoxeter:
    def test_round_trip(self):
        rng = split_seed(61, "cox")
        for n in (2, 3, 4):
            vecs = [qv(v) for v in rand_basis(rng, n, bound=3)]
            ps, qs = coxeter_lines(vecs)
            rec = coxeter_to_basis(ps, qs)
            # recovered basis parameterizes the same pair of flags
            got = make_pair(ps, qs, n)
            assert is_zero_st2(got - make_L(list(reversed(rec)), n))

    def test_diagnoses_equal_lines(self):
        with pytest.raises(ValueError, match="non-generic"):
            coxeter_to_basis([(1, 0), (1, 1)], [(1, 0), (1, 1)])

    def test_diagnoses_bad_incidence(self):
        with pytest.raises(ValueError, match="outside the span"):
            coxeter_to_basis(
                [(1, 0, 0), (1, 1, 0), (1, 1, 1)],
                [(1, 0, 0), (0, 0, 1), (1, 1, 1)],
            )

    def test_diagnoses_mismatched_first_line(self):
        with pytest.raises(ValueError, match="first entries"):
            coxeter_to_basis([(1, 0), (1, 1)], [(0, 1), (1, 1)])

