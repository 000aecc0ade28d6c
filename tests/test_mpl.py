"""Polylogarithm generators, coproduct recursion, truncated symbols."""
from fractions import Fraction
from itertools import product as iproduct

import pytest

from steinpoly.barcplx import Bar
from steinpoly.mpl import (
    LiGen,
    Monomial,
    PushedLi,
    bar_gl_act,
    bar_infty_reduce,
    gl_act,
    goncharov_symbol_bar,
    identity_terms_from_json,
    identity_terms_to_json,
    li_identity_residual,
    recursion_symbol_bar,
    st2_gl_act,
    std_args,
    std_li,
    truncated_symbol,
    truncated_symbol_closed,
)
from steinpoly.qlinalg import canonical_point, qv, split_seed
from steinpoly.st2 import embed_s, is_zero_st2
from symbol_reference import (
    FormalII,
    _sym_poly,
    alpha,
    delta_top,
    depth1_nf,
    divergent_reduce,
    goncharov_coproduct,
    ii_path_compose,
    ii_reverse,
    ii_shuffle,
    li_to_ii,
    monomial_mul,
    monomial_pow,
    pushed_expand,
    sigma,
)

F = Fraction
X1, X2 = std_args(2)
X12 = monomial_mul(X1, X2)


def nf1(weight, *items):
    return depth1_nf(weight, [(F(c), m) for c, m in items])


class TestMonomial:
    def test_phase_wraps_mod_one(self):
        assert Monomial(F(7, 3), (1,)).phase == F(1, 3)

    def test_mul_adds_phases_and_exps(self):
        a = monomial_mul(Monomial(F(1, 3), (1, 0)), Monomial(F(5, 6), (0, 2)))
        assert a.phase == F(1, 6)
        assert a.exps == (F(1), F(2))

    def test_inverse_power(self):
        a = Monomial(F(1, 3), (2, -1))
        assert not any(monomial_mul(a, monomial_pow(a, -1)).exps)
        assert monomial_pow(a, -1).phase == F(2, 3)


class TestLiGen:
    def test_dependent_arguments_rejected(self):
        with pytest.raises(ValueError):
            LiGen((1, 1), (Monomial(0, (1, 1)), Monomial(0, (2, 2))))

    def test_torsion_argument_rejected(self):
        with pytest.raises(ValueError):
            LiGen((2,), (Monomial(F(1, 2), (0, 0)),))

    def test_weight_and_depth(self):
        g = std_li(3, 1, 2)
        assert (g.weight, g.depth, g.ambient) == (6, 3, 3)


class TestDepthOneNF:
    def test_primitive_positive_key(self):
        # lex-negative direction flips with the inversion sign (-1)^{n-1}
        n2 = nf1(2, (1, Monomial(0, (-1, 0))))
        assert n2 == nf1(2, (-1, Monomial(0, (1, 0))))
        n3 = nf1(3, (1, Monomial(0, (-1, 0))))
        assert n3 == nf1(3, (1, Monomial(0, (1, 0))))

    def test_imprimitive_vector_splits(self):
        # x^2 at weight 2 becomes 2 * (x at both half phases)
        got = nf1(2, (1, Monomial(F(1, 2), (2, 0))))
        want = nf1(
            2,
            (2, Monomial(F(1, 4), (1, 0))),
            (2, Monomial(F(3, 4), (1, 0))),
        )
        assert got == want

    def test_torsion_goes_to_constants(self):
        n = nf1(1, (1, Monomial(F(1, 3), (0, 0))))
        assert not n.terms and n.constants

    def test_rescale_is_lossless(self):
        n = nf1(2, (1, Monomial(F(1, 6), (F(1, 2), F(1, 3)))))
        assert n.rescale(n.level * 5) == n

    def test_cancellation(self):
        m = Monomial(F(1, 3), (1, 1))
        assert nf1(4, (1, m), (-1, m)).is_zero()


class TestDeltaTop:
    def test_li21_buckets(self):
        # weight (2,1): three depth-one left factors
        got = {left.key(): nf for left, nf in delta_top(std_li(2, 1))}
        want = {
            LiGen((1,), (X2,)).key(): nf1(2, (1, X1)),
            LiGen((1,), (X12,)).key(): nf1(2, (-1, X1), (-1, X2)),
            LiGen((2,), (X12,)).key(): nf1(1, (1, X2)),
        }
        assert got == want

    def test_li11_buckets(self):
        got = {left.key(): nf for left, nf in delta_top(std_li(1, 1))}
        want = {
            LiGen((1,), (X2,)).key(): nf1(1, (1, X1)),
            LiGen((1,), (X12,)).key(): nf1(1, (1, X2), (-1, X1)),
        }
        assert got == want

    def test_no_constant_leakage(self):
        for ns in [(2, 1), (1, 2), (2, 2), (1, 1, 1), (2, 1, 1)]:
            for _, nf in delta_top(std_li(*ns)):
                assert not nf.constants

    def test_depth_one_rejected(self):
        with pytest.raises(ValueError):
            delta_top(std_li(3))


class TestSigmaAlpha:
    def test_unit_vectors(self):
        out = sigma(
            (nf1(1, (1, Monomial(0, (1, 0)))), nf1(1, (1, Monomial(0, (0, 1))))),
            2,
        )
        assert out.terms == {(((1, 0), (0, 1)), (0, 0)): F(1)}

    def test_covolume_factor(self):
        out = sigma(
            (nf1(1, (1, Monomial(0, (1, 1)))), nf1(1, (1, Monomial(0, (0, 2))))),
            2,
        )
        assert out.terms == {(((1, 1), (0, 1)), (0, 0)): F(2)}

    def test_dependent_tuple_drops(self):
        out = sigma(
            (nf1(1, (1, Monomial(0, (1, 1)))), nf1(1, (1, Monomial(0, (2, 2))))),
            2,
        )
        assert not out.terms

    def test_phases_forgotten(self):
        a = sigma((nf1(2, (1, Monomial(F(1, 3), (1, 0)))),), 1)
        b = sigma((nf1(2, (1, Monomial(0, (1, 0)))),), 1)
        assert a.terms == b.terms

    def test_sigma_alpha_round_trip(self):
        cases = [
            ([(1, 1), (0, 2)], (2, 1)),
            ([(2, 0), (0, 1)], (1, 1)),
            ([(1, 0), (1, 2)], (1, 2)),
            ([(3,)], (2,)),
        ]
        for vecs, ns in cases:
            d = len(vecs[0])
            out = Bar.zero(d)
            for pref, slots in alpha(vecs, ns):
                nfs = tuple(nf1(n, (1, m)) for n, m in zip(ns, slots))
                out = out + pref * sigma(nfs, d)
            base = Bar.zero(d)
            word = tuple(canonical_point(qv(v)) for v in vecs)
            for exps, c in _sym_poly([qv(v) for v in vecs], ns, d).items():
                base.add_word(word, c, exps)
            assert out.terms == base.terms


class TestIteratedIntegrals:
    def test_li_to_ii_entry_pattern(self):
        ((ii, c),) = li_to_ii(std_li(2, 1)).items()
        one = Monomial(0, (0, 0))
        assert c == 1
        assert ii.entries == (None, one, None, X1, X12)

    def test_shuffle_needs_matching_endpoints(self):
        u = FormalII((None, X1, X12))
        v = FormalII((None, X2, X2))
        with pytest.raises(ValueError):
            ii_shuffle(u, v)

    def test_shuffle_term_count(self):
        end = X12
        u = FormalII((None, X1, end))
        v = FormalII((None, X2, end))
        out = ii_shuffle(u, v)
        assert sum(out.values()) == 2 and all(w.weight == 2 for w in out)

    def test_path_composition_splits(self):
        ii = FormalII((None, X1, None, X12))
        cut = X2
        parts = ii_path_compose(ii, cut)
        assert len(parts) == 3
        for a, b in parts:
            assert a.weight + b.weight == ii.weight
            assert a.end == cut and b.start == cut

    def test_reversal_sign(self):
        ii = FormalII((None, X1, None, X12))
        c, rev = ii_reverse(ii)
        assert c == 1 and rev.entries == tuple(reversed(ii.entries))
        c1, _ = ii_reverse(FormalII((None, X1, X12)))
        assert c1 == -1

    def test_coproduct_term_count(self):
        ii = FormalII((None, X1, None, X12))
        assert len(goncharov_coproduct(ii)) == 4

    def test_divergent_single_row(self):
        # I(0; 0, z2; z3) -> +Li_2(z3 / z2), the start term dropping
        z2, z3 = X1, X12
        got = divergent_reduce(FormalII((None, None, z2, z3)))
        assert got == nf1(2, (1, monomial_mul(z3, monomial_pow(z2, -1))))

    def test_divergent_both_endpoints(self):
        z1, z2, z3 = X2, X1, X12
        got = divergent_reduce(FormalII((z1, z2, None, z3)))
        inv = monomial_pow(z2, -1)
        want = nf1(2, (-1, monomial_mul(z3, inv)), (1, monomial_mul(z1, inv)))
        assert got == want

    def test_zero_endpoints_vanish(self):
        assert divergent_reduce(FormalII((None, X1, None))).is_zero()


class TestSymbolRoutes:
    def test_li21_bar_display(self):
        # ST of weight (2,1): three words against e1's tail
        got = recursion_symbol_bar(std_li(2, 1))
        want = Bar.zero(2)
        want.add_word(((1, 1), (0, 1)), 1, (1, 0))
        want.add_word(((0, 1), (1, 0)), 1, (1, 0))
        want.add_word(((1, 1), (1, 0)), -1, (1, 0))
        assert got.terms == want.terms

    def test_closed_form_matches_recursion(self):
        for ns in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3),
                   (1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]:
            st = truncated_symbol(std_li(*ns))
            assert is_zero_st2(st + (-1) * truncated_symbol_closed(ns))

    def test_goncharov_route_agrees(self):
        for ns in [(1,), (2,), (4,), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]:
            a = goncharov_symbol_bar(std_li(*ns))
            b = recursion_symbol_bar(std_li(*ns))
            assert a.terms == b.terms, ns

    def test_goncharov_depth_cap(self):
        with pytest.raises(ValueError):
            goncharov_symbol_bar(std_li(1, 1, 1))

    def test_goncharov_takes_only_li_gens(self):
        with pytest.raises(TypeError, match="PushedLi"):
            goncharov_symbol_bar(PushedLi(1, [[1, 0], [0, 1]], (2, 1)))

    def test_depth_one_symbol(self):
        got = recursion_symbol_bar(std_li(3))
        assert got.terms == {(((1,),), (2,)): F(1, 2)}

    def test_solve_back_embeds_correctly(self):
        for ns in [(2, 1), (2, 2), (1, 1, 1)]:
            g = std_li(*ns)
            assert embed_s(truncated_symbol(g)).terms == recursion_symbol_bar(g).terms


class TestDistribution:
    def test_depth_one_scaling(self):
        # x -> x^m at weight n equals m^{n-1} times the root sum
        for m, n in [(2, 2), (3, 2), (2, 4)]:
            lhs = nf1(n, (1, Monomial(0, (m,))))
            rhs = depth1_nf(
                n,
                [(F(m) ** (n - 1), Monomial(F(j, m), (1,))) for j in range(m)],
            )
            assert lhs == rhs

    def test_depth_two_root_sum(self):
        # series identity: sum over m-torsion twists = m^{k-n} Li(x^m)
        for m, ns in [(2, (1, 1)), (2, (2, 1)), (3, (1, 1)), (2, (2, 2))]:
            n, k = sum(ns), len(ns)
            total = Bar.zero(2)
            for j1, j2 in iproduct(range(m), repeat=2):
                args = (
                    Monomial(F(j1, m), (1, 0)),
                    Monomial(F(j2, m), (0, 1)),
                )
                total = total + recursion_symbol_bar(LiGen(ns, args))
            powered = LiGen(ns, (Monomial(0, (m, 0)), Monomial(0, (0, m))))
            want = F(m) ** (k - n) * recursion_symbol_bar(powered)
            assert total.terms == want.terms, (m, ns)

    def test_twists_forgotten(self):
        # symbols are blind to torsion twists of the arguments
        twisted = LiGen(
            (2, 1), (Monomial(F(1, 2), (1, 0)), Monomial(F(1, 3), (0, 1)))
        )
        assert (
            recursion_symbol_bar(twisted).terms
            == recursion_symbol_bar(std_li(2, 1)).terms
        )


class TestPushforward:
    """Pushforwards A . Li; below full depth, hand-derived ones of Li_n(x_1) in Q^2.

    With a the first column of the integral matrix A and N the content
    of a (the index of Z a in its saturation), the root expansion reads

        A . Li_n(x_1) = N^{n-3} sum_{j in (Z/N)^2} Li_n(zeta_N^{<a, j>} x^{a / N}).

    diag(1, N): a = e_1, so N = 1 and the sum is the one term Li_n(x_1);
    A fixes the only coordinate the generator sees.  Taking N = |det A|
    instead also takes N-th roots of x_2, on which nothing depends: the
    j_2 sum gives a factor N and leaves N^{n-2} sum_{j_1} Li_n(zeta^{j_1}
    x_1^{1/N}).  The distribution relation

        Li_n(y^N) = N^{n-1} sum_{zeta^N = 1} Li_n(zeta y)

    at y = x_1^{1/N} turns that into N^{n-2} N^{1-n} Li_n(x_1), which is
    1/N times the generator instead of the generator.

    diag(N, 1): a = N e_1, so the index is N, every phase zeta_N^{N j_1}
    is 1 and x^{a/N} = x_1: N^2 equal terms at N^{n-3}, so N^{n-1}
    Li_n(x_1).  This is what the diagonal action on bar words gives too,
    since the tail e_1^{n-1} goes to (N e_1)^{n-1}.

    A scalar s acts as s^{n-1} by the same count (the index of s a is s
    times that of a), so s I . Li_n(x_1) is s^{n-1} Li_n(x_1), not the
    s^{n-2} of the full-depth weight character.
    """

    def test_scalar_folding(self):
        assert PushedLi(1, [[3]], (2,)) == PushedLi(3, [[1]], (2,))
        assert PushedLi(1, [[F(1, 2)]], (3,)) == PushedLi(F(1, 4), [[1]], (3,))

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            PushedLi(1, [[1, 1], [1, 1]], (1, 1))

    def test_depth_exceeding_ambient_rejected(self):
        with pytest.raises(ValueError):
            PushedLi(1, [[1]], (1, 1))

    def test_expand_term_count(self):
        p = PushedLi(1, [[1, 0], [-1, 2]], (3, 1))
        terms = pushed_expand(p)
        assert len(terms) == 4
        assert all(c == 2 for c, _ in terms)

    def test_gl_act_composes(self):
        a = [[1, 1], [0, 1]]
        b = [[2, 0], [1, 1]]
        p = PushedLi(1, [[1, 0], [0, 1]], (2, 1))
        lhs = gl_act(a, gl_act(b, p))
        ab = [[3, 1], [1, 1]]
        assert lhs == gl_act(ab, p)

    def test_pushforward_routes_agree(self):
        for a, ns in [
            ([[1, 0], [-1, 2]], (3, 1)),
            ([[2, 1], [1, 1]], (2, 2)),
            ([[1, -1], [0, 1]], (2, 1)),
            # below full depth
            ([[1, 0], [0, 2]], (2,)),
            ([[2, 1], [1, 2]], (2,)),
            ([[1, -1, 0], [1, 1, 0], [0, 0, 1]], (3,)),
            ([[1, 1, 0], [0, 1, 1], [1, 0, 2]], (2, 1)),
            ([[2, 0, 1], [1, 1, 0], [0, 1, 1]], (1, 2)),
        ]:
            p = PushedLi(1, a, ns)
            via_st2 = embed_s(truncated_symbol(p))
            assert via_st2.terms == recursion_symbol_bar(p).terms, (a, ns)

    @pytest.mark.parametrize("nn", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_scaling_an_unused_coordinate_is_trivial(self, nn, n):
        lhs = recursion_symbol_bar(PushedLi(1, [[1, 0], [0, nn]], (n,)))
        assert lhs.terms == recursion_symbol_bar(LiGen((n,), (X1,))).terms

    @pytest.mark.parametrize("nn", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_scaling_the_used_coordinate(self, nn, n):
        lhs = recursion_symbol_bar(PushedLi(1, [[nn, 0], [0, 1]], (n,)))
        want = F(nn) ** (n - 1) * recursion_symbol_bar(LiGen((n,), (X1,)))
        assert lhs.terms == want.terms

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_scalar_matrix(self, n):
        p = PushedLi(1, [[2, 0], [0, 2]], (n,))
        assert p == PushedLi(F(2) ** (n - 1), [[1, 0], [0, 1]], (n,))
        want = F(2) ** (n - 1) * recursion_symbol_bar(LiGen((n,), (X1,)))
        assert recursion_symbol_bar(p).terms == want.terms

    def test_expand_unused_coordinate(self):
        p = PushedLi(1, [[1, 0], [0, 2]], (1,))
        assert pushed_expand(p) == [(F(1), LiGen((1,), (X1,)))]


class TestGLEquivariance:
    def test_symbol_commutes_with_action(self):
        rng = split_seed(20, "mpl-equivariance")
        mats = [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 1], [0, 1]],
                [[2, 0], [0, 1]], [[-1, 0], [0, 1]], [[2, 1], [1, 1]]]
        while len(mats) < 10:
            a = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            if a[0][0] * a[1][1] - a[0][1] * a[1][0]:
                mats.append(a)
        for a in mats:
            for ns in [(1, 1), (2, 1)]:
                lhs = recursion_symbol_bar(PushedLi(1, a, ns))
                rhs = bar_gl_act(a, recursion_symbol_bar(std_li(*ns)))
                assert lhs.terms == rhs.terms, (a, ns)

    def test_st2_action_matches_bar_action(self):
        x = truncated_symbol_closed((2, 1))
        for a in [[[1, 1], [0, 1]], [[0, 1], [1, 0]], [[2, 1], [1, 1]]]:
            assert embed_s(st2_gl_act(a, x)).terms == bar_gl_act(a, embed_s(x)).terms

    def test_actions_refuse_a_matrix_of_the_wrong_size(self):
        # a 2 x 3 or 4 x 3 matrix would write letters with 2 or 4
        # coordinates into an ambient-3 element
        x = truncated_symbol_closed((2, 1), 3)
        for a in ([[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], [[1, 0], [0, 1], [1, 1]]):
            with pytest.raises(ValueError, match="matrix size"):
                bar_gl_act(a, embed_s(x))
            with pytest.raises(ValueError, match="matrix size"):
                st2_gl_act(a, x)


WEIGHT4_TERMS = [
    (F(1), PushedLi(1, [[1, 0], [0, 1]], (2, 2))),
    (F(1), PushedLi(1, [[1, 0], [-1, 2]], (3, 1))),
    (F(-1), PushedLi(1, [[-1, 2], [1, 0]], (3, 1))),
    (F(-1), PushedLi(1, [[1, 0], [0, 1]], (3, 1))),
    (F(1), PushedLi(1, [[0, 1], [1, 0]], (3, 1))),
    (F(1), PushedLi(1, [[-1, 1], [1, 0]], (3, 1))),
    (F(1, 2), PushedLi(1, [[1, 0], [1, 1]], (4,))),
    ("product", 4),
]


class TestIdentityVerifier:
    def test_weight4_depth2_identity_holds(self):
        assert not li_identity_residual(WEIGHT4_TERMS).terms

    def test_single_coefficient_perturbations_fail(self):
        for i in range(6):
            bad = list(WEIGHT4_TERMS)
            c, p = bad[i]
            bad[i] = (c + F(1, 3), p)
            assert li_identity_residual(bad).terms, i

    def test_residual_is_nonempty_witness(self):
        bad = list(WEIGHT4_TERMS)
        bad[0] = (F(2), bad[0][1])
        assert li_identity_residual(bad).terms

    def test_empty_identity_holds(self):
        assert not li_identity_residual([]).terms

    def test_mixed_weights_rejected(self):
        with pytest.raises(ValueError):
            li_identity_residual(
                [(F(1), PushedLi(1, [[1]], (2,))), (F(1), PushedLi(1, [[1]], (3,)))]
            )

    def test_json_round_trip(self):
        back = identity_terms_from_json(identity_terms_to_json(WEIGHT4_TERMS))
        assert len(back) == len(WEIGHT4_TERMS)
        for got, want in zip(back, WEIGHT4_TERMS):
            if want[0] == "product":
                assert got == ("product", 4)
            else:
                # total coefficient survives even if folding moved it around
                assert got[1].matrix == want[1].matrix
                assert got[1].ns == want[1].ns
                assert got[0] * got[1].coeff == want[0] * want[1].coeff

    def test_reduction_certifies_zero(self):
        g = std_li(2, 1)
        bar = recursion_symbol_bar(g)
        assert bar_infty_reduce(bar + (-1) * bar).terms == {}
        assert bar_infty_reduce(bar).terms
