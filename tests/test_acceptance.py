"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is self-contained and seeded; the ones with a wall-clock
budget assert it at the end so a regression in the kernels shows up
here and not just in a profiler.
"""

import json
import math
import time
from fractions import Fraction
from importlib import resources
from itertools import combinations

from steinpoly.barcplx import bar_differential
from steinpoly.cli import main
from steinpoly.cones import (
    bernoulli_reference,
    coefficient_shuffle_check,
    st_equality_oracle,
    truncated_fourier_sum,
)
from steinpoly.mpl import (
    LiGen,
    PushedLi,
    bar_gl_act,
    goncharov_symbol_bar,
    identity_terms_from_json,
    li_identity_residual,
    recursion_symbol_bar,
    std_args,
    std_li,
    truncated_symbol,
    truncated_symbol_closed,
)
from steinpoly.qlinalg import (
    canonical_point,
    det,
    inverse,
    qm,
    qv,
    rank,
    split_seed,
    transpose,
    vec_add,
)
from steinpoly.st2 import (
    cobracket_matches_coproduct,
    dualize,
    embed_s,
    is_zero_st2,
    is_zero_st_infty,
    make_I,
    make_L,
    make_pair,
    st2_normal_form,
    st2_product,
)
from steinpoly.steinberg import (
    St,
    ash_rudolph_reduce,
    flag_expand,
    is_zero,
    make_apartment,
    replay_ash_rudolph,
)

E1, E2 = (1, 0), (0, 1)
F1, F2, F3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def rand_basis(rng, n, bound=4):
    while True:
        vecs = tuple(
            tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n)
        )
        if rank(tuple(qv(v) for v in vecs)) == n:
            return vecs


def rand_general_position(rng, n, bound=3):
    # basis plus a strictly-nonzero combination; every n-subset full rank
    while True:
        basis = [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n)]
        if rank([qv(v) for v in basis]) < n:
            continue
        cs = [rng.choice((-2, -1, 1, 2)) for _ in range(n)]
        extra = tuple(sum(c * b[i] for c, b in zip(cs, basis)) for i in range(n))
        vs = basis + [extra]
        if all(rank([qv(v) for v in c]) == n for c in combinations(vs, n)):
            return vs


def coxeter_lines(vecs):
    ps, acc = [], None
    for v in vecs:
        acc = qv(v) if acc is None else vec_add(acc, qv(v))
        ps.append(tuple(acc))
    return ps, [tuple(qv(v)) for v in vecs]


def perm_sign(tau):
    s = 1
    for i in range(len(tau)):
        for j in range(i + 1, len(tau)):
            if tau[i] > tau[j]:
                s = -s
    return s


def boundary_sum(vs, n):
    total = St.zero(n)
    for i in range(n + 1):
        omitted = [vs[j] for j in range(n + 1) if j != i]
        total = total + (-1) ** i * make_apartment(omitted, n)
    return total


def test_criterion_01_apartment_relations():
    t0 = time.monotonic()
    rng = split_seed(2026, "acc-relations")
    scales = (-3, -2, -1, 2, 3, Fraction(1, 2), Fraction(-5, 3))
    for i in range(200):
        n = 2 + i % 3
        vecs = rand_basis(rng, n)
        x = make_apartment(vecs, n)
        scaled = [tuple(l * Fraction(c) for c in v) for l, v in
                  zip((rng.choice(scales) for _ in vecs), vecs)]
        assert make_apartment(scaled, n).terms == x.terms
    for i in range(200):
        n = 2 + i % 3
        vecs = rand_basis(rng, n)
        tau = list(range(n))
        rng.shuffle(tau)
        permuted = [vecs[t] for t in tau]
        got = make_apartment(permuted, n)
        want = perm_sign(tau) * make_apartment(vecs, n)
        assert got.terms == want.terms
    for i in range(200):
        n = 2 + i % 3
        vs = rand_general_position(rng, n)
        assert is_zero(boundary_sum(vs, n))
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"relations suite took {elapsed:.2f}s"


def test_criterion_02_flag_basis_correctness():
    from steinpoly.qlinalg import Subspace

    t0 = time.monotonic()
    rng = split_seed(2026, "acc-flag")
    for i in range(100):
        n = 2 + i % 3
        vecs = rand_basis(rng, n, bound=5)
        x = make_apartment(vecs, n)
        e = flag_expand(x)
        basis = [[int(j == k) for k in range(n)] for j in range(n)]
        for key in e.terms:
            for r in range(1, n + 1):
                hit = any(
                    Subspace.span([qv(p) for p in sub]) == Subspace.span(basis[:r])
                    for sub in combinations(key, r)
                )
                assert hit, (key, r)
        assert st_equality_oracle(x, e, seed=i, points=5)
    elapsed = time.monotonic() - t0
    assert elapsed < 3.0, f"flag-basis suite took {elapsed:.2f}s"


def test_criterion_03_s_map_displays_and_closedness():
    t0 = time.monotonic()
    got = {w: c for (w, _e), c in embed_s(make_L([E1, E2])).terms.items()}
    assert got == {
        ((0, 1), (1, 0)): Fraction(1),
        ((1, 1), (1, 0)): Fraction(-1),
        ((1, 1), (0, 1)): Fraction(1),
    }
    got = {w: c for (w, _e), c in embed_s(make_I([E1, E2])).terms.items()}
    assert got == {
        ((1, 0), (0, 1)): Fraction(1),
        ((1, 0), (1, -1)): Fraction(-1),
        ((0, 1), (1, -1)): Fraction(1),
    }

    v1, v2, v3 = qv(F1), qv(F2), qv(F3)
    d21 = tuple(a - b for a, b in zip(v2, v1))
    d31 = tuple(a - b for a, b in zip(v3, v1))
    d32 = tuple(a - b for a, b in zip(v3, v2))
    # the d=3 expansion of the I generator has exactly 15 distinct words
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
    got = {w: c for (w, _e), c in embed_s(make_I([F1, F2, F3])).terms.items()}
    assert got == want
    rng = split_seed(2026, "acc-cocycle")
    for i in range(50):
        n = 2 + i % 3
        make = make_L if i % 2 == 0 else make_I
        vecs = rand_basis(rng, n, bound=3)
        assert not bar_differential(embed_s(make(vecs, n)))
    elapsed = time.monotonic() - t0
    assert elapsed < 3.0, f"s-map display suite took {elapsed:.2f}s"


def test_criterion_04_double_shuffle():
    t0 = time.monotonic()
    rng = split_seed(2026, "acc-shuffle")
    # ranks 2 to 4 in turn, then one basis each of ranks 5 and 6
    for i, n in enumerate([2 + i % 3 for i in range(100)] + [5, 6]):
        vecs = [qv(v) for v in rand_basis(rng, n)]
        for d1 in range(1, n):
            for make in (make_L, make_I):
                # lhs minus every shuffle, subtracted in place
                residual = st2_product(make(vecs[:d1], n), make(vecs[d1:], n))
                for pos in combinations(range(n), d1):
                    arranged = [None] * n
                    rest = [j for j in range(n) if j not in pos]
                    for k, p in enumerate(pos):
                        arranged[p] = vecs[k]
                    for k, p in enumerate(rest):
                        arranged[p] = vecs[d1 + k]
                    residual -= make(arranged, n)
                assert not st2_normal_form(residual), (i, n, d1)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"double shuffle suite took {elapsed:.2f}s"


def test_criterion_05_dihedral_and_nongeneric():
    t0 = time.monotonic()
    rng = split_seed(2026, "acc-dihedral")
    # ranks 2 and 3 alternating, then two bases each of ranks 4 and 5
    for i, n in enumerate([2 + i % 2 for i in range(50)] + [4, 4, 5, 5]):
        vecs = [qv(v) for v in rand_basis(rng, n, bound=3)]
        total = vecs[0]
        for v in vecs[1:]:
            total = vec_add(total, v)
        v0 = tuple(-x for x in total)
        L = make_L(vecs, n)
        assert is_zero_st_infty(L - make_L(vecs[1:] + [v0], n))
        assert is_zero_st_infty(L - make_L([tuple(-x for x in v) for v in vecs], n))
        assert is_zero_st_infty(L - make_L(list(reversed(vecs)), n, c=(-1) ** (n + 1)))
        I = make_I(vecs, n)
        assert is_zero_st_infty(I - make_I(list(reversed(vecs)), n, c=(-1) ** (n + 1)))
        ps, qs = coxeter_lines(vecs)
        slot = 1 + i % (n - 1) if n > 2 else 1
        qq = list(qs)
        qq[slot] = ps[slot]
        x = make_pair(ps, qq, n)
        assert x.terms
        assert is_zero_st_infty(x)
    elapsed = time.monotonic() - t0
    assert elapsed < 2.0, f"dihedral suite took {elapsed:.2f}s"


def test_criterion_06_cobracket_matches_coproduct():
    t0 = time.monotonic()
    rng = split_seed(2026, "acc-cobracket")
    # ranks 2 and 3 alternating, two bases each of ranks 4 and 5, one of rank 6
    for n in [2 + i % 2 for i in range(25)] + [4, 4, 5, 5, 6]:
        vecs = rand_basis(rng, n, bound=3)
        assert cobracket_matches_coproduct(vecs)
    elapsed = time.monotonic() - t0
    assert elapsed < 2.0, f"cobracket suite took {elapsed:.2f}s"


def test_criterion_07_duality():
    t0 = time.monotonic()
    rng = split_seed(2026, "acc-duality")
    for i in range(50):
        n = 2 + i % 3
        vecs = tuple(qv(v) for v in rand_basis(rng, n))
        dual = inverse(transpose(vecs))
        lhs = dualize(make_L(vecs, n))
        rhs = make_I(list(reversed(dual)), n, c=(-1) ** n)
        assert is_zero_st2(lhs - rhs)
        x = make_L(vecs, n) + 2 * make_I(rand_basis(rng, n), n)
        assert is_zero_st2(dualize(dualize(x)) - x)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"duality suite took {elapsed:.2f}s"


def test_criterion_08_truncated_symbol_routes():
    t0 = time.monotonic()
    got = recursion_symbol_bar(std_li(2, 1))
    want = {
        (((1, 1), (0, 1)), (1, 0)): Fraction(1),
        (((0, 1), (1, 0)), (1, 0)): Fraction(1),
        (((1, 1), (1, 0)), (1, 0)): Fraction(-1),
    }
    assert got.terms == want

    def tuples_up_to(k_max, w_max):
        out = [()]
        for _ in range(k_max):
            out = out + [t + (a,) for t in out for a in range(1, w_max + 1)]
        return [t for t in out if t and sum(t) <= w_max]

    for ns in tuples_up_to(3, 5) + [(1, 1, 1, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1), (2, 1, 1, 1, 1)]:
        st = truncated_symbol(std_li(*ns))
        assert is_zero_st2(st + (-1) * truncated_symbol_closed(ns)), ns
    for ns in tuples_up_to(2, 6):
        lhs = goncharov_symbol_bar(std_li(*ns))
        rhs = recursion_symbol_bar(std_li(*ns))
        assert lhs.terms == rhs.terms, ns
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"symbol route suite took {elapsed:.2f}s"


def test_criterion_09_weight4_identity_and_perturbations():
    data = json.loads(
        resources.files("steinpoly").joinpath("data/weight4_depth2.json").read_text()
    )
    terms = identity_terms_from_json(data)
    assert not li_identity_residual(terms).terms
    # coefficients on the depth-one term and the product marker sit below
    # the top depth, where the stable quotient is identically blind; the
    # six depth-two coefficients are the ones the verifier can see
    depth2 = [
        i
        for i, t in enumerate(terms)
        if t[0] != "product" and len(t[1].ns) == 2
    ]
    assert len(depth2) == 6
    for i in depth2:
        bad = list(terms)
        c, p = bad[i]
        bad[i] = (c + Fraction(1, 3), p)
        assert li_identity_residual(bad).terms, i


def certified_reduction(vecs):
    """ash_rudolph_reduce(vecs), checked by replaying its pivot table."""
    pivots = {}
    out = ash_rudolph_reduce(vecs, pivots)
    assert replay_ash_rudolph(make_apartment(vecs), pivots) == out
    return out


def test_criterion_10_unimodular_reduction():
    t0 = time.monotonic()
    rng = split_seed(2026, "acc-reduce")
    done = 0
    while done < 100:
        vecs = tuple(tuple(rng.randint(-12, 12) for _ in range(2)) for _ in range(2))
        dd = abs(det(qm(vecs)))
        if dd == 0 or dd > 100:
            continue
        out = certified_reduction(vecs)
        for key in out.terms:
            assert abs(det(qm(key))) == 1
        assert len(out.terms) <= 4 * math.log2(max(dd, 2)) + 4
        assert st_equality_oracle(out, make_apartment(vecs), seed=done, points=5)
        done += 1
    done = 0
    while done < 25:
        vecs = tuple(tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(3))
        dd = abs(det(qm(vecs)))
        if dd == 0 or dd > 50:
            continue
        out = certified_reduction(vecs)
        for key in out.terms:
            assert abs(det(qm(key))) == 1
        assert st_equality_oracle(out, make_apartment(vecs), seed=done, points=5)
        done += 1
    # large determinants: the rank-2 pivot comes from a reduced lattice
    done = 0
    while done < 5:
        vecs = tuple(tuple(rng.randint(-1000, 1000) for _ in range(2)) for _ in range(2))
        dd = abs(det(qm(vecs)))
        if not 10**5 <= dd <= 10**6:
            continue
        out = certified_reduction(vecs)
        for key in out.terms:
            assert abs(det(qm(key))) == 1
        assert len(out.terms) <= 4 * math.log2(dd) + 4
        assert st_equality_oracle(out, make_apartment(vecs), seed=done, points=5)
        done += 1
    # one pivot rule at every rank: a rank-6 case reduced line by line did
    # not finish in 9 minutes
    for n in (5, 6):
        vecs = rand_basis(rng, n, bound=3)
        out = certified_reduction(vecs)
        for key in out.terms:
            assert abs(det(qm(key))) == 1
        assert st_equality_oracle(out, make_apartment(vecs), seed=n, points=5)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"reduction suite took {elapsed:.2f}s"


def test_criterion_11_fourier_bernoulli_and_shuffle():
    t0 = time.monotonic()
    xs = (Fraction(1, 3), Fraction(1, 5), Fraction(2, 7))
    for n, tol in ((1, 1e-2), (2, 1e-6), (3, 1e-6)):
        for x in xs:
            val = truncated_fourier_sum(
                [(1,)], [(1,)], [n], (x,), 10_000
            ) + truncated_fourier_sum([(-1,)], [(1,)], [n], (x,), 10_000)
            ref = bernoulli_reference(n, x)
            assert abs(val - ref) <= tol, (n, x, abs(val - ref))
    assert coefficient_shuffle_check(25)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"fourier suite took {elapsed:.2f}s"


def test_criterion_12_gl_equivariance():
    t0 = time.monotonic()
    rng = split_seed(2026, "acc-gl")
    for n, count, tuples in (
        (2, 20, [(1,), (2,), (4,), (1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3)]),
        (3, 6, [(1,), (3,), (1, 1), (2, 1), (1, 3), (1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]),
    ):
        mats = []
        while len(mats) < count:
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            dd = det(qm(a))
            if dd != 0 and abs(dd) <= 3:
                mats.append(a)
        for a in mats:
            for ns in tuples:
                lhs = recursion_symbol_bar(PushedLi(1, a, ns))
                std = LiGen(ns, std_args(n)[: len(ns)])
                rhs = bar_gl_act(a, recursion_symbol_bar(std))
                assert lhs.terms == rhs.terms, (a, ns)
    elapsed = time.monotonic() - t0
    assert elapsed < 3.0, f"equivariance suite took {elapsed:.2f}s"


def test_criterion_13_failing_verdict_stops_at_its_witness(tmp_path):
    """A perturbed rank-6 identity FAILs with the 8 least terms of its residual.

    The residual's whole normal form has up to |FE(A)| |FE(B)| terms a
    pair, about d!^2; the witness is its 8 least terms, so a failing case
    stops there instead of building the rest.
    """
    rng = split_seed(2026, "acc-witness")
    fixtures = []
    for suite in ("duality", "shuffle"):
        entry = {"basis": rand_basis(rng, 6, 3), "perturb": {"vectors": rand_basis(rng, 6, 3), "coeff": "3/2"}}
        fixture = tmp_path / f"{suite}.json"
        fixture.write_text(json.dumps({"cases": [entry]}))
        fixtures.append((suite, fixture))
    t0 = time.monotonic()
    for suite, fixture in fixtures:
        out = tmp_path / f"{suite}-report.json"
        assert main(["verify", suite, str(fixture), "--out", str(out)]) == 1, suite
        (failure,) = json.loads(out.read_text())["failures"]
        assert len(failure["witness"]["residual"]) == 8, suite
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"perturbed rank-6 duality and shuffle took {elapsed:.2f}s"


def test_criterion_14_million_point_sums():
    """Million-point Fourier sums take well under a second and give the same floats.

    The sum runs one row of the box at a time, from lazy progressions along
    the last axis and one cycle of phases; the values are those of the
    point-by-point loop, bit for bit.
    """
    t0 = time.monotonic()
    ray = truncated_fourier_sum([(1,)], [(1,)], [2], (Fraction(1, 3),), 10**6)
    cone = truncated_fourier_sum(
        [(1, 0), (1, 1)], [(1, 0), (0, 1)], [2, 3], (Fraction(1, 3), Fraction(2, 5)), 1000
    )
    elapsed = time.monotonic() - t0
    assert repr(ray) == "(-0.5483113556160849+0.6766277376070392j)"
    assert repr(cone) == "(0.15516905044364532+0.11623550458687416j)"
    assert elapsed < 2.0, f"two million-point Fourier sums took {elapsed:.2f}s"


# one perturbed rank-6 fixture, shared with the CI console-script step
PERTURBED_DIHEDRAL_6 = {
    "basis": [[-2, 3, 3, -2, 3, -2], [-3, -1, -1, 1, 2, 1], [-3, 0, 2, 0, -3, 2],
              [1, 1, 3, 1, -1, -3], [3, -2, 0, -2, 2, -3], [3, 3, 0, -2, -3, 1]],
    "perturb": {
        "vectors": [[0, 1, 0, -2, 3, -1], [-1, -1, 0, -3, 1, -1], [0, 2, 2, -3, -1, -3],
                    [2, -2, -3, 2, 0, 2], [0, 2, 3, 3, -3, 2], [0, -3, 3, 0, 2, 2]],
        "coeff": "-2/3",
    },
}


def test_criterion_15_failing_stable_verdict_stops_at_its_block(tmp_path):
    """A perturbed rank-6 dihedral case FAILs at the least nonzero block of its residual.

    The stable quotient is a direct sum of blocks, one per letter multiset;
    the rotation residual is reduced block by block in ascending order and
    the first nonzero block ends the case, with up to 8 of its reduced
    words as the witness.
    """
    fixture = tmp_path / "dihedral.json"
    fixture.write_text(json.dumps({"cases": [PERTURBED_DIHEDRAL_6]}))
    out = tmp_path / "report.json"
    t0 = time.monotonic()
    assert main(["verify", "dihedral", str(fixture), "--out", str(out)]) == 1
    elapsed = time.monotonic() - t0
    (failure,) = json.loads(out.read_text())["failures"]
    witness = failure["witness"]
    assert witness["relation"] == "rotation"
    assert 0 < len(witness["residual"]) <= 8
    first = [tuple(map(Fraction, p)) for p in witness["residual"][0]["word"]]
    for row in witness["residual"]:
        word = [tuple(map(Fraction, p)) for p in row["word"]]
        # one block: the same letters, and each word starts with the least one
        assert sorted(word) == sorted(first) and word[0] == min(word)
        assert Fraction(row["coeff"]) != 0
    assert elapsed < 0.75, f"perturbed rank-6 dihedral took {elapsed:.2f}s"
