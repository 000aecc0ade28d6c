"""Rational-function evaluation and lattice coefficient checks."""
import os
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steinpoly
from steinpoly.cones import (
    PoleError,
    bernoulli_reference,
    coefficient_shuffle_check,
    cone_to_steinberg,
    fourier_coefficient,
    rho_st,
    rho_term,
    st_equality_oracle,
    truncated_fourier_sum,
)
from steinpoly.qlinalg import canonical_point, split_seed
from steinpoly.st2 import St2, is_zero_st2, make_L, st2_product
from steinpoly.steinberg import St, _sort_sign, flag_expand, is_zero, make_apartment


class TestRho:
    def test_identity_apartment(self):
        z = (Fraction(5), Fraction(3))
        got = rho_st(make_apartment([(1, 0), (0, 1)], 2), z)
        assert got == Fraction(1, 15)

    def test_partial_fraction_split(self):
        # 1/(z1 z2) = 1/((z1 - z2) z2) + 1/(z1 (z2 - z1))
        z = (Fraction(7), Fraction(3))
        lhs = rho_st(make_apartment([(1, 0), (0, 1)], 2), z)
        rhs = rho_st(make_apartment([(1, 0), (1, 1)], 2), z) + rho_st(
            make_apartment([(1, 1), (0, 1)], 2), z
        )
        assert lhs == rhs

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            rho_term(((1, 0), (0, 1)), (0, 0), (0, 5))

    def test_monomial_rule(self):
        # identity apartment, monomial z-coordinate e_1: k = (1, 0),
        # value 1!/(z1^2) * 1/z2
        z = (Fraction(2), Fraction(3))
        got = rho_term(((1, 0), (0, 1)), (1, 0), z)
        assert got == Fraction(1, 4) * Fraction(1, 3)

    def test_scale_invariance_of_classes(self):
        z = (Fraction(11), Fraction(7))
        a = rho_st(make_apartment([(2, 0), (0, 1)], 2), z)
        b = rho_st(make_apartment([(1, 0), (0, 3)], 2), z)
        assert a == b

    def test_boundary_relation_evaluates_to_zero(self):
        u = [(1, 0), (0, 1), (1, 2)]
        x = St.zero(2)
        for i in range(3):
            x = x + (-1) ** i * make_apartment(
                [u[j] for j in range(3) if j != i], 2
            )
        assert st_equality_oracle(x, St.zero(2))


class TestOracles:
    def test_flag_expansion_agrees(self):
        rng = split_seed(71, "rho")
        for n in (2, 3):
            for _ in range(4):
                vecs = [
                    tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)
                ]
                x = make_apartment(vecs, n)
                if not x.terms:
                    continue
                assert st_equality_oracle(x, flag_expand(x))

    def test_rank_zero(self):
        # the empty apartment of Q^0 is the unit: it evaluates to 1
        unit = St(0, {(): Fraction(1)})
        assert rho_term((), (), ()) == 1
        assert not st_equality_oracle(unit, St.zero(0))
        assert not is_zero_st2(St2(0, {((), (), ()): Fraction(1)}) - St2.zero(0))

    def test_detects_inequality(self):
        x = make_apartment([(1, 0), (0, 1)], 2)
        y = 2 * make_apartment([(1, 0), (0, 1)], 2)
        assert not st_equality_oracle(x, y)

    def test_st2_oracle_on_shuffle(self):
        vecs = [(1, 0), (0, 1)]
        lhs = st2_product(make_L([vecs[0]], 2), make_L([vecs[1]], 2))
        rhs = make_L(vecs, 2) + make_L(list(reversed(vecs)), 2)
        assert is_zero_st2(lhs - rhs)
        assert not is_zero_st2(lhs - 2 * rhs)

    def test_st2_oracle_separates_exps(self):
        x = make_L([(1, 0), (0, 1)], 2, exps=(1, 0))
        y = make_L([(1, 0), (0, 1)], 2, exps=(0, 1))
        assert not is_zero_st2(x - y)


COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def st_sums(draw):
    """Random St sums mixing independent, dependent and relation terms.

    Dependent vectors drop out of make_apartment; a raw key with dependent
    entries is added as is. Boundary relations and permuted, rescaled
    copies of a term make many sums zero without them being empty.
    """
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * n).filter(any)
    x = St.zero(n)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["apartment", "raw dependent", "boundary", "cancel"]))
        c = draw(COEFFS)
        if kind == "apartment":
            x += c * make_apartment(draw(st.lists(vec, min_size=n, max_size=n)), n)
        elif kind == "raw dependent":
            if n > 1:  # the last entry is a multiple of another one
                head = draw(st.lists(vec, min_size=n - 1, max_size=n - 1))
                scale = draw(st.sampled_from([-2, 1, 3]))
                last = tuple(scale * e for e in draw(st.sampled_from(head)))
                x.add_term(tuple(sorted(canonical_point(v) for v in head + [last])), c)
        elif kind == "boundary":
            u = draw(st.lists(vec, min_size=n + 1, max_size=n + 1))
            for i in range(n + 1):
                x += (-1) ** i * c * make_apartment(u[:i] + u[i + 1 :], n)
        else:
            vecs = draw(st.lists(vec, min_size=n, max_size=n))
            perm = draw(st.sampled_from(list(permutations(range(n)))))
            scales = draw(st.lists(st.sampled_from([-3, -1, 2]), min_size=n, max_size=n))
            moved = [tuple(scales[i] * e for e in vecs[p]) for i, p in enumerate(perm)]
            x += c * make_apartment(vecs, n)
            x -= c * _sort_sign(perm)[1] * make_apartment(moved, n)
    return x


@given(st_sums())
@settings(max_examples=150, deadline=None)
def test_flag_zero_test_agrees_with_evaluation_oracle(x):
    assert is_zero(x) == st_equality_oracle(x, St.zero(x.ambient))


def test_raw_dependent_key_is_zero_on_both_routes():
    x = St(2, {((1, 2), (2, 4)): Fraction(3)})
    assert is_zero(x) and st_equality_oracle(x, St.zero(2))
    assert rho_term(((1, 2), (2, 4)), (0, 0), (5, 7)) == 0


class TestConeMap:
    def test_generator_order_irrelevant(self):
        # the det sign compensates reordering, so the map only sees the cone
        pos = cone_to_steinberg([(1, 0), (0, 1)])
        swapped = cone_to_steinberg([(0, 1), (1, 0)])
        assert pos.terms
        assert pos == swapped

    def test_lower_dimensional_is_zero(self):
        assert not cone_to_steinberg([(1, 0), (2, 0)]).terms
        assert not cone_to_steinberg([(1, 0)], 2).terms


class TestLattice:
    def test_open_membership(self):
        e1, diag = (1, 0), (1, 1)
        forms, ns = ((1, 0), (0, 1)), (1, 1)
        assert fourier_coefficient([e1, diag], forms, ns, (3, 1)) == Fraction(1, 3)
        # boundary of the open cone: excluded
        assert fourier_coefficient([e1, diag], forms, ns, (2, 2)) == 0
        assert fourier_coefficient([e1, diag], forms, ns, (1, 2)) == 0

    def test_quasi_shuffle_box(self):
        assert coefficient_shuffle_check(10)

    def test_homogeneity(self):
        # dilating the point by s scales the coefficient by s^-(total weight)
        for gens, forms, ns, nu, s in (
            ([(1, 0), (1, 1)], ((1, 0), (0, 1)), (1, 1), (5, 2), 3),
            ([(1,)], ((1,),), (2,), (4,), 5),
        ):
            base = fourier_coefficient(gens, forms, ns, nu)
            assert base != 0
            dilated = fourier_coefficient(gens, forms, ns, tuple(s * q for q in nu))
            assert dilated == Fraction(s) ** -sum(ns) * base

    def test_bernoulli_small(self):
        # weight 2 at 1/3 with a short truncation already lands close
        x = Fraction(1, 3)
        s = truncated_fourier_sum([(1,)], [(1,)], (2,), (x,), 500)
        s += truncated_fourier_sum([(-1,)], [(1,)], (2,), (x,), 500)
        assert abs(s - bernoulli_reference(2, x)) < 1e-4

    def test_bernoulli_reference_value(self):
        # -(2 pi i)^2/2 * B_2(1/3) = -pi^2/9
        import math

        got = bernoulli_reference(2, Fraction(1, 3))
        assert abs(got - (-math.pi**2 / 9)) < 1e-12


# VmHWM is the peak RSS of the interpreter itself; ru_maxrss would keep the
# peak of the forking test process across exec
RAY_PROCESS = """
import re, sys
from fractions import Fraction
from steinpoly.cones import truncated_fourier_sum
x = 1 / 3 if sys.argv[1] == "float" else Fraction(1, 3)
value = truncated_fourier_sum([(1,)], [(1,)], [2], (x,), 10**6)
with open("/proc/self/status") as f:
    print(repr(value), re.search(r"VmHWM:\\s*(\\d+) kB", f.read()).group(1))
"""


def _ray_in_a_process(kind):
    """(repr, peak RSS in MB) of the 10^6-point ray summed in a fresh interpreter."""
    src = str(Path(steinpoly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", RAY_PROCESS, kind], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    value, peak_kb = out.stdout.split()
    return value, int(peak_kb) / 1024


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_ray_at_a_float_point_keeps_memory_flat():
    """The float 1/3 is 6004799503160661 / 2^54: no residue repeats along the ray, so no phase is memoised.

    A memo of every residue held one complex per lattice point, 122 MB at
    10^6 points against 20 MB at Fraction(1, 3). The values are unchanged.
    """
    float_value, float_peak = _ray_in_a_process("float")
    frac_value, frac_peak = _ray_in_a_process("fraction")
    assert float_value == "(-0.548311355616085+0.6766277376070395j)"
    assert frac_value == "(-0.5483113556160849+0.6766277376070392j)"
    assert float_peak < frac_peak + 5, (float_peak, frac_peak)
