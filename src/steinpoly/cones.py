"""Rational-function and lattice-sum realizations of apartment classes.

An apartment [v_1..v_d] acts on a point z as det of the dual basis over
the product of the dual linear forms at z; this turns exact identities
between combinations of apartments into identities of rational
functions, checkable at random integer points. The evaluation runs in
integers: with D = det [v_1..v_d] and A_i the integer adjugate rows, so
<A_i, v_j> = D delta_ij, the value at an integer point Z is
D^(d-1) / prod_i <A_i, Z>, one Fraction per apartment. The same cones carry
generating-function coefficients, giving the quasi-shuffle and
Bernoulli checks at the lattice level. Truncated Fourier sums run in
integers (denominators cleared once, phases memoised by residue), one row of
the box at a time: along the last axis every pairing is an arithmetic
progression and the phase residue runs through one cycle, so a row is lazy
iterators over ranges, added up in the same order as before. They give the
same floats, bit for bit, as the exact Fraction sum rounded term by term.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import cycle, islice, product as iproduct, repeat
from operator import mul
from typing import Sequence

from .qlinalg import _cleared, _int_det, qv, solve, split_seed, vec_dot
from .steinberg import (
    ApKey,
    St,
    _dual_lines,
    _independent,
    _int_vectors,
    _power_product,
    make_apartment,
    zero_exps,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class PoleError(ArithmeticError):
    """Raised when an evaluation point sits on one of the pole hyperplanes."""


def cone_to_steinberg(generators: Sequence, ambient: int | None = None) -> St:
    """Apartment class of a simplicial cone, oriented by the sign of det.

    Lower-dimensional cones map to zero.
    """
    gens, n = _int_vectors(generators, ambient)
    d = _int_det(gens) if len(gens) == n else 0
    if d == 0:
        return St.zero(n)
    sign = 1 if d > 0 else -1
    return sign * make_apartment(gens, n)


# (A, D) of a key: D its det and A_i the integer rows with <A_i, v_j> = D delta_ij,
# ((), 0) for dependent entries
_dual_data = lru_cache(maxsize=None)(_dual_lines)


def rho_term(key: ApKey, exps: Sequence[int], z: Sequence) -> Fraction:
    """Evaluate one apartment times an ambient coordinate monomial.

    The monomial is re-expanded in the apartment basis; a basis monomial
    prod v_i^{k_i} contributes prod k_i! * det over the dual forms at z
    raised to k_i + 1. The dual forms are A_i / D (_dual_data), so with
    z = Z / e, Z integral, and P_i = <A_i, Z>, a term of total degree
    m = |exps| is the single fraction
        D^(d-1) e^(d+m) sum_mono C_mono prod k_i! P_i^(m-k_i) / prod P_i^(m+1),
    where C_mono are the integer coefficients of the expansion along the
    columns of A; for m = 0 it is D^(d-1) e^d / prod P_i. Some P_i = 0 is
    a pole. An apartment with dependent entries is the zero class and
    evaluates to 0; the empty apartment of Q^0 is the unit and evaluates
    to 1.
    """
    if all(type(x) is int for x in z):
        zint, e = z, 1
    else:
        (zint,), e = _cleared([qv(z)])
    d = len(key)
    if len(zint) != d:
        raise ValueError("evaluation point and apartment have different dimensions")
    if not d:
        return ONE
    adj, dd = _dual_data(key)
    if not dd:
        return ZERO
    pairings = [sum(map(mul, a, zint)) for a in adj]
    if 0 in pairings:
        raise PoleError(f"evaluation point on a pole hyperplane of {key}")
    m = sum(exps)
    scale = dd ** (d - 1) * e ** (d + m)
    if not m:
        return Fraction(scale, math.prod(pairings))
    # coordinates of D e_j in the apartment basis are the j-th entries of A
    mono_dict = _power_product(list(zip(*adj)), exps, d)
    num = sum(
        c * math.prod(math.factorial(k) * p ** (m - k) for k, p in zip(mono, pairings))
        for mono, c in mono_dict.items()
    )
    return Fraction(scale * num, math.prod(pairings) ** (m + 1))


def rho_st(x: St, z: Sequence) -> Fraction:
    total = ZERO
    zeros = zero_exps(x.ambient)
    for key, c in x.terms.items():
        total += c * rho_term(key, zeros, z)
    return total


def _draw_point(rng, n: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, 10_000) for _ in range(n))


def _vanishes_at_samples(vanishes_at_draw, points: int) -> bool:
    """True when vanishes_at_draw() holds at `points` pole-free draws.

    Each call draws its own evaluation points and raises PoleError on the
    pole locus, which only costs a resample; a draw where the difference
    does not vanish decides the answer at once.
    """
    done = 0
    attempts = 0
    while done < points:
        attempts += 1
        if attempts > 50 * points:
            raise RuntimeError("could not find pole-free evaluation points")
        try:
            if not vanishes_at_draw():
                return False
        except PoleError:
            continue
        done += 1
    return True


def st_equality_oracle(x: St, y: St, seed: int = 0, points: int = 5) -> bool:
    """Compare two combinations of apartments as rational functions.

    Evaluates the difference at seeded random integer points, resampling
    off the pole locus. Exact arithmetic: agreement at the sampled
    points with disagreement elsewhere would need the difference to be
    a nonzero function vanishing there, which retrying several points
    makes implausible; identity of classes implies agreement always.
    It shares no code with any reduction, so tests keep it as an
    independent check; `verify ashrudolph` decides exactly instead, by
    steinberg.replay_ash_rudolph and the flag zero test.
    """
    if x.ambient != y.ambient:
        return False
    diff = x - y
    if not diff.terms:
        return True
    rng = split_seed(seed, "st-oracle")
    return _vanishes_at_samples(lambda: rho_st(diff, _draw_point(rng, x.ambient)) == 0, points)


# ------------------------------------------------------------ lattice side


def fourier_coefficient(
    generators: Sequence, forms: Sequence, ns: Sequence[int], nu: Sequence
) -> Fraction:
    """Coefficient of a cone piece at a lattice point.

    Membership is in the open cone (all barycentric coordinates along
    the generators strictly positive); the value is the product of the
    pairings with the given forms, raised to -n_j. Points outside the
    open cone contribute zero.
    """
    gens = [qv(g) for g in generators]
    nuv = qv(nu)
    n = len(nuv)
    cols = tuple(tuple(g[r] for g in gens) for r in range(n))
    lam = solve(cols, nuv)
    if lam is None:
        return ZERO
    # solve() gives one exact solution; independent generators make it unique
    if any(l <= 0 for l in lam):
        return ZERO
    val = ONE
    for u, m in zip(forms, ns, strict=True):
        p = vec_dot(qv(u), nuv)
        if p == 0:
            raise PoleError("lattice point pairs to zero with a form")
        val *= p ** (-m)
    return val


def truncated_fourier_sum(
    generators: Sequence, forms: Sequence, ns: Sequence[int], x: Sequence, m_max: int
) -> complex:
    """Partial exponential sum over nu = sum_j lam_j G_j, lam in [1, m_max]^k.

    Those nu are the open cone's lattice points (truncated) only when the
    generators G_j form a basis of their lattice; they must at least be
    independent, or a point would be counted once per way of writing it,
    so dependent generators raise ValueError. The phase at nu is
    exp(2 pi i <x, nu>) with <x, nu> reduced mod 1 exactly first.

    The sum runs in integers. With the denominators of the generators
    cleared to one g, nu = sum_j lam_j G_j / g; a form U / u pairs with it
    to sum_j lam_j (U.G_j) / (u g), and x = X / e to a phase k / (e g) with
    k = sum_j lam_j (X.G_j) mod e g. So each coefficient is a fixed integer
    scale over a product of integer pairings; int / int true division
    rounds it exactly as float() of the Fraction, and exp(2 pi i k / (e g))
    is memoised per residue k for the rows whose residues repeat.

    The box runs one row at a time: lam_1..lam_(k-1) in lexicographic
    order, then t = lam_k = 1..m_max. Along a row every pairing is an
    arithmetic progression b + r t, so the numerators and denominators are
    products of powers of ranges, and the residue k repeats with period
    e g / gcd(r_x, e g). When that period is shorter than the row, the
    phases are one cycle of memoised values; otherwise no residue repeats
    within the row, and each phase is computed as it is used, with no memo,
    so a large exact denominator (a float x) keeps memory flat. All of
    these are lazy iterators, so only the memo of the cycling rows, at most
    one cycle a row, grows with the box. The loop adds num / den * phase on
    the same ints in the same order as the Fraction sum, so the result is
    the same float bit for bit.
    A zero denominator is a pole: the PoleError names the first one in
    lexicographic order, and an earlier term too large for a float raises
    OverflowError first.
    """
    gens = [qv(g) for g in generators]
    xv = qv(x)
    n = len(xv)
    if any(len(g) != n for g in gens):
        raise ValueError("generators and x must have the same length")
    if len(forms) != len(ns):
        raise ValueError("one exponent per form")
    gint, gden = _cleared(gens)
    if not _independent(gint, n):
        raise ValueError("cone generators are dependent")
    scale_num = scale_den = 1
    pairings = []  # (U.G_j for each j, exponent)
    for u, m in zip(forms, ns):
        (urow,), uden = _cleared([qv(u)])
        if len(urow) != n:
            raise ValueError("forms and x must have the same length")
        if m > 0:
            scale_num *= (uden * gden) ** m
        elif m < 0:
            scale_den *= (uden * gden) ** -m
        pairings.append(([sum(map(mul, urow, g)) for g in gint], m))
    (xrow,), xden = _cleared([xv])
    xpair = [sum(map(mul, xrow, g)) for g in gint]
    period = xden * gden
    phases: dict[int, complex] = {}

    def phase_at(k: int) -> complex:
        value = phases.get(k)
        if value is None:
            value = phases[k] = cmath.exp(2j * math.pi * (k / period))
        return value

    # lam = outer + (t,); with no generators the one point is nu = 0, lam = ()
    def split_last(row):
        return (row[:-1], row[-1]) if gint else ((), 0)

    den_factors = [(*split_last(row), m) for row, m in pairings if m > 0]
    num_factors = [(*split_last(row), -m) for row, m in pairings if m < 0]
    xhead, xr = split_last(xpair)
    outers = iproduct(range(1, m_max + 1), repeat=len(gint) - 1) if gint else [()]
    length = m_max if gint else 1
    cycle_len = min(period // math.gcd(xr, period), length)
    total = 0j
    for outer in outers:
        kb = sum(map(mul, xhead, outer))
        if cycle_len < length:
            row_phases = islice(cycle([phase_at((kb + xr * t) % period) for t in range(1, cycle_len + 1)]), length)
        else:
            # no residue repeats within the row: each phase is used once here
            row_phases = (cmath.exp(2j * math.pi * ((kb + xr * t) % period / period)) for t in range(1, length + 1))
        nums = _row_product(scale_num, num_factors, outer, length)
        dens = _row_product(scale_den, den_factors, outer, length)
        try:
            for num, den, phase in zip(nums, dens, row_phases):
                total += num / den * phase
        except ZeroDivisionError:
            # the row's first zero denominator is the first pole in lex order
            lam = outer
            if gint:
                starts = [(sum(map(mul, head, outer)), r) for head, r, _ in den_factors]
                poles = (t for t in range(1, length + 1) if any(b + r * t == 0 for b, r in starts))
                lam += (next(poles),)
            nu = ", ".join(str(Fraction(sum(map(mul, lam, col)), gden)) for col in zip(*gint))
            raise PoleError(f"lattice point ({nu}) pairs to zero with a form") from None
    return total


def _row_product(scale: int, factors, outer: tuple[int, ...], length: int):
    """scale * prod (b + r t) ** m over the factors (head, r, m), t = 1..length, lazily.

    b = <head, outer> is the factor's pairing at t = 0 of the row.
    """
    out = None
    for head, r, m in factors:
        b = sum(map(mul, head, outer))
        run = range(b + r, b + r * (length + 1), r) if r else repeat(b, length)
        if m != 1:
            run = map(pow, run, repeat(m))
        out = run if out is None else map(mul, out, run)
    if out is None:
        return repeat(scale)
    return out if scale == 1 else map(mul, repeat(scale), out)


def bernoulli_reference(n: int, x) -> complex:
    """-(2 pi i)^n / n! times the periodic Bernoulli polynomial at x."""
    import mpmath

    xf = Fraction(x)
    frac = xf - math.floor(xf)
    bn = mpmath.bernpoly(n, mpmath.mpf(frac.numerator) / frac.denominator)
    val = -((2j * mpmath.pi) ** n) / mpmath.factorial(n) * bn
    return complex(val)


def coefficient_shuffle_check(box: int = 25) -> bool:
    """Exact per-point check of the diagonal decomposition of a product.

    The first-quadrant product cone splits into the two open triangles
    and the diagonal ray; coefficients 1/(a b) must match piecewise for
    every lattice point of the box.
    """
    e1, e2, diag = (1, 0), (0, 1), (1, 1)
    forms = (e1, e2)
    ns = (1, 1)
    for a in range(1, box + 1):
        for b in range(1, box + 1):
            nu = (a, b)
            want = Fraction(1, a * b)
            got = (
                fourier_coefficient([e1, diag], forms, ns, nu)
                + fourier_coefficient([e2, diag], forms, ns, nu)
                + fourier_coefficient([diag], forms, ns, nu)
            )
            if got != want:
                return False
    return True
