"""Reference symbol routes, kept verbatim from before the faster rewrites
so tests can check that the faster routes agree with them bit for bit.

The phased depth-one kernel lives here too, moved out of the package
once its integer, phase-free routes no longer read it: DepthOneNF
with _primitive_split and depth1_nf (the depth-one normal form, phases
kept), _nf_of_gen, _root_expansion, alpha and pushed_expand (the root
expansion of a bar word or a pushforward into phased generators), and
FormalII with ii_shuffle, ii_path_compose and ii_reverse (formal iterated
integrals with Monomial entries), and monomial_mul and monomial_pow, the
product and powers of Monomials, which only these phased routes take.

recursion_symbol_bar sums the symbol of every root-expanded generator of a
pushforward (N^d of them) and runs sigma once per slot tuple;
_bar_slice_to_st2 solves against every word the candidates embed to, not
only the slice's own words.  delta_top and _iterated_top are the phased
top coproduct over Monomial arguments; with _sigma_acc and _sigma_emit
they make phased_symbol_bar, the recursion as it ran before its integer,
phase-free rewrite.  goncharov_symbol_bar and bar_gl_act are the Fraction
kernels from before that rewrite too, and st2_gl_act is the Fraction action
on apartment pairs from before it moved to a cleared integer matrix; the
reference truncated_symbol uses it.  goncharov_symbol_bar runs on formal
iterated integrals of Monomial entries: li_to_ii writes the generator as
one, goncharov_coproduct lists every (subsequence, gaps) term of its
coproduct, and divergent_reduce takes each single-middle factor to the
phased depth-one normal form.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product as iproduct
from math import comb, factorial, gcd, lcm, prod
from typing import Iterable, Sequence

from qlinalg_reference import saturation_index
from steinpoly.barcplx import Bar, shuffle_words
from steinpoly.mpl import ONE, ZERO, LiGen, Monomial, PushedLi, truncated_symbol_closed
from steinpoly.qlinalg import (
    _minor_gcd,
    canonical_point,
    qm,
    qv,
    rank,
    solve,
    vec_dot,
)
from steinpoly.st2 import St2, embed_s, make_L, make_pair
from steinpoly.steinberg import _acc, _power_product


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    """a * b: the phases add, and the exponent vectors add."""
    return Monomial(a.phase + b.phase, [x + y for x, y in zip(a.exps, b.exps, strict=True)])


def monomial_pow(a: Monomial, k: int) -> Monomial:
    """a ** k: the phase and the exponent vector times k."""
    return Monomial(k * a.phase, [k * e for e in a.exps])


def pushed_expand(p: PushedLi) -> list[tuple[Fraction, LiGen]]:
    """Root expansion of the action into honest generators.

    alpha of the first k columns of the matrix, each coefficient times
    the generator's own: N^d generators at p.coeff * N^{n-d-1}.  They
    share their exponent vectors and differ only in phase, so any map
    that is linear and blind to phase (the symbol recursion) takes N^d
    times its value on the zero-phase generator, the first one listed.
    """
    cols = list(zip(*p.matrix))[: p.depth]
    return [(p.coeff * c, LiGen(p.ns, slots)) for c, slots in alpha(cols, p.ns)]


class DepthOneNF:
    """Weight-n depth-one classes on primitive lex-positive directions.

    Keys (phase, p) live at a covering level W: the class is the weight-n
    polylogarithm at e^{2 pi i phase} x^{p/W}.  Torsion arguments stay in
    a symbolic constants bucket and never touch the direction keys.
    """

    __slots__ = ("weight", "level", "terms", "constants")

    def __init__(self, weight: int, level: int, terms: dict, constants: dict):
        self.weight = weight
        self.level = level
        self.terms = terms
        self.constants = constants

    def is_zero(self) -> bool:
        return not self.terms and not self.constants

    def items(self) -> list[tuple[Fraction, Fraction, tuple[Fraction, ...]]]:
        """(coeff, phase, rational direction vector) triples."""
        w = self.level
        return [
            (c, phase, tuple(Fraction(e, w) for e in vec))
            for (phase, vec), c in sorted(self.terms.items())
        ]

    def rescale(self, new_level: int) -> "DepthOneNF":
        if new_level % self.level:
            raise ValueError("covering levels must be nested")
        m = new_level // self.level
        if m == 1:
            return self
        out: dict = {}
        for (phase, vec), c in self.terms.items():
            # the same direction seen at level m*W is m*vec, then re-split
            for key, factor in _primitive_split(self.weight, phase, tuple(m * e for e in vec)):
                _acc(out, key, c * factor)
        return DepthOneNF(self.weight, new_level, out, dict(self.constants))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DepthOneNF) or self.weight != other.weight:
            return False
        w = lcm(self.level, other.level)
        a = self.rescale(w)
        b = other.rescale(w)
        return a.terms == b.terms and a.constants == b.constants

    def __repr__(self) -> str:
        return (
            f"DepthOneNF(weight={self.weight}, level={self.level}, "
            f"{len(self.terms)} keys, {len(self.constants)} constants)"
        )


def _primitive_split(n: int, phase: Fraction, vec: tuple[int, ...]):
    """Normalize one integral key: flip to lex-positive, split off content."""
    sign = ONE
    lead = next((e for e in vec if e), 0)
    if lead < 0:
        sign = Fraction((-1) ** (n - 1))
        vec = tuple(-e for e in vec)
        phase = (-phase) % 1
    m = gcd(*[abs(e) for e in vec])
    prim = tuple(e // m for e in vec)
    base = phase / m
    factor = sign * Fraction(m) ** (n - 1)
    return [(((base + Fraction(j, m)) % 1, prim), factor) for j in range(m)]


def depth1_nf(weight: int, items: Iterable[tuple]) -> DepthOneNF:
    """Normal form of a formal sum of weight-n depth-one polylogarithms.

    Inversion flips negative directions with (-1)^{n-1}; the distribution
    relation expands imprimitive directions over the canonical roots of
    the phase.  Torsion arguments go into the constants bucket.
    """
    items = [(Fraction(c), m) for c, m in items]
    level = 1
    for _, m in items:
        for e in m.exps:
            level = lcm(level, e.denominator)
    terms: dict = {}
    constants: dict = {}
    for c, m in items:
        if not any(m.exps):
            _acc(constants, m.phase, c)
            continue
        vec = tuple(int(e * level) for e in m.exps)
        for key, factor in _primitive_split(weight, m.phase, vec):
            _acc(terms, key, c * factor)
    return DepthOneNF(weight, level, terms, constants)


def _root_expansion(vectors: Sequence[Sequence[int]], weights: Sequence[int]) -> tuple:
    """(N^{n-d-1}, N, vectors / N) for independent integral vectors in Z^d.

    N is the index of their lattice in its saturation, the gcd of their
    maximal minors (|det| of d vectors in Z^d).
    """
    nn = _minor_gcd(vectors)
    if not nn:
        raise ValueError("root expansion of dependent vectors")
    pref = Fraction(nn) ** (sum(weights) - len(vectors[0]) - 1)
    return pref, nn, [[Fraction(e, nn) for e in v] for v in vectors]


def alpha(vectors: Sequence[Sequence[int]], weights: Sequence[int]) -> list:
    """Root expansion of a bar word with symmetric tail into depth-one tensors.

    Integral direction vectors only.  N is the index of their lattice in
    its saturation; all d coordinates acquire N-th roots, giving N^d
    phase tuples of coefficient N^{n-d-1}, and the slot of v has phase
    sum_i v_i j_i / N on the exponent vector v / N.
    """
    vecs = [qv(v) for v in vectors]
    if any(e.denominator != 1 for v in vecs for e in v):
        raise ValueError("alpha expects integral vectors")
    ints = [[int(e) for e in v] for v in vecs]
    pref, nn, roots = _root_expansion(ints, weights)
    d = len(ints[0])
    out = []
    for js in iproduct(range(nn), repeat=d):
        slots = tuple(
            Monomial(sum(Fraction(v[i] * js[i], nn) for i in range(d)), root)
            for v, root in zip(ints, roots)
        )
        out.append((pref, slots))
    return out


def _nf_of_gen(g: LiGen) -> DepthOneNF:
    return depth1_nf(g.ns[0], [(ONE, g.args[0])])


class FormalII:
    """Formal iterated integral with monomial entries; None marks a zero."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence):
        self.entries = tuple(entries)
        if len(self.entries) < 2:
            raise ValueError("need at least two endpoints")
        for e in self.entries:
            if e is not None and not isinstance(e, Monomial):
                raise TypeError("entries are Monomial or None")

    @property
    def weight(self) -> int:
        return len(self.entries) - 2

    @property
    def start(self):
        return self.entries[0]

    @property
    def end(self):
        return self.entries[-1]

    @property
    def middles(self) -> tuple:
        return self.entries[1:-1]

    def __eq__(self, other):
        return isinstance(other, FormalII) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = ", ".join("0" if e is None else repr(e) for e in self.entries)
        return f"II({body})"


def ii_shuffle(u: FormalII, v: FormalII) -> dict:
    """Shuffle product of two integrals over a common path."""
    if u.start != v.start or u.end != v.end:
        raise ValueError("shuffle needs matching endpoints")
    out: dict = {}
    for mids in shuffle_words(u.middles, v.middles):
        _acc(out, FormalII((u.start,) + mids + (u.end,)), ONE)
    return out


def ii_path_compose(ii: FormalII, cut) -> list:
    """Splittings of the path at an intermediate point."""
    mids = ii.middles
    out = []
    for j in range(len(mids) + 1):
        out.append(
            (
                FormalII((ii.start,) + mids[:j] + (cut,)),
                FormalII((cut,) + mids[j:] + (ii.end,)),
            )
        )
    return out


def ii_reverse(ii: FormalII) -> tuple:
    return Fraction(-1) ** ii.weight, FormalII(tuple(reversed(ii.entries)))


def _sym_poly(vectors: Sequence[Sequence], weights: Sequence[int], d: int) -> dict:
    """Monomial expansion of prod v_i^{n_i - 1} / (n_i - 1)!."""
    poly = _power_product(vectors, [n - 1 for n in weights], d)
    denom = prod(factorial(n - 1) for n in weights)
    return {e: Fraction(c, denom) for e, c in poly.items()}


def _sigma_acc(acc: dict, factors: Sequence[DepthOneNF], scale=ONE) -> None:
    """Add scale * (one slot tuple) into acc, keyed (weights, levels, directions).

    sigma forgets phases, so every phase combination of one direction
    tuple lands on the same key; the per-key work waits for _sigma_emit.
    A direction stays the primitive lex-positive integer vector p of its
    depth-one key, standing for p / W at the factor's level W.
    """
    head = (tuple(f.weight for f in factors), tuple(f.level for f in factors))
    for combo in iproduct(*[f.terms.items() for f in factors]):
        coeff = scale
        for _key, c in combo:
            coeff *= c
        _acc(acc, head + (tuple(vec for (_phase, vec), _c in combo),), coeff)


def _sigma_emit(acc: dict, ambient: int) -> Bar:
    """Bar words of accumulated direction tuples, one rank test per key.

    The letters p_i are already canonical points.  The covolume of the
    p_i / W_i is g / prod W_i, g the gcd of the maximal minors of the p_i
    (0 exactly when they are dependent), and the tail of p_i / W_i is
    that of p_i over prod W_i^(n_i - 1).
    """
    out = Bar.zero(ambient)
    for (weights, levels, word), coeff in acc.items():
        g = _minor_gcd(word)
        if not g:
            continue
        c = coeff * Fraction(g, prod(w**n for w, n in zip(levels, weights)))
        for exps, pc in _sym_poly(word, weights, ambient).items():
            out.add_word(word, c * pc, exps)
    return out


def delta_top(g: LiGen) -> list:
    """Top component of the reduced coproduct, right factors depth one.

    Returns (LiGen of depth k-1, DepthOneNF) pairs with distinct left
    generators.  The head drops the first slot; the merged-argument
    families carry binomial weights, with signs fixed against the
    weight-(2,1) display.
    """
    k = g.depth
    if k < 2:
        raise ValueError("depth-one generators have no top component")
    ns = g.ns
    args = g.args
    buckets: dict = {}
    order: list = []

    def push(left: LiGen, c: Fraction, weight: int, arg: Monomial) -> None:
        key = left.key()
        if key not in buckets:
            buckets[key] = (left, weight, [])
            order.append(key)
        buckets[key][2].append((c, arg))

    push(LiGen(ns[1:], args[1:]), ONE, ns[0], args[0])
    for i in range(k - 1):
        merged = monomial_mul(args[i], args[i + 1])
        rest_ns = ns[:i] + ns[i + 2 :]
        rest_args = args[:i] + (merged,) + args[i + 2 :]
        for a in range(ns[i + 1]):
            npr = ns[i + 1] - a
            c2 = -Fraction((-1) ** (npr - 1)) * comb(ns[i] + npr - 2, ns[i] - 1)
            left = LiGen(rest_ns[:i] + (a + 1,) + rest_ns[i:], rest_args)
            push(left, c2, ns[i] + npr - 1, args[i])
        for b in range(ns[i]):
            npp = ns[i] - b
            c3 = Fraction((-1) ** (npp - 1)) * comb(npp + ns[i + 1] - 2, ns[i + 1] - 1)
            left = LiGen(rest_ns[:i] + (b + 1,) + rest_ns[i:], rest_args)
            push(left, c3, npp + ns[i + 1] - 1, args[i + 1])
    out = []
    for key in order:
        left, weight, items = buckets[key]
        nf = depth1_nf(weight, items)
        if not nf.is_zero():
            out.append((left, nf))
    return out


def _iterated_top(g: LiGen) -> list:
    """Slot tuples of the fully iterated top coproduct, first split last."""
    if g.depth == 1:
        return [(_nf_of_gen(g),)]
    out = []
    for left, right in delta_top(g):
        for slots in _iterated_top(left):
            out.append(slots + (right,))
    return out


def phased_symbol_bar(g) -> Bar:
    """Bar-word symbol through the iterated top coproduct and sigma.

    delta_top, depth1_nf and sigma are linear, and a phase only labels
    their keys: it never changes a coefficient, a direction or a weight,
    and sigma forgets it.  So the symbol does not depend on the phases
    of the arguments, and the N^d generators of a pushforward, which
    differ only in phase, all have the symbol of the zero-phase one.
    Every slot tuple of the iterated coproduct is summed into one map
    (weights, levels, direction tuple) -> coefficient, and sigma's rank
    test, covolume and tail then run once per distinct key.
    """
    if isinstance(g, PushedLi):
        pref, nn, roots = _root_expansion(list(zip(*g.matrix))[: g.depth], g.ns)
        gen = LiGen(g.ns, [Monomial(0, root) for root in roots])
        return (g.coeff * pref * nn**g.ambient) * phased_symbol_bar(gen)
    acc: dict = {}
    for slots in _iterated_top(g):
        _sigma_acc(acc, slots)
    return _sigma_emit(acc, g.ambient)


def li_to_ii(g: LiGen) -> dict:
    """Rewrite a polylogarithm generator as one formal iterated integral.

    The argument string is 1, cumulative products of the arguments, with
    weight-fixing zeros between; the coefficient is (-1)^depth.
    """
    d = g.ambient
    prods = []
    acc = Monomial(0, (0,) * d)
    for a in g.args:
        acc = monomial_mul(acc, a)
        prods.append(acc)
    entries: list = [None, Monomial(0, (0,) * d)]
    for i, n in enumerate(g.ns):
        entries.extend([None] * (n - 1))
        if i < g.depth - 1:
            entries.append(prods[i])
    entries.append(prods[-1])
    return {FormalII(entries): Fraction(-1) ** g.depth}


def goncharov_coproduct(ii: FormalII) -> list:
    """All (subsequence integral, gap integrals) pairs of the coproduct."""
    x = ii.entries
    n = ii.weight
    out = []
    for r in range(n + 1):
        for idx in combinations(range(1, n + 1), r):
            seq = (0,) + idx + (n + 1,)
            left = FormalII((x[0],) + tuple(x[i] for i in idx) + (x[n + 1],))
            gaps = tuple(
                FormalII(x[seq[p] : seq[p + 1] + 1]) for p in range(len(seq) - 1)
            )
            out.append((left, gaps))
    return out


def _nonzero_middles(ii: FormalII) -> int:
    return sum(1 for e in ii.middles if e is not None)


def divergent_reduce(ii: FormalII) -> DepthOneNF:
    """Depth-one normal form of an integral with a single nonzero middle.

    I(z1; 0^j, z2, 0^l; z3) contributes the weight-(j+l+1) arguments
    z3/z2 and z1/z2 with opposite signs and a binomial prefactor; a zero
    endpoint just drops its term.
    """
    mids = ii.middles
    pos = [i for i, e in enumerate(mids) if e is not None]
    if len(pos) != 1:
        raise ValueError("expected exactly one nonzero middle entry")
    j = pos[0]
    l = len(mids) - 1 - j
    z2 = mids[j]
    w = j + l + 1
    c = Fraction(-1) ** (j + 1) * comb(j + l, j)
    items = []
    if ii.end is not None:
        items.append((c, monomial_mul(ii.end, monomial_pow(z2, -1))))
    if ii.start is not None:
        items.append((-c, monomial_mul(ii.start, monomial_pow(z2, -1))))
    return depth1_nf(w, items)


def goncharov_symbol_bar(g: LiGen) -> Bar:
    """Bar-word symbol through the full iterated-integral coproduct.

    Independent of the top-component recursion; depth at most two.  Terms
    whose factors are not single-row integrals of positive weight carry
    no reduced-word content and are dropped.
    """
    d = g.ambient
    if g.depth == 1:
        return sigma((_nf_of_gen(g),), d)
    if g.depth != 2:
        raise ValueError("iterated-integral route covers depth <= 2")
    acc: dict = {}
    for ii, c0 in li_to_ii(g).items():
        for left, gaps in goncharov_coproduct(ii):
            if left.weight == 0:
                continue
            positive = [gp for gp in gaps if gp.weight > 0]
            if len(positive) != 1:
                continue
            gap = positive[0]
            if _nonzero_middles(left) != 1 or _nonzero_middles(gap) != 1:
                continue
            nf_left = divergent_reduce(left)
            nf_gap = divergent_reduce(gap)
            _sigma_acc(acc, (nf_left, nf_gap), c0)
    return _sigma_emit(acc, d)


def bar_gl_act(a, x: Bar) -> Bar:
    """Diagonal action on bar words: letters and tail variables together."""
    am = qm(a)
    cols = list(zip(*am))
    out = Bar.zero(x.ambient)
    for (word, exps), c in x.terms.items():
        new_word = tuple(canonical_point(tuple(vec_dot(row, qv(p)) for row in am)) for p in word)
        for new_exps, pc in _power_product(cols, exps, x.ambient).items():
            out.add_word(new_word, c * pc, new_exps)
    return out


def st2_gl_act(a, x: St2) -> St2:
    """Diagonal action on apartment pairs with symmetric tails."""
    am = qm(a)
    cols = list(zip(*am))
    d = x.ambient
    out = St2.zero(d)
    for (key_a, key_b, exps), c in x.terms.items():
        va = [tuple(vec_dot(row, qv(p)) for row in am) for p in key_a]
        vb = [tuple(vec_dot(row, qv(p)) for row in am) for p in key_b]
        for new_exps, pc in _power_product(cols, exps, d).items():
            out += make_pair(va, vb, d, c * pc, new_exps)
    return out


def sigma(factors: Sequence[DepthOneNF], ambient: int) -> Bar:
    """Section of the root-expansion embedding on depth-one tensors.

    Phases are forgotten, the direction tuple picks up its covolume
    factor, and the weights feed the symmetric tail.  Dependent tuples
    and constant slots contribute nothing.
    """
    out = Bar.zero(ambient)
    weights = [f.weight for f in factors]
    k = len(factors)
    for combo in iproduct(*[f.items() for f in factors]):
        coeff = ONE
        vecs = []
        for c, _phase, v in combo:
            coeff *= c
            vecs.append(qv(v))
        if rank(vecs) < k:
            continue
        covol = saturation_index(vecs)
        word = tuple(canonical_point(v) for v in vecs)
        for exps, pc in _sym_poly(vecs, weights, ambient).items():
            out.add_word(word, coeff * covol * pc, exps)
    return out


def recursion_symbol_bar(g) -> Bar:
    """Bar-word symbol through the iterated top coproduct and sigma."""
    if isinstance(g, PushedLi):
        out = Bar.zero(g.ambient)
        for c, gen in pushed_expand(g):
            out += c * recursion_symbol_bar(gen)
        return out
    out = Bar.zero(g.ambient)
    for slots in _iterated_top(g):
        out += sigma(slots, g.ambient)
    return out


def _bar_slice_to_st2(slice_terms: dict, exps: tuple, ambient: int) -> St2:
    """Solve a bar-word slice back into the Steinberg tensor square.

    Candidates are L generators on each word read right to left; the
    result is guarded by re-embedding, so failure raises instead of
    returning a wrong element.
    """
    cands: dict = {}
    for word in slice_terms:
        vecs = tuple(qv(p) for p in reversed(word))
        cand = make_L(vecs, ambient, exps=exps)
        key = tuple(sorted(cand.terms))
        if key not in cands:
            cands[key] = cand
    family = list(cands.values())
    fam_bars = [embed_s(c) for c in family]
    words = set(slice_terms)
    for fb in fam_bars:
        words.update(w for (w, _) in fb.terms)
    rows = []
    rhs = []
    for w in sorted(words):
        rows.append([fb.terms.get((w, exps), ZERO) for fb in fam_bars])
        rhs.append(slice_terms.get(w, ZERO))
    coeffs = solve(qm(rows), qv(rhs)) if family else None
    if coeffs is None:
        raise ArithmeticError("bar slice not in the L-generator span")
    out = St2.zero(ambient)
    for c, cand in zip(coeffs, family):
        out += c * cand
    check = embed_s(out)
    want = {(w, exps): c for w, c in slice_terms.items()}
    if check.terms != want:
        raise ArithmeticError("solve-back failed to reproduce the bar slice")
    return out


def truncated_symbol(g) -> St2:
    """Truncated symbol in the Steinberg tensor square.

    Standard generators go through the coproduct recursion and a
    solve-back; pushforwards act on the closed form by their matrix.
    """
    if isinstance(g, PushedLi):
        base = truncated_symbol_closed(g.ns, g.ambient)
        return g.coeff * st2_gl_act(g.matrix, base)
    bar = recursion_symbol_bar(g)
    d = g.ambient
    slices: dict = {}
    for (word, exps), c in bar.terms.items():
        slices.setdefault(exps, {})[word] = c
    out = St2.zero(d)
    for exps in sorted(slices):
        out += _bar_slice_to_st2(slices[exps], exps, d)
    return out

