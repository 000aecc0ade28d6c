"""Formal multiple polylogarithms on split tori and their truncated symbols.

Arguments are monomials zeta * x_1^{a_1} ... x_d^{a_d} with an exact
root-of-unity phase in Q/Z and a rational exponent vector.  The symbol
forgets phases, so no symbol route carries them.  The recursion writes a
generator's exponent vectors once as integer rows over one common
denominator W, runs the top component of the reduced coproduct on
(weights, rows) keys with integer binomial signs, and sums each
depth-one right factor over its phases as it is built.  Its endpoint is
a bar word with a symmetric-power tail, summed in int over one
denominator.  Peeling its words off against L generators lands the
result in the Steinberg tensor square, giving two independent routes to
the truncated symbol.  A third route, at depth at most two, runs the
full iterated-integral coproduct on integer rows too, with its own walk
over the index subsets and its own depth-one count of each divergent
factor, so it shares no reduction with the recursion.
The GL_d(Q) action on bar words acts by the matrix cleared to integers.
"""
from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import product as iproduct
from math import comb, factorial, gcd, lcm, prod
from operator import add, mul, sub
from typing import Sequence

from .barcplx import Bar
from .qlinalg import (
    _cleared,
    _int_det,
    _minor_gcd,
    frac_from_str,
    frac_to_str,
    int_point,
    mat_mul,
    positive_int_from_json,
    qm,
)
from .st2 import St2, _s_map, bar_infty_reduce, embed_s, make_L
from .steinberg import _acc, _independent, _int_vectors, _numerators, _power_product, normalize_apartment

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------- monomials


class Monomial:
    """zeta * x^a with phase zeta = e^{2 pi i q}, q in Q/Z, and a in Q^d."""

    __slots__ = ("phase", "exps")

    def __init__(self, phase, exps: Sequence):
        self.phase = Fraction(phase) % 1
        self.exps = tuple(Fraction(e) for e in exps)

    @classmethod
    def unit(cls, j: int, d: int, phase=0) -> "Monomial":
        return cls(phase, [ONE if i == j else ZERO for i in range(d)])

    @property
    def ambient(self) -> int:
        return len(self.exps)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Monomial)
            and self.phase == other.phase
            and self.exps == other.exps
        )

    def __hash__(self) -> int:
        return hash((self.phase, self.exps))

    def __repr__(self) -> str:
        return f"Monomial({self.phase}, {self.exps})"


def std_args(d: int) -> tuple[Monomial, ...]:
    """The coordinate arguments x_1, ..., x_d."""
    return tuple(Monomial.unit(j, d) for j in range(d))


# --------------------------------------------------------------- generators


class LiGen:
    """Li_{n_1..n_k} at monomial arguments with independent exponent vectors."""

    __slots__ = ("ns", "args")

    def __init__(self, ns: Sequence[int], args: Sequence[Monomial]):
        self.ns = tuple(int(n) for n in ns)
        self.args = tuple(args)
        if len(self.ns) != len(self.args) or not self.ns:
            raise ValueError("exponent tuple and argument tuple must match")
        if any(n < 1 for n in self.ns):
            raise ValueError("weights must be positive")
        if not _independent(*_int_vectors([a.exps for a in self.args], None)):
            raise ValueError("argument exponent vectors are dependent")

    @property
    def depth(self) -> int:
        return len(self.ns)

    @property
    def weight(self) -> int:
        return sum(self.ns)

    @property
    def ambient(self) -> int:
        return self.args[0].ambient

    def key(self):
        return (self.ns, tuple((a.phase, a.exps) for a in self.args))

    def __eq__(self, other) -> bool:
        return isinstance(other, LiGen) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"LiGen({self.ns}, {list(self.args)})"


def std_li(*ns: int) -> LiGen:
    """Li_{n_1..n_k}(x_1,...,x_k) in ambient dimension k."""
    return LiGen(ns, std_args(len(ns)))


class PushedLi:
    """coeff * (A . Li_{n_1..n_k}) for A in GL_d(Q).

    For integral A with columns a_1..a_d, let N be the index of the
    lattice of a_1..a_k in its saturation (|det A| when k = d).  Then

        A . Li_ns = N^{n-d-1} sum_{j in (Z/N)^d} Li_ns(zeta_N^{<a_l, j>} x^{a_l / N})_l,

    N^d phase tuples at N^{n-d-1}.  A only reaches the generator through
    its first k columns, so a matrix fixing e_1..e_k fixes it at every
    depth.  The matrix is stored as
    its primitive integral representative; the positive rational scale
    s acts as s^{n-k}, through the degree of the symmetric tail, and is
    folded into the coefficient on construction, so equal actions get
    equal fields.
    """

    __slots__ = ("coeff", "matrix", "ns")

    def __init__(self, coeff, matrix: Sequence[Sequence], ns: Sequence[int]):
        self.ns = tuple(int(n) for n in ns)
        if any(n < 1 for n in self.ns) or not self.ns:
            raise ValueError("weights must be positive")
        a = qm(matrix)
        d = len(a)
        if any(len(row) != d for row in a):
            raise ValueError("matrix must be square")
        if len(self.ns) > d:
            raise ValueError("depth exceeds ambient dimension")
        ints, denom = _cleared(a)
        if not _int_det(ints):
            raise ValueError("matrix must be invertible")
        content = gcd(*[abs(e) for row in ints for e in row])
        scale = Fraction(content, denom)  # a = scale * primitive, scale > 0
        self.matrix = tuple(tuple(e // content for e in row) for row in ints)
        self.coeff = Fraction(coeff) * scale ** (sum(self.ns) - len(self.ns))

    @property
    def depth(self) -> int:
        return len(self.ns)

    @property
    def weight(self) -> int:
        return sum(self.ns)

    @property
    def ambient(self) -> int:
        return len(self.matrix)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PushedLi)
            and self.coeff == other.coeff
            and self.matrix == other.matrix
            and self.ns == other.ns
        )

    def __hash__(self) -> int:
        return hash((self.coeff, self.matrix, self.ns))

    def __repr__(self) -> str:
        return f"PushedLi({self.coeff}, {self.matrix}, {self.ns})"

    def to_json(self) -> dict:
        return {
            "coeff": frac_to_str(self.coeff),
            "matrix": [[frac_to_str(Fraction(e)) for e in row] for row in self.matrix],
            "exponents": list(self.ns),
        }


def gl_act(a: Sequence[Sequence], x: PushedLi) -> PushedLi:
    """Left action by matrix composition; scale normalization is automatic."""
    return PushedLi(x.coeff, mat_mul(qm(a), qm(x.matrix)), x.ns)


# ------------------------------------------------------------------- sigma


def _sigma_acc(acc: dict, factors: Sequence[tuple], scale=1) -> None:
    """Add scale * (one slot tuple) into acc, keyed (weights, levels, directions).

    Factors are phase-free (weight, level, {direction: coeff}) triples,
    a direction being the primitive lex-positive integer vector p that
    stands for p / W at the factor's level W.  The per-key work waits
    for _sigma_emit.
    """
    weights, levels, terms = zip(*factors)
    for combo in iproduct(*[t.items() for t in terms]):
        coeff = scale
        for _vec, c in combo:
            coeff *= c
        _acc(acc, (weights, levels, tuple(vec for vec, _c in combo)), coeff)


def _sigma_emit(acc: dict, ambient: int) -> Bar:
    """Bar words of accumulated direction tuples, one rank test per key.

    The letters p_i are already canonical points.  The covolume of the
    p_i / W_i is g / prod W_i, g the gcd of the maximal minors of the p_i
    (0 exactly when they are dependent), and the tail of p_i / W_i is
    prod p_i^(n_i - 1) over prod W_i^(n_i - 1) (n_i - 1)!.  Each key's
    coefficient is put over one common denominator, the numerators are
    summed in int, and one Fraction is built per output word.
    """
    keys = []
    den = 1
    for (weights, levels, word), c in acc.items():
        g = _minor_gcd(word)
        if g:
            key_den = c.denominator * prod(
                w**n * factorial(n - 1) for w, n in zip(levels, weights)
            )
            den = lcm(den, key_den)
            keys.append((weights, word, c.numerator * g, key_den))
    nums: dict = {}
    for weights, word, num, key_den in keys:
        num *= den // key_den
        for exps, pc in _power_product(word, [n - 1 for n in weights], ambient).items():
            _acc(nums, (word, exps), num * pc)
    return Bar(ambient, {key: Fraction(v, den) for key, v in nums.items()})


# ------------------------------------------------- top coproduct component


def _top_buckets(ns: tuple, rows: tuple) -> dict:
    """Top component of the reduced coproduct of Li_ns at x^(rows / W), phases dropped.

    Maps each left generator (ns, rows) of depth k-1 to the (c, row)
    items of its depth-one right factor, whose weight is the weight
    missing from the left.  The head drops the first slot; the
    merged-argument families carry binomial weights, with signs fixed
    against the weight-(2,1) display.  The rows are integer rows over
    one denominator W, which the merges keep.
    """
    buckets: dict = {(ns[1:], rows[1:]): [(1, rows[0])]}
    for i in range(len(ns) - 1):
        rest_ns = ns[:i] + ns[i + 2 :]
        rest_rows = rows[:i] + (tuple(map(add, rows[i], rows[i + 1])),) + rows[i + 2 :]
        for a in range(ns[i + 1]):
            npr = ns[i + 1] - a
            c2 = (-1) ** npr * comb(ns[i] + npr - 2, ns[i] - 1)
            left = (rest_ns[:i] + (a + 1,) + rest_ns[i:], rest_rows)
            buckets.setdefault(left, []).append((c2, rows[i]))
        for b in range(ns[i]):
            npp = ns[i] - b
            c3 = (-1) ** (npp - 1) * comb(npp + ns[i + 1] - 2, ns[i + 1] - 1)
            left = (rest_ns[:i] + (b + 1,) + rest_ns[i:], rest_rows)
            buckets.setdefault(left, []).append((c3, rows[i + 1]))
    return buckets


def _directions(n: int, items: list) -> dict:
    """{direction: coeff} of sum c Li_n(x^(row / W)) at level W, phases summed out.

    The phased depth-one normal form with its phases summed out, read at
    the level W of the rows, not at their least common one: sigma divides
    a factor at level L by L^n, and its content there is L / W times that
    of the row, so L cancels.  A lex-negative row flips with (-1)^(n-1),
    and a row of content m splits into m copies at m^(n-1), which sum to
    m^n once their phases are forgotten.  Zero rows are constants, which
    sigma ignores.
    """
    terms: dict = {}
    for c, row in items:
        g = gcd(*row)
        if not g:
            continue
        if next(e for e in row if e) < 0:
            c *= (-1) ** (n - 1)
            g = -g
        _acc(terms, tuple(e // g for e in row), c * abs(g) ** n)
    return terms


def _top_slots(ns: tuple, rows: tuple, w: int) -> list:
    """Phase-free slot tuples of the fully iterated top coproduct, first split last.

    Every factor is a (weight, W, {direction: coeff}) triple.
    """
    if len(ns) == 1:
        return [((ns[0], w, _directions(ns[0], [(1, rows[0])])),)]
    n = sum(ns)
    out = []
    for (left_ns, left_rows), items in _top_buckets(ns, rows).items():
        weight = n - sum(left_ns)
        terms = _directions(weight, items)
        if terms:
            right = (weight, w, terms)
            out.extend(slots + (right,) for slots in _top_slots(left_ns, left_rows, w))
    return out


def recursion_symbol_bar(g) -> Bar:
    """Bar-word symbol through the iterated top coproduct and sigma.

    The top coproduct, the depth-one normal form and sigma are linear,
    and a phase only labels their keys: it never changes a coefficient,
    a direction or a weight, and sigma forgets it.  So the recursion
    drops phases from the start and runs on integer exponent rows over
    one denominator W.  A LiGen's rows are its exponent vectors cleared
    together; a pushforward's N^d generators differ only in phase, so it
    is N^d times its zero-phase generator, whose rows are the first k
    matrix columns over W = N.  Every slot tuple is summed into one map
    (weights, levels, direction tuple) -> int coefficient, and sigma's
    rank test, covolume and tail then run once per distinct key.
    """
    if isinstance(g, PushedLi):
        cols = tuple(zip(*g.matrix))[: g.depth]
        nn = _minor_gcd(cols)
        rows, w, scale = cols, nn, g.coeff * nn ** (g.weight - 1)
    else:
        cleared, w = _cleared([a.exps for a in g.args])
        rows, scale = tuple(cleared), 1
    acc: dict = {}
    for slots in _top_slots(g.ns, rows, w):
        _sigma_acc(acc, slots)
    return scale * _sigma_emit(acc, g.ambient)


# --------------------------------------------------------- iterated integrals


def _divergent_factor(entries: tuple, w: int) -> tuple | None:
    """(weight, W, {direction: coeff}) of I(z1; 0^j, z2, 0^l; z3), phases summed out.

    None unless exactly one middle entry is nonzero.  The entries are
    int rows over W, None marking the point 0.  The factor is the
    weight-(j+l+1) depth-one sum of the rows z3 - z2 at (-1)^(j+1)
    C(j+l, j) and z1 - z2 at its negative, a zero endpoint dropping its
    term: a lex-negative row flips with (-1)^(n-1), and a row of content
    m counts m^n, the sum of its m distribution copies.  No row is zero:
    its two points are distinct among the zero row, r1 and r1 + r2, and
    r1, r2 are independent.
    """
    z1, *mids, z3 = entries
    points = [(j, z) for j, z in enumerate(mids) if z is not None]
    if len(points) != 1:
        return None
    ((j, z2),) = points
    n = len(mids)
    c = (-1) ** (j + 1) * comb(n - 1, j)
    terms: dict = {}
    for sign, z in ((c, z3), (-c, z1)):
        if z is not None:
            row = tuple(map(sub, z, z2))
            m = gcd(*row)
            if next(e for e in row if e) < 0:
                sign, m = sign * (-1) ** (n - 1), -m
            _acc(terms, tuple(e // m for e in row), sign * abs(m) ** n)
    return n, w, terms


def goncharov_symbol_bar(g: LiGen) -> Bar:
    """Bar-word symbol through the full iterated-integral coproduct.

    Independent of the top-component recursion; depth at most two.  The
    arguments are cleared once to int rows over one denominator W, 1
    being the zero row.  At depth one, Li_n(a) = -I(0; 1, 0^(n-1); a) is
    a single divergent factor.  At depth two, Li_{n1,n2}(a1, a2) =
    I(0; 1, 0^(n1-1), a1, 0^(n2-1); a1 a2), a1 a2 being the row r1 + r2.
    A coproduct term carries reduced-word content only when one gap has
    positive weight, so its index subset leaves out one run of entries,
    between x_s and x_e, and the gap x_s..x_e and the rest each have a
    single nonzero middle; every other term is dropped.
    """
    if not isinstance(g, LiGen):
        raise TypeError(f"goncharov_symbol_bar takes a LiGen, not {type(g).__name__}")
    if g.depth > 2:
        raise ValueError("iterated-integral route covers depth <= 2")
    d = g.ambient
    rows, w = _cleared([a.exps for a in g.args])
    x = (None, (0,) * d) + (None,) * (g.ns[0] - 1) + (rows[0],)
    acc: dict = {}
    if g.depth == 1:
        _sigma_acc(acc, (_divergent_factor(x, w),), -1)
        return _sigma_emit(acc, d)
    x += (None,) * (g.ns[1] - 1) + (tuple(map(add, *rows)),)
    n = g.weight
    for s in range(n):
        for e in range(s + 2, n + 2):
            left = _divergent_factor(x[: s + 1] + x[e:], w)
            gap = _divergent_factor(x[s : e + 1], w)
            if left and gap:
                _sigma_acc(acc, (left, gap))
    return _sigma_emit(acc, d)


# ----------------------------------------------------------- group actions


def _int_matrix(a, d: int) -> tuple[list[tuple[int, ...]], int]:
    """(M, s) with a = M / s and M integral; a must be d x d."""
    m, s = _cleared(qm(a))
    if len(m) != d or any(len(row) != d for row in m):
        raise ValueError("matrix size does not match the ambient dimension")
    return m, s


def bar_gl_act(a, x: Bar) -> Bar:
    """Diagonal action on bar words: letters and tail variables together.

    With A = M / s, M integral, a letter p goes to the canonical point of
    M p, and a tail of degree e to that of M over s^e.  Every output
    coefficient is put over s^T times the lcm of the input denominators,
    T the top tail degree, and built as one Fraction per output key.
    """
    d = x.ambient
    m, s = _int_matrix(a, d)
    cols = list(zip(*m))
    top = max((sum(exps) for _word, exps in x.terms), default=0)
    den, nums = _numerators(x.terms, s**top)
    points: dict = {}
    tails: dict = {}
    out: dict = {}
    for (word, exps), num in nums.items():
        for p in word:
            if p not in points:
                image = [sum(map(mul, row, p)) for row in m]
                if not any(image):
                    raise ValueError("canonical_point of the zero vector")
                points[p] = int_point(image)
        if exps not in tails:
            tails[exps] = _power_product(cols, exps, d)
        num //= s ** sum(exps)
        new_word = tuple(points[p] for p in word)
        for new_exps, pc in tails[exps].items():
            _acc(out, (new_word, new_exps), num * pc)
    return Bar(x.ambient, {key: Fraction(v, den) for key, v in out.items()})


def _gl_ints(a, x: St2) -> tuple[int, dict]:
    """(den, {(key_a, key_b, exps): int}): the diagonal action of a on x over one denominator.

    With A = M / s, M integral, each distinct point goes to M p once and
    each pair of a term is normalised once, its sort signs folded into the
    term's numerator; a tail of degree e goes to that of M over s^e, as in
    bar_gl_act. A pair whose image is degenerate drops out. Entries that
    cancel stay in as zeros.
    """
    d = x.ambient
    m, s = _int_matrix(a, d)
    cols = list(zip(*m))
    top = max((sum(exps) for _ka, _kb, exps in x.terms), default=0)
    den, nums = _numerators(x.terms, s**top)
    points: dict = {}
    tails: dict = {}
    out: defaultdict = defaultdict(int)
    for (key_a, key_b, exps), num in nums.items():
        for p in key_a + key_b:
            if p not in points:
                points[p] = [sum(map(mul, row, p)) for row in m]
        na = normalize_apartment([points[p] for p in key_a], d)
        nb = normalize_apartment([points[p] for p in key_b], d) if na is not None else None
        if nb is None:
            continue
        if exps not in tails:
            tails[exps] = _power_product(cols, exps, d)
        num = num // s ** sum(exps) * na[1] * nb[1]
        for new_exps, pc in tails[exps].items():
            out[na[0], nb[0], new_exps] += num * pc
    return den, out


def st2_gl_act(a, x: St2) -> St2:
    """Diagonal action on apartment pairs with symmetric tails, in ints (_gl_ints)."""
    den, out = _gl_ints(a, x)
    return St2(x.ambient, {key: Fraction(v, den) for key, v in out.items() if v})


# -------------------------------------------------------- truncated symbol


def truncated_symbol_closed(ns: Sequence[int], ambient: int | None = None) -> St2:
    """Closed form of the truncated symbol on a standard generator.

    L on the first k coordinate vectors, tail e_i^{n_i - 1} / (n_i - 1)!.
    """
    ns = tuple(int(n) for n in ns)
    k = len(ns)
    d = k if ambient is None else ambient
    if k > d:
        raise ValueError("depth exceeds ambient dimension")
    vecs = [tuple(int(j == i) for j in range(d)) for i in range(k)]
    exps = tuple(n - 1 for n in ns) + (0,) * (d - k)
    c = ONE
    for n in ns:
        c /= factorial(n - 1)
    return make_L(vecs, d, c=c, exps=exps)


def _bar_to_st2(bar: Bar) -> St2:
    """Peel a bar-word symbol back into the Steinberg tensor square.

    L on a word read right to left embeds to that word with coefficient 1.
    Sweeps in sorted order move each bar word's mass onto its candidate and
    subtract the candidate's embedding, so the rest is bar - embed_s(out)
    and must end empty.  On the recursion's symbols the candidates' graph
    is acyclic, so the sweeps end.
    """
    out = St2.zero(bar.ambient)
    rest = dict(bar.terms)
    words = sorted(rest)
    for _ in words:  # an acyclic graph needs one sweep per word at most
        if rest.keys().isdisjoint(words):
            break
        for word, exps in words:
            c = rest.get((word, exps))
            if c is not None:
                cand = make_L(word[::-1], bar.ambient, exps=exps)
                out += c * cand
                for key, v in embed_s(cand).terms.items():
                    _acc(rest, key, -c * v)
    if rest:
        raise ArithmeticError("bar symbol not in the span of its L candidates")
    return out


def truncated_symbol(g) -> St2:
    """Truncated symbol in the Steinberg tensor square.

    Standard generators go through the coproduct recursion and are
    peeled off their bar words; pushforwards act on the closed form by
    their matrix.
    """
    if isinstance(g, PushedLi):
        base = truncated_symbol_closed(g.ns, g.ambient)
        return g.coeff * st2_gl_act(g.matrix, base)
    return _bar_to_st2(recursion_symbol_bar(g))


# --------------------------------------------------------- identity checking


def li_identity_residual(terms: Sequence) -> Bar:
    """Stable-quotient residual of a polylogarithm identity.

    Terms are (coefficient, pushforward generator) pairs or
    ("product", weight) markers.  Product markers and generators of
    depth below the ambient dimension die in the quotient and only
    take part in the weight check.
    """
    weight = None
    ambient = None
    pairs = []
    for t in terms:
        if t and t[0] == "product":
            w = int(t[1])
            if weight is None:
                weight = w
            elif weight != w:
                raise ValueError("mixed weights in identity")
            continue
        c, p = t
        if not isinstance(p, PushedLi):
            raise TypeError("expected a pushforward generator")
        if weight is None:
            weight = p.weight
        elif weight != p.weight:
            raise ValueError("mixed weights in identity")
        if ambient is None:
            ambient = p.ambient
        elif ambient != p.ambient:
            raise ValueError("mixed ambient dimensions in identity")
        pairs.append((Fraction(c), p))
    if ambient is None:
        return Bar.zero(1)
    # each generator's truncated symbol in ints, then one common denominator;
    # generators of equal exponents share their closed form
    closed: dict = {}
    images = []
    for c, p in pairs:
        if p.depth == ambient:
            if p.ns not in closed:
                closed[p.ns] = truncated_symbol_closed(p.ns, ambient)
            den, nums = _gl_ints(p.matrix, closed[p.ns])
            images.append((c * p.coeff, den, nums))
    den = lcm(*(c.denominator * dp for c, dp, _nums in images))
    total: defaultdict = defaultdict(int)
    for c, dp, nums in images:
        scale = c.numerator * (den // (c.denominator * dp))
        for key, num in nums.items():
            total[key] += scale * num
    words = _s_map(total)
    return bar_infty_reduce(Bar(ambient, {k: Fraction(v, den) for k, v in words.items() if v}))


def identity_terms_from_json(data) -> list:
    """Identity term list from its JSON form.

    Entries carry "coeff" plus either "matrix" and "exponents" for a
    pushforward generator or "product" with the weight split.
    """
    if not isinstance(data, list):
        raise ValueError("identity file must hold a list of terms")
    out = []
    for entry in data:
        c = frac_from_str(entry["coeff"])
        key = "product" if "product" in entry else "exponents"
        if not isinstance(entry[key], list):
            raise ValueError(f"{key} must be a list, got {entry[key]!r}")
        ns = tuple(positive_int_from_json(n, f"{key} entry") for n in entry[key])
        if key == "product":
            out.append(("product", sum(ns)))
            continue
        matrix = [[frac_from_str(str(e)) for e in row] for row in entry["matrix"]]
        out.append((c, PushedLi(ONE, matrix, ns)))
    return out


def identity_terms_to_json(terms: Sequence) -> list:
    out = []
    for t in terms:
        if t and t[0] == "product":
            out.append({"coeff": "1", "product": [int(t[1])]})
            continue
        c, p = t
        entry = p.to_json()
        entry["coeff"] = frac_to_str(Fraction(c) * frac_from_str(entry["coeff"]))
        out.append(entry)
    return out
