"""Seeded inputs for the steinpoly benchmark, with verdicts known by construction.

``generate(workload, seed, root)`` writes every input file of one workload
under ``root`` and a manifest ``cases.json`` next to them, and returns the
case list.  Nothing here asks steinpoly for an answer: a case is expected to
PASS because it instantiates a relation the package documents, and to FAIL
because a known-nonzero term was added to a relation that holds.

A case is a dict:

- ``kind``: group label, e.g. ``"shuffle d4"``;
- ``argv``: CLI arguments with input paths relative to ``root``, or
- ``route``: a library route check, ``{"name": ..., **arguments}``;
- ``expect``: ``"PASS"`` or ``"FAIL"``;
- ``relation``: for a failing ``verify`` case, the relation that must fail.
"""
import json
import math
import random
from fractions import Fraction
from itertools import combinations
from importlib import resources
from pathlib import Path

WORKLOADS = ("flagnf", "stable", "symbols", "lattice")

# Per-workload case counts.  A quarter of every verify and identity group
# is perturbed (see _perturbed).  One pass over a case set takes 3-7 s on a
# 2-core Xeon.  The counts are set so that the median case and the tail
# case (the 11th most costly) each fall inside a group of cases of like
# cost, not on the edge between two groups, so neither jumps between
# groups from one seed to the next.
FLAGNF = {"shuffle": {3: 24, 4: 4}, "duality": {3: 4, 4: 4, 5: 4}}
# A dim-4 dihedral case (~2.5 s) is left out: one request that long is timed
# against the reference kernel (calib.py) with a spread of ~10 %, and alone it
# moved cases_per_s of this workload by more than its bound allows.
STABLE = {"dihedral": {3: 16}, "cobracket": {3: 12, 4: 4}, "st": 16}
SYMBOLS = {"trunc": {2: 24, 3: 12}, "gl": {2: 12, 3: 12}, "gonch": 24}
LATTICE = {"ashrudolph": {2: 16, 3: 12, 4: 4}, "bernoulli": 4, "cone": 13}

TRUNC_WEIGHTS = {
    2: [(1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3)],
    3: [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)],
}
GONCH_WEIGHTS = [(1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3), (4, 1), (3, 2)]


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"steinpoly-bench:{seed}:{label}")


def int_det(rows) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rand_basis(rng, n: int, bound: int = 3) -> list:
    while True:
        vecs = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if int_det(vecs) != 0:
            return vecs


def _all_minors_nonzero(m) -> bool:
    n = len(m)
    for k in range(1, n + 1):
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                if int_det([[m[r][c] for c in cols] for r in rows]) == 0:
                    return False
    return True


def generic_basis(rng, n: int, bound: int = 3) -> list:
    """A basis with every minor nonzero: no line meets a coordinate flag
    step early, so flag expansions and s-map walks do their full work and
    the cost of a case depends little on which basis was drawn."""
    entries = [x for x in range(-bound, bound + 1) if x]
    while True:
        vecs = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        if _all_minors_nonzero(vecs):
            return vecs


def unimodular(rng, n: int, steps: int = 6) -> list:
    """Product of elementary matrices with small entries: det is +-1."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-1, 1))
        m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    rng.shuffle(m)
    return [[-a for a in row] if rng.random() < 0.5 else row for row in m]


def mat_mul(a, b) -> list:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _coeff(rng) -> str:
    """A nonzero rational, as the CLI reads it."""
    num = rng.choice((-3, -2, -1, 1, 2, 3))
    den = rng.choice((1, 1, 2, 3))
    f = Fraction(num, den)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _cycle(options, i: int):
    return options[i % len(options)]


def _perturbed(count: int, rng) -> set:
    """Indices of the quarter of a group that carries a perturbation."""
    return set(rng.sample(range(count), count // 4))


class _Writer:
    def __init__(self, root: Path):
        self.root = root
        self.cases: list = []

    def file(self, name: str, obj) -> str:
        path = self.root / name
        path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")
        return name

    def add(self, kind: str, expect: str, relation=None, argv=None, route=None):
        case = {"kind": kind, "expect": expect}
        if argv is not None:
            case["argv"] = argv
        if route is not None:
            case["route"] = route
        if relation is not None:
            case["relation"] = relation
        self.cases.append(case)


def _verify_group(w: _Writer, rng, suite: str, n: int, count: int, relation) -> None:
    """Single-case fixtures; perturbed cases add c * L(P) for a random basis P.

    An apartment pair of two bases is nonzero in the tensor square and in
    its stable quotient, so a relation that holds plus c * L(P) with c != 0
    fails, and it fails at the first relation the suite checks.
    """
    bad = _perturbed(count, rng) if relation else set()
    for i in range(count):
        # rejection sampling for a generic basis is too slow beyond n = 4
        entry = {"basis": generic_basis(rng, n) if n <= 4 else rand_basis(rng, n)}
        if i in bad:
            entry["perturb"] = {"vectors": rand_basis(rng, n), "coeff": _coeff(rng)}
        name = w.file(f"{suite}-d{n}-{i:02d}.json", {"cases": [entry]})
        w.add(
            f"{suite} d{n}",
            "FAIL" if i in bad else "PASS",
            relation if i in bad else None,
            argv=["verify", suite, name],
        )


def gen_flagnf(w: _Writer, seed: int) -> None:
    relations = {"shuffle": "make_L split 1", "duality": "L to I"}
    for suite, dims in FLAGNF.items():
        for n, count in dims.items():
            rng = _rng(seed, f"flagnf-{suite}-{n}")
            _verify_group(w, rng, suite, n, count, relations[suite])


def shipped_identity() -> list:
    text = resources.files("steinpoly").joinpath("data/weight4_depth2.json").read_text()
    return json.loads(text)


def gen_stable(w: _Writer, seed: int) -> None:
    for n, count in STABLE["dihedral"].items():
        rng = _rng(seed, f"stable-dihedral-{n}")
        _verify_group(w, rng, "dihedral", n, count, "rotation")
    for n, count in STABLE["cobracket"].items():
        # the cobracket suite refuses perturbations before computing, so
        # its cases are all PASS; the FAIL share comes from the others
        rng = _rng(seed, f"stable-cobracket-{n}")
        _verify_group(w, rng, "cobracket", n, count, None)
    # GL_2(Z)-images of the shipped identity: the action is linear and
    # invertible on the stable quotient, so images of zero are zero and
    # images of a perturbed (nonzero) identity are nonzero.
    identity = shipped_identity()
    depth2 = [i for i, t in enumerate(identity) if "matrix" in t and len(t["exponents"]) == 2]
    count = STABLE["st"]
    rng = _rng(seed, "stable-st")
    bad = _perturbed(count, rng)
    for i in range(count):
        while True:
            g = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            if 1 <= abs(int_det(g)) <= 3:
                break
        terms = []
        for t in identity:
            t = dict(t)
            if "matrix" in t:
                m = [[int(Fraction(e)) for e in row] for row in t["matrix"]]
                t["matrix"] = [[str(e) for e in row] for row in mat_mul(g, m)]
            terms.append(t)
        if i in bad:
            j = rng.choice(depth2)
            c = Fraction(terms[j]["coeff"]) + Fraction(_coeff(rng))
            if c == 0:
                c = Fraction(terms[j]["coeff"]) * 2
            terms[j]["coeff"] = f"{c.numerator}/{c.denominator}"
        name = w.file(f"st-{i:02d}.json", terms)
        w.add("st", "FAIL" if i in bad else "PASS", argv=["st", name])


def _rand_word(rng, n: int, exps) -> dict:
    """A bar word of n independent lines with the given tail exponents."""
    return {"word": rand_basis(rng, n), "exps": list(exps), "coeff": _coeff(rng)}


def gen_symbols(w: _Writer, seed: int) -> None:
    for depth, count in SYMBOLS["trunc"].items():
        rng = _rng(seed, f"symbols-trunc-{depth}")
        bad = _perturbed(count, rng)
        for i in range(count):
            route = {"name": "trunc", "ns": list(_cycle(TRUNC_WEIGHTS[depth], i))}
            if i in bad:
                route["perturb"] = {"vectors": rand_basis(rng, depth), "coeff": _coeff(rng)}
            w.add(f"trunc d{depth}", "FAIL" if i in bad else "PASS", route=route)
    for n, count in SYMBOLS["gl"].items():
        rng = _rng(seed, f"symbols-gl-{n}")
        bad = _perturbed(count, rng)
        for i in range(count):
            # a pushforward by A expands into |det A|^n generators, so the
            # determinant is cycled, not drawn, to keep the cost seed-stable
            want = 1 + i % 3
            while True:
                a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                if abs(int_det(a)) == want:
                    break
            ns = list(_cycle(TRUNC_WEIGHTS[n], i // 3))
            route = {"name": "gl", "matrix": a, "ns": ns}
            if i in bad:
                route["perturb"] = _rand_word(rng, n, [k - 1 for k in ns])
            w.add(f"gl d{n}", "FAIL" if i in bad else "PASS", route=route)
    count = SYMBOLS["gonch"]
    rng = _rng(seed, "symbols-gonch")
    bad = _perturbed(count, rng)
    for i in range(count):
        ns = list(_cycle(GONCH_WEIGHTS, i))
        route = {"name": "gonch", "ns": ns}
        if i in bad:
            route["perturb"] = _rand_word(rng, 2, [k - 1 for k in ns])
        w.add("gonch", "FAIL" if i in bad else "PASS", route=route)


# ash_rudolph_reduce's rank-2 step searches a box of side ~2 sqrt|det|, so
# its cost follows |det|; each dimension draws |det| from a narrow window.
# Entries are drawn from [-bound, bound] and kept when |det| falls in [lo, hi].
# The windows order the groups by cost (dims 3-4, then dim 2, then the cone
# studies), so the median case falls among the dim-2 cases and the tail case
# among the cone studies.
AR_DET = {2: (150, 10_000, 12_000), 3: (6, 100, 150), 4: (2, 2, 3)}


def _basis_with_det(rng, n: int, bound: int, lo: int, hi: int) -> list:
    """Primitive vectors, so the apartment's determinant is the basis's."""
    while True:
        b = rand_basis(rng, n, bound)
        if all(math.gcd(*v) == 1 for v in b) and lo <= abs(int_det(b)) <= hi:
            return b


def gen_lattice(w: _Writer, seed: int) -> None:
    for n, count in LATTICE["ashrudolph"].items():
        rng = _rng(seed, f"lattice-ar-{n}")
        bad = _perturbed(count, rng)
        for i in range(count):
            entry = {"basis": _basis_with_det(rng, n, *AR_DET[n])}
            if i in bad:
                # a unimodular extra apartment keeps the unimodularity check
                # quiet, so the failure comes from the evaluation oracle
                entry["perturb"] = {"vectors": unimodular(rng, n), "coeff": _coeff(rng)}
            name = w.file(f"ashrudolph-d{n}-{i:02d}.json", {"cases": [entry]})
            w.add(
                f"ashrudolph d{n}",
                "FAIL" if i in bad else "PASS",
                "evaluation mismatch" if i in bad else None,
                argv=["verify", "ashrudolph", name],
            )
    rng = _rng(seed, "lattice-bernoulli")
    for i in range(LATTICE["bernoulli"]):
        den = rng.randint(3, 11)
        x = Fraction(rng.randint(1, den - 1), den)
        cfg = {
            "study": "bernoulli",
            "weights": [2 + i % 3],
            "points": [f"{x.numerator}/{x.denominator}"],
            "tolerance": 1e-5,
        }
        name = w.file(f"bernoulli-{i:02d}.json", cfg)
        w.add("bernoulli", "PASS", argv=["fourier", name, "--box", "10000"])
    rng = _rng(seed, "lattice-cone")
    for i in range(LATTICE["cone"]):
        # forms dual to the generators make the sum a product of two
        # one-dimensional sums, which the check recomputes independently
        u = unimodular(rng, 2, steps=3)
        gens = [list(col) for col in zip(*u)]
        inv = [[u[1][1], -u[0][1]], [-u[1][0], u[0][0]]]
        det = int_det(u)
        forms = [[det * e for e in row] for row in inv]
        points = []
        for _ in range(2):
            den = rng.randint(3, 9)
            points.append([f"{rng.randint(1, den - 1)}/{den}" for _ in range(2)])
        cfg = {
            "study": "cone",
            "generators": gens,
            "forms": forms,
            "exponents": [rng.randint(2, 3), rng.randint(2, 3)],
            "points": points,
        }
        name = w.file(f"cone-{i:02d}.json", cfg)
        w.add("cone", "PASS", argv=["fourier", name, "--box", "30"])


GENERATORS = {
    "flagnf": gen_flagnf,
    "stable": gen_stable,
    "symbols": gen_symbols,
    "lattice": gen_lattice,
}


def generate(workload: str, seed: int, root: Path) -> list:
    """Write the inputs of one workload under root and return its cases."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    w = _Writer(root)
    GENERATORS[workload](w, seed)
    w.file("cases.json", w.cases)
    return w.cases
