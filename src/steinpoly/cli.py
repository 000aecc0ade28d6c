"""Command line for reductions, symbols, verification suites, and studies.

Every command reads and writes plain JSON or CSV, records the seed in
its output, and is byte-reproducible for fixed seed and inputs.  Exit
codes: 0 pass, 1 mathematical failure, 2 malformed input.
"""
import argparse
import io
import json
import os
import sys
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from heapq import nsmallest
from itertools import combinations

from .barcplx import Bar
from .cones import (
    PoleError,
    bernoulli_reference,
    coefficient_shuffle_check,
    truncated_fourier_sum,
)
from .mpl import identity_terms_from_json, li_identity_residual
from .qlinalg import (
    _cleared,
    _int_det,
    frac_from_str,
    frac_to_str,
    positive_int_from_json,
    split_seed,
    vec_to_json,
)
from .st2 import (
    St2,
    _I_keys,
    _L_keys,
    _pair_key,
    _stable_ints,
    cobracket_matches_coproduct,
    dualize,
    embed_s,
    make_I,
    make_L,
    st2_normal_form,
)
from .steinberg import (
    CertificateError,
    St,
    _dual_lines,
    _independent,
    _int_vectors,
    _numerators,
    ash_rudolph_reduce,
    flag_expand,
    is_zero,
    make_apartment,
    replay_ash_rudolph,
    zero_exps,
)

# The flag normal form and the s-map visit d! orderings of an apartment, so
# every dimension taken from arguments or input files is bounded.
MAX_DIM = 6

# `st` expands each generator's symmetric tail under its matrix into up to
# C(w - 1, d - 1) monomials of total weight w, so the weight is bounded too.
MAX_WEIGHT = 12

# A truncated Fourier sum visits m_max ** (number of generators) lattice
# points, and the shuffle study box ** 2; `fourier` refuses studies that
# would visit more than this.
MAX_FOURIER_POINTS = 10**6

# Each term of a Fourier sum divides by a product of pairings raised to the
# exponents, an integer that grows with their total, so `fourier` refuses a
# Bernoulli weight or a cone's exponent sum above this.
MAX_FOURIER_WEIGHT = 60


class InputError(Exception):
    """Malformed file or arguments; maps to exit code 2."""


# ----------------------------------------------------------- serialization


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, or an integer longer than sys.get_int_max_str_digits()
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _frac(value) -> Fraction:
    if type(value) is int:
        return Fraction(value)
    try:
        return frac_from_str(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {value!r}") from exc


def _vec(data) -> tuple:
    if not isinstance(data, (list, tuple)) or not data:
        raise InputError(f"bad vector {data!r}")
    return tuple(_frac(e) for e in data)


def _positive_int(value, what: str) -> int:
    try:
        return positive_int_from_json(value, what)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _check_dim(n: int, what: str) -> None:
    if not 1 <= n <= MAX_DIM:
        raise InputError(f"{what} must be between 1 and {MAX_DIM}, got {n}")


def _st_from_json(data):
    try:
        dim, terms = data["dim"], data["terms"]
    except (KeyError, TypeError) as exc:
        raise InputError("element needs 'dim' and 'terms'") from exc
    dim = _positive_int(dim, "element dimension")
    _check_dim(dim, "element dimension")
    if not isinstance(terms, list) or not terms:
        raise InputError("element 'terms' must be a non-empty list")
    out = St.zero(dim)
    for entry in terms:
        try:
            vecs = [_vec(v) for v in entry["apartment"]]
            c = _frac(entry.get("coeff", "1"))
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad term {entry!r}") from exc
        if len(vecs) != dim:
            raise InputError(f"apartment needs {dim} vectors, got {len(vecs)}")
        if any(len(v) != dim for v in vecs):
            raise InputError(f"apartment vectors need {dim} coordinates: {entry['apartment']!r}")
        term = make_apartment(vecs, dim)
        if not term:
            raise InputError(f"degenerate apartment {entry['apartment']!r}")
        out += c * term
    return out


def _st_to_json(x) -> list:
    rows = []
    for key, c in sorted(x.terms.items()):
        rows.append({"apartment": [vec_to_json(p) for p in key], "coeff": frac_to_str(c)})
    return rows


def _bar_to_json(x: Bar) -> list:
    # words repeat few distinct letters, so each is converted once and its
    # list shared by the rows that use it
    letter = lru_cache(maxsize=None)(vec_to_json)
    rows = []
    for (word, exps), c in sorted(x.terms.items()):
        rows.append(
            {
                "coeff": frac_to_str(c),
                "exp": [int(e) for e in exps],
                "word": [letter(p) for p in word],
            }
        )
    return rows


def _st2_nf_to_json(nf: dict) -> list:
    rows = []
    for (key_a, key_b, exps), c in nf.items():
        rows.append(
            {
                "coeff": frac_to_str(c),
                "exp": [int(e) for e in exps],
                "pair": [
                    [vec_to_json(p) for p in key_a],
                    [vec_to_json(p) for p in key_b],
                ],
            }
        )
    return rows


def _check_out(out_path) -> None:
    """Refuse an --out path that names a directory or lies in none, before any work.

    Nothing is created or truncated; _emit still maps every other failure
    to write.
    """
    if os.path.isdir(out_path):
        raise InputError(f"cannot write {out_path}: it is a directory")
    parent = os.path.dirname(out_path) or "."
    if not os.path.isdir(parent):
        raise InputError(f"cannot write {out_path}: {parent} is not a directory")


def _emit(text: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(obj, out_path) -> None:
    _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", out_path)


# ----------------------------------------------------------------- reduce


def cmd_reduce(args) -> int:
    x = _st_from_json(_load_json(args.file))
    nf = flag_expand(x)
    report = {
        "seed": args.seed,
        "dim": x.ambient,
        "zero": not nf.terms,
        "terms": _st_to_json(nf),
    }
    _emit_json(report, args.out)
    return 0


# ----------------------------------------------------------------- symbol


def cmd_symbol(args) -> int:
    vecs = [tuple(_frac(e) for e in text.split(",")) for text in args.vectors]
    dims = {len(v) for v in vecs}
    if len(dims) != 1:
        raise InputError("vectors have mixed lengths")
    (length,) = dims
    ambient = args.dim if args.dim is not None else length
    _check_dim(ambient, "ambient dimension")
    if length != ambient:
        raise InputError(f"vectors need {ambient} coordinates, got {length}")
    try:
        x = (make_L if args.kind == "L" else make_I)(vecs, ambient)
        if not x:
            # the generators vanish on dependent vectors; the command refuses
            # them as bad input rather than print an empty symbol
            raise InputError("symbol vectors must be independent")
        bar = embed_s(x)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    report = {
        "seed": args.seed,
        "ambient": ambient,
        "kind": args.kind,
        "terms": _bar_to_json(bar),
    }
    _emit_json(report, args.out)
    return 0


# ----------------------------------------------------------------- verify


def _rand_basis(rng, n: int) -> list:
    while True:
        vecs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        if _independent(vecs, n):
            return vecs


def _case_perturbation(case, ambient: int):
    pert = case.get("perturb")
    if pert is None:
        return None, None
    if not isinstance(pert, dict):
        raise InputError(f"bad perturbation {pert!r}")
    rows = pert.get("vectors", [])
    if not isinstance(rows, list):
        raise InputError(f"perturbation 'vectors' must be a list, got {rows!r}")
    vecs, _ = _cleared([_vec(v) for v in rows])
    c = _frac(pert.get("coeff", "1"))
    if (
        len(vecs) != ambient
        or any(len(v) != ambient for v in vecs)
        or not _independent(vecs, ambient)
    ):
        raise InputError(f"perturbation needs an {ambient}-basis")
    return vecs, c


def _case_basis(entry) -> list:
    """The case's basis: int tuples when it is integral, else Fraction tuples."""
    rows = entry.get("basis") if isinstance(entry, dict) else None
    if not isinstance(rows, list) or not rows:
        raise InputError(f"case needs a non-empty 'basis' list: {entry!r}")
    basis = [_vec(v) for v in rows]
    if any(len(v) != len(basis) for v in basis):
        raise InputError("case basis must be square")
    _check_dim(len(basis), "case dimension")
    ints, den = _cleared(basis)
    if not _independent(ints, len(basis)):
        raise InputError(f"case basis is degenerate: {rows!r}")
    return ints if den == 1 else basis


def _residual(n: int, pairs, extra) -> St2:
    """sum c [key_a] (x) [key_b] over pairs (key_a, key_b, c), plus extra, as one St2.

    The int coefficients and extra's numerators are summed over extra's
    one denominator.
    """
    den, acc = (1, {}) if extra is None else _numerators(extra.terms)
    acc = defaultdict(int, acc)
    zero = zero_exps(n)
    for key_a, key_b, c in pairs:
        acc[key_a, key_b, zero] += c * den
    return St2(n, {k: Fraction(v, den) for k, v in acc.items() if v})


def _suite_shuffle(vecs, n, extra):
    # the basis is cleared once, and its one rank test (_case_basis) decides
    # every term: each shuffle is a permutation of the basis, each factor of
    # the product a sub-tuple, and the product's concatenated keys span it
    vecs, _ = _int_vectors(vecs, n)
    for d1 in range(1, n):
        for name, keys in (("make_L", _L_keys), ("make_I", _I_keys)):
            # lhs minus every shuffle
            ka1, kb1, sign1 = keys(vecs[:d1])
            ka2, kb2, sign2 = keys(vecs[d1:])
            key_a, key_b, sign = _pair_key(ka1 + ka2, kb1 + kb2)
            pairs = [(key_a, key_b, sign * sign1 * sign2)]
            for pos in combinations(range(n), d1):
                arranged = [None] * n
                rest = [i for i in range(n) if i not in pos]
                for k, p in enumerate(pos):
                    arranged[p] = vecs[k]
                for k, p in enumerate(rest):
                    arranged[p] = vecs[d1 + k]
                key_a, key_b, sign = keys(arranged)
                pairs.append((key_a, key_b, -sign))
            nf = st2_normal_form(_residual(n, pairs, extra), 8)
            if nf:
                return {"relation": f"{name} split {d1}", "residual": _st2_nf_to_json(nf)}
    return None


def _suite_dihedral(vecs, n, extra):
    # the basis is cleared once, and its one rank test (_case_basis) decides
    # every term: each is a reversal or a negation of the basis, or n of its
    # n + 1 cyclic vectors v_0 = -sum v_i, v_1, ..., v_n
    vecs, _ = _int_vectors(vecs, n)
    v0 = tuple(-sum(col) for col in zip(*vecs))
    L, rev = _L_keys(vecs), (-1) ** (n + 1)
    # (name, lhs, rhs, c) for the residual lhs - c rhs of two (key_a, key_b, sign)
    relations = [
        ("rotation", L, _L_keys(vecs[1:] + [v0]), 1),
        ("negation", L, _L_keys([tuple(-e for e in v) for v in vecs]), 1),
        ("L reversal", L, _L_keys(vecs[::-1]), rev),
        ("I reversal", _I_keys(vecs), _I_keys(vecs[::-1]), rev),
    ]
    checks = [
        (name, _residual(n, [lhs, (*rhs[:2], -c * rhs[2])], extra))
        for name, lhs, rhs, c in relations
    ]
    # the stable class is linear in the terms, so one memo reduces each
    # generator's words once across the checks and keeps a generator only
    # while a later check uses it; a residual with no terms (negation, with
    # canonical keys) is decided before any reduction
    memo: dict = {}
    for i, (name, residual) in enumerate(checks):
        den, block = _stable_ints(residual, 1, memo)
        if block:
            least = sorted(block.items())[:8]
            return {"relation": name, "residual": _bar_to_json(Bar(n, {k: Fraction(v, den) for k, v in least}))}
        for term in memo.keys() - {t for _name, later in checks[i + 1 :] for t in later.terms}:
            del memo[term]
    return None


def _suite_cobracket(basis, n, extra):
    # cmd_verify refuses perturbations for this suite, so extra is None
    if not cobracket_matches_coproduct(basis):
        return {"relation": "cobracket vs antisymmetrized coproduct"}
    return None


def _suite_duality(vecs, n, extra):
    # the basis is cleared once, so the dual lines share one scale and their
    # differences in I are those of the dual basis; its one rank test
    # (_case_basis) decides L, and the dual lines are independent too
    vecs, _ = _int_vectors(vecs, n)
    key_a, key_b, sign = _L_keys(vecs)
    L = St2(n, {(key_a, key_b, zero_exps(n)): Fraction(sign)})
    dual_L = dualize(L)
    dual, _ = _dual_lines(vecs)
    dual_a, dual_b, dual_sign = _I_keys(dual[::-1])
    checks = [
        ("L to I", dual_L, [(dual_a, dual_b, -dual_sign if n % 2 else dual_sign)]),
        ("involution", dualize(dual_L), [(key_a, key_b, sign)]),
    ]
    for name, lhs, rhs in checks:
        # dualize only moves L's one term and flips its sign, so c is +-1
        pairs = [(ka, kb, c.numerator) for (ka, kb, _exps), c in lhs.items()]
        nf = st2_normal_form(_residual(n, pairs + [(ka, kb, -c) for ka, kb, c in rhs], extra), 8)
        if nf:
            return {"relation": name, "residual": _st2_nf_to_json(nf)}
    return None


def _suite_ashrudolph(basis, n, extra):
    # exact: the reduction's pivot table proves x = replay term by term, so
    # x = red exactly when red - replay, the terms where they differ, is zero
    if any(x.denominator != 1 for v in basis for x in v):
        rows = [vec_to_json(v) for v in basis]
        raise InputError(f"ashrudolph needs an integral basis, got {rows}")
    vecs = [tuple(int(x) for x in v) for v in basis]
    pivots: dict = {}
    red = ash_rudolph_reduce(vecs, pivots)
    if extra is not None:
        red += extra
    try:
        replay, broken = replay_ash_rudolph(make_apartment(vecs, n), pivots), None
    except CertificateError as exc:
        replay, broken = St.zero(n), exc.key
    # the replay ends at keys of |det| 1, so only the keys of red it does not
    # hold need a determinant; unimodularity is still reported first, at the
    # first such key in red's order
    for key in red.terms:
        if key not in replay.terms and abs(_int_det(key)) != 1:
            return {"relation": "unimodularity", "apartment": [vec_to_json(p) for p in key]}
    if broken is not None:
        return {"relation": "certificate", "apartment": [vec_to_json(p) for p in broken]}
    if replay != red and not is_zero(red - replay):
        # the 8 least terms, without writing out the rest
        return {"relation": "evaluation mismatch", "terms": _st_to_json(St(n, dict(nsmallest(8, red.items()))))}
    return None


# suite -> (run, generator of its perturbation or None when it takes none, least dimension)
_SUITES = {
    "shuffle": (_suite_shuffle, make_L, 2),
    "dihedral": (_suite_dihedral, make_L, 1),
    "cobracket": (_suite_cobracket, None, 2),
    "duality": (_suite_duality, make_L, 1),
    "ashrudolph": (_suite_ashrudolph, make_apartment, 1),
}


def cmd_verify(args) -> int:
    run, perturbation, min_dim = _SUITES[args.suite]
    _check_dim(args.dim, "--dim")
    if args.cases < 1:
        raise InputError(f"--cases must be at least 1, got {args.cases}")
    n = args.dim
    if args.file:
        data = _load_json(args.file)
        if not isinstance(data, dict) or not isinstance(data.get("cases"), list):
            raise InputError("fixture needs a 'cases' list")
        if not data["cases"]:
            raise InputError("fixture has no cases")
        cases = [(_case_basis(entry), entry) for entry in data["cases"]]
        dims = sorted({len(basis) for basis, _entry in cases})
        if len(dims) > 1:
            # the report states one dimension for all cases
            raise InputError(f"fixture mixes case dimensions {dims}")
        n = dims[0]
    else:
        rng = split_seed(args.seed, f"verify-{args.suite}")
        cases = [(_rand_basis(rng, n), {}) for _ in range(args.cases)]
    if n < min_dim:
        raise InputError(f"{args.suite} checks no relation below dimension {min_dim}, got {n}")
    failures = []
    for i, (basis, entry) in enumerate(cases):
        pvecs, pc = _case_perturbation(entry, len(basis))
        extra = None
        if pvecs is not None:
            if perturbation is None:
                raise InputError(f"suite {args.suite} takes no perturbation")
            extra = pc * perturbation(pvecs, len(basis))
        witness = run(basis, len(basis), extra)
        if witness is not None:
            failures.append(
                {"case": i, "basis": [vec_to_json(v) for v in basis], "witness": witness}
            )
    report = {
        "seed": args.seed,
        "suite": args.suite,
        "dim": n,
        "cases": len(cases),
        "failures": failures,
        "verdict": "FAIL" if failures else "PASS",
    }
    _emit_json(report, args.out)
    return 1 if failures else 0


# --------------------------------------------------------------------- st


def _check_identity_size(data) -> None:
    """Bound every generator entry of an identity file before any is built.

    A PushedLi takes the determinant of its whole matrix and raises its
    scale to the weight minus the depth, so neither cost waits for the
    bounds. Entries of other shapes are left to identity_terms_from_json.
    """
    for entry in data if isinstance(data, list) else ():
        if not isinstance(entry, dict) or "product" in entry:
            continue
        matrix, exponents = entry.get("matrix"), entry.get("exponents")
        if isinstance(matrix, list):
            _check_dim(len(matrix), "identity matrix size")
        if isinstance(exponents, list):
            weight = sum(positive_int_from_json(n, "exponents entry") for n in exponents)
            if weight > MAX_WEIGHT:
                raise InputError(f"identity weight must be at most {MAX_WEIGHT}, got {weight}")


def cmd_st(args) -> int:
    data = _load_json(args.file)
    try:
        _check_identity_size(data)
        terms = identity_terms_from_json(data)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad identity file: {exc}") from exc
    generators = [t[1] for t in terms if t[0] != "product"]
    if not generators:
        raise InputError("identity file has no generator terms")
    if all(g.depth < g.ambient for g in generators):
        # li_identity_residual drops these, so any coefficients would PASS
        raise InputError("identity file has no generator of full depth (depth = matrix size)")
    try:
        residual = li_identity_residual(terms)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    report = {
        "seed": args.seed,
        "terms": len(terms),
        # li_identity_residual refuses mixed weights
        "weight": generators[0].weight,
        "verdict": "PASS" if not residual.terms else "FAIL",
    }
    if residual.terms:
        report["residual"] = _bar_to_json(residual)
    _emit_json(report, args.out)
    return 0 if not residual.terms else 1


# ---------------------------------------------------------------- fourier


def _check_points(side: int, dims: int) -> None:
    if side**dims > MAX_FOURIER_POINTS:
        raise InputError(
            f"a box of side {side} in {dims} dimensions has more than {MAX_FOURIER_POINTS} lattice points"
        )


def _check_fourier_weight(weight: int, what: str) -> None:
    if weight > MAX_FOURIER_WEIGHT:
        raise InputError(f"{what} must be at most {MAX_FOURIER_WEIGHT}, got {weight}")


def _nonempty_list(cfg, key: str, default: list) -> list:
    value = cfg.get(key, default)
    if not isinstance(value, list) or not value:
        raise InputError(f"{key} must be a non-empty list, got {value!r}")
    return value


def _tolerance(value) -> float | None:
    """A finite tolerance >= 0 (a JSON number or a rational string), or None."""
    if value is None:
        return None
    tol = _frac(value)  # refuses nan and inf, which Fraction cannot hold
    if tol < 0:
        raise InputError(f"tolerance must be at least 0, got {value!r}")
    try:
        return float(tol)
    except OverflowError as exc:
        raise InputError(f"tolerance {value!r} is out of range") from exc


def _study_bernoulli(cfg, box):
    weights = [_positive_int(n, "weight") for n in _nonempty_list(cfg, "weights", [1, 2, 3])]
    _check_fourier_weight(max(weights), "weight")
    points = [_frac(x) for x in _nonempty_list(cfg, "points", ["1/3", "1/5", "2/7"])]
    tol = _tolerance(cfg.get("tolerance"))
    m_max = box or _positive_int(cfg.get("m_max", 10000), "m_max")
    _check_points(m_max, 1)
    rows = []
    ok = True
    for n in weights:
        for x in points:
            # symmetric truncation over both rays; the form stays (1,)
            # so odd weights pick up the sign of the negative ray
            val = truncated_fourier_sum([(1,)], [(1,)], [n], (x,), m_max)
            val += truncated_fourier_sum([(-1,)], [(1,)], [n], (x,), m_max)
            ref = bernoulli_reference(n, x)
            err = abs(val - ref)
            status = ""
            if tol is not None:
                status = "pass" if err <= tol else "fail"
                ok = ok and status == "pass"
            rows.append(
                [
                    str(n),
                    frac_to_str(x),
                    str(m_max),
                    f"{val.real:.12e}",
                    f"{val.imag:.12e}",
                    f"{ref.real:.12e}",
                    f"{ref.imag:.12e}",
                    f"{err:.12e}",
                    status,
                ]
            )
    header = ["n", "x", "m_max", "sum_re", "sum_im", "ref_re", "ref_im", "abs_err", "status"]
    return header, rows, ok


def _study_shuffle(cfg, box):
    size = box or _positive_int(cfg.get("box", 25), "box")
    _check_points(size, 2)
    good = coefficient_shuffle_check(size)
    return ["box", "status"], [[str(size), "pass" if good else "fail"]], good


def _study_cone(cfg, box):
    fields = ("generators", "forms", "exponents", "points")
    if any(not isinstance(cfg.get(f), list) for f in fields):
        raise InputError(f"cone study needs lists {'/'.join(fields)}")
    gens = [_vec(g) for g in cfg["generators"]]
    forms = [_vec(u) for u in cfg["forms"]]
    ns = [_positive_int(n, "exponent") for n in cfg["exponents"]]
    points = [_vec(p) for p in cfg["points"]]
    if not gens:
        raise InputError("cone study needs at least one generator")
    n = len(gens[0])
    if any(len(v) != n for v in gens + forms + points):
        raise InputError(f"cone generators, forms and points need {n} coordinates each")
    if len(forms) != len(ns):
        raise InputError(f"{len(forms)} forms but {len(ns)} exponents")
    _check_fourier_weight(sum(ns), "the sum of the cone exponents")
    m_max = box or _positive_int(cfg.get("m_max", 50), "m_max")
    _check_points(m_max, len(gens))
    rows = []
    for p in points:
        x = " ".join(frac_to_str(e) for e in p)
        try:
            val = truncated_fourier_sum(gens, forms, ns, p, m_max)
        except (PoleError, ValueError) as exc:
            raise InputError(str(exc)) from exc
        except OverflowError as exc:
            raise InputError(f"the cone sum at x = {x} has a coefficient too large for a float") from exc
        rows.append(
            [
                x,
                str(m_max),
                f"{val.real:.12e}",
                f"{val.imag:.12e}",
            ]
        )
    return ["x", "m_max", "sum_re", "sum_im"], rows, True


def cmd_fourier(args) -> int:
    cfg = _load_json(args.file)
    if not isinstance(cfg, dict) or "study" not in cfg:
        raise InputError("config needs a 'study' field")
    studies = {
        "bernoulli": _study_bernoulli,
        "shuffle": _study_shuffle,
        "cone": _study_cone,
    }
    if not isinstance(cfg["study"], str) or cfg["study"] not in studies:
        raise InputError(f"unknown study {cfg['study']!r}")
    if args.box is not None and args.box < 1:
        raise InputError(f"--box must be at least 1, got {args.box}")
    header, rows, ok = studies[cfg["study"]](cfg, args.box)
    buf = io.StringIO()
    buf.write(f"# seed={args.seed}\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(row) + "\n")
    _emit(buf.getvalue(), args.out)
    return 0 if ok else 1


# ------------------------------------------------------------------- main


# Each argument is declared once, as the name and keywords that _add_command
# hands to add_argument; _plain_parse reads the same declarations.
_COMMON_ARGS = (
    ("--seed", {"type": int, "default": 0, "help": "master seed, recorded in the output"}),
    ("--out", {"default": None, "help": "output path (default stdout)"}),
)

_FILE_ARG = (("file", {}),)

# name -> (help, handler, the command's own arguments in help order)
_COMMANDS = {
    "reduce": ("flag-basis normal form of an element", cmd_reduce, _FILE_ARG),
    "symbol": (
        "bar-word expansion of a generator",
        cmd_symbol,
        (
            ("--kind", {"choices": ("L", "I"), "required": True}),
            ("--dim", {"type": int, "default": None}),
            ("vectors", {"nargs": "+", "help": "comma-separated coordinates"}),
        ),
    ),
    "verify": (
        "run a relation suite",
        cmd_verify,
        (
            ("suite", {"choices": sorted(_SUITES)}),
            ("file", {"nargs": "?", "default": None, "help": "optional fixture of cases"}),
            ("--dim", {"type": int, "default": 3, "help": f"dimension, 1 to {MAX_DIM}"}),
            ("--cases", {"type": int, "default": 12, "help": "random cases, at least 1"}),
        ),
    ),
    "st": ("verify a polylogarithm identity file", cmd_st, _FILE_ARG),
    "fourier": (
        "truncated Fourier studies, CSV output",
        cmd_fourier,
        (
            ("file", {"help": "study configuration"}),
            ("--box", {"type": int, "default": None, "help": "override the summation box, at least 1"}),
        ),
    ),
}


def _add_command(p, name: str) -> None:
    _help, func, own = _COMMANDS[name]
    for arg, kwargs in own + _COMMON_ARGS:
        p.add_argument(arg, **kwargs)
    p.set_defaults(func=func)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinpoly",
        description="Exact computations with apartment classes and polylogarithm symbols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *_) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def _plain_value(kwargs: dict, text: str):
    """text under the declaration's type and choices; ValueError where argparse errs."""
    value = kwargs.get("type", str)(text)
    if "choices" in kwargs and value not in kwargs["choices"]:
        raise ValueError(f"{value!r} is not a choice")
    return value


def _plain_parse(argv: list):
    """The full tree's Namespace for a plainly spelled command line, else None.

    Plain is a command's name, then its positionals in one run, then
    declared options spelled out in full, each followed by one value that
    does not start with "-", meeting every nargs, choices, type and
    required rule of the declarations in _COMMANDS. Every other spelling
    (help, "--opt=value", abbreviations, "--", a value starting with "-",
    positionals after an option) and every error gets None.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _help, func, own = _COMMANDS[argv[0]]
    options, positionals = {}, []
    for arg, kwargs in own + _COMMON_ARGS:
        if arg.startswith("-"):
            options[arg] = kwargs
        else:
            positionals.append((arg, kwargs))
    values = {arg[2:].replace("-", "_"): kwargs.get("default") for arg, kwargs in options.items()}
    end = 1
    while end < len(argv) and not argv[end].startswith("-"):
        end += 1
    run, pairs = argv[1:end], argv[end:]
    # each positional takes what argparse's greedy match gives it: one
    # string, "?" one if the later ones can spare it, "+" all they spare
    need = sum(kwargs.get("nargs") != "?" for _arg, kwargs in positionals)
    at = 0
    try:
        for arg, kwargs in positionals:
            nargs = kwargs.get("nargs")
            need -= nargs != "?"
            spare = len(run) - at - need
            take = spare if nargs == "+" else min(spare, 1)
            if take < (nargs != "?"):
                return None
            strings = run[at : at + take]
            at += take
            if nargs == "+":
                values[arg] = [_plain_value(kwargs, text) for text in strings]
            else:
                values[arg] = _plain_value(kwargs, strings[0]) if strings else kwargs.get("default")
        if at < len(run) or len(pairs) % 2:
            return None
        for option, text in zip(pairs[::2], pairs[1::2]):
            if option not in options or text.startswith("-"):
                return None
            values[option[2:].replace("-", "_")] = _plain_value(options[option], text)
    except ValueError:
        return None
    if any(kwargs.get("required") and option not in pairs[::2] for option, kwargs in options.items()):
        return None
    return argparse.Namespace(command=argv[0], func=func, **values)


def _parse(argv: list) -> argparse.Namespace:
    """The full tree's parse of argv, building no parser for a plain spelling.

    _plain_parse takes the spelling almost every call uses; anything it
    declines goes to the whole tree, whose help and error text are the
    reference. Nothing is kept between calls, so a fresh process saves
    what an in-process call saves.
    """
    return _plain_parse(argv) or _build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
