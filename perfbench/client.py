"""One request against steinpoly, and the check of its answer.

A request is either one in-process ``steinpoly.cli.main(argv)`` call or one
library route check.  Every call goes through the module attribute at call
time, so the spans that ``spans.Tracer`` patches in are the ones used.
"""
import cmath
import contextlib
import io
import json
import math
import traceback
from fractions import Fraction
from pathlib import Path

from steinpoly import barcplx, cli, mpl, st2

# The nine unbounded caches of the seed package.  Each request starts with
# all of them empty, as a fresh ``steinpoly`` process would.
CACHE_NAMES = (
    "steinberg._flag_expand_apartment",
    "steinberg._line_chart",
    "steinberg._ar_apartment",
    "st2._s_pair",
    "st2._dual_apartment",
    "st2._symbol_L",
    "st2._symbol_I",
    "barcplx._shuffle_reducer",
    "cones._dual_data",
)


def find_caches(modules) -> dict:
    """Every module-level function cache in the package, by ``module.name``."""
    found = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if callable(getattr(obj, "cache_clear", None)) and callable(
                getattr(obj, "cache_info", None)
            ):
                found.setdefault(f"{short}.{name}", obj)
    return found


def run_request(case: dict, root: Path) -> tuple:
    """Run one case; returns (exit code or None on a traceback, output text)."""
    try:
        if "route" in case:
            ok = ROUTES[case["route"]["name"]](case["route"])
            return (0 if ok else 1), ("PASS" if ok else "FAIL")
        argv = [str(root / a) if a.endswith(".json") else a for a in case["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()
    except (Exception, SystemExit):
        return None, traceback.format_exc()


# ------------------------------------------------------------ library routes


def _route_trunc(r: dict) -> bool:
    """Recursion-plus-solve-back symbol equals the closed form."""
    ns = r["ns"]
    diff = mpl.truncated_symbol(mpl.std_li(*ns)) - mpl.truncated_symbol_closed(ns)
    if "perturb" in r:
        p = r["perturb"]
        diff = diff + st2.make_L(p["vectors"], len(ns), c=Fraction(p["coeff"]))
    return st2.is_zero_st2(diff)


def _plus_word(x, p: dict):
    if p is None:
        return x
    return x + barcplx.bar_word(p["word"], x.ambient, Fraction(p["coeff"]), tuple(p["exps"]))


def _route_gl(r: dict) -> bool:
    """GL-equivariance of the recursion symbol."""
    a, ns = r["matrix"], r["ns"]
    lhs = mpl.recursion_symbol_bar(mpl.PushedLi(1, a, ns))
    rhs = mpl.bar_gl_act(a, mpl.recursion_symbol_bar(mpl.std_li(*ns)))
    return lhs.terms == _plus_word(rhs, r.get("perturb")).terms


def _route_gonch(r: dict) -> bool:
    """Iterated-integral coproduct route equals the recursion route."""
    g = mpl.std_li(*r["ns"])
    lhs = mpl.goncharov_symbol_bar(g)
    rhs = mpl.recursion_symbol_bar(g)
    return lhs.terms == _plus_word(rhs, r.get("perturb")).terms


ROUTES = {"trunc": _route_trunc, "gl": _route_gl, "gonch": _route_gonch}


# ------------------------------------------------------------- answer check


def check(case: dict, code, text: str, root: Path):
    """None when the answer is the one known by construction, else a reason.

    Compares exit code, verdict, failing case index and relation name.
    Witness bodies are not compared: their form may change while the
    answer stays the same.
    """
    want = 0 if case["expect"] == "PASS" else 1
    if code != want:
        return f"exit {code}, expected {want}"
    if "route" in case:
        return None
    cmd = case["argv"][0]
    if cmd == "fourier":
        cfg = json.loads((root / case["argv"][1]).read_text())
        return _check_fourier(cfg, int(case["argv"][case["argv"].index("--box") + 1]), text)
    report = json.loads(text)
    if report.get("verdict") != case["expect"]:
        return f"verdict {report.get('verdict')}, expected {case['expect']}"
    if cmd == "verify" and case["expect"] == "FAIL":
        first = report["failures"][0]
        relation = first["witness"].get("relation")
        if first["case"] != 0 or relation != case["relation"]:
            return f"failure at case {first['case']} ({relation}), expected 0 ({case['relation']})"
    return None


def _bernoulli_poly(n: int, x: Fraction) -> Fraction:
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return sum(math.comb(n, k) * b[k] * x ** (n - k) for k in range(n + 1))


def _close(a: complex, b: complex, tol: float) -> bool:
    return abs(a - b) <= tol * (1 + abs(b))


def _check_fourier(cfg: dict, m_max: int, text: str):
    rows = [line.split(",") for line in text.splitlines()[2:]]
    if any(row[2 if cfg["study"] == "bernoulli" else 1] != str(m_max) for row in rows):
        return f"rows not summed to {m_max}"
    if cfg["study"] == "bernoulli":
        want = [(n, Fraction(x)) for n in cfg["weights"] for x in cfg["points"]]
        if len(rows) != len(want):
            return f"{len(rows)} rows, expected {len(want)}"
        for row, (n, x) in zip(rows, want):
            frac = x - math.floor(x)
            ref = -((2j * math.pi) ** n) / math.factorial(n) * float(_bernoulli_poly(n, frac))
            got = complex(float(row[3]), float(row[4]))
            their_ref = complex(float(row[5]), float(row[6]))
            if row[8] != "pass" or not _close(their_ref, ref, 1e-9):
                return f"bernoulli n={n} x={x}: status {row[8]}"
            if abs(got - ref) > cfg["tolerance"]:
                return f"bernoulli n={n} x={x}: error {abs(got - ref):.3e}"
        return None
    # cone study with forms dual to the generators: a product of 1-D sums
    gens, forms, ns = cfg["generators"], cfg["forms"], cfg["exponents"]
    if len(rows) != len(cfg["points"]):
        return f"{len(rows)} rows, expected {len(cfg['points'])}"
    for row, point in zip(rows, cfg["points"]):
        x = [Fraction(e) for e in point]
        ref = complex(1)
        for u, g, n in zip(forms, gens, ns):
            scale = sum(a * b for a, b in zip(u, g))
            theta = sum(a * b for a, b in zip(x, g))
            theta = float(theta - math.floor(theta))
            ref *= sum(
                (scale * lam) ** (-n) * cmath.exp(2j * math.pi * lam * theta)
                for lam in range(1, m_max + 1)
            )
        got = complex(float(row[2]), float(row[3]))
        if not _close(got, ref, 1e-9):
            return f"cone sum at {point}: {got} vs {ref}"
    return None
