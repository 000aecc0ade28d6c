"""Memory bounded by the call.

No cache of the package is keyed by an apartment: the ones left are keyed
by a dimension or by word lengths (steinberg._walk_tables,
steinberg._standard_rows, barcplx._interleavings), or, for the evaluation
oracle, which evaluates each key at several points, by a basis
(cones._dual_data, which no `verify` suite reaches). So a `verify` process
keeps nothing of one case for the next, and a call that repeats a key
reuses it from state that ends with the call.
"""
import importlib
import pkgutil
from collections import Counter
from fractions import Fraction

import pytest

import steinpoly
from steinpoly import cli, st2
from steinpoly.barcplx import shuffle_words
from steinpoly.steinberg import zero_exps

KEPT = (
    ("steinberg", "_walk_tables"),
    ("steinberg", "_standard_rows"),
    ("barcplx", "_interleavings"),
    ("cones", "_dual_data"),
)
BASIS = [(1, 0, 2, -1), (0, 1, -1, 2), (2, 1, 0, 1), (1, -1, 1, 0)]


def package_caches() -> dict:
    """Every module-level function cache of the package, as {cache: "module.name"}.

    A cache is named where it is defined, or else where it is first bound.
    """
    found = {}
    for info in pkgutil.iter_modules(steinpoly.__path__):
        mod = importlib.import_module(f"steinpoly.{info.name}")
        for name, obj in vars(mod).items():
            if callable(getattr(obj, "cache_clear", None)) and callable(getattr(obj, "cache_info", None)):
                if getattr(obj, "__module__", None) == mod.__name__:
                    found[obj] = f"{info.name}.{name}"
                else:
                    found.setdefault(obj, f"{info.name}.{name}")
    return found


def size_bound(name: str, d: int) -> int:
    """The most entries a kept cache may hold after any run at dimension d."""
    return {
        "_walk_tables": 2 * d,  # (rank, mode)
        "_standard_rows": d,  # rank
        "_interleavings": (d + 1) ** 3,  # (head, lu, lv), summing to at most d
        "_dual_data": 0,  # no verify suite reaches the oracle
    }[name]


@pytest.mark.parametrize("suite", ["shuffle", "dihedral", "cobracket", "ashrudolph"])
def test_caches_do_not_grow_with_cases(suite, capsys):
    d = 4
    kept = {getattr(importlib.import_module(f"steinpoly.{mod}"), name): name for mod, name in KEPT}
    caches = package_caches()
    sizes = {}
    for cases in (1, 6):
        for cache in caches:
            cache.cache_clear()
        assert cli.main(["verify", suite, "--dim", str(d), "--cases", str(cases)]) == 0
        capsys.readouterr()
        sizes[cases] = {cache: cache.cache_info().currsize for cache in caches}
    # any other cache, with its size after one case and after six
    assert {name: (sizes[1][c], sizes[6][c]) for c, name in caches.items() if c not in kept} == {}
    assert set(caches) == set(kept)
    for cache, name in kept.items():
        assert sizes[6][cache] <= size_bound(name, d), (name, sizes[6][cache])


def counting(monkeypatch, module, name) -> Counter:
    """Replace module.name by a wrapper that counts its calls by argument tuple."""
    real = getattr(module, name)
    calls: Counter = Counter()

    def wrapper(*args):
        calls[args] += 1
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_s_map_walks_a_pair_once_per_call(monkeypatch):
    ((key_a, key_b, _), _c), = st2.make_L(BASIS).terms.items()
    words = st2._s_pair(key_a, key_b)
    assert len(words) > 1
    tails = [zero_exps(4), (1, 0, 0, 0), (0, 2, 1, 0)]
    calls = counting(monkeypatch, st2, "_s_pair")
    got = st2._s_map({(key_a, key_b, e): k + 1 for k, e in enumerate(tails)})
    assert calls == Counter({(key_a, key_b): 1})
    assert dict(got) == {(w, e): (k + 1) * c for k, e in enumerate(tails) for w, c in words}


def shuffle_sum(vecs, d1: int) -> st2.St2:
    """make_L summed over the shuffles of vecs[:d1] and vecs[d1:]: every term has the same second factor."""
    x = st2.St2.zero(len(vecs))
    for word in shuffle_words(vecs[:d1], vecs[d1:]):
        x += st2.make_L(word)
    return x


@pytest.mark.parametrize("perturbed", [False, True])
def test_normal_form_expands_each_key_once_per_call(monkeypatch, perturbed):
    x = shuffle_sum(BASIS, 2)
    if perturbed:
        x += Fraction(-2, 3) * st2.make_L([(0, 1, 0, -2), (-1, -1, 0, -3), (0, 2, 2, -3), (2, -2, -3, 2)])
    firsts = {(ka, e) for ka, _kb, e in x.terms}
    seconds = {(kb, e) for _ka, kb, e in x.terms}
    assert len(seconds) < len(firsts)  # grouped by the second factor, which is expanded last
    want = st2.st2_normal_form(x)
    expansions = counting(monkeypatch, st2, "_flag_expand_apartment")
    assert st2.st2_normal_form(x) == want
    assert len({ka for ka, _kb, _e in want}) > 1  # blocks that share an outer apartment
    assert max(expansions.values()) == 1, expansions
