"""Tests of the benchmark itself: inputs, answer check and printed metrics.

    python3 -m pytest perfbench/tests -q
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path[:0] = [str(HERE.parent), str(REPO / "src")]

import cases  # noqa: E402
import client  # noqa: E402
import run  # noqa: E402

# one or four cases per group: a group of four carries one perturbation
TINY = {
    "FLAGNF": {"shuffle": {3: 4}, "duality": {3: 4}},
    "STABLE": {"dihedral": {3: 4}, "cobracket": {3: 1}, "st": 4},
    "SYMBOLS": {"trunc": {2: 4}, "gl": {2: 4}, "gonch": 4},
    "LATTICE": {"ashrudolph": {2: 4, 3: 4}, "bernoulli": 1, "cone": 1},
}


@pytest.fixture
def tiny(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setattr(cases, name, value)


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    a = cases.generate(workload, 11, tmp_path / "a")
    b = cases.generate(workload, 11, tmp_path / "b")
    assert a == b
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    cases.generate(workload, 12, tmp_path / "c")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_a_quarter_of_each_perturbable_group_fails(tmp_path):
    got = cases.generate("flagnf", 3, tmp_path)
    for kind in {c["kind"] for c in got}:
        group = [c for c in got if c["kind"] == kind]
        assert sum(c["expect"] == "FAIL" for c in group) == len(group) // 4


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_tiny_cases_get_their_verdicts(workload, tiny, tmp_path):
    got = cases.generate(workload, 5, tmp_path)
    outcomes = [client.run_request(c, tmp_path) for c in got]
    for case, (code, text) in zip(got, outcomes):
        assert client.check(case, code, text, tmp_path) is None, (case, text[-500:])
    failing = [code for case, (code, _) in zip(got, outcomes) if case["expect"] == "FAIL"]
    assert failing
    assert failing == [1] * len(failing)


def test_wrong_expectation_raises_fail_ratio(tiny, tmp_path):
    got = cases.generate("symbols", 5, tmp_path)
    got[0] = dict(got[0], expect="FAIL" if got[0]["expect"] == "PASS" else "PASS")
    runner = run.Runner(got, tmp_path, {})
    runner.one_pass(range(len(got)))
    assert runner.attempted == len(got)
    assert len(runner.failures) == 1
    assert "expected" in runner.failures[0]


def test_check_rejects_a_wrong_relation(tmp_path):
    got = cases.generate("flagnf", 2, tmp_path)
    case = next(c for c in got if c["expect"] == "FAIL" and c["kind"] == "duality d3")
    code, text = client.run_request(case, tmp_path)
    assert client.check(case, code, text, tmp_path) is None
    assert client.check(dict(case, relation="involution"), code, text, tmp_path)


def test_tracer_restores_every_binding():
    from steinpoly import mpl, qlinalg, st2
    from spans import Tracer

    before = (st2.embed_s, mpl.embed_s, qlinalg.Subspace.__dict__["span"])
    tracer = Tracer()
    tracer.install()
    try:
        assert st2.embed_s is mpl.embed_s is not before[0]
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    assert (st2.embed_s, mpl.embed_s, qlinalg.Subspace.__dict__["span"]) == before


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section, tiny, capsys):
    argv = ["--workload", "symbols", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((REPO / "BENCHMARK.json").read_text())[section]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
