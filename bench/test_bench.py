"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest -q bench/test_bench.py

They exercise the benchmark's own code (generators, tracer, report) and run
the cheapest workload once untraced and once traced, which takes about a
minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import session  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(tmp: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(tmp.iterdir())}


def _build(workload: str, seed: int, tmp: Path):
    tmp.mkdir(parents=True)
    return workloads.build(workload, seed, tmp, tmp.parent, 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_reproducible_per_seed(tmp_path, workload):
    a = _build(workload, 7, tmp_path / "a")
    b = _build(workload, 7, tmp_path / "b")
    c = _build(workload, 8, tmp_path / "c")
    assert [x.id for x in a] == [x.id for x in b]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert sorted(x.id for x in a) == sorted(x.id for x in c)
    assert ([x.id for x in a], _files(tmp_path / "a")) != (
        [x.id for x in c], _files(tmp_path / "c"))


def test_fermat_configuration_invariants():
    n, edges = inputs.fermat_edges()
    valency = [0] * n
    for a, b in edges:
        valency[a] += 1
        valency[b] += 1
    assert (n, len(edges), set(valency)) == (48, 336, {14})
    # The 24 planes that cut the quartic in 4 lines are its K4 subgraphs.
    adjacent = {frozenset(e) for e in edges}
    k4 = [
        (a, b, c, d)
        for a in range(n) for b in range(a + 1, n)
        if frozenset((a, b)) in adjacent
        for c in range(b + 1, n)
        if {frozenset((a, c)), frozenset((b, c))} <= adjacent
        for d in range(c + 1, n)
        if {frozenset((a, d)), frozenset((b, d)), frozenset((c, d))} <= adjacent
    ]
    assert len(k4) == 24


def test_normal_form_undoes_a_relabeling():
    call = workloads.Call("x", [], perm=(2, 0, 1))
    # vertex 0 became 2, 1 became 0, 2 became 1
    out = json.dumps({"input": "a", "fragments": [
        {"vertices": [0, 2], "type": "T"}]})
    assert workloads.normal_form(call, out) == {"fragments": [([0, 1], "T")]}


def test_a_crashing_call_is_recorded_as_exit_1():
    def main(argv):
        if argv == ["boom"]:
            raise ValueError("boom")
        print("ok")
        return 0

    results, _, _ = session.run_calls(
        [{"id": "a", "argv": ["boom"]}, {"id": "b", "argv": []}], main)
    assert [(r["rc"], r["stdout"]) for r in results] == [(1, ""), (0, "ok\n")]
    assert "ValueError: boom" in results[0]["stderr"]


def _span_session(tmp: Path, threads: int) -> dict:
    calls = [
        {"id": "f", "argv": ["fragments", "corpus/two_prisms.json", "--json",
                             "--threads", str(threads)]},
        {"id": "r", "argv": ["real", "corpus/prism_plus_k33.json", "--json",
                             "--threads", str(threads)]},
        {"id": "l", "argv": ["lattice", "E6(3)", "--json"]},
    ]
    calls_path = tmp / "calls.json"
    calls_path.write_text(json.dumps(calls))
    out = tmp / f"traced-{threads}.json"
    subprocess.run(
        [sys.executable, str(HERE / "session.py"), str(calls_path), str(out),
         "--trace"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        check=True, timeout=120,
    )
    return json.loads(out.read_text())


@pytest.mark.parametrize("threads", [1, 2])
def test_self_times_and_remainder_add_up_to_traced_cpu(tmp_path, threads):
    doc = _span_session(tmp_path, threads)
    assert all(c["rc"] == 0 for c in doc["calls"])
    self_total = sum(self_s for _, _, self_s in doc["aggregates"].values())
    # Self times partition the CPU time inside root spans and worker tasks.
    assert self_total == pytest.approx(doc["top_cpu_s"], abs=1e-6)
    # The rest of the calls' process CPU time is the untraced remainder
    # (the session loop and the tracer's own bookkeeping outside spans).
    remainder = doc["calls_cpu_s"] - self_total
    assert 0 <= remainder < 0.05 * doc["calls_cpu_s"]
    assert doc["aggregates"]["cli.main"][0] == 3
    tasks = doc["edges"]["parallel.parallel_map>fano.enumerate_fragments.task"]
    assert tasks >= 1


def test_every_span_has_a_recorded_parent(tmp_path):
    doc = _span_session(tmp_path, 2)
    assert doc["dropped_spans"] == 0
    by_id = {s["id"]: s for s in doc["spans"]}
    roots = [s for s in doc["spans"] if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main"] * 3
    assert all(s["parent"] in by_id for s in doc["spans"] if s not in roots)
    tasks = [s for s in doc["spans"] if s["name"].endswith(".task")]
    assert tasks
    # Whichever thread ran it, each task's parent is the submitting call.
    assert {by_id[t["parent"]]["name"] for t in tasks} == {
        "parallel.parallel_map"
    }


def _run(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fragment-scaling",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_report_names_every_metric_with_its_unit(trace, kind):
    proc = _run(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert name in proc.stdout.split("\n{")[0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_spec_follows_the_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
