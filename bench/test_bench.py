"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py

The traced-run tests run each workload twice and take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from fractions import Fraction
from time import perf_counter_ns

import pytest

import run
import speed

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text())
ORACLE_BRUTE = ["oracle.verify", "oracle.brute_min_antinef",
                "oracle.brute_fundamental_cycle", "oracle.brute_min_chi",
                "oracle.brute_minimally_elliptic", "oracle.brute_lemci",
                "oracle.brute_subsupports"]
QUADFORM = ["quadform.enumerate_ellipsoid_points.self_ms",
            "quadform.filter_calls", "quadform.points",
            "quadform.filter_calls_per_point"]
ZERO_BY_CONSTRUCTION = {
    "cli-queries": [],
    "criteria-sweep": QUADFORM + [f"{n}.self_ms" for n in ORACLE_BRUTE],
    "large-trees": QUADFORM + [f"{n}.self_ms" for n in ORACLE_BRUTE]
    + ["oracle.enumerate_trees.self_ms", "oracle.trees"],
}


def _bench(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=600)
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_config_matches_the_runner():
    assert [w["name"] for w in CONFIG["workloads"]] == list(
        run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in CONFIG["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} \
        == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _scratch(name: str):
    path = run.ROOT / ".bench_work" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def test_seed_drives_only_the_random_tree():
    assert workloads.random_tree_spec(3) == workloads.random_tree_spec(3)
    assert workloads.random_tree_spec(3) != workloads.random_tree_spec(4)
    queries = []
    for seed in (3, 4):
        workdir = _scratch(f"seed-{seed}")
        try:
            cli = workloads.CliQueries(seed, workdir, None)
            queries.append([label for label, _ in cli.queries])
        finally:
            shutil.rmtree(workdir)
    assert queries[0] == queries[1]


def test_random_tree_is_diagonally_dominant():
    spec = workloads.random_tree_spec(11)
    lattice = workloads._Lattice(spec)
    assert len(spec["vertices"]) == workloads.TREE_VERTICES
    for v, e in lattice.euler.items():
        assert -e > len(lattice.neighbours[v])


def test_own_equations_reject_a_wrong_cycle():
    from resgraph import core
    spec = workloads.random_tree_spec(5)
    graph = core.build_graph(spec)
    lattice = workloads._Lattice(spec)
    zk = core.canonical_cycle(graph)
    assert lattice.is_canonical(zk)
    wrong = zk + graph.basis_cycle(graph.vertices[0])
    assert not lattice.is_canonical(wrong)
    end = min(graph.end_vertices())
    dual = core.dual_cycle(graph, end)
    assert lattice.is_dual(dual, end)
    assert not lattice.is_dual(dual * Fraction(2), end)


def test_speed_probe_samples_inside_a_long_op():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        start = perf_counter_ns()
        while perf_counter_ns() - start < 300_000_000:
            pass
        end = perf_counter_ns()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(probe.took) >= 3
    assert probe.spent_ns == sum(probe.took)
    assert all(start < at < end for at in probe.at)
    assert probe.scale(start, end) > 0


def test_scale_follows_the_samples_near_the_op():
    probe = speed.SpeedProbe()
    second = 1_000_000_000
    for i in range(200):   # a slow first 10 s, then a fast 10 s
        probe.at.append(i * second // 10)
        probe.took.append(2 * speed.REFERENCE_NS if i < 100
                          else speed.REFERENCE_NS // 2)
    # short ops: the median sample nearby, or the nearest samples
    assert probe.scale(2 * second, 2 * second + 1000) == 0.5
    assert probe.scale(15 * second, 15 * second + 1000) == 2.0
    assert probe.scale(30 * second, 31 * second) == 2.0
    # long ops: the mean rate inside, a slow and a fast half here
    assert probe.scale(2 * second, 3 * second) == 0.5
    assert probe.scale(9 * second, 11 * second) == pytest.approx(1.25,
                                                                 rel=0.05)


def test_refuses_to_run_without_the_sources():
    bare = _scratch("bare-checkout")
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "large-trees", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counters_repeat(workload):
    """Two traced runs with one seed give identical counters; the metrics
    that are zero by construction read zero; tracing overhead is there;
    the written spans are the ones counted, each tagged with its op."""
    spans = _scratch(f"spans-{workload}") / "spans.jsonl"
    args = ["--workload", workload, "--seed", "9", "--seconds", "1",
            "--trace", "1"]
    first = _result(_bench(*args, "--spans", str(spans)))
    second = _result(_bench(*args))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(run.PER_LAYER)
        assert "trace.overhead_ms" in result["metrics"]
    counters = [name for name, unit in run.PER_LAYER.items()
                if unit != "ms"]
    for name in counters:
        assert first["metrics"][name] == second["metrics"][name], name
    for name in ZERO_BY_CONSTRUCTION[workload]:
        assert first["metrics"][name]["value"] == 0, name

    records = [json.loads(line) for line in spans.read_text().splitlines()]
    shutil.rmtree(spans.parent)
    assert len(records) == first["metrics"]["trace.spans"]["value"]
    for index, span in enumerate(records):
        assert span["parent"] < index
        assert span["start_ns"] <= span["end_ns"]
        if span["parent"] >= 0:
            assert span["op"] == records[span["parent"]]["op"]
    setup = [s for s in records if s["op"] == 0]
    assert {s["name"] for s in setup if s["parent"] < 0} \
        == {"fixtures.load_fixture"}
    assert {s["op"] for s in records} - {0}
