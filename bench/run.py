"""resgraph benchmark: three workloads, end-to-end metrics, a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``cli-queries``, ``criteria-sweep``, ``large-trees`` or ``all``
(each workload in its own fresh interpreter, one after the other). Run
from anywhere inside a checkout; the package is imported from ``src/`` of
the checkout this file sits in.

Load is a closed loop with a single client in one thread: each op starts
when the previous one has returned. A run repeats whole passes over the
workload's ops until ``--seconds`` have elapsed and at least the
workload's minimum number of passes has run; correctness checks run
between ops, outside the timed region. Each op's time is its median over
the passes, and the metrics describe one pass made of these times. The seed drives only the random tree of
``large-trees``. Every timed figure is scaled to a reference machine speed
(``speed.py``), so a slow stretch of the shared host does not read as a
slower program; the summary also prints the unscaled wall-clock figures.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it runs one untraced and one traced
pass (after a traced set-up op) and reports the per-layer metrics and the
tracing overhead. Lines before the last one are a readable summary.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter, perf_counter_ns

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cli-queries", "criteria-sweep", "large-trees")
SETUP_SAMPLES = 7   # this process plus six fresh interpreters
CAP_ENV = "RESGRAPH_ENUM_CAP"

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
              "op_p50_ms": "ms", "op_p95_ms": "ms"}
# the names the workloads' own vocabulary gives the generic metrics
ALIASES = {
    "cli-queries": {"ops_per_s": "queries_per_s",
                    "op_p50_ms": "query_p50_ms", "op_p95_ms": "query_p95_ms"},
    "criteria-sweep": {"ops_per_s": "trees_per_s", "op_p50_ms": "tree_p50_ms",
                       "op_p95_ms": "tree_p95_ms"},
}

_SELF = [
    "cli.run", "graphio.parse_graph", "fixtures.load_fixture",
    "core.build_graph", "core.canonical_cycle", "core.dual_cycle", "core.chi",
    "laufer.antinef_lift", "laufer.classify",
    "ellseq.elliptic_sequence", "ellseq.antinef_in_class_below_ZK",
    "ellseq.numerically_gorenstein_subsupports",
    "criteria.monomial_condition", "criteria.extension_criterion",
    "strata.strata_index_sets", "quadform.enumerate_ellipsoid_points",
    "oracle.enumerate_trees", "oracle.verify", "oracle.brute_min_antinef",
    "oracle.brute_fundamental_cycle", "oracle.brute_min_chi",
    "oracle.brute_minimally_elliptic", "oracle.brute_lemci",
    "oracle.brute_subsupports",
]
_CALLS = ["graphio.parse_graph", "core.build_graph", "core.dual_cycle",
          "core.intersection_form", "laufer.antinef_lift",
          "ellseq.elliptic_sequence"]
_COUNTERS = ["laufer.steps", "strata.candidates", "quadform.filter_calls",
             "quadform.points", "oracle.trees"]
PER_LAYER = {
    **{f"{n}.self_ms": "ms" for n in _SELF},
    **{f"{n}.calls": "count" for n in _CALLS},
    **{n: "count" for n in _COUNTERS},
    "quadform.filter_calls_per_point": "calls/point",
    "trace.untraced_ms": "ms",
    "trace.traced_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.spans": "count",
}


def percentile(samples: list, p: int):
    """p-th percentile, interpolated between the two nearest samples."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


class PassResult:
    def __init__(self):
        # (label, start, end, ns): the op's span on the clock, and the
        # time it took with the speed probe's samples taken out
        self.samples: list[tuple[object, int, int, int]] = []
        self.busy_ns = 0
        self.failed = 0
        self.ok = True


def run_pass(workload, tracer=None, probe=None) -> PassResult:
    """One closed-loop pass; an op returning None ends the pass. With a
    speed probe, the time its samples took inside an op is taken out."""
    out = PassResult()
    for op_id, (label, op) in enumerate(workload.ops(), start=1):
        if tracer is not None:
            tracer.op = op_id
        probed = probe.spent_ns if probe is not None else 0
        start = perf_counter_ns()
        try:
            result = op()
            raised = False
        except Exception:
            traceback.print_exc(file=sys.stderr)
            raised = True
        end = perf_counter_ns()
        elapsed = end - start
        if probe is not None:
            elapsed -= probe.spent_ns - probed
        out.busy_ns += elapsed
        if not raised and result is None:
            break
        out.samples.append((label, start, end, elapsed))
        if raised or not workload.check(label, result):
            out.failed += 1
        result = None
        if workload.collect_between_ops:
            gc.collect()
    out.ok = workload.end_pass()
    # every pass starts from a collected heap
    gc.collect()
    return out


def _setup_samples(first: float) -> list[float]:
    """Set-up times scaled to the reference speed: this process's own, then
    one from each of ``SETUP_SAMPLES - 1`` fresh interpreters."""
    samples = [first]
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(probe, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _per_op(passes, value) -> dict:
    """Each op's median over the passes of ``value(start, end, ns)``."""
    by_label = defaultdict(list)
    for p in passes:
        for label, start, end, ns in p.samples:
            by_label[label].append(value(start, end, ns))
    return {label: statistics.median(v) for label, v in by_label.items()}


def _summary(times: list) -> dict:
    """Throughput and percentiles of one pass made of these op times."""
    return {"ops_per_s": len(times) / (sum(times) / 1e9),
            "op_p50_ms": percentile(times, 50) / 1e6,
            "op_p95_ms": percentile(times, 95) / 1e6}


def timed_run(workload, seconds: int, setup: list[float]):
    passes = []
    with speed.SpeedProbe() as probe:
        start = perf_counter()
        while (len(passes) < workload.min_passes
               or perf_counter() - start < seconds):
            passes.append(run_pass(workload, probe=probe))
            if len(passes) == 1:
                # later passes repeat the same work; reading the peak here
                # keeps the benchmark's own growing records out of it
                peak_rss = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
        measured = perf_counter() - start
    scaled = _per_op(passes, lambda t0, t1, ns: ns * probe.scale(t0, t1))
    times = list(scaled.values())
    metrics = {"setup_s": statistics.median(setup),
               "peak_rss_mb": peak_rss, **_summary(times)}
    attempted = sum(len(p.samples) for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and all(p.ok for p in passes)
    took = probe.took
    lines = [f"passes {len(passes)}  ops per pass {len(times)}  "
             f"measured {measured:.2f} s  setup samples "
             + " ".join(f"{s:.4f}" for s in setup),
             f"speed: {len(took)} reference-loop samples, median "
             f"{statistics.median(took) / 1e6:.3f} ms (reference "
             f"{speed.REFERENCE_NS / 1e6:.3f} ms)"]
    aliases = ALIASES.get(workload.name, {})
    for name, value in metrics.items():
        alias = f"  (= {aliases[name]})" if name in aliases else ""
        lines.append(f"{name} {value:.6g} {END_TO_END[name]}{alias}")
    lines.append(f"failed_frac {failed / attempted:.6g} "
                 f"({failed} of {attempted})")
    lines.append(f"op_p90_ms {percentile(times, 90) / 1e6:.6g} ms "
                 "(not gated)")
    wall = _summary(list(_per_op(passes, lambda t0, t1, ns: ns).values()))
    lines.append("unscaled (not gated): " + "  ".join(
        f"{name} {value:.6g}" for name, value in wall.items()))
    if workload.name == "large-trees":
        lines += [f"{label}_s {ns / 1e9:.6g} s (median of {len(passes)})"
                  for label, ns in scaled.items()]
    return metrics, END_TO_END, attempted, failed, correct, lines


def traced_run(workload, spans_path=None):
    import resgraph
    from resgraph import fixtures
    import tracer as tracing

    untraced = run_pass(workload)
    tracer = tracing.Tracer()
    loader = fixtures.load_fixture
    tracer.install()
    loader.cache_clear()
    tracer.op = 0
    for name in resgraph.FIXTURE_NAMES:
        fixtures.load_fixture(name)
    load_ms = tracer.self_ms("fixtures.load_fixture")
    tracer.reset_totals()
    traced = run_pass(workload, tracer)
    if spans_path is not None:
        tracer.write_spans(spans_path)

    untraced_ms = untraced.busy_ns / 1e6
    traced_ms = traced.busy_ns / 1e6
    points = tracer.counters.get("quadform.points", 0)
    filters = tracer.counters.get("quadform.filter_calls", 0)
    metrics = {}
    for name in PER_LAYER:
        if name.endswith(".self_ms"):
            metrics[name] = tracer.self_ms(name[:-len(".self_ms")])
        elif name.endswith(".calls"):
            metrics[name] = tracer.calls.get(name[:-len(".calls")], 0)
        elif name in _COUNTERS:
            metrics[name] = tracer.counters.get(name, 0)
    metrics.update({
        "fixtures.load_fixture.self_ms": load_ms,
        "quadform.filter_calls_per_point": filters / points if points else 0,
        "trace.untraced_ms": untraced_ms,
        "trace.traced_ms": traced_ms,
        "trace.overhead_ms": traced_ms - untraced_ms,
        "trace.spans": tracer.span_count(),
    })
    attempted = len(untraced.samples) + len(traced.samples)
    failed = untraced.failed + traced.failed
    correct = failed == 0 and untraced.ok and traced.ok
    lines = [f"untraced pass {untraced_ms:.1f} ms, traced pass "
             f"{traced_ms:.1f} ms, tracing overhead "
             f"{traced_ms - untraced_ms:.1f} ms, {tracer.span_count()} spans"]
    lines += [f"{name} {metrics[name]:.6g} {unit}"
              for name, unit in PER_LAYER.items()]
    lines.append(f"failed_frac {failed / attempted:.6g} "
                 f"({failed} of {attempted})")
    return metrics, PER_LAYER, attempted, failed, correct, lines


def run_workload(args) -> int:
    os.environ.pop(CAP_ENV, None)
    sys.path.insert(0, str(SRC))
    import setup_probe
    first_setup = setup_probe.measure()
    import resgraph
    if not Path(resgraph.__file__).resolve().is_relative_to(SRC):
        print(f"error: resgraph imported from {resgraph.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    reference = json.loads((HERE / "reference.json").read_text())
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, workdir, reference[args.workload])
        if args.trace:
            outcome = traced_run(workload, args.spans)
        else:
            outcome = timed_run(workload, args.seconds,
                                _setup_samples(first_setup))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, units, attempted, failed, correct, lines = outcome
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"correct {correct}")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        *summary, last = proc.stdout.strip().splitlines()
        print("\n".join(summary))
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", metavar="FILE",
                        help="with --trace 1 and one workload, also write "
                             "every span to FILE as JSON lines")
    args = parser.parse_args(argv)
    if not (SRC / "resgraph" / "__init__.py").is_file():
        print(f"error: no resgraph package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
