"""sedg benchmark: one closed-loop client, one process, no threads.

    python3 benchmarks/run.py --workload exchange_small --seed 1 --seconds 15 --trace 0

Repeats the workload's pass of ops until `--seconds` have gone by, checks
every op's result, and prints a table followed by one JSON line: the
end-to-end metrics with `--trace 0`, the per-layer metrics of a traced run
with `--trace 1`. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter_ns

try:
    import tracer
    import workloads
except ImportError as exc:  # no sedg sources beside the benchmark
    sys.exit(f"run.py: {exc}")

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 7
WARMUP_OPS = 3
SPAN_OPS = 64  # ops whose spans a traced run writes out
MAX_PROBLEMS_SHOWN = 5

# A fresh interpreter that imports sedg and builds the workload's ops.
_SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "workloads.build(sys.argv[2], int(sys.argv[3]))"
)


def tail_percentile(pass_size: int) -> int:
    """Highest whole percentile, up to p99, with ten of the pass's ops beyond it.

    It depends on the pass size alone, so every commit reports the same
    percentile however many repeats fit in the run.
    """
    return min(99, math.floor(100 * (1 - 10 / pass_size)))


def nearest_rank(sorted_values: list[int], percentile: float) -> tuple[int, int]:
    """The value at a percentile and how many samples lie beyond it."""
    rank = max(1, math.ceil(percentile / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports sedg and builds the ops."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(BENCH_DIR), workload, str(seed)],
        check=True,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


class Runner:
    """Runs ops, times each one, and applies the correctness gate."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(
        self, op: workloads.Op, layers: tracer.Tracer | None = None, op_id: int = 0
    ) -> int:
        """Run and check one op, traced by `layers` if given; returns its latency in ns."""
        if layers is not None:
            layers.begin_op(op_id)
        start = perf_counter_ns()
        try:
            result = op.run()
        except Exception as exc:  # DepthExceeded or any crash fails the op
            result = exc
        latency = perf_counter_ns() - start
        if layers is not None:
            layers.end_op(getattr(result, "schedules_explored", 1))
        self._check(op, result)
        return latency

    def _check(self, op: workloads.Op, result) -> None:
        self.attempted += 1
        if isinstance(result, Exception):
            problems = [f"raised {type(result).__name__}: {result}"]
        else:
            problems = workloads.check(op, result)
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS_SHOWN:
                config = op.config
                self.problems.append(
                    f"{op.kind} {config.variant.value} {config.seller_policy.value}"
                    f" x {config.buyer_policy.value}: {'; '.join(problems)}"
                )


def measure(runner: Runner, ops, seconds: float, workload: str, seed: int):
    """Repeat the pass until `seconds` have gone by, and always finish one pass.

    Returns each op's fastest latency and the set-up probe times. The probes
    are spread over the run, between ops, so that a slow spell of a shared
    machine reaches only some of them.
    """
    for op in ops[:WARMUP_OPS]:
        runner.run(op)
    fastest = [math.inf] * len(ops)
    start = time.perf_counter()
    deadline = start + seconds
    probes_due = [start + seconds * (k + 0.5) / SETUP_PROBES for k in range(SETUP_PROBES)]
    setup: list[float] = []
    repeats = 0
    while repeats == 0 or time.perf_counter() < deadline:
        for index, op in enumerate(ops):
            now = time.perf_counter()
            if repeats and now >= deadline:
                break
            if probes_due and now >= probes_due[0]:
                probes_due.pop(0)
                setup.append(setup_probe(workload, seed))
            fastest[index] = min(fastest[index], runner.run(op))
        repeats += 1
    setup += [setup_probe(workload, seed) for _ in probes_due]
    return fastest, setup


def measure_traced(runner: Runner, ops, seconds: float) -> tuple[tracer.Tracer, int, int]:
    """Alternate an untraced and a traced pass until `seconds` have gone by."""
    layers = tracer.Tracer(span_ops=SPAN_OPS)
    for op in ops[:WARMUP_OPS]:
        runner.run(op)
    untraced_ns = traced_ns = 0
    deadline = time.perf_counter() + seconds
    while True:
        untraced_ns += sum(runner.run(op) for op in ops)
        with layers:
            traced_ns += sum(runner.run(op, layers, i) for i, op in enumerate(ops))
        if time.perf_counter() >= deadline:
            return layers, traced_ns, untraced_ns


def layer_unit(name: str) -> str:
    if name == "harness.ms_per_node":
        return "ms/node"
    if name.endswith("_ms"):
        return "ms/op"
    if name.endswith(".bytes"):
        return "bytes/op"
    if name.endswith((".count", ".distinct")):
        return "count/op"
    return "ratio"


def end_to_end(runner: Runner, ops, args) -> tuple[dict, dict, dict]:
    fastest, setup = measure(runner, ops, args.seconds, args.workload, args.seed)
    latencies = sorted(fastest)
    percentile = tail_percentile(len(ops))
    tail, beyond = nearest_rank(latencies, percentile)
    metrics = {
        "ops_per_s": len(latencies) / (sum(latencies) / 1e9),
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "op_tail_ms": tail / 1e6,
        "setup_s": statistics.median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "setup_s": "s", "peak_rss_mib": "MiB"}
    repeats = runner.attempted / len(ops)
    notes = {
        "ops_per_s": f"{len(ops)} ops over the sum of their fastest latencies",
        "op_p50_ms": f"p50 of {len(ops)} ops, each the fastest of ~{repeats:.1f} runs",
        "op_tail_ms": f"p{percentile} of {len(ops)} ops, {beyond} beyond it",
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "peak_rss_mib": "ru_maxrss of this process",
    }
    return metrics, units, notes


def per_layer(runner: Runner, ops, args) -> tuple[dict, dict, dict]:
    layers, traced_ns, untraced_ns = measure_traced(runner, ops, args.seconds)
    layers.require(args.workload)
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
    count = layers.write_spans(path)
    print(f"spans        {count} spans of the first {SPAN_OPS} traced ops written to"
          f" {path.relative_to(BENCH_DIR.parent)}")
    metrics = layers.metrics(traced_ns, untraced_ns)
    traced_ops = layers.counts["ops"]
    traced_rate = traced_ops / (traced_ns / 1e9)
    untraced_rate = traced_ops / (untraced_ns / 1e9)
    print(f"tracing      {traced_ops} traced ops at {traced_rate:.2f} ops/s against"
          f" {traced_ops} untraced at {untraced_rate:.2f} ops/s:"
          f" overhead x{metrics['trace.overhead_ratio']:.3f}")
    return metrics, {name: layer_unit(name) for name in metrics}, {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ops = workloads.build(args.workload, args.seed)
    runner = Runner()
    print(f"workload     {args.workload}  seed {args.seed}  {len(ops)} ops per pass"
          f"  closed loop, 1 client, {'traced' if args.trace else 'untraced'}")
    metrics, units, notes = (per_layer if args.trace else end_to_end)(runner, ops, args)

    for name, value in metrics.items():
        print(f"{name:<28} {value:>14.6g} {units[name]:<9} {notes.get(name, '')}")
    error_rate = runner.failed / runner.attempted
    print(f"{'error_rate':<28} {error_rate:>14.6g} {'ratio':<9} "
          f"{runner.failed} failed of {runner.attempted} ops")
    for problem in runner.problems:
        print(f"FAILED: {problem}", file=sys.stderr)

    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
