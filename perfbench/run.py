"""ramseykit benchmark: run one workload in this process and report its metrics.

    python3 perfbench/run.py --workload anneal --seed 1 --seconds 12 --trace 0

Workloads: anneal, exhaustive, exact-count, certify (see workloads.py).  The
run is closed-loop with one caller and ``threads=1``.  It does
ceil(seconds / round_s) rounds of the workload's fixed op mix, so the work
per run is fixed for a given --seconds (10 to 20 s of op time on the shared
two-core Xeon virtual machine the benchmark was defined on).  Every answer
is checked outside the timed region; a check that fails or an op that
raises counts as failed.  Times are wall times, less the time taken by
host-speed samples, scaled by the host speed those samples measure
(hostspeed.py), in seconds of a host where the speed kernel takes 3 ms; the
BENCHMARK.json bounds apply to these scaled times.  The same metrics from
unscaled times are printed too, on the line before the result as
``raw_metrics {...}``.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the ops once
untraced and once with a span around every call into ramseykit, reports
per-layer self time and work counts, the tracing overhead (traced minus
untraced op time), and writes the spans to perfbench/out/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` of the checkout this file sits in; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed, scale_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

IMPORT_SAMPLES = 7
CLI_SAMPLES = 5
CHILD_TIMEOUT_S = 60
# op_tail_s is the highest percentile with at least this many ops beyond it
TAIL_BEYOND = 10

LAYERS = ("coloring", "counting", "search", "structure", "regularity", "verify")
# spans whose total duration is reported as "<name>_s"
TIMED_SPANS = (
    "counting.copy_edge_masks",
    "counting.path_dp",
    "counting.cycle_dp",
    "counting.star",
    "counting.clique",
    "coloring.parse",
    "coloring.serialize",
    "coloring.canonical_key",
    "search.exhaustive_raw",
    "search.exhaustive_canonical",
    "search.canonical_graph_reps",
    "search.canonical_graph_reps_n7",
    "regularity.eps_regular_exact",
    "regularity.build_reduced",
    "regularity.verify_count_bounds",
    "structure.max_matching",
    "structure.disjoint_short_paths",
    "structure.well_connected_check",
    "verify.formulas",
    "verify.structure",
    "verify.bounds",
    "verify.stability",
    "cli.main",
)
# work counters reported as they are
COUNTS = (
    "search.anneal.proposals",
    "search.anneal.solution_gap",
    "search.exhaustive.explored",
    "search.classes",
    "coloring.bytes",
    "verify.checks_passed",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def timed_cli(args: list[str]) -> tuple[tuple[float, float], subprocess.CompletedProcess]:
    """Run timed_cli.py in a fresh interpreter; return (seconds, host-speed
    scale) and the process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "timed_cli.py"), *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    timing = next(
        json.loads(line) for line in reversed(proc.stderr.splitlines()) if line.startswith('{"seconds"')
    )
    return (timing["seconds"], scale_for(timing["kernel"])), proc


def import_seconds(samples: int) -> list[tuple[float, float]]:
    """Time `import ramseykit.cli` in fresh interpreters, after one warm-up."""
    return [timed_cli(["--import-only"])[0] for _ in range(samples + 1)][1:]


def run_cli(call, workdir: Path) -> tuple[list[tuple[float, float]], list[str]]:
    """Time the CLI command in fresh interpreters, with each report checked."""
    from workloads import workdir_file

    argv = workdir_file(workdir, call.argv, call.files)
    times, failures = [], []
    for _ in range(CLI_SAMPLES):
        timing, proc = timed_cli([*argv, "--json"])
        times.append(timing)
        try:
            reason = call.check(json.loads(proc.stdout)) if proc.returncode == 0 else (
                f"exit code {proc.returncode}: {proc.stderr.strip()}"
            )
        except (ValueError, KeyError) as exc:
            reason = f"unreadable report: {exc}"
        if reason:
            failures.append(f"cli {' '.join(argv)}: {reason}")
    return times, failures


def run_cli_in_process(call, workdir: Path, tracer) -> list[str]:
    """The same CLI command through ramseykit.cli.main, under a span."""
    from ramseykit.cli import main
    from workloads import workdir_file

    argv = workdir_file(workdir, call.argv, call.files)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = tracer.call("cli.main", main, [*argv, "--json"])
    reason = f"exit code {code}" if code else call.check(json.loads(stdout.getvalue()))
    return [f"cli.main {' '.join(argv)}: {reason}"] if reason else []


def run_ops(ops, tracer, probe: bool) -> tuple[list[tuple[float, float]], list[str], HostSpeed]:
    """Run every op once; return per op (seconds, host-speed scale), the
    failures and the host-speed samples.  An op's seconds leave out the
    host-speed samples taken while it ran."""
    intervals, failures = [], []
    with HostSpeed() as speed:
        for i, op in enumerate(ops):
            start = perf_counter()
            try:
                with tracer.op(i, op.kind):
                    result = op.run(tracer)
                intervals.append((start, perf_counter()))
                reason = op.check(result)
                if probe and op.probe is not None:
                    with tracer.op(i, "probe"):
                        op.probe(tracer, result)
            except Exception as exc:  # a failed op is counted and the run goes on
                if len(intervals) == i:
                    intervals.append((start, perf_counter()))
                reason = f"{type(exc).__name__}: {exc}"
            if reason:
                failures.append(f"{op.kind}: {reason}")
    timings = [(end - start - speed.paused(start, end), speed.scale(start, end)) for start, end in intervals]
    return timings, failures, speed


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / n


def scaled(timings: list[tuple[float, float]]) -> list[float]:
    return [seconds * scale for seconds, scale in timings]


def unscaled(timings: list[tuple[float, float]]) -> list[float]:
    return [seconds for seconds, _ in timings]


def end_to_end(times, setup, cli_times) -> tuple[dict, list[str]]:
    tail_s, tail_pct = tail(times)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(times) / sum(times), "ops/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "cli_s": (statistics.median(cli_times), "s"),
    }
    notes = [
        f"op_tail_s is p{tail_pct:.1f} of {len(times)} ops "
        f"({min(TAIL_BEYOND, len(times) - 1)} ops are slower)",
        f"setup_s is the median of {len(setup)} fresh imports, "
        f"cli_s the median of {len(cli_times)} CLI processes",
    ]
    return metrics, notes


def per_layer(tracer, speed: HostSpeed, untraced, traced, setup) -> tuple[dict, list[str]]:
    spans = tracer.spans
    self_times = tracer.self_times(speed.paused)
    in_probe = [False] * len(spans)
    main_total: dict[str, float] = {}
    probe_total: dict[str, float] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        in_probe[i] = name == "op.probe" or (parent is not None and in_probe[parent])
        bucket = probe_total if in_probe[i] else main_total
        bucket[name] = bucket.get(name, 0.0) + self_times[i] * speed.scale(start, end)
    counts = tracer.counts

    def total(name: str) -> float:
        return main_total.get(name, 0.0) + probe_total.get(name, 0.0)

    def layer_sum(totals: dict[str, float], layer: str) -> float:
        return sum(v for k, v in totals.items() if k.startswith(layer + "."))

    metrics: dict[str, tuple[float, str]] = {}
    # Probes repeat, as separate calls, the counting work that search calls do
    # inside; search self time is the remainder, and is labeled derived.
    probe_counting = layer_sum(probe_total, "counting")
    for layer in LAYERS:
        value = layer_sum(main_total, layer)
        if layer == "search":
            value -= probe_counting
        elif layer == "counting":
            value += probe_counting
        metrics[f"{layer}.self_s"] = (value, "s")
    proposals = counts.get("search.anneal.proposals", 0)
    anneal_s = main_total.get("search.anneal_min", 0.0) - probe_counting
    metrics["search.anneal_us_per_step"] = (1e6 * anneal_s / proposals if proposals else 0.0, "us")
    ops = counts.get("search.anneal.ops", 0)
    metrics["search.anneal.hit_ratio"] = (counts.get("search.anneal.hits", 0) / ops if ops else 0.0, "ratio")
    for name in TIMED_SPANS:
        metrics[f"{name}_s"] = (total(name), "s")
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), "copies" if name.endswith("solution_gap") else "count")
    metrics["cli.import_s"] = (statistics.median(scaled(setup)), "s")
    traced, untraced = sum(scaled(traced)), sum(scaled(untraced))
    metrics["trace.overhead_ratio"] = ((traced - untraced) / untraced, "ratio")
    metrics["trace.spans"] = (len(spans), "count")
    metrics["bench.host_factor"] = (speed.factor(), "ratio")
    notes = [
        f"tracing overhead: traced ops took {traced:.4f} s, untraced {untraced:.4f} s",
        "derived: search.self_s and search.anneal_us_per_step subtract the "
        "probed copy-mask and witness-recount calls from the search calls",
        f"benchmark time inside ops but outside layer calls: "
        f"{sum(v for k, v in main_total.items() if k.startswith('op.')):.4f} s",
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ramseykit" / "__init__.py").is_file():
        print(f"error: no ramseykit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    rounds = max(1, math.ceil(args.seconds / workload.round_s))

    setup = import_seconds(IMPORT_SAMPLES)
    ops = workload.build(args.seed, rounds)
    times, failures, speed = run_ops(ops, Tracer(False), probe=False)
    attempted = len(ops)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    call = workload.cli(args.seed)
    raw = None
    if args.trace:
        tracer = Tracer(True)
        traced, traced_failures, traced_speed = run_ops(ops, tracer, probe=True)
        failures += traced_failures + run_cli_in_process(call, workdir, tracer)
        attempted += len(ops) + 1
        metrics, notes = per_layer(tracer, traced_speed, times, traced, setup)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        cli_times, cli_failures = run_cli(call, workdir)
        failures += cli_failures
        attempted += len(cli_times)
        metrics, notes = end_to_end(scaled(times), scaled(setup), scaled(cli_times))
        raw, _ = end_to_end(unscaled(times), unscaled(setup), unscaled(cli_times))
        notes.append(f"host speed: the kernel ran {speed.factor():.3f}x its reference time")
    for path in workdir.iterdir():
        path.unlink()
    workdir.rmdir()

    print(
        f"workload {args.workload} seed {args.seed}: {rounds} rounds, {len(ops)} ops, "
        f"{attempted} attempted, {len(failures)} failed "
        f"(fail_ratio {len(failures) / attempted:.4f})"
    )
    for reason in failures:
        print(f"  FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    for note in notes:
        print(f"  note: {note}")
    if raw is not None:
        print("raw_metrics " + json.dumps({name: {"value": value, "unit": unit} for name, (value, unit) in raw.items()}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
