"""Steadiness mode: repeat each workload over several seeds and summarize.

    python3 perfbench/steady.py [--workloads anneal,certify] [--seeds 5] [--out FILE]

Runs ``run.py --trace 0`` once per (workload, seed), one process at a time,
with seeds 1 to 10 (``--seeds`` takes fewer) and ``--seconds`` from
BENCHMARK.json.  For every end-to-end metric it prints the median, the
quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and the
spread: the distance between the quartiles as a share of the median.  A
spread below a third of the metric's bound in BENCHMARK.json is marked
``ok``, otherwise ``WIDE``; the exit code is 1 if any metric is ``WIDE``.
The same summary of the unscaled wall times (``raw_metrics``) follows, for
reference.  With ``--out`` every value is written as JSON; ``baseline.json``
next to this file is that output for the commit that defined the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_SEEDS = 10
RAW_PREFIX = "raw_metrics "


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, choices=range(2, MAX_SEEDS + 1), default=MAX_SEEDS)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    report: dict = {"seconds": seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        raw: dict[str, list[float]] = {name: [] for name in bounds}
        failed = 0
        for seed in range(1, args.seeds + 1):
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            raw_result = json.loads(lines[-2].removeprefix(RAW_PREFIX))
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
                raw[name].append(raw_result[name]["value"])
            print(f"{workload} seed {seed} ({time.perf_counter() - started:.1f} s): " + " ".join(
                f"{name}={values[name][-1]:.4g}" for name in bounds), flush=True)
        summary = {name: summarize(v) for name, v in values.items()}
        raw_summary = {name: summarize(v) for name, v in raw.items()}
        report["workloads"][workload] = {"failed": failed, "metrics": summary, "raw": raw_summary}
        print(f"{workload}: {failed} failed ops")
        for name, s in summary.items():
            ok = s["spread"] < bounds[name] / 3
            steady &= ok
            print(f"  {name:12s} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  "
                  f"spread {s['spread']:.3f}  bound {bounds[name]}  {'ok' if ok else 'WIDE'}")
        for name, s in raw_summary.items():
            print(f"  raw {name:8s} median {s['median']:.5g}  spread {s['spread']:.3f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
