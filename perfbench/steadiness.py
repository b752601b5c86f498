"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of the repository::

    python3 perfbench/steadiness.py --workload adhoc --seeds 1-10

For every end-to-end metric it prints the median of the runs and the
distance between their first and third quartiles as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's
bound in ``BENCHMARK.json``. Runs are sequential, one process each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,9")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", type=Path, help="append raw results (JSON lines)")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        started = time.monotonic()
        run = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if run.returncode != 0:
            print(f"seed {seed}: exit {run.returncode}\n{run.stderr[-3000:]}")
            return 1
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if args.out:
            with args.out.open("a") as out:
                out.write(json.dumps(
                    {"workload": args.workload, "seed": seed, **result}
                ) + "\n")
        print(f"seed {seed} ({time.monotonic() - started:.0f} s): "
              f"correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}"
                         for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"\n{'metric':<28} {'median':>12} {'IQR/median':>11} {'bound':>6}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print(f"{name:<28} {median:>12.5g} {spread:>11.3f} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
