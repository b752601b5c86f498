"""Benchmark of the allocation endpoint and the replay loop.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 10 --trace 0

``--workload`` is ``adhoc`` or ``replay`` (see
``perfbench/README.md``). ``--trace 0`` measures the end-to-end
metrics with nothing instrumented; ``--trace 1`` runs the traced pass
and reports the per-layer table instead. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit). Everything above it is for people:
the metric table, the machine fingerprint and notes on the run.

On ``adhoc`` the set-up time is the median of three set-ups, each the
first work of a fresh process: the run's own and two child processes
started with ``--setup-only`` after the measured phases. On ``replay``
it is the median of the engine bootstraps of the run's replays.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("adhoc", "replay")
SETUP_CHILDREN = 2


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time one adhoc set-up in this process and print it (internal)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def fingerprint(seed: int) -> dict:
    """The machine and the code a result came from."""
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def _child_setups(args) -> list[float]:
    """Set-up time of ``SETUP_CHILDREN`` fresh processes, one at a time."""
    samples = []
    for _ in range(SETUP_CHILDREN):
        child = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--setup-only",
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if child.returncode != 0:
            raise RuntimeError(
                f"set-up child failed ({child.returncode}): {child.stderr[-2000:]}"
            )
        samples.append(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.setup_only:
        print(json.dumps({"setup_s": workloads.adhoc_setup_only()}))
        return 0

    started = time.perf_counter()
    trace = bool(args.trace)
    if args.workload == "replay":
        result = workloads.run_replay(args.seed, args.seconds, trace)
    else:
        result = workloads.run_adhoc(
            args.seed, args.seconds, trace, lambda: _child_setups(args)
        )
    expected = workloads.PER_LAYER if trace else workloads.END_TO_END
    missing = sorted(set(expected) - set(result.metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced pass' if trace else 'end to end'}, "
          f"{time.perf_counter() - started:.1f} s")
    print("fingerprint " + json.dumps(fingerprint(args.seed), sort_keys=True))
    for note in result.notes:
        print("  " + note)
    for problem in result.problems:
        print("  CHECK FAILED: " + problem)
    width = max(len(name) for name in expected)
    for name in expected:
        value, unit = result.metrics[name]
        print(f"  {name:<{width}}  {value:>14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not result.problems,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": result.metrics[name][0],
                           "unit": result.metrics[name][1]}
                    for name in expected
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
