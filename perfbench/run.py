"""Host-time benchmark of the simulator: one command, four workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload ycsb-pow --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25

Each workload runs in its own fresh Python process, one after another,
so peak memory is that workload's alone and no heap or GC state carries
over. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
pairs of untraced and traced reps and reports per-layer spans. The last
line of output is one JSON object per workload run. The exit code is
non-zero when the program cannot be imported, a run fails, or any
outcome check (pinned digest, auditor, replica agreement, cold-recovery
root) fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("ycsb-pow", "smallbank-pbft", "openloop-100k", "cold-recovery")
#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 170.0


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOAD_NAMES)
    target.add_argument("--all", action="store_true", help="every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _format(value: float) -> str:
    return f"{value:.6g}"


def worker(args: argparse.Namespace) -> int:
    """Measure one workload in this process; print the report."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import bench
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    workload = bench.WORKLOADS[args.workload]
    measure = bench.measure_layers if args.trace else bench.measure
    result = measure(workload, args.seed, args.seconds)
    result["host"] = bench.host_fingerprint(ROOT)
    print(json.dumps(result, sort_keys=True))
    return 0


def _report(result: dict) -> list[str]:
    info = result["info"]
    lines = [
        f"== {result['workload']} seed={result['seed']} "
        + " ".join(
            f"{key}={info[key]}"
            for key in ("reps", "pairs", "slices", "setup_samples")
            if key in info
        )
    ]
    extra = {
        key: {"value": info[key], "unit": unit}
        for key, unit in (("failed_share", "share"), ("catchup_host_s", "s"))
        if key in info
    }
    for name, metric in {**result["metrics"], **extra}.items():
        lines.append(f"  {name:<40} {_format(metric['value']):>14} {metric['unit']}")
    lines.append(f"  network {info['network']}")
    lines.append(f"  host {result['host']}")
    for problem in result["problems"]:
        lines.append(f"  CHECK FAILED: {problem}")
    return lines


def run_one(name: str, args: argparse.Namespace) -> dict | None:
    """Run one workload in a fresh subprocess; None if it failed."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--worker",
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {name} exceeded {WORKER_TIMEOUT_S:.0f} s", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: {name} worker exited {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if args.worker:
        return worker(args)
    names = WORKLOAD_NAMES if args.all else (args.workload,)
    results = []
    for name in names:
        result = run_one(name, args)
        if result is None:
            return 1
        results.append(result)
        print("\n".join(_report(result)), flush=True)
    for result in results:
        print(
            json.dumps(
                {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
            )
        )
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
