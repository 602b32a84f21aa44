"""qkdlab benchmark: one workload per invocation, metrics as a JSON last line.

    python3 perfbench/run.py --workload gao-d7 --seed 1 --seconds 30 --trace 0

--workload all runs the three workloads in turn.  With --trace 0 the workload is measured untraced and every end-to-end
metric of BENCHMARK.json is printed; with --trace 1 a traced run prints
every per-layer metric.  Each workload runs in worker processes of its
own.  Set-up time is the median over SETUP_SAMPLES fresh processes, from
process start to the end of the first (warm-up) op.  The benchmark exits
non-zero, printing no result, when the checkout has no qkdlab sources.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from checkout import ROOT, has_sources

WORKER = Path(__file__).with_name("worker.py")
WORKLOAD_NAMES = ("gao-d7", "intercept-mc", "verify-trace")
SETUP_SAMPLES = 7
#: seconds a worker may take past its measuring time (set-up and the last op)
GRACE_S = 120


class BenchError(RuntimeError):
    pass


def start_worker(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait until it is ready: (process, set-up seconds)."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, text=True, cwd=ROOT
    )
    line = proc.stdout.readline()
    setup_s = perf_counter() - start
    if line.strip() != "ready":
        stop(proc)
        raise BenchError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, setup_s


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def finish_worker(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError(f"worker still running after {timeout:.0f}s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = declared["per_layer" if traced else "end_to_end"]
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not traced:
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup_s = start_worker([*common, "--setup-only"])
            finish_worker(proc, GRACE_S)
            setups.append(setup_s)
    proc, setup_s = start_worker([*common, "--seconds", str(seconds), "--trace", str(int(traced))])
    setups.append(setup_s)
    result = json.loads(finish_worker(proc, seconds + GRACE_S).strip().splitlines()[-1])
    values = result["metrics"]
    if not traced:
        values["setup_s"] = statistics.median(setups)
    missing = [spec["name"] for spec in specs if spec["name"] not in values]
    if missing:
        raise BenchError(f"worker did not report {', '.join(missing)}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in specs
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=(*WORKLOAD_NAMES, "all"),
        help='one workload, or "all" to run each in turn and print one JSON object per line',
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not has_sources():
        print(f"perfbench: no qkdlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    for workload in WORKLOAD_NAMES if args.workload == "all" else [args.workload]:
        try:
            result = run(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")
        print(f"{workload} attempted {result['attempted']} failed {result['failed']}")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
