"""Run one workload in its own process.

The process imports qkdlab, builds the workload (its inputs come from the
seed), runs one warm-up op and prints "ready"; the parent times set-up up
to that line.  It then either exits (--setup-only), measures for the given
number of seconds, or makes a traced run, and prints one JSON line.

    python3 perfbench/worker.py --workload gao-d7 --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from time import perf_counter, perf_counter_ns

from checkout import OUT_DIR, use_checkout_sources

#: op groups of an untraced run; see measure()
CHUNKS = 20


def run_op(workload, inp) -> tuple[int, bool]:
    """One timed op, run and output check together: (nanoseconds, ok)."""
    start = perf_counter_ns()
    try:
        ok = bool(workload.check(inp, workload.run(inp)))
    except Exception:
        traceback.print_exc()
        ok = False
    return perf_counter_ns() - start, ok


def _finish(workload) -> bool:
    """The workload's end-of-run check, reported on stderr when it fails."""
    if workload.finish():
        return True
    print(f"{workload.name}: end-of-run check failed", file=sys.stderr)
    return False


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def measure(workload, seconds: float) -> dict:
    """Closed loop, one client: start the next op when the last one ends.

    The ops are split into CHUNKS consecutive groups of equal size, and
    each time metric is its best value over the groups.  On a shared host,
    load from outside the process slows stretches of several seconds by
    up to 2x; the least-disturbed group is the steadiest estimate of the
    program's own speed, while a slowdown of the program shows in every
    group.
    """
    starts: list[float] = []
    latencies_ms: list[float] = []
    failed = 0
    deadline = perf_counter() + seconds
    while not starts or perf_counter() < deadline:
        inp = workload.make_input(len(starts))
        starts.append(perf_counter())
        ns, ok = run_op(workload, inp)
        latencies_ms.append(ns / 1e6)
        failed += not ok
    starts.append(perf_counter())
    ops = len(latencies_ms)
    if not _finish(workload):
        failed = ops
    groups = min(CHUNKS, ops)
    edges = [k * ops // groups for k in range(groups + 1)]
    rates, p50s, p90s = [], [], []
    for lo, hi in zip(edges, edges[1:]):
        rates.append((hi - lo) * workload.sessions_per_op / (starts[hi] - starts[lo]))
        p50s.append(statistics.median(latencies_ms[lo:hi]))
        p90s.append(_p90(latencies_ms[lo:hi]))
    return {
        "attempted": ops,
        "failed": failed,
        "metrics": {
            "sessions_per_s": max(rates),
            "op_p50_ms": min(p50s),
            "op_p90_ms": min(p90s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }


def _pass(workload, inputs, tracer=None) -> tuple[float, int]:
    """Run the given ops and the end-of-run check: (wall seconds, failures)."""
    workload.reset()
    failed = 0
    start = perf_counter()
    for index, inp in enumerate(inputs):
        if tracer is not None:
            tracer.op = index
        failed += not run_op(workload, inp)[1]
    if tracer is not None:
        tracer.op = len(inputs)
    if not _finish(workload):
        failed = len(inputs)
    return perf_counter() - start, failed


def trace(workload, seed: int) -> dict:
    """Run the workload's fixed op list untraced, then again traced.

    Per-layer figures are per op: totals over the traced pass (its ops
    and end-of-run check) divided by the op count.
    """
    from tracer import Tracer  # imports qkdlab, like workloads

    inputs = [workload.make_input(index) for index in range(workload.trace_ops)]
    untraced_s, failed_untraced = _pass(workload, inputs)
    tracer = Tracer()
    with tracer.installed():
        traced_s, failed_traced = _pass(workload, inputs, tracer)
    ops = len(inputs)
    totals = tracer.totals()
    totals["protocol.transcript_json.bytes"] = workload.json_bytes
    layers = {name: value / ops for name, value in totals.items()}
    contributions = totals["register.hadamard.contributions"]
    layers["register.hadamard.useful_ratio"] = (
        totals["register.hadamard.terms_out"] / contributions if contributions else 0.0
    )
    layers["trace.overhead_ratio"] = traced_s / untraced_s

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}"
    tracer.write_spans(OUT_DIR / f"spans-{stem}.csv")
    with open(OUT_DIR / f"layers-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"ops": ops, "per_op": layers, "totals": totals}, fh, indent=1, sort_keys=True)
    return {"attempted": 2 * ops, "failed": failed_untraced + failed_traced, "metrics": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    use_checkout_sources()
    from workloads import WORKLOADS  # imports qkdlab, so only after the line above

    workload = WORKLOADS[args.workload](args.seed)
    warm = workload.make_input(-1)
    if not run_op(workload, warm)[1]:
        raise SystemExit(f"{workload.name}: warm-up op failed its output check")
    workload.reset()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = trace(workload, args.seed) if args.trace else measure(workload, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
