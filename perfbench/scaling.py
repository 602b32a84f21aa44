"""Scaling record: ring and Hadamard work of one attacked session per prime d.

Runs one 13-round ancilla-attacked session at each d in DIMS under the
tracer and prints, per d, the Hadamard input terms and the ring call
counts.  The counts repeat exactly for a given seed; they record how the
exact engine's work grows with d (roughly as d**4).  This is not an
end-to-end workload and takes no --seconds.

    python3 perfbench/scaling.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from time import perf_counter

from checkout import use_checkout_sources

DIMS = (2, 3, 5, 7, 11, 13)
ROUNDS = 13
RECORDED = (
    "register.hadamard.calls",
    "register.hadamard.terms_in",
    "ring.add.calls",
    "ring.mul.calls",
    "ring.mul_zeta.calls",
    "ring.conj.calls",
    "ring.canonical_reduce.calls",
)


def record(seed: int) -> dict[int, dict[str, float]]:
    from qkdlab import adversary, protocol
    from tracer import Tracer

    rows = {}
    for dim in DIMS:
        rng = random.Random(f"scaling:{seed}:{dim}")
        key = tuple(rng.randrange(dim) for _ in range(ROUNDS))
        config = protocol.ProtocolConfig(dim, ROUNDS, key, rng_seed=rng.getrandbits(63))
        tracer = Tracer()
        start = perf_counter()
        with tracer.installed():
            session = protocol.run_session(config, adversary.GaoAttack())
        elapsed = perf_counter() - start
        if session.bob_outcomes != key:
            raise SystemExit(f"d={dim}: Bob's outcomes differ from the key")
        totals = tracer.totals()
        rows[dim] = {name: totals[name] for name in RECORDED}
        rows[dim]["traced_s"] = elapsed
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    use_checkout_sources()
    rows = record(args.seed)
    print(f"{'d':>3} " + " ".join(f"{name:>28}" for name in RECORDED))
    for dim, row in rows.items():
        print(f"{dim:>3} " + " ".join(f"{row[name]:>28}" for name in RECORDED))
    print(json.dumps({str(dim): row for dim, row in rows.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
