"""The benchmark's workloads: seeded inputs, one op each, and its output check.

Every workload derives op i's input from (workload seed, i) alone, so the
same seed gives the same inputs on every run.  An op is run() followed by
check(); the check returns False (or run raises) when the output is wrong.
Library entry points are looked up through their modules at call time so
that a traced run sees them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from qkdlab import adversary, analysis, closed_forms, protocol, register


@dataclass(frozen=True)
class SessionInput:
    key: tuple[int, ...]
    rng_seed: int


class Workload:
    name = ""
    #: simulated sessions completed by one op
    sessions_per_op = 1
    #: op count of a traced run; fixed so its per-op counts repeat exactly
    trace_ops = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.reset()

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def make_input(self, index: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> bool:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget run-level tallies (before a pass over fresh ops)."""
        #: bytes of transcript JSON the ops encoded
        self.json_bytes = 0

    def finish(self) -> bool:
        """End-of-run check over every op since the last reset."""
        return True


class GaoD7(Workload):
    """One 13-round ancilla-attacked session at d=7 per op."""

    name = "gao-d7"
    trace_ops = 40
    DIM = 7
    ROUNDS = 13
    ANNOUNCED = 3

    def make_input(self, index: int) -> SessionInput:
        rng = self.rng(index)
        key = tuple(rng.randrange(self.DIM) for _ in range(self.ROUNDS))
        return SessionInput(key, rng.getrandbits(63))

    def run(self, inp: SessionInput):
        config = protocol.ProtocolConfig(self.DIM, self.ROUNDS, inp.key, rng_seed=inp.rng_seed)
        session = protocol.run_session(config, adversary.GaoAttack())
        protocol.announce_subsequence(session, [self.ANNOUNCED])
        return session

    def check(self, inp: SessionInput, session) -> bool:
        d, key = self.DIM, inp.key
        if session.bob_outcomes != key:
            return False
        # odd rounds from 3 on observe q_m + sign * q_1 with signs +, -, +, -, ...
        want = [
            (m, (key[m - 1] + sign * key[0]) % d, sign)
            for m, sign in zip(range(3, self.ROUNDS + 1, 2), [1, -1] * self.ROUNDS)
        ]
        got = [(o.round_index, o.value, o.sign) for o in session.eve_observations]
        if got != want:
            return False
        metrics = analysis.compute_metrics(session, key)
        # q_1 plus every observed odd dit: 7 of 13
        return metrics.qber_overall == 0 and metrics.eve_known_fraction == Fraction(7, 13)


class InterceptMC(Workload):
    """One Monte-Carlo batch of intercept-resend trials (d=3, 2 rounds, round 1 read)."""

    name = "intercept-mc"
    BATCH = 20
    sessions_per_op = BATCH
    trace_ops = 200
    DIM = 3
    ROUNDS = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        exact = analysis.exact_next_round_error(self.DIM, 1)
        if exact != Fraction(2, 3):
            raise RuntimeError(f"exact next-round error is {exact}, expected 2/3")
        self.config = protocol.ProtocolConfig(self.DIM, self.ROUNDS, (0,) * self.ROUNDS)

    def reset(self) -> None:
        super().reset()
        self.trials = 0
        self.round2_errors = 0

    def make_input(self, index: int) -> int:
        return self.rng(index).getrandbits(63)

    def run(self, batch_seed: int):
        return analysis.monte_carlo(
            self.config, adversary.InterceptResend({1}), self.BATCH, seed=batch_seed
        )

    def check(self, batch_seed: int, report) -> bool:
        self.trials += report.trials
        self.round2_errors += round(report.round_error_rates[1] * report.trials)
        return report.trials == self.BATCH and report.round_error_rates[0] == 0

    def finish(self) -> bool:
        p = analysis.exact_next_round_error(self.DIM, 1)
        if p != Fraction(2, 3) or not self.trials:
            return False
        sigma3 = 3 * sqrt(p * (1 - p) / self.trials)
        return abs(self.round2_errors / self.trials - p) < sigma3


class VerifyTrace(Workload):
    """The verify-paper flow at d=5 plus a JSON transcript round-trip per op."""

    name = "verify-trace"
    trace_ops = 150
    DIM = 5
    ROUNDS = 5

    def make_input(self, index: int) -> SessionInput:
        rng = self.rng(index)
        key = tuple(rng.randrange(self.DIM) for _ in range(self.ROUNDS))
        return SessionInput(key, rng.getrandbits(63))

    def run(self, inp: SessionInput):
        config = protocol.ProtocolConfig(self.DIM, self.ROUNDS, inp.key, rng_seed=inp.rng_seed)
        session = protocol.run_session(config, adversary.GaoAttack())
        expected = closed_forms.eavesdrop_stage_states(self.DIM, inp.key)
        text = json.dumps(protocol.transcript_to_json_dict(session))
        self.json_bytes += len(text)
        reloaded = [
            (stage["label"], register.PureState.from_json_dict(stage["state"]))
            for rnd in json.loads(text)["rounds"]
            for stage in rnd["stages"]
        ]
        return session, expected, reloaded

    def check(self, inp: SessionInput, out) -> bool:
        session, expected, reloaded = out
        simulated = {}
        for rnd in session.rounds:
            simulated.update(rnd.stages)
        if len(expected) != 32 or simulated.keys() != expected.keys():
            return False
        if not all(register.state_equals(simulated[label], want) for label, want in expected.items()):
            return False
        return len(reloaded) == 32 and all(
            register.state_equals(state, simulated[label]) for label, state in reloaded
        )


WORKLOADS = {w.name: w for w in (GaoD7, InterceptMC, VerifyTrace)}
