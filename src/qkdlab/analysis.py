"""Session metrics, exact disturbance enumeration, and Monte-Carlo experiments.

The exact enumerators never sample: they take each round's unlabelled
states up to Bob's measurement from protocol._transmit, as run_round
does, read the in-transit and decoded states off its end, and branch on
every outcome with measurement_distribution and project.  They take any
dimension and attack round.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

from .adversary import AdversaryStrategy, infer_keys
from .protocol import (
    ProtocolConfig,
    SessionTranscript,
    _decode,
    _transmit,
    announce_subsequence,
    make_rng,
    run_session,
)
from .register import TRANSIT_WIRE, PureState, bell_state


@dataclass(frozen=True)
class SessionMetrics:
    qber_overall: Fraction
    qber_by_round: tuple[Fraction, ...]
    detection_triggered: bool
    eve_known_fraction: Fraction
    eve_candidate_count: int


def compute_metrics(session: SessionTranscript, true_key) -> SessionMetrics:
    """Error rates and attacker knowledge for one finished session.

    Announced rounds are consumed and excluded from the overall error
    denominator; per-round indicators still cover every round.
    """
    true_key = tuple(true_key)
    cfg = session.config
    if len(true_key) != cfg.num_rounds:
        raise ValueError(
            f"true key length {len(true_key)} does not match {cfg.num_rounds} rounds"
        )
    bob = session.bob_outcomes
    by_round = tuple(Fraction(int(b != q)) for b, q in zip(bob, true_key))
    announced_rounds = {index for index, _ in session.announced}
    usable = [i for i in range(1, cfg.num_rounds + 1) if i not in announced_rounds]
    if usable:
        qber = Fraction(sum(int(by_round[i - 1]) for i in usable), len(usable))
    else:
        qber = Fraction(0)
    detection = any(value != bob[index - 1] for index, value in session.announced)
    if session.adversary_kind == "gao":
        resolved, known = infer_keys(session.eve_knowledge(), session.announced)
        known_fraction = Fraction(len(known), cfg.num_rounds)
        candidates = 1 if resolved is not None else cfg.dim
    else:
        known_fraction = Fraction(0)
        candidates = cfg.dim
    return SessionMetrics(
        qber_overall=qber,
        qber_by_round=by_round,
        detection_triggered=detection,
        eve_known_fraction=known_fraction,
        eve_candidate_count=candidates,
    )


# -- exact enumeration -----------------------------------------------------------


_HONEST = AdversaryStrategy()


def _honest_transit(dim: int, attack_round: int, key, rounds: int) -> PureState:
    """attack_round's in_transit state after honest rounds 1..attack_round-1.

    key must hold at least rounds dits.  An honest round decodes the key
    dit in every term, so no measurement is needed.
    """
    if attack_round < 1:
        raise ValueError(f"attack_round must be positive, got {attack_round}")
    if len(key) < rounds:
        raise ValueError(f"need at least {rounds} key dits, got {len(key)}")
    st = bell_state(dim)
    for i in range(1, attack_round):
        states, _ = _transmit(st, i, key[i - 1], _HONEST, None)
        st = states[-1].drop_wire(TRANSIT_WIRE)
    states, _ = _transmit(st, attack_round, key[attack_round - 1], _HONEST, None)
    return states[-2]


def exact_next_round_error(dim: int, attack_round: int, key=None) -> Fraction:
    """Probability that the round after an intercepted round decodes wrongly.

    Enumerates every eavesdropper and receiver measurement branch with
    exact Born weights; no sampling is involved.  The result does not
    depend on the key, which defaults to all zeros.
    """
    rounds = attack_round + 1
    key = tuple(key) if key is not None else (0,) * rounds
    transit = _honest_transit(dim, attack_round, key, rounds)
    target = key[attack_round]
    error = Fraction(0)
    for eve_outcome, p_eve in transit.measurement_distribution(TRANSIT_WIRE).items():
        decoded = _decode(transit.project(TRANSIT_WIRE, eve_outcome))
        for bob_outcome, p_bob in decoded.measurement_distribution(TRANSIT_WIRE).items():
            shared = decoded.project(TRANSIT_WIRE, bob_outcome).drop_wire(TRANSIT_WIRE)
            follow, _ = _transmit(shared, rounds, target, _HONEST, None)
            dist = follow[-1].measurement_distribution(TRANSIT_WIRE)
            error += p_eve * p_bob * (1 - dist.get(target, Fraction(0)))
    return error


def exact_intercept_observation_distribution(
    dim: int, attack_round: int, key
) -> dict[int, Fraction]:
    """Exact distribution of the value an interceptor reads in transit."""
    transit = _honest_transit(dim, attack_round, tuple(key), attack_round)
    return transit.measurement_distribution(TRANSIT_WIRE)


# -- Monte-Carlo -----------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentReport:
    strategy: str
    dim: int
    num_rounds: int
    trials: int
    seed: int
    mean_qber: float
    all_trials_zero_qber: bool
    detection_rate: float
    mean_eve_known_fraction: float
    round_error_rates: tuple[float, ...]
    exact_next_round_error: Fraction | None = None
    mc_next_round_error: float | None = None
    mc_next_round_sigma3: float | None = None

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["round_error_rates"] = list(self.round_error_rates)
        if self.exact_next_round_error is not None:
            out["exact_next_round_error"] = str(self.exact_next_round_error)
        return out


CSV_COLUMNS = tuple(f.name for f in fields(ExperimentReport))


def report_to_csv(reports) -> str:
    """One row per (strategy, dimension); see README for the column meanings."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for report in reports:
        row = report.to_json_dict()
        row["round_error_rates"] = ";".join(f"{x:.6f}" for x in report.round_error_rates)
        writer.writerow(row)
    return buf.getvalue()


def report_to_json(reports) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"


def monte_carlo(
    config: ProtocolConfig,
    strategy: AdversaryStrategy | None,
    trials: int,
    seed: int,
    announce=(),
) -> ExperimentReport:
    """Aggregate metrics over independent seeded sessions with random keys.

    Each trial draws its own key and RNG stream from the experiment seed,
    so reports are reproducible bit for bit.  announce lists the round
    indices revealed in every trial (see protocol.parse_announce).
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    strategy = strategy if strategy is not None else AdversaryStrategy()
    n = config.num_rounds
    qber_total = Fraction(0)
    round_err_totals = [0] * n
    detections = 0
    known_total = Fraction(0)
    all_zero = True
    for trial in range(trials):
        trial_rng = make_rng(seed, stream=trial + 1)
        key = tuple(int(x) for x in trial_rng.integers(0, config.dim, n))
        session_seed = int(trial_rng.integers(0, 2**63))
        cfg = ProtocolConfig(dim=config.dim, num_rounds=n, key=key, rng_seed=session_seed)
        session = run_session(cfg, strategy)
        if announce:
            announce_subsequence(session, announce)
        metrics = compute_metrics(session, key)
        qber_total += metrics.qber_overall
        if metrics.qber_overall:
            all_zero = False
        for i, e in enumerate(metrics.qber_by_round):
            round_err_totals[i] += int(e)
        detections += int(metrics.detection_triggered)
        known_total += metrics.eve_known_fraction
    return ExperimentReport(
        strategy=strategy.kind,
        dim=config.dim,
        num_rounds=n,
        trials=trials,
        seed=seed,
        mean_qber=float(qber_total / trials),
        all_trials_zero_qber=all_zero,
        detection_rate=detections / trials,
        mean_eve_known_fraction=float(known_total / trials),
        round_error_rates=tuple(t / trials for t in round_err_totals),
    )
