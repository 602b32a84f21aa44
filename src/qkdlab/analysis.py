"""Session metrics, exact outcome enumeration, and Monte-Carlo experiments.

compute_metrics takes the attacker's knowledge from
SessionTranscript.eve_inference, the same result the transcript JSON
reports, so the two cannot disagree.

exact_outcomes never samples: it walks protocol._round, the round that
run_round samples, with the real strategy and PureState.branches as the
measure function, which returns every branch.  The walk keeps one entry
per branch; branches that end in the same history, one (adversary value,
Bob outcome) pair per round, have their probabilities added at the end,
and no branches are merged by state.  The disturbance enumerators read
a walk with InterceptResend at any dimension and attack round.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

from .adversary import AdversaryStrategy, InterceptResend
from .protocol import (
    ProtocolConfig,
    SessionTranscript,
    _round,
    announce_subsequence,
    check_rounds,
    make_rng,
    run_session,
)
from .register import PureState, bell_state, check_integer


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
    resolved, known = session.eve_inference()
    return SessionMetrics(
        qber_overall=qber,
        qber_by_round=by_round,
        detection_triggered=detection,
        eve_known_fraction=Fraction(len(known), cfg.num_rounds),
        eve_candidate_count=cfg.dim if resolved is None else 1,
    )


# -- exact enumeration -----------------------------------------------------------


def exact_outcomes(dim: int, key, strategy: AdversaryStrategy | None) -> dict[tuple, Fraction]:
    """Exact probability of every history of a session from a fresh shared pair.

    A history holds one (adversary value, Bob outcome) pair per round.
    strategy None is the honest channel, as in run_session.  key and
    strategy are refused as run_session and ProtocolConfig refuse them.
    """
    strategy = strategy if strategy is not None else AdversaryStrategy()
    config = ProtocolConfig(dim, len(key), key)
    check_rounds(strategy.attack_rounds or (), config.num_rounds, "attack round")
    walk = [((), bell_state(config.dim), Fraction(1))]
    for index, key_dit in enumerate(config.key, start=1):
        walk = [
            (history + ((value, outcome),), shared, p * q)
            for history, state, p in walk
            for _, value, outcome, shared, q in _round(state, index, key_dit, strategy, PureState.branches)
        ]
    outcomes: dict[tuple, Fraction] = {}
    for history, _, p in walk:
        outcomes[history] = outcomes.get(history, 0) + p
    return outcomes


def _intercept_walk(dim: int, attack_round: int, key, after: int) -> tuple[tuple, dict]:
    """key's first attack_round + after dits, and exact_outcomes over them intercepting attack_round only.

    key None stands for all zeros.
    """
    attack_round = check_integer(attack_round, "attack_round")
    if attack_round < 1:
        raise ValueError(f"attack_round must be positive, got {attack_round}")
    rounds = attack_round + after
    key = (0,) * rounds if key is None else tuple(key)
    if len(key) < rounds:
        raise ValueError(f"need at least {rounds} key dits, got {len(key)}")
    key = key[:rounds]
    return key, exact_outcomes(dim, key, InterceptResend({attack_round}))


def exact_next_round_error(dim: int, attack_round: int, key=None) -> Fraction:
    """Probability that the round after an intercepted round decodes wrongly.

    Enumerates every eavesdropper and receiver measurement branch with
    exact Born weights; no sampling is involved.  The result does not
    depend on the key, which defaults to all zeros.
    """
    key, walk = _intercept_walk(dim, attack_round, key, 1)
    # the walk ends with the round after the intercepted one
    return sum((p for h, p in walk.items() if h[-1][1] != key[-1]), Fraction(0))


def exact_intercept_observation_distribution(
    dim: int, attack_round: int, key
) -> dict[int, Fraction]:
    """Exact distribution of the value an interceptor reads in transit.

    key None stands for all zeros, as in exact_next_round_error.
    """
    dist: dict[int, Fraction] = {}
    for history, p in _intercept_walk(dim, attack_round, key, 0)[1].items():
        dist[history[-1][0]] = dist.get(history[-1][0], 0) + p
    return dict(sorted(dist.items()))


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
    trials = check_integer(trials, "trials")
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
        key = tuple(trial_rng.randrange(config.dim) for _ in range(n))
        session_seed = trial_rng.getrandbits(63)
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
