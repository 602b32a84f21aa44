"""Session metrics, exact disturbance enumeration, and Monte-Carlo experiments."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction

from .adversary import AdversaryStrategy, infer_keys
from .protocol import (
    ProtocolConfig,
    SessionTranscript,
    announce_subsequence,
    make_rng,
    run_round,
    run_session,
)
from .register import (
    ALICE_WIRE,
    BOB_WIRE,
    TRANSIT_WIRE,
    basis_state,
    bell_state,
)

#: enumeration guardrails: beyond this, exact branch counting is impractical
MAX_EXACT_DIM = 7
MAX_EXACT_ROUNDS = 6


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


def _check_enumeration_bounds(dim: int, rounds: int) -> None:
    if dim > MAX_EXACT_DIM:
        raise ValueError(f"exact enumeration supports dimensions up to {MAX_EXACT_DIM}")
    if rounds > MAX_EXACT_ROUNDS:
        raise ValueError(f"exact enumeration supports at most {MAX_EXACT_ROUNDS} rounds")


def _encode(state, dim: int, key_dit: int):
    st = state.apply_hadamard(ALICE_WIRE).apply_hadamard(BOB_WIRE, conjugate=True)
    st = st.tensor(basis_state(dim, [(TRANSIT_WIRE, key_dit)]))
    return st.apply_controlled_shift(ALICE_WIRE, TRANSIT_WIRE, "right")


def exact_next_round_error(dim: int, attack_round: int, key=None) -> Fraction:
    """Probability that the round after an intercepted round decodes wrongly.

    Enumerates every eavesdropper and receiver measurement branch with
    exact Born weights; no sampling is involved.  The result does not
    depend on the key, which defaults to all zeros.
    """
    if attack_round < 1:
        raise ValueError(f"attack_round must be positive, got {attack_round}")
    rounds = attack_round + 1
    _check_enumeration_bounds(dim, rounds)
    key = tuple(key) if key is not None else (0,) * rounds
    if len(key) < rounds:
        raise ValueError(f"need at least {rounds} key dits, got {len(key)}")
    rng = make_rng(0)
    st = bell_state(dim)
    for i in range(1, attack_round):
        st, _ = run_round(st, i, key[i - 1], None, rng)
    st = _encode(st, dim, key[attack_round - 1])
    target = key[attack_round]
    error = Fraction(0)
    for eve_outcome, p_eve in st.measurement_distribution(TRANSIT_WIRE).items():
        eve_branch = st.project(TRANSIT_WIRE, eve_outcome)
        decoded = eve_branch.apply_controlled_shift(BOB_WIRE, TRANSIT_WIRE, "left")
        for bob_outcome, p_bob in decoded.measurement_distribution(TRANSIT_WIRE).items():
            shared = decoded.project(TRANSIT_WIRE, bob_outcome).drop_wire(TRANSIT_WIRE)
            follow = _encode(shared, dim, target)
            follow = follow.apply_controlled_shift(BOB_WIRE, TRANSIT_WIRE, "left")
            dist = follow.measurement_distribution(TRANSIT_WIRE)
            error += p_eve * p_bob * (1 - dist.get(target, Fraction(0)))
    return error


def exact_intercept_observation_distribution(
    dim: int, attack_round: int, key
) -> dict[int, Fraction]:
    """Exact distribution of the value an interceptor reads in transit."""
    if attack_round < 1:
        raise ValueError(f"attack_round must be positive, got {attack_round}")
    _check_enumeration_bounds(dim, attack_round)
    key = tuple(key)
    if len(key) < attack_round:
        raise ValueError(f"need at least {attack_round} key dits, got {len(key)}")
    rng = make_rng(0)
    st = bell_state(dim)
    for i in range(1, attack_round):
        st, _ = run_round(st, i, key[i - 1], None, rng)
    st = _encode(st, dim, key[attack_round - 1])
    return st.measurement_distribution(TRANSIT_WIRE)


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
        return {
            "strategy": self.strategy,
            "dim": self.dim,
            "num_rounds": self.num_rounds,
            "trials": self.trials,
            "seed": self.seed,
            "mean_qber": self.mean_qber,
            "all_trials_zero_qber": self.all_trials_zero_qber,
            "detection_rate": self.detection_rate,
            "mean_eve_known_fraction": self.mean_eve_known_fraction,
            "round_error_rates": list(self.round_error_rates),
            "exact_next_round_error": (
                None
                if self.exact_next_round_error is None
                else str(self.exact_next_round_error)
            ),
            "mc_next_round_error": self.mc_next_round_error,
            "mc_next_round_sigma3": self.mc_next_round_sigma3,
        }


CSV_COLUMNS = (
    "strategy",
    "dim",
    "num_rounds",
    "trials",
    "seed",
    "mean_qber",
    "all_trials_zero_qber",
    "detection_rate",
    "mean_eve_known_fraction",
    "round_error_rates",
    "exact_next_round_error",
    "mc_next_round_error",
    "mc_next_round_sigma3",
)


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
    template = strategy if strategy is not None else AdversaryStrategy()
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
        session = run_session(cfg, template.clone())
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
        strategy=template.kind,
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
