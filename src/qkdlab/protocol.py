"""Round engine for the entanglement-reuse key distribution protocol.

Each round applies the shared basis change (a Hadamard on Alice's half,
its conjugate on Bob's), adjoins a fresh transit qudit carrying the
round's key dit, right-shifts it by Alice's half, hands it to the
channel (where an adversary may act), left-shifts it by Bob's half and
measures it.  An honest channel reproduces the key dit exactly and
leaves the shared pair in its initial entangled state, which is reused
by the next round.

Transcripts snapshot the state at labelled stages.  Honest and
intercepted rounds use the generic labels pre_encode / post_encode /
in_transit / post_decode; rounds attacked by the ancilla strategy use
the per-round families psi_<i>_0, Phi_0..3 / Psi_0..3 / Omega_0..4 /
Theta_0..3 / Upsilon_0..4, psi_<i>_1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .adversary import AdversaryStrategy, EveKnowledge, EveObservation, GaoAttack, infer_keys
from .register import (
    ALICE_WIRE,
    ANCILLA_WIRE,
    BOB_WIRE,
    TRANSIT_WIRE,
    WIRE_DISPLAY_ORDER,
    PureState,
    basis_state,
    bell_state,
)

SCHEMA_VERSION = "v1"

GENERIC_STAGE_LABELS = ("pre_encode", "post_encode", "in_transit", "post_decode")


class ProtocolViolationError(RuntimeError):
    """An adversary hook returned a state the round cannot continue from."""


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; distinct (seed, stream) pairs are independent."""
    mask = (1 << 64) - 1
    key = np.array([seed & mask, stream & mask], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class ProtocolConfig:
    dim: int
    num_rounds: int
    key: tuple[int, ...]
    rng_seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dimension must be at least 2, got {self.dim}")
        if self.num_rounds < 1:
            raise ValueError(f"num_rounds must be positive, got {self.num_rounds}")
        object.__setattr__(self, "key", tuple(self.key))
        if len(self.key) != self.num_rounds:
            raise ValueError(
                f"key length {len(self.key)} does not match num_rounds {self.num_rounds}"
            )
        if any(not 0 <= q < self.dim for q in self.key):
            raise ValueError(f"key dits must lie in [0, {self.dim}), got {self.key}")


@dataclass(frozen=True)
class RoundTranscript:
    round_index: int
    stages: tuple[tuple[str, PureState], ...]
    bob_outcome: int
    eve_observation: int | None = None

    def stage_state(self, label: str) -> PureState:
        for name, state in self.stages:
            if name == label:
                return state
        raise KeyError(f"no stage {label!r} in round {self.round_index}")

    @property
    def stage_labels(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.stages)


@dataclass
class SessionTranscript:
    config: ProtocolConfig
    adversary_kind: str
    attack_rounds: tuple[int, ...] | None
    rounds: tuple[RoundTranscript, ...]
    final_shared_state: PureState
    eve_observations: tuple[EveObservation, ...] = ()
    announced: list[tuple[int, int]] = field(default_factory=list)

    @property
    def bob_outcomes(self) -> tuple[int, ...]:
        return tuple(r.bob_outcome for r in self.rounds)

    def eve_knowledge(self) -> EveKnowledge:
        return EveKnowledge(self.config.dim, self.eve_observations)


def _display_order(wires) -> tuple[str, ...]:
    known = [w for w in WIRE_DISPLAY_ORDER if w in wires]
    extra = [w for w in wires if w not in WIRE_DISPLAY_ORDER]
    return tuple(known + extra)


def run_round(
    state: PureState,
    round_index: int,
    key_dit: int,
    adversary: AdversaryStrategy | None,
    rng,
) -> tuple[PureState, RoundTranscript]:
    """Advance the shared state by one protocol round.

    Steps: shared basis change (with the adversary's basis hook at the
    same point), adjoin the transit qudit in |key_dit>, Alice's
    right-shift, the adversary's transit hook, Bob's left-shift, Bob's
    measurement, and removal of the consumed transit wire.
    """
    strategy = adversary if adversary is not None else AdversaryStrategy()
    prefix = strategy.stage_prefix(round_index)
    stages: list[tuple[str, PureState]] = []

    st = state.apply_hadamard(ALICE_WIRE).apply_hadamard(BOB_WIRE, conjugate=True)
    st = strategy.on_basis_change(st, round_index)
    if prefix is not None:
        stages.append((f"psi_{round_index}_0", st))

    st = st.tensor(basis_state(state.dim, [(TRANSIT_WIRE, key_dit)]))
    st = st.reorder_wires(_display_order(st.wires))
    stages.append((f"{prefix}_0" if prefix else "pre_encode", st))

    st = st.apply_controlled_shift(ALICE_WIRE, TRANSIT_WIRE, "right")
    stages.append((f"{prefix}_1" if prefix else "post_encode", st))

    st, observation, transit_stages = strategy.on_transit(st, round_index, rng)
    if TRANSIT_WIRE not in st.wires:
        raise ProtocolViolationError("adversary hook removed the transit wire")
    stages.extend(transit_stages)

    st = st.apply_controlled_shift(BOB_WIRE, TRANSIT_WIRE, "left")
    decode_label = f"{prefix}_{2 + len(transit_stages)}" if prefix else "post_decode"
    stages.append((decode_label, st))

    outcome, st, _ = st.measure_computational(TRANSIT_WIRE, rng)
    st = st.drop_wire(TRANSIT_WIRE)
    if prefix is not None:
        stages.append((f"psi_{round_index}_1", st))

    transcript = RoundTranscript(round_index, tuple(stages), outcome, observation)
    return st, transcript


def run_session(
    config: ProtocolConfig, adversary: AdversaryStrategy | None = None
) -> SessionTranscript:
    """Run all configured rounds from a fresh shared pair."""
    strategy = adversary if adversary is not None else AdversaryStrategy()
    rng = make_rng(config.rng_seed)
    st = bell_state(config.dim)
    if strategy.wants_ancilla:
        st = st.tensor(basis_state(config.dim, [(ANCILLA_WIRE, 0)]))
    rounds = []
    for index, key_dit in enumerate(config.key, start=1):
        st, transcript = run_round(st, index, key_dit, strategy, rng)
        rounds.append(transcript)
    observations = tuple(strategy.observations) if isinstance(strategy, GaoAttack) else ()
    attack_rounds = None
    if strategy.kind == "intercept":
        attack_rounds = (
            None
            if strategy.attack_rounds is None
            else tuple(sorted(strategy.attack_rounds))
        )
    return SessionTranscript(
        config=config,
        adversary_kind=strategy.kind,
        attack_rounds=attack_rounds,
        rounds=tuple(rounds),
        final_shared_state=st,
        eve_observations=observations,
    )


def parse_announce(spec: str, num_rounds: int) -> list[int]:
    """The 1-based round indices an announcement policy names.

    spec is "none", "odd", "even" or a comma list of indices; raises
    ValueError for any other text and for an index outside 1..num_rounds.
    """
    if spec == "none":
        return []
    if spec == "odd":
        return list(range(1, num_rounds + 1, 2))
    if spec == "even":
        return list(range(2, num_rounds + 1, 2))
    try:
        indices = [int(part) for part in spec.split(",")]
    except ValueError:
        raise ValueError(
            f'announce must be "none", "odd", "even" or a comma list, got {spec!r}'
        ) from None
    for index in indices:
        if not 1 <= index <= num_rounds:
            raise ValueError(f"announce index {index} outside rounds 1..{num_rounds}")
    return indices


def announce_subsequence(session: SessionTranscript, indices) -> list[tuple[int, int]]:
    """Publicly reveal Alice's dits at the given 1-based round indices.

    The revealed dits are recorded on the transcript and are treated as
    consumed: they no longer count toward the usable key.
    """
    n = session.config.num_rounds
    out = []
    for index in indices:
        if not 1 <= index <= n:
            raise ValueError(f"announce index {index} outside rounds 1..{n}")
        out.append((index, session.config.key[index - 1]))
    session.announced.extend(out)
    return out


# -- serialization ---------------------------------------------------------------


def _eve_json(session: SessionTranscript) -> dict | None:
    if session.adversary_kind == "none":
        return None
    if session.adversary_kind == "gao":
        resolved, known = infer_keys(session.eve_knowledge(), session.announced)
        return {
            "observations": [
                {"round": o.round_index, "value": o.value, "sign": o.sign}
                for o in session.eve_observations
            ],
            "resolved_q1": resolved,
            "known_dits": {str(r): v for r, v in sorted(known.items())},
        }
    observations = [
        {"round": r.round_index, "value": r.eve_observation, "sign": None}
        for r in session.rounds
        if r.eve_observation is not None
    ]
    return {"observations": observations, "resolved_q1": None, "known_dits": {}}


def transcript_to_json_dict(session: SessionTranscript) -> dict:
    cfg = session.config
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "dim": cfg.dim,
            "num_rounds": cfg.num_rounds,
            "key": list(cfg.key),
            "rng_seed": cfg.rng_seed,
        },
        "adversary": {
            "kind": session.adversary_kind,
            "attack_rounds": (
                None if session.attack_rounds is None else list(session.attack_rounds)
            ),
        },
        "rounds": [
            {
                "index": r.round_index,
                "stages": [
                    {"label": label, "state": state.to_json_dict()}
                    for label, state in r.stages
                ],
                "bob_outcome": r.bob_outcome,
                "eve_observation": r.eve_observation,
            }
            for r in session.rounds
        ],
        "announced": [list(pair) for pair in session.announced],
        "eve": _eve_json(session),
    }


def dump_transcript(session: SessionTranscript, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(transcript_to_json_dict(session), fh, indent=2)
        fh.write("\n")
