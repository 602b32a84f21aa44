"""Round engine for the entanglement-reuse key distribution protocol.

Each round applies the shared basis change (a Hadamard on Alice's half,
its conjugate on Bob's), adjoins a fresh transit qudit carrying the
round's key dit right after Bob's half (insert_wire; the adversary's
wires keep their own order), right-shifts it by Alice's half, hands it
to the channel (where an adversary may act), left-shifts it by Bob's
half and measures it.  An honest channel reproduces the key dit exactly
and leaves the shared pair in its initial entangled state, which is
reused by the next round.

_round is the one place that knows the steps of a round and yields its
branches; run_round hands it a one-branch sampler as the measurement,
and analysis.exact_outcomes hands it PureState.branches, which returns
every outcome.
_label_stages alone names the states that transcripts snapshot.  Rounds
with no stage prefix (honest and intercepted) record the generic labels
pre_encode / post_encode / in_transit / post_decode; rounds attacked by
the ancilla strategy record psi_<i>_0, then the per-round family Phi_0..3
/ Psi_0..3 / Omega_0..4 / Theta_0..3 / Upsilon_0..4 from pre_encode to
post_decode, then psi_<i>_1 after Bob's measurement.

SessionTranscript.eve_knowledge is the one place that decides whether
a session's adversary reads say anything about the key; eve_inference
runs adversary.infer_keys on it, and the transcript JSON, the metrics
and the CLI all read that one result.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field

from .adversary import AdversaryStrategy, EveKnowledge, EveObservation, infer_keys
from .register import (
    ALICE_WIRE,
    BOB_WIRE,
    TRANSIT_WIRE,
    PureState,
    bell_state,
    check_integer,
    intern,
)

SCHEMA_VERSION = "v1"


class ProtocolViolationError(RuntimeError):
    """An adversary hook returned a state the round cannot continue from."""


def check_seed(value: int, name: str = "seed") -> int:
    """value, if it is an integer in [0, 2**64).

    make_rng packs a seed and a stream into one integer, which is
    injective only while both fit in 64 bits; the range also keeps every
    seed accepted before.  A bool, a float or any other non-integer
    raises ValueError naming name, as it does for every other
    ProtocolConfig field; a float is never truncated.
    """
    value = check_integer(value, name)
    if not 0 <= value < 1 << 64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
    return value


def make_rng(seed: int, stream: int = 0) -> random.Random:
    """A generator seeded by (seed, stream); distinct pairs give distinct seeds.

    Both lie in [0, 2**64); a value outside raises ValueError rather than
    aliasing another seed.
    """
    return random.Random(check_seed(seed) << 64 | check_seed(stream, "stream"))


@dataclass(frozen=True)
class ProtocolConfig:
    dim: int
    num_rounds: int
    key: tuple[int, ...]
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dim", check_integer(self.dim, "dim"))
        object.__setattr__(self, "num_rounds", check_integer(self.num_rounds, "num_rounds"))
        object.__setattr__(self, "key", tuple(check_integer(q, "key") for q in self.key))
        if self.dim < 2:
            raise ValueError(f"dimension must be at least 2, got {self.dim}")
        if self.num_rounds < 1:
            raise ValueError(f"num_rounds must be positive, got {self.num_rounds}")
        if len(self.key) != self.num_rounds:
            raise ValueError(
                f"key length {len(self.key)} does not match num_rounds {self.num_rounds}"
            )
        if any(not 0 <= q < self.dim for q in self.key):
            raise ValueError(f"key dits must lie in [0, {self.dim}), got {self.key}")
        check_seed(self.rng_seed, "rng_seed")


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
    announced: list[tuple[int, int]] = field(default_factory=list)

    @property
    def bob_outcomes(self) -> tuple[int, ...]:
        return tuple(r.bob_outcome for r in self.rounds)

    def eve_knowledge(self) -> EveKnowledge | None:
        """The attacker's reads as EveKnowledge; None for kinds whose reads tell nothing of the key.

        Only the ancilla attacker's reads follow the sign law; an
        interceptor reads a value that is uniform whatever the key.
        """
        if self.adversary_kind != "gao":
            return None
        reads = [r for r in self.rounds if r.eve_observation is not None]
        return EveKnowledge(
            self.config.dim, tuple(EveObservation(r.round_index, r.eve_observation) for r in reads)
        )

    @property
    def eve_observations(self) -> tuple[EveObservation, ...]:
        """The observations of eve_knowledge(), with their signs; () when it is None."""
        knowledge = self.eve_knowledge()
        return () if knowledge is None else knowledge.observations

    def eve_inference(self) -> tuple[int | None, dict[int, int]]:
        """infer_keys on eve_knowledge() and the announced dits; (None, {}) when it is None."""
        knowledge = self.eve_knowledge()
        return (None, {}) if knowledge is None else infer_keys(knowledge, self.announced)


def _round(
    state: PureState, round_index: int, key_dit: int, strategy: AdversaryStrategy, measure
):
    """Every branch of a round: (states, adversary value, Bob's outcome, next shared state, probability).

    The states are the shared basis change (with the adversary's basis
    hook), pre_encode, post_encode, every state the transit hook
    produced, and post_decode, which Bob measures through measure.  The
    next shared state is interned, so one that recurs, as the attacked
    state does with period 4, is one object whose gates are memo lookups.
    """
    basis = state.apply_hadamard(ALICE_WIRE).apply_hadamard(BOB_WIRE, conjugate=True)
    basis = strategy.on_basis_change(basis, round_index)
    pre_encode = basis.insert_wire(TRANSIT_WIRE, key_dit, basis.wires.index(BOB_WIRE) + 1)
    post_encode = pre_encode.apply_controlled_shift(ALICE_WIRE, TRANSIT_WIRE, "right")
    for transit, value, p_eve in strategy.on_transit(post_encode, round_index, measure):
        if TRANSIT_WIRE not in transit[-1].wires:
            raise ProtocolViolationError("adversary hook removed the transit wire")
        decoded = transit[-1].apply_controlled_shift(BOB_WIRE, TRANSIT_WIRE, "left")
        states = [basis, pre_encode, post_encode, *transit, decoded]
        for outcome, collapsed, p_bob in measure(decoded, TRANSIT_WIRE):
            yield states, value, outcome, intern(collapsed.drop_wire(TRANSIT_WIRE)), p_eve * p_bob


def _label_stages(
    states: list[PureState], measured: PureState, round_index: int, prefix: str | None
) -> tuple[tuple[str, PureState], ...]:
    """Label _round's states and Bob's measured state in one of the two schemes."""
    if prefix is None:
        return (
            ("pre_encode", states[1]),
            ("post_encode", states[2]),
            ("in_transit", states[-2]),
            ("post_decode", states[-1]),
        )
    return (
        (f"psi_{round_index}_0", states[0]),
        *((f"{prefix}_{i}", s) for i, s in enumerate(states[1:])),
        (f"psi_{round_index}_1", measured),
    )


def run_round(
    state: PureState,
    round_index: int,
    key_dit: int,
    adversary: AdversaryStrategy | None,
    rng,
) -> tuple[PureState, RoundTranscript]:
    """Advance the shared state by one protocol round.

    Each measurement, the adversary's first, takes one draw from rng.
    """
    strategy = adversary if adversary is not None else AdversaryStrategy()
    sample = lambda s, w: [s.measure_computational(w, rng)]
    ((states, observation, outcome, st, _),) = _round(state, round_index, key_dit, strategy, sample)
    stages = _label_stages(states, st, round_index, strategy.stage_prefix(round_index))
    return st, RoundTranscript(round_index, stages, outcome, observation)


def check_rounds(indices, num_rounds: int, name: str) -> tuple[int, ...]:
    """indices as ints, if each is an integer in 1..num_rounds and none repeats.

    Any other index raises ValueError naming name, so announcements,
    attack rounds and their command-line options follow one rule.
    """
    out: dict[int, None] = {}  # keeps the given order
    for index in indices:
        index = check_integer(index, f"{name} index")
        if not 1 <= index <= num_rounds:
            raise ValueError(f"{name} index {index} outside rounds 1..{num_rounds}")
        if index in out:
            raise ValueError(f"{name} index {index} repeated")
        out[index] = None
    return tuple(out)


def run_session(
    config: ProtocolConfig, adversary: AdversaryStrategy | None = None
) -> SessionTranscript:
    """Run all configured rounds from a fresh shared pair."""
    strategy = adversary if adversary is not None else AdversaryStrategy()
    check_rounds(strategy.attack_rounds or (), config.num_rounds, "attack round")
    rng = make_rng(config.rng_seed)
    st = bell_state(config.dim)
    rounds = []
    for index, key_dit in enumerate(config.key, start=1):
        st, transcript = run_round(st, index, key_dit, strategy, rng)
        rounds.append(transcript)
    return SessionTranscript(
        config=config,
        adversary_kind=strategy.kind,
        attack_rounds=strategy.attack_rounds,
        rounds=tuple(rounds),
        final_shared_state=st,
    )


def parse_int(text: str) -> int:
    """The integer of ASCII digits with an optional sign and blanks around.

    Raises ValueError for any other text; int() alone would also read
    digit separators ("1_3" as 13) and non-ASCII digits.
    """
    part = text.strip()
    if not re.fullmatch(r"[+-]?[0-9]+", part):
        raise ValueError(f"not an integer: {part!r}")
    return int(part)


def parse_int_list(text: str) -> list[int]:
    """The integers of a comma list whose every part parse_int reads."""
    return [parse_int(part) for part in text.split(",")]


def parse_announce(spec: str, num_rounds: int) -> list[int]:
    """The 1-based round indices an announcement policy names.

    spec is "none", "odd", "even" or a comma list of indices; raises
    ValueError for any other text, for an index outside 1..num_rounds
    and for an index named twice.
    """
    if spec == "none":
        return []
    if spec == "odd":
        return list(range(1, num_rounds + 1, 2))
    if spec == "even":
        return list(range(2, num_rounds + 1, 2))
    try:
        indices = parse_int_list(spec)
    except ValueError:
        raise ValueError(
            f'announce must be "none", "odd", "even" or a comma list, got {spec!r}'
        ) from None
    return list(check_rounds(indices, num_rounds, "announce"))


def announce_subsequence(session: SessionTranscript, indices) -> list[tuple[int, int]]:
    """Publicly reveal Alice's dits at the given 1-based round indices.

    The revealed dits are recorded on the transcript and are treated as
    consumed: they no longer count toward the usable key.  A round can be
    announced only once per session; indices follow check_rounds.
    """
    done = {index for index, _ in session.announced}
    out = []
    for index in check_rounds(indices, session.config.num_rounds, "announce"):
        if index in done:
            raise ValueError(f"round {index} is already announced")
        out.append((index, session.config.key[index - 1]))
    session.announced.extend(out)
    return out


# -- serialization ---------------------------------------------------------------


def _eve_json(session: SessionTranscript) -> dict | None:
    if session.adversary_kind == "none":
        return None
    signs = {o.round_index: o.sign for o in session.eve_observations}
    observations = [
        {"round": r.round_index, "value": r.eve_observation, "sign": signs.get(r.round_index)}
        for r in session.rounds
        if r.eve_observation is not None
    ]
    resolved, known = session.eve_inference()
    return {
        "observations": observations,
        "resolved_q1": resolved,
        "known_dits": {str(r): v for r, v in sorted(known.items())},
    }


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
