"""Eavesdropping strategies for the entanglement-reuse channel.

Two attacks are modelled.  Intercept-resend measures the travelling key
qudit and forwards the collapsed state; it gains nothing and disturbs
the next round.  The ancilla attack adjoins its own qudit in |0> in
round one and entangles it with the travelling qudit, mirrors the
legitimate basis change from round two on, undoes its own correlation
in even rounds to stay invisible, and in odd rounds deterministically
reads off the current key dit shifted by the (unknown) first one.  A
single later announcement of any odd dit then pins the first dit down,
and with it every odd dit the attacker observed.

Strategies are stateless hooks that protocol._round calls at two
points of every round: after the shared basis change and while the key
qudit is in transit.  The transit hook measures only through the
measure function it is handed, never an rng, and returns its branches;
the value each branch read is the only record of what the attacker
saw.  A strategy brings its own wires, adjoined with insert_wire: the
session starts from the bare shared pair, and the round places the
transit qudit right after Bob's half, so the wires a strategy adds keep
their order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .register import ANCILLA_WIRE, TRANSIT_WIRE, PureState


class ScheduleViolationError(RuntimeError):
    """A state reached an adversary hook in a shape the schedule forbids."""


class InconsistencyError(ValueError):
    """Announced dits contradict every surviving hypothesis."""


def observation_sign(round_index: int) -> int:
    """Sign of the unknown-dit offset in an odd extraction round.

    Rounds 3, 7, 11, ... observe (key dit + first dit); rounds 5, 9, 13, ...
    observe (key dit - first dit).
    """
    r = round_index % 4
    if r == 3:
        return 1
    if r == 1 and round_index >= 5:
        return -1
    raise ValueError(f"round {round_index} is not an extraction round")


@dataclass(frozen=True)
class EveObservation:
    """One deterministic transit readout: value = (key dit + sign * first dit) mod d."""

    round_index: int
    value: int

    def __post_init__(self) -> None:
        observation_sign(self.round_index)  # rejects rounds that read nothing
        if self.value < 0:
            raise ValueError(f"observed value must be a dit, got {self.value}")

    @property
    def sign(self) -> int:
        return observation_sign(self.round_index)


# -- strategies ----------------------------------------------------------------


class AdversaryStrategy:
    """Pass-through channel; subclasses override the two hooks.

    Strategies keep no per-session state, so one instance can serve any
    number of sessions.  on_transit returns (states, value, probability)
    branches: the states it produced, in order, the last travelling on to
    Bob, and the value read (None if none).  Branches may share a value;
    the exact walker adds up the probabilities of branches that end in
    the same history.  measure(state, wire) gives the (outcome, collapsed,
    probability) measurement branches.
    """

    kind = "none"
    #: rounds the strategy acts on, sorted; None means every round
    attack_rounds: tuple[int, ...] | None = None

    def on_basis_change(self, state: PureState, round_index: int) -> PureState:
        return state

    def on_transit(self, state: PureState, round_index: int, measure) -> list:
        return [([state], None, 1)]

    def stage_prefix(self, round_index: int) -> str | None:
        """Stage-name family for the round, or None for the generic labels."""
        return None


class InterceptResend(AdversaryStrategy):
    """Measure-and-resend on a configurable set of rounds (default: all)."""

    kind = "intercept"

    def __init__(self, attack_rounds=None) -> None:
        if attack_rounds is not None:
            self.attack_rounds = tuple(sorted(set(attack_rounds)))

    def on_transit(self, state, round_index, measure):
        """Measure the travelling qudit and forward the collapsed state."""
        if self.attack_rounds is not None and round_index not in self.attack_rounds:
            return [([state], None, 1)]
        return [([collapsed], outcome, p) for outcome, collapsed, p in measure(state, TRANSIT_WIRE)]


_GAO_PREFIXES = ("Phi", "Psi", "Omega", "Theta", "Upsilon")


class GaoAttack(AdversaryStrategy):
    """Ancilla-entangling attack with detection-free key extraction."""

    kind = "gao"

    def on_basis_change(self, state, round_index):
        """Adjoin the ancilla in |0> in round one; mirror the basis change on it after."""
        if round_index == 1:
            return state.insert_wire(ANCILLA_WIRE, 0, len(state.wires))
        return state.apply_hadamard(ANCILLA_WIRE)

    def on_transit(self, state, round_index, measure):
        """Act on the travelling qudit according to the round schedule.

        Round one copies the transit value onto the ancilla.  Even rounds add
        the ancilla back onto the transit qudit, which restores the honest
        transit state exactly.  Odd rounds from three on subtract the ancilla,
        read the now-deterministic transit value, and add the ancilla back.
        """
        if round_index == 1:
            return [([state.apply_controlled_shift(TRANSIT_WIRE, ANCILLA_WIRE, "right")], None, 1)]
        if round_index % 2 == 0:
            return [([state.apply_controlled_shift(ANCILLA_WIRE, TRANSIT_WIRE, "right")], None, 1)]
        read = state.apply_controlled_shift(ANCILLA_WIRE, TRANSIT_WIRE, "left")
        value = read.deterministic_outcome(TRANSIT_WIRE)
        if value is None:
            raise ScheduleViolationError(
                f"transit qudit not deterministic in extraction round {round_index}"
            )
        return [([read, read.apply_controlled_shift(ANCILLA_WIRE, TRANSIT_WIRE, "right")], value, 1)]

    def stage_prefix(self, round_index: int) -> str:
        """Families repeat with period 4 from round two on."""
        if round_index < 1:
            raise ValueError(f"round index must be positive, got {round_index}")
        if round_index == 1:
            return _GAO_PREFIXES[0]
        return _GAO_PREFIXES[(round_index - 2) % 4 + 1]


# -- inference -----------------------------------------------------------------


@dataclass(frozen=True)
class EveKnowledge:
    """Everything the ancilla attacker holds after a session."""

    dim: int
    observations: tuple[EveObservation, ...]

    def __post_init__(self):
        rounds = [o.round_index for o in self.observations]
        if len(set(rounds)) != len(rounds):
            raise ValueError("duplicate observation rounds")
        if any(o.value >= self.dim for o in self.observations):
            raise ValueError("observed value out of dit range")

    @property
    def q1_candidates(self) -> frozenset[int]:
        """Every value the first dit can take before any announcement."""
        return frozenset(range(self.dim))

    def hypothesis(self, first_dit: int) -> dict[int, int]:
        """Key dits implied by one candidate value of the first dit."""
        return {
            o.round_index: (o.value - o.sign * first_dit) % self.dim
            for o in self.observations
        }


def infer_keys(
    knowledge: EveKnowledge, announced
) -> tuple[int | None, dict[int, int]]:
    """Resolve the first key dit from announced dits, if possible.

    Each observation r_m = (q_m + sign_m * q_1) leaves d consistent
    hypotheses for q_1.  Any announced odd dit the attacker observed
    (or an announcement of the first dit itself) selects one of them;
    the return value is (resolved first dit or None, every key dit the
    attacker then knows, by round index).
    """
    d = knowledge.dim
    by_round = {o.round_index: o for o in knowledge.observations}
    resolved = None
    for index, value in announced:
        if index == 1:
            candidate = value % d
        elif index in by_round:
            o = by_round[index]
            candidate = (o.sign * (o.value - value)) % d
        else:
            continue
        if resolved is None:
            resolved = candidate
        elif resolved != candidate:
            raise InconsistencyError(
                f"announced dit at round {index} contradicts every remaining hypothesis"
            )
    if resolved is None:
        return None, {}
    known = {1: resolved}
    known.update(knowledge.hypothesis(resolved))
    return resolved, known
