"""Exact simulator for a d-level entanglement-reuse QKD protocol.

The package models a protocol in which one entangled qudit pair is reused
across every key round, together with two eavesdropping strategies: a
naive intercept-resend attack (detectable, zero information gain) and a
coherent ancilla attack that reads the key without disturbing the channel.
All quantum amplitudes live in the ring of rational combinations of d-th
roots of unity, reduced modulo the d-th cyclotomic polynomial, so every
check is exact for every dimension d >= 2.
"""

from .adversary import (
    AdversaryStrategy,
    EveKnowledge,
    EveObservation,
    GaoAttack,
    InconsistencyError,
    InterceptResend,
    ScheduleViolationError,
    infer_keys,
    observation_sign,
)
from .analysis import (
    ExperimentReport,
    SessionMetrics,
    compute_metrics,
    exact_intercept_observation_distribution,
    exact_next_round_error,
    monte_carlo,
    report_to_csv,
    report_to_json,
)
from .closed_forms import eavesdrop_stage_states
from .protocol import (
    ProtocolConfig,
    ProtocolViolationError,
    RoundTranscript,
    SessionTranscript,
    announce_subsequence,
    dump_transcript,
    make_rng,
    parse_announce,
    run_round,
    run_session,
    transcript_to_json_dict,
)
from .register import (
    DensityMatrixSlice,
    PureState,
    basis_state,
    bell_state,
    state_equals,
)
from .ring import CycloElem, rational_value, zeta_pow

__version__ = "0.1.0"

__all__ = [
    "AdversaryStrategy",
    "CycloElem",
    "DensityMatrixSlice",
    "EveKnowledge",
    "EveObservation",
    "ExperimentReport",
    "GaoAttack",
    "InconsistencyError",
    "InterceptResend",
    "ProtocolConfig",
    "ProtocolViolationError",
    "PureState",
    "RoundTranscript",
    "ScheduleViolationError",
    "SessionMetrics",
    "SessionTranscript",
    "announce_subsequence",
    "basis_state",
    "bell_state",
    "compute_metrics",
    "dump_transcript",
    "eavesdrop_stage_states",
    "exact_intercept_observation_distribution",
    "exact_next_round_error",
    "infer_keys",
    "make_rng",
    "monte_carlo",
    "observation_sign",
    "parse_announce",
    "rational_value",
    "report_to_csv",
    "report_to_json",
    "run_round",
    "run_session",
    "state_equals",
    "transcript_to_json_dict",
    "zeta_pow",
]
