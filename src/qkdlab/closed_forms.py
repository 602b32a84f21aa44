"""Closed-form stage states for a five-round ancilla-attacked session.

Every state is constructed directly from its algebraic expression with
explicit basis tuples and phases, without going through the gate engine,
so that comparing them against simulator snapshots is an independent
cross-check of both.

Notation in the comments below: q1..q5 are the round key dits, z the
primitive d-th root of unity, and sums run over all dit values.  Wire
order is (a, b, k, e) while the transit qudit exists and (a, b, e)
between rounds.
"""

from __future__ import annotations

from .ring import CycloElem, zeta_pow
from .register import (
    ALICE_WIRE,
    ANCILLA_WIRE,
    BOB_WIRE,
    TRANSIT_WIRE,
    PureState,
)

_ABE = (ALICE_WIRE, BOB_WIRE, ANCILLA_WIRE)
_ABKE = (ALICE_WIRE, BOB_WIRE, TRANSIT_WIRE, ANCILLA_WIRE)


def _uniform(d: int, wires, scale_exp: int, tuples) -> PureState:
    one = CycloElem.one(d)
    return PureState(d, wires, scale_exp, {t: one for t in tuples})


def _phased(d: int, wires, scale_exp: int, items) -> PureState:
    phases = [zeta_pow(d, e) for e in range(d)]
    return PureState(d, wires, scale_exp, {t: phases[e % d] for t, e in items})


def eavesdrop_stage_states(d: int, key) -> dict[str, PureState]:
    """All 32 labelled stage states of a five-round attacked session."""
    key = tuple(key)
    if len(key) < 5:
        raise ValueError(f"need at least five key dits, got {len(key)}")
    q1, q2, q3, q4, q5 = key[:5]
    r = range(d)
    out: dict[str, PureState] = {}

    # round 1: ancilla picks up a copy of (j + q1)
    out["psi_1_0"] = _uniform(d, _ABE, 1, [(j, j, 0) for j in r])
    out["Phi_0"] = _uniform(d, _ABKE, 1, [(j, j, q1, 0) for j in r])
    out["Phi_1"] = _uniform(d, _ABKE, 1, [(j, j, (j + q1) % d, 0) for j in r])
    out["Phi_2"] = _uniform(
        d, _ABKE, 1, [(j, j, (j + q1) % d, (j + q1) % d) for j in r]
    )
    out["Phi_3"] = _uniform(d, _ABKE, 1, [(j, j, q1, (j + q1) % d) for j in r])
    out["psi_1_1"] = _uniform(d, _ABE, 1, [(j, j, (j + q1) % d) for j in r])

    # round 2: (1/d) sum_{k,l} z^(q1 (l-k)) |k, l, l-k>, transit carries q2
    pairs = [(k, l) for k in r for l in r]
    out["psi_2_0"] = _phased(
        d, _ABE, 2, [(((k, l, (l - k) % d)), q1 * (l - k)) for k, l in pairs]
    )
    out["Psi_0"] = _phased(
        d, _ABKE, 2, [(((k, l, q2, (l - k) % d)), q1 * (l - k)) for k, l in pairs]
    )
    out["Psi_1"] = _phased(
        d,
        _ABKE,
        2,
        [(((k, l, (k + q2) % d, (l - k) % d)), q1 * (l - k)) for k, l in pairs],
    )
    out["Psi_2"] = _phased(
        d,
        _ABKE,
        2,
        [(((k, l, (l + q2) % d, (l - k) % d)), q1 * (l - k)) for k, l in pairs],
    )
    out["Psi_3"] = _phased(
        d, _ABKE, 2, [(((k, l, q2, (l - k) % d)), q1 * (l - k)) for k, l in pairs]
    )
    out["psi_2_1"] = _phased(
        d, _ABE, 2, [(((k, l, (l - k) % d)), q1 * (l - k)) for k, l in pairs]
    )

    # round 3: diagonal again; the transit value (q3 + q1) is deterministic
    out["psi_3_0"] = _uniform(d, _ABE, 1, [(m, m, (m - q1) % d) for m in r])
    out["Omega_0"] = _uniform(d, _ABKE, 1, [(m, m, q3, (m - q1) % d) for m in r])
    out["Omega_1"] = _uniform(
        d, _ABKE, 1, [(m, m, (m + q3) % d, (m - q1) % d) for m in r]
    )
    out["Omega_2"] = _uniform(
        d, _ABKE, 1, [(m, m, (q3 + q1) % d, (m - q1) % d) for m in r]
    )
    out["Omega_3"] = _uniform(
        d, _ABKE, 1, [(m, m, (m + q3) % d, (m - q1) % d) for m in r]
    )
    out["Omega_4"] = _uniform(d, _ABKE, 1, [(m, m, q3, (m - q1) % d) for m in r])
    out["psi_3_1"] = _uniform(d, _ABE, 1, [(m, m, (m - q1) % d) for m in r])

    # round 4: same shape as round 2 with the opposite phase sign
    out["psi_4_0"] = _phased(
        d, _ABE, 2, [(((k, l, (l - k) % d)), -q1 * (l - k)) for k, l in pairs]
    )
    out["Theta_0"] = _phased(
        d, _ABKE, 2, [(((k, l, q4, (l - k) % d)), -q1 * (l - k)) for k, l in pairs]
    )
    out["Theta_1"] = _phased(
        d,
        _ABKE,
        2,
        [(((k, l, (k + q4) % d, (l - k) % d)), -q1 * (l - k)) for k, l in pairs],
    )
    out["Theta_2"] = _phased(
        d,
        _ABKE,
        2,
        [(((k, l, (l + q4) % d, (l - k) % d)), -q1 * (l - k)) for k, l in pairs],
    )
    out["Theta_3"] = _phased(
        d, _ABKE, 2, [(((k, l, q4, (l - k) % d)), -q1 * (l - k)) for k, l in pairs]
    )
    out["psi_4_1"] = _phased(
        d, _ABE, 2, [(((k, l, (l - k) % d)), -q1 * (l - k)) for k, l in pairs]
    )

    # round 5: back to the round-1 end state; transit reads (q5 - q1)
    out["psi_5_0"] = _uniform(d, _ABE, 1, [(j, j, (j + q1) % d) for j in r])
    out["Upsilon_0"] = _uniform(d, _ABKE, 1, [(j, j, q5, (j + q1) % d) for j in r])
    out["Upsilon_1"] = _uniform(
        d, _ABKE, 1, [(j, j, (j + q5) % d, (j + q1) % d) for j in r]
    )
    out["Upsilon_2"] = _uniform(
        d, _ABKE, 1, [(j, j, (q5 - q1) % d, (j + q1) % d) for j in r]
    )
    out["Upsilon_3"] = _uniform(
        d, _ABKE, 1, [(j, j, (j + q5) % d, (j + q1) % d) for j in r]
    )
    out["Upsilon_4"] = _uniform(d, _ABKE, 1, [(j, j, q5, (j + q1) % d) for j in r])
    out["psi_5_1"] = _uniform(d, _ABE, 1, [(j, j, (j + q1) % d) for j in r])

    return out
