"""Top-level acceptance suite.

Each test here checks one headline guarantee of the package, end to end,
and is tagged with the ``criterion`` marker so the terminal summary prints
one PASS/FAIL line per criterion.  Exact assertions use rational/cyclotomic
equality with zero tolerance; the two statistical checks pin their trial
counts and use 3-sigma binomial bounds; the two timed checks assert wall
clock budgets (5 s and 30 s).
"""

import itertools
import time
from fractions import Fraction

import pytest

from qkdlab.adversary import GaoAttack, InterceptResend, infer_keys, observation_sign
from qkdlab.analysis import (
    compute_metrics,
    exact_intercept_observation_distribution,
    exact_next_round_error,
    monte_carlo,
)
from qkdlab.closed_forms import eavesdrop_stage_states
from qkdlab.protocol import (
    ProtocolConfig,
    announce_subsequence,
    run_session,
)
from qkdlab.register import (
    ALICE_WIRE,
    BOB_WIRE,
    TRANSIT_WIRE,
    DensityMatrixSlice,
    bell_state,
    state_equals,
)
from qkdlab.ring import CycloElem, zeta_pow
from qkdlab import cli

from helpers import philox, random_pure_state

FIVE_ROUND_KEYS = {
    2: [(1, 1, 0, 1, 0), (0, 1, 1, 0, 1), (1, 0, 0, 1, 1)],
    3: [(1, 0, 2, 1, 2), (2, 2, 1, 0, 1), (0, 1, 2, 2, 0)],
    5: [(4, 1, 3, 0, 2), (1, 2, 3, 4, 0), (3, 3, 0, 2, 4)],
    4: [(3, 1, 0, 2, 1), (0, 3, 3, 1, 2)],
    6: [(5, 2, 0, 3, 4), (1, 4, 5, 0, 2)],
    8: [(7, 3, 0, 5, 2)],
}

#: composite dimensions the exact checks also cover
COMPOSITE = (4, 6, 8)


def gao_session(dim, key, seed=0):
    config = ProtocolConfig(dim, len(key), key, rng_seed=seed)
    return run_session(config, GaoAttack())


def session_stage_map(session):
    return {
        label: rnd.stage_state(label)
        for rnd in session.rounds
        for label in rnd.stage_labels
    }


def random_key(dim, rounds, seed, stream):
    return tuple(int(v) for v in philox(seed, stream=stream).integers(0, dim, size=rounds))


@pytest.mark.criterion(1, "stage-trace fidelity")
def test_every_eavesdropping_stage_matches_closed_form():
    """All 32 staged states of a 5-round attacked session equal their
    closed forms exactly, at prime and composite dimensions."""
    start = time.perf_counter()
    for dim, keys in FIVE_ROUND_KEYS.items():
        for key in keys:
            expected = eavesdrop_stage_states(dim, key)
            assert len(expected) == 32

            exact = session_stage_map(gao_session(dim, key))
            assert set(exact) == set(expected)
            for label, want in expected.items():
                assert state_equals(exact[label], want), f"d={dim} {key} {label}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"stage-trace check took {elapsed:.2f}s (budget 5s)"


@pytest.mark.criterion(2, "zero-error attack")
def test_attacked_sessions_reproduce_key_exactly():
    """The round-schedule attack never changes any of Bob's outcomes:
    exhaustively for every 5-round ternary key, and for 100 random
    13-round keys at each prime dimension up to 7."""
    for key in itertools.product(range(3), repeat=5):
        session = gao_session(3, key)
        assert session.bob_outcomes == key

    for dim in (2, 3, 5, 7):
        rng = philox(42, stream=dim)
        for _ in range(100):
            key = tuple(int(v) for v in rng.integers(0, dim, size=13))
            session = gao_session(dim, key)
            assert session.bob_outcomes == key, f"d={dim} key={key}"


@pytest.mark.criterion(3, "observation sign law")
def test_recorded_values_follow_alternating_sign_law():
    """At odd rounds 3,5,7,9 the attacker's recorded value is the round's
    dit plus/minus the first dit, with signs +,-,+,-."""
    for dim in (2, 3, 5) + COMPOSITE:
        for stream in (1, 2, 3):
            key = random_key(dim, 9, seed=7, stream=10 * dim + stream)
            session = gao_session(dim, key)
            observations = {o.round_index: o for o in session.eve_observations}
            assert set(observations) == {3, 5, 7, 9}
            for m, want_sign in zip((3, 5, 7, 9), (1, -1, 1, -1)):
                obs = observations[m]
                assert obs.sign == want_sign == observation_sign(m)
                assert obs.value == (key[m - 1] + want_sign * key[0]) % dim


@pytest.mark.criterion(4, "period-4 recurrence")
def test_shared_state_recurs_every_four_rounds():
    """The post-round shared state of an attacked session is periodic with
    period 4: state after round 5 equals state after round 1, and after
    round 9 equals after round 5 — exactly."""
    for dim in (2, 3, 5) + COMPOSITE:
        key = random_key(dim, 9, seed=21, stream=dim)
        session = gao_session(dim, key)
        after = {
            m: session.rounds[m - 1].stage_state(f"psi_{m}_1") for m in (1, 5, 9)
        }
        assert state_equals(after[5], after[1]), f"d={dim}: round 5 != round 1"
        assert state_equals(after[9], after[5]), f"d={dim}: round 9 != round 5"


@pytest.mark.criterion(5, "single-announcement inference")
def test_one_announced_odd_dit_resolves_first_dit():
    """Any one announced odd dit (index >= 3) pins down the first key dit
    and makes every inferred dit correct; with no announcement there are
    exactly d candidates and the truth is among them."""
    for dim in (2, 3, 5):
        key = random_key(dim, 9, seed=11, stream=dim)
        session = gao_session(dim, key)
        knowledge = session.eve_knowledge()

        for m in (3, 5, 7, 9):
            resolved, known = infer_keys(knowledge, [(m, key[m - 1])])
            assert resolved == key[0], f"d={dim} announce round {m}"
            assert set(known) == {1, 3, 5, 7, 9}
            for index, value in known.items():
                assert value == key[index - 1]

        resolved, known = infer_keys(knowledge, [])
        assert resolved is None and known == {}
        assert len(knowledge.q1_candidates) == dim
        assert key[0] in knowledge.q1_candidates
        hypothesis = knowledge.hypothesis(key[0])
        assert all(key[index - 1] == value for index, value in hypothesis.items())


@pytest.mark.criterion(6, "knowledge fraction")
def test_known_fraction_is_about_half_at_101_rounds():
    """Over a 101-round ternary session with one odd announcement the
    attacker ends up knowing at least 49% of the key (51 of 101 dits)."""
    dim, rounds = 3, 101
    key = random_key(dim, rounds, seed=13, stream=0)
    config = ProtocolConfig(dim, rounds, key, rng_seed=1)
    session = run_session(config, GaoAttack())
    announce_subsequence(session, [3])
    metrics = compute_metrics(session, key)
    # q1 plus the 50 observed odd rounds 3..101
    assert metrics.eve_known_fraction == Fraction(51, 101)
    assert metrics.eve_known_fraction >= Fraction(49, 100)
    assert metrics.eve_candidate_count == 1
    assert metrics.qber_overall == 0


@pytest.mark.criterion(7, "intercept-resend error rate")
def test_intercept_error_rate_exact_and_sampled():
    """Reading the transit register in round r makes the next round wrong
    with probability exactly (d-1)/d; a 10^4-trial simulation agrees
    within 3 sigma."""
    start = time.perf_counter()
    for dim in (2, 3, 5, 4, 6):
        for attack_round in (1, 2):
            assert exact_next_round_error(dim, attack_round) == Fraction(dim - 1, dim)
    # key-independence spot check at round 2
    assert exact_next_round_error(3, 2, key=(0, 0, 0)) == Fraction(2, 3)
    assert exact_next_round_error(3, 2, key=(2, 1, 2)) == Fraction(2, 3)

    trials = 10_000
    config = ProtocolConfig(3, 2, (0, 0), rng_seed=0)
    report = monte_carlo(config, InterceptResend({1}), trials, seed=2026)
    p = Fraction(2, 3)
    sigma3 = 3 * (float(p) * (1 - float(p)) / trials) ** 0.5
    measured = report.round_error_rates[1]  # round 2 follows the round-1 read
    assert abs(float(measured) - float(p)) < sigma3, f"{measured} vs 2/3 +- {sigma3}"
    assert report.round_error_rates[0] == 0  # the read round itself decodes fine
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"intercept check took {elapsed:.2f}s (budget 30s)"


@pytest.mark.criterion(8, "uninformative interception")
def test_intercepted_value_distribution_is_uniform_and_key_blind():
    """The exact distribution of an intercepted transit value is uniform
    and identical for every key, so a lone reading carries zero
    information (total-variation distance 0, computed in rationals)."""
    for dim in (2, 3, 5):
        uniform = {v: Fraction(1, dim) for v in range(dim)}
        seen = []
        for first in range(dim):
            seen.append(exact_intercept_observation_distribution(dim, 1, (first,)))
            for second in range(dim):
                seen.append(
                    exact_intercept_observation_distribution(dim, 2, (first, second))
                )
        for dist in seen:
            assert dist == uniform
        for a, b in itertools.combinations(seen, 2):
            tv = sum(abs(a[v] - b[v]) for v in range(dim)) / 2
            assert tv == Fraction(0)


@pytest.mark.criterion(9, "engine invariants")
def test_simulation_engine_invariants():
    """Core engine identities, all exact: the Fourier sum collapses to a
    delta, the shared pair is invariant under the basis change, gates
    preserve the norm of 1000 random states, the transit register looks
    maximally mixed at every honest hand-off, and opposite shifts cancel."""
    # Fourier identity: (1/d) sum_k zeta^{k(j-l)} = delta_{jl}
    for dim in (2, 3, 5, 7):
        for j in range(dim):
            for l in range(dim):
                acc = CycloElem(dim, (0,) * dim)
                for k in range(dim):
                    acc = acc + zeta_pow(dim, k * (j - l))
                want = CycloElem(dim, (dim if j == l else 0,) + (0,) * (dim - 1))
                assert (acc - want).is_zero(), f"d={dim} j={j} l={l}"

    # basis change leaves the shared pair fixed
    for dim in (2, 3, 5, 7):
        pair = bell_state(dim)
        rotated = pair.apply_hadamard(ALICE_WIRE).apply_hadamard(
            BOB_WIRE, conjugate=True
        )
        assert state_equals(rotated, pair)

    # unitarity: gates never change the squared norm
    rng = philox(99)
    dims = (2, 3, 5, 7)
    for i in range(1000):
        dim = dims[int(rng.integers(0, len(dims)))]
        wires = ("u",) if i % 2 else ("u", "v")
        st = random_pure_state(rng, dim, wires)
        before = st.norm_squared()
        if len(wires) == 2 and i % 4 == 0:
            moved = st.apply_controlled_shift("u", "v", "right")
        else:
            wire = wires[int(rng.integers(0, len(wires)))]
            moved = st.apply_hadamard(wire, conjugate=bool(i % 3 == 0))
        assert moved.norm_squared() == before, f"iteration {i}"

    # the transit register is maximally mixed at every honest hand-off
    for dim in (2, 3, 5):
        key = random_key(dim, 4, seed=17, stream=dim)
        config = ProtocolConfig(dim, 4, key, rng_seed=3)
        session = run_session(config, None)
        for rnd in session.rounds:
            density = rnd.stage_state("in_transit").reduced_density(TRANSIT_WIRE)
            assert density == DensityMatrixSlice.maximally_mixed(dim)

    # shifting right then left is the identity
    rng = philox(123)
    for _ in range(20):
        dim = dims[int(rng.integers(0, len(dims)))]
        st = random_pure_state(rng, dim, ("u", "v"))
        out = st.apply_controlled_shift("u", "v", "right").apply_controlled_shift(
            "u", "v", "left"
        )
        assert state_equals(out, st)


@pytest.mark.criterion(10, "deterministic transcripts")
def test_identical_flags_and_seed_give_identical_transcripts(tmp_path, capsys):
    """Two command-line runs with the same flags and seed write
    byte-identical transcript files."""
    blobs = []
    for name in ("first.json", "second.json"):
        path = tmp_path / name
        code = cli.main(
            [
                "run", "--d", "3", "--rounds", "5", "--key", "1,0,2,1,2",
                "--attack", "gao", "--announce", "odd", "--seed", "7",
                "--trace", str(path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]

    # sampling strategies are seed-deterministic too
    blobs = []
    for name in ("third.json", "fourth.json"):
        path = tmp_path / name
        code = cli.main(
            [
                "run", "--d", "5", "--rounds", "6", "--key-seed", "9",
                "--attack", "intercept", "--seed", "41", "--trace", str(path),
            ]
        )
        capsys.readouterr()
        assert code in (0, 2)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
