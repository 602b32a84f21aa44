from fractions import Fraction

import pytest

from helpers import sampler
from qkdlab.adversary import (
    EveKnowledge,
    EveObservation,
    GaoAttack,
    InconsistencyError,
    InterceptResend,
    ScheduleViolationError,
    infer_keys,
    observation_sign,
)
from qkdlab.analysis import compute_metrics
from qkdlab.closed_forms import eavesdrop_stage_states
from qkdlab.protocol import (
    ProtocolConfig,
    announce_subsequence,
    make_rng,
    run_round,
    run_session,
    transcript_to_json_dict,
)
from qkdlab.register import PureState, basis_state, bell_state, state_equals


class TestObservationSign:
    def test_paper_sequence(self):
        assert [observation_sign(m) for m in (3, 5, 7, 9)] == [1, -1, 1, -1]

    def test_extends_periodically(self):
        assert observation_sign(11) == 1
        assert observation_sign(13) == -1

    @pytest.mark.parametrize("m", (1, 2, 4, 6))
    def test_rejects_non_observation_rounds(self, m):
        with pytest.raises(ValueError):
            observation_sign(m)


class TestGaoHooks:
    STAGES = eavesdrop_stage_states(3, (1, 0, 2, 1, 2))

    def test_basis_change_adjoins_ancilla_in_round_one(self):
        state = GaoAttack().on_basis_change(bell_state(3), 1)
        assert state.wires == ("a", "b", "e")
        assert state_equals(state, bell_state(3).tensor(basis_state(3, [("e", 0)])))

    def test_basis_change_reproduces_round_two_start(self):
        rotated = self.STAGES["psi_1_1"].apply_hadamard("a").apply_hadamard("b", conjugate=True)
        rotated = GaoAttack().on_basis_change(rotated, 2)
        assert state_equals(rotated, self.STAGES["psi_2_0"])

    def test_round_one_runs_from_bare_pair(self):
        state, transcript = run_round(bell_state(3), 1, 2, GaoAttack(), make_rng(0))
        assert state.wires == ("a", "b", "e")
        assert transcript.bob_outcome == 2
        assert state_equals(transcript.stage_state("psi_1_0"), self.STAGES["psi_1_0"])

    def test_transit_round_one_entangles_ancilla(self):
        ((states, value, p),) = GaoAttack().on_transit(self.STAGES["Phi_1"], 1, None)
        assert p == 1
        assert value is None
        assert len(states) == 1
        assert state_equals(states[0], self.STAGES["Phi_2"])

    def test_transit_even_round_invisible(self):
        ((states, value, p),) = GaoAttack().on_transit(self.STAGES["Psi_1"], 2, None)
        assert p == 1
        assert value is None
        assert len(states) == 1
        assert state_equals(states[0], self.STAGES["Psi_2"])

    def test_transit_odd_round_reads_key(self):
        ((states, value, p),) = GaoAttack().on_transit(self.STAGES["Omega_1"], 3, None)
        assert p == 1
        assert value == 0  # (q3 + q1) mod 3 = (2 + 1) mod 3
        assert len(states) == 2
        assert state_equals(states[0], self.STAGES["Omega_2"])
        assert state_equals(states[1], self.STAGES["Omega_3"])

    def test_broken_schedule_detected(self):
        # at an odd round the disentangling shift must leave the transit
        # wire deterministic; a fresh uncorrelated ancilla breaks that
        state = bell_state(3).tensor(basis_state(3, [("k", 1)]))
        state = state.apply_controlled_shift("a", "k", "right")
        state = state.tensor(basis_state(3, [("e", 0)]))
        with pytest.raises(ScheduleViolationError):
            GaoAttack().on_transit(state, 3, None)

    def test_stage_prefix_cycle(self):
        prefixes = [GaoAttack().stage_prefix(i) for i in range(1, 10)]
        assert prefixes == [
            "Phi", "Psi", "Omega", "Theta", "Upsilon",
            "Psi", "Omega", "Theta", "Upsilon",
        ]


class TestGaoStrategyState:
    def test_observations_only_at_odd_rounds(self):
        config = ProtocolConfig(dim=5, num_rounds=9, key=(4, 1, 3, 0, 2, 2, 0, 1, 3), rng_seed=0)
        session = run_session(config, GaoAttack())
        rounds = [obs.round_index for obs in session.eve_observations]
        assert rounds == [3, 5, 7, 9]
        assert all(m % 2 == 1 and m >= 3 for m in rounds)

    def test_observation_values_follow_sign_law(self):
        key = (2, 0, 1, 2, 2, 1, 0, 2, 1)
        config = ProtocolConfig(dim=3, num_rounds=9, key=key, rng_seed=0)
        session = run_session(config, GaoAttack())
        for obs in session.eve_observations:
            expected = (key[obs.round_index - 1] + obs.sign * key[0]) % 3
            assert obs.value == expected

    @pytest.mark.parametrize(
        "make", [GaoAttack, lambda: InterceptResend({2})], ids=["gao", "intercept"]
    )
    def test_one_instance_serves_many_sessions(self, make):
        key = (1, 0, 2, 1, 2)
        config = ProtocolConfig(dim=3, num_rounds=5, key=key, rng_seed=7)
        fresh = run_session(config, make())
        attack = make()
        sessions = [run_session(config, attack) for _ in range(2)]
        want = [r.eve_observation for r in fresh.rounds]
        for session in sessions:
            assert [r.eve_observation for r in session.rounds] == want
            assert session.eve_observations == fresh.eve_observations
            assert session.attack_rounds == fresh.attack_rounds
            announce_subsequence(session, [3])
            compute_metrics(session, key)
            transcript_to_json_dict(session)


class TestEveObservation:
    def test_sign_follows_round(self):
        assert EveObservation(3, 1).sign == 1
        assert EveObservation(5, 1).sign == -1
        with pytest.raises(ValueError):
            EveObservation(4, 1)


class TestEveKnowledge:
    def test_duplicate_rounds_rejected(self):
        with pytest.raises(ValueError):
            EveKnowledge(3, (EveObservation(3, 0), EveObservation(3, 1)))

    def test_default_candidates(self):
        knowledge = EveKnowledge(3, (EveObservation(3, 0),))
        assert knowledge.q1_candidates == frozenset({0, 1, 2})

    def test_hypothesis_maps_all_observations(self):
        knowledge = EveKnowledge(
            3, (EveObservation(3, 0), EveObservation(5, 1))
        )
        assert knowledge.hypothesis(1) == {3: 2, 5: 2}

    def test_values_must_fit_dimension(self):
        with pytest.raises(ValueError):
            EveKnowledge(2, (EveObservation(3, 2),))


class TestInferKeys:
    def knowledge(self):
        return EveKnowledge(3, (EveObservation(3, 0), EveObservation(5, 1)))

    def test_single_odd_announcement_resolves(self):
        resolved, known = infer_keys(self.knowledge(), [(3, 2)])
        assert resolved == 1
        assert known == {1: 1, 3: 2, 5: 2}

    def test_no_announcement_keeps_ambiguity(self):
        resolved, known = infer_keys(self.knowledge(), [])
        assert resolved is None
        assert known == {}

    def test_even_announcements_carry_nothing(self):
        resolved, known = infer_keys(self.knowledge(), [(2, 0), (4, 2)])
        assert resolved is None
        assert known == {}

    def test_unobserved_odd_round_announcement_is_inert(self):
        resolved, known = infer_keys(self.knowledge(), [(7, 1)])
        assert resolved is None
        assert known == {}

    def test_contradictory_announcements_rejected(self):
        with pytest.raises(InconsistencyError):
            infer_keys(self.knowledge(), [(3, 2), (5, 0)])

    def test_round_one_announcement_also_resolves(self):
        resolved, known = infer_keys(self.knowledge(), [(1, 1)])
        assert resolved == 1
        assert known[3] == 2

    def test_session_end_to_end(self):
        key = (1, 0, 2, 1, 2, 0, 0, 1, 2)
        config = ProtocolConfig(dim=3, num_rounds=9, key=key, rng_seed=0)
        session = run_session(config, GaoAttack())
        knowledge = session.eve_knowledge()
        for announce_round in (3, 5, 7, 9):
            resolved, known = infer_keys(
                knowledge, [(announce_round, key[announce_round - 1])]
            )
            assert resolved == key[0]
            assert all(known[m] == key[m - 1] for m in known)
            assert set(known) == {1, 3, 5, 7, 9}

    def test_truth_always_among_candidates(self):
        key = (2, 1, 0, 2, 1)
        config = ProtocolConfig(dim=3, num_rounds=5, key=key, rng_seed=0)
        session = run_session(config, GaoAttack())
        knowledge = session.eve_knowledge()
        resolved, known = infer_keys(knowledge, [])
        assert resolved is None and known == {}
        matching = [
            h for h in knowledge.q1_candidates
            if all(knowledge.hypothesis(h)[m] == key[m - 1] for m in (3, 5))
        ]
        assert key[0] in matching


class TestInterceptResendHook:
    def test_uniform_observation_any_key(self):
        # exact check at the state level: the transit distribution is
        # uniform regardless of the encoded dit
        for q in range(3):
            st = bell_state(3).tensor(basis_state(3, [("k", q)]))
            st = st.apply_controlled_shift("a", "k", "right")
            dist = st.measurement_distribution("k")
            assert dist == {v: Fraction(1, 3) for v in range(3)}

    def test_resent_state_is_collapsed(self):
        rng = make_rng(3)
        attack = InterceptResend()
        st = bell_state(3).tensor(basis_state(3, [("k", 1)]))
        st = st.apply_controlled_shift("a", "k", "right")
        ((states, value, p),) = attack.on_transit(st, 1, sampler(rng))
        assert p == Fraction(1, 3)
        assert len(states) == 1
        assert states[0].deterministic_outcome("k") == value

    def test_every_branch_forwarded(self):
        st = bell_state(3).tensor(basis_state(3, [("k", 1)]))
        st = st.apply_controlled_shift("a", "k", "right")
        branches = InterceptResend().on_transit(st, 1, PureState.branches)
        assert [value for _, value, _ in branches] == [0, 1, 2]
        assert all(states[0].deterministic_outcome("k") == value for states, value, _ in branches)
        assert sum(p for _, _, p in branches) == 1

    def test_skipped_round_passthrough(self):
        rng = make_rng(3)
        attack = InterceptResend({2})
        st = bell_state(3).tensor(basis_state(3, [("k", 1)]))
        ((states, value, p),) = attack.on_transit(st, 1, sampler(rng))
        assert value is None and p == 1
        assert len(states) == 1 and states[0] is st
