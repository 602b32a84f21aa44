import itertools
import json
from fractions import Fraction

import pytest

from qkdlab.adversary import AdversaryStrategy, GaoAttack, InterceptResend
from qkdlab.protocol import (
    GENERIC_STAGE_LABELS,
    ProtocolConfig,
    ProtocolViolationError,
    announce_subsequence,
    dump_transcript,
    make_rng,
    parse_announce,
    run_round,
    run_session,
    transcript_to_json_dict,
)
from qkdlab.register import (
    DensityMatrixSlice,
    PureState,
    basis_state,
    bell_state,
    state_equals,
)


class TestConfig:
    def test_key_length_must_match_rounds(self):
        with pytest.raises(ValueError):
            ProtocolConfig(dim=3, num_rounds=2, key=(1,))

    def test_dits_must_be_in_range(self):
        with pytest.raises(ValueError):
            ProtocolConfig(dim=3, num_rounds=1, key=(3,))
        with pytest.raises(ValueError):
            ProtocolConfig(dim=3, num_rounds=1, key=(-1,))

    def test_composite_dim_accepted(self):
        assert ProtocolConfig(dim=4, num_rounds=1, key=(3,)).dim == 4

    def test_rounds_must_be_positive(self):
        with pytest.raises(ValueError):
            ProtocolConfig(dim=3, num_rounds=0, key=())


class TestRng:
    def test_seed_determinism(self):
        a = make_rng(5, stream=2).integers(0, 100, 8)
        b = make_rng(5, stream=2).integers(0, 100, 8)
        assert list(a) == list(b)

    def test_streams_decorrelated(self):
        a = make_rng(5, stream=1).integers(0, 100, 8)
        b = make_rng(5, stream=2).integers(0, 100, 8)
        assert list(a) != list(b)


class TestHonestRound:
    def test_single_round_recovers_dit_and_bell(self):
        rng = make_rng(0)
        state, transcript = run_round(bell_state(3), 1, 1, AdversaryStrategy(), rng)
        assert transcript.bob_outcome == 1
        assert state_equals(state, bell_state(3))

    def test_stage_labels(self):
        rng = make_rng(0)
        _, transcript = run_round(bell_state(3), 1, 2, AdversaryStrategy(), rng)
        assert list(transcript.stage_labels) == list(GENERIC_STAGE_LABELS)

    def test_transit_is_maximally_mixed(self):
        rng = make_rng(0)
        for dim in (2, 3, 5):
            state = bell_state(dim)
            for round_index, dit in enumerate((1, 0, dim - 1), start=1):
                _, transcript = run_round(state, round_index, dit, AdversaryStrategy(), rng)
                transit = transcript.stage_state("in_transit")
                rho = transit.reduced_density("k")
                assert rho == DensityMatrixSlice.maximally_mixed(dim)


class TestHonestSession:
    @pytest.mark.parametrize("dim", (2, 3, 4, 5, 6, 7))
    def test_exhaustive_short_keys(self, dim):
        rounds = 3 if dim <= 3 else 2
        for key in itertools.product(range(dim), repeat=rounds):
            config = ProtocolConfig(dim=dim, num_rounds=rounds, key=key, rng_seed=1)
            session = run_session(config)
            assert session.bob_outcomes == key
            assert state_equals(session.final_shared_state, bell_state(dim))

    @pytest.mark.parametrize("dim", (2, 3, 4, 5, 6, 7))
    def test_random_long_keys(self, dim):
        rng = make_rng(77, stream=dim)
        for _ in range(3):
            key = tuple(int(x) for x in rng.integers(0, dim, 12))
            config = ProtocolConfig(dim=dim, num_rounds=12, key=key, rng_seed=2)
            session = run_session(config)
            assert session.bob_outcomes == key
            assert state_equals(session.final_shared_state, bell_state(dim))

    def test_no_eve_data(self):
        config = ProtocolConfig(dim=3, num_rounds=4, key=(0, 1, 2, 0), rng_seed=0)
        session = run_session(config)
        assert session.adversary_kind == "none"
        assert session.eve_observations == ()
        assert all(r.eve_observation is None for r in session.rounds)


class TestGaoSession:
    def test_paper_key_observations(self):
        config = ProtocolConfig(dim=3, num_rounds=5, key=(1, 0, 2, 1, 2), rng_seed=0)
        session = run_session(config, GaoAttack())
        assert session.bob_outcomes == (1, 0, 2, 1, 2)
        values = [obs.value for obs in session.eve_observations]
        assert values == [0, 1]  # (q3 + q1) mod 3, (q5 - q1) mod 3

    def test_round3_observation(self):
        config = ProtocolConfig(dim=3, num_rounds=3, key=(1, 0, 2), rng_seed=0)
        session = run_session(config, GaoAttack())
        assert session.rounds[2].eve_observation == 0
        assert session.rounds[2].bob_outcome == 2

    def test_round1_stage_labels(self):
        config = ProtocolConfig(dim=3, num_rounds=1, key=(1,), rng_seed=0)
        session = run_session(config, GaoAttack())
        assert list(session.rounds[0].stage_labels) == [
            "psi_1_0", "Phi_0", "Phi_1", "Phi_2", "Phi_3", "psi_1_1",
        ]

    def test_five_round_stage_label_schedule(self):
        config = ProtocolConfig(dim=3, num_rounds=5, key=(1, 0, 2, 1, 2), rng_seed=0)
        session = run_session(config, GaoAttack())
        prefixes = ["Phi", "Psi", "Omega", "Theta", "Upsilon"]
        counts = [4, 4, 5, 4, 5]  # odd rounds >= 3 include the re-entangling step
        for i, (prefix, count) in enumerate(zip(prefixes, counts), start=1):
            labels = list(session.rounds[i - 1].stage_labels)
            expected = (
                [f"psi_{i}_0"]
                + [f"{prefix}_{j}" for j in range(count)]
                + [f"psi_{i}_1"]
            )
            assert labels == expected
        total = sum(len(r.stages) for r in session.rounds)
        assert total == 32

    def test_ancilla_tracked_through_session(self):
        config = ProtocolConfig(dim=3, num_rounds=2, key=(1, 2), rng_seed=0)
        session = run_session(config, GaoAttack())
        assert set(session.final_shared_state.wires) == {"a", "b", "e"}


class TestInterceptSession:
    def test_first_round_outcome_undisturbed(self):
        # measuring the transit qudit commutes with Bob's decode in round 1
        for seed in range(6):
            config = ProtocolConfig(dim=2, num_rounds=2, key=(1, 1), rng_seed=seed)
            session = run_session(config, InterceptResend({1}))
            assert session.rounds[0].bob_outcome == 1

    def test_second_round_half_error(self):
        hits = 0
        trials = 200
        for seed in range(trials):
            config = ProtocolConfig(dim=2, num_rounds=2, key=(1, 1), rng_seed=seed)
            session = run_session(config, InterceptResend({1}))
            hits += session.rounds[1].bob_outcome == 1
        # exact correctness probability is 1/2; 3 sigma for 200 trials ~ 0.106
        assert abs(hits / trials - 0.5) < 0.11

    def test_observation_recorded(self):
        config = ProtocolConfig(dim=3, num_rounds=3, key=(0, 1, 2), rng_seed=4)
        session = run_session(config, InterceptResend())
        assert session.attack_rounds is None  # None records "every round"
        assert all(r.eve_observation is not None for r in session.rounds)

    def test_attack_round_subset(self):
        config = ProtocolConfig(dim=3, num_rounds=3, key=(0, 1, 2), rng_seed=4)
        session = run_session(config, InterceptResend({2}))
        assert session.attack_rounds == (2,)
        assert session.rounds[0].eve_observation is None
        assert session.rounds[1].eve_observation is not None
        assert session.rounds[2].eve_observation is None


class TestAdversaryContract:
    def test_transit_wire_must_survive(self):
        class WireEater(AdversaryStrategy):
            def on_transit(self, state, round_index, rng):
                stripped = basis_state(
                    state.dim, [(w, 0) for w in state.wires if w != "k"]
                )
                return stripped, None, [("in_transit", stripped)]

        config = ProtocolConfig(dim=3, num_rounds=1, key=(1,), rng_seed=0)
        with pytest.raises(ProtocolViolationError):
            run_session(config, WireEater())


class TestAnnounce:
    def test_appends_alice_dits(self):
        config = ProtocolConfig(dim=3, num_rounds=4, key=(0, 1, 2, 0), rng_seed=0)
        session = run_session(config)
        pairs = announce_subsequence(session, [2, 4])
        assert pairs == [(2, 1), (4, 0)]
        assert session.announced == [(2, 1), (4, 0)]

    def test_out_of_range_rejected(self):
        config = ProtocolConfig(dim=3, num_rounds=2, key=(0, 1), rng_seed=0)
        session = run_session(config)
        with pytest.raises(ValueError):
            announce_subsequence(session, [3])
        with pytest.raises(ValueError):
            announce_subsequence(session, [0])

    def test_parse_policies(self):
        assert parse_announce("none", 5) == []
        assert parse_announce("odd", 5) == [1, 3, 5]
        assert parse_announce("even", 5) == [2, 4]
        assert parse_announce("13", 13) == [13]
        assert parse_announce("3,5", 5) == [3, 5]

    @pytest.mark.parametrize("spec", ["0", "6", "3,6", "x", "3,,5", "", "odd,3"])
    def test_parse_rejects_malformed_or_out_of_range(self, spec):
        with pytest.raises(ValueError):
            parse_announce(spec, 5)

    def test_honest_and_gao_never_mismatch(self):
        for adversary in (None, GaoAttack()):
            config = ProtocolConfig(dim=3, num_rounds=5, key=(1, 0, 2, 1, 2), rng_seed=0)
            session = run_session(config, adversary)
            announce_subsequence(session, [1, 2, 3, 4, 5])
            mismatches = [
                (i, dit) for i, dit in session.announced
                if session.rounds[i - 1].bob_outcome != dit
            ]
            assert mismatches == []


class TestTranscriptJson:
    def test_schema_shape(self):
        config = ProtocolConfig(dim=3, num_rounds=2, key=(1, 2), rng_seed=9)
        session = run_session(config, GaoAttack())
        announce_subsequence(session, [2])
        doc = transcript_to_json_dict(session)
        assert doc["schema_version"] == "v1"
        assert doc["config"] == {
            "dim": 3,
            "num_rounds": 2,
            "key": [1, 2],
            "rng_seed": 9,
        }
        assert doc["adversary"] == {"kind": "gao", "attack_rounds": None}
        assert [r["index"] for r in doc["rounds"]] == [1, 2]
        assert all({"label", "state"} <= set(s) for r in doc["rounds"] for s in r["stages"])
        assert doc["announced"] == [[2, 2]]
        assert doc["eve"]["observations"] == []

    def test_stage_states_reload(self):
        config = ProtocolConfig(dim=3, num_rounds=1, key=(1,), rng_seed=9)
        session = run_session(config, GaoAttack())
        doc = transcript_to_json_dict(session)
        reloaded = PureState.from_json_dict(doc["rounds"][0]["stages"][-1]["state"])
        assert state_equals(reloaded, session.rounds[0].stages[-1][1])

    def test_byte_identical_dumps(self, tmp_path):
        paths = []
        for name in ("one.json", "two.json"):
            config = ProtocolConfig(dim=3, num_rounds=4, key=(0, 2, 1, 1), rng_seed=123)
            session = run_session(config, InterceptResend())
            announce_subsequence(session, [2, 4])
            path = tmp_path / name
            dump_transcript(session, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_dump_is_valid_json(self, tmp_path):
        config = ProtocolConfig(dim=2, num_rounds=1, key=(0,), rng_seed=0)
        session = run_session(config)
        path = tmp_path / "t.json"
        dump_transcript(session, path)
        doc = json.loads(path.read_text())
        assert doc["rounds"][0]["bob_outcome"] == 0


class TestEveKnowledgeBridge:
    def test_session_knowledge_matches_observations(self):
        config = ProtocolConfig(dim=3, num_rounds=9, key=(1, 0, 2, 1, 2, 0, 0, 1, 2), rng_seed=0)
        session = run_session(config, GaoAttack())
        knowledge = session.eve_knowledge()
        assert knowledge.dim == 3
        assert [o.round_index for o in knowledge.observations] == [3, 5, 7, 9]
        assert knowledge.q1_candidates == frozenset({0, 1, 2})
