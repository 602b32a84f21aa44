import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from helpers import GENERIC_STAGE_LABELS
from qkdlab import protocol
from qkdlab.adversary import AdversaryStrategy, GaoAttack, InterceptResend
from qkdlab.protocol import (
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
from qkdlab.ring import CycloElem


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

    @pytest.mark.parametrize(
        "dim, num_rounds, key, name",
        [(3, 1, (1.5,), "key"), (3, 1, (True,), "key"), (3, 2.0, (0, 0), "num_rounds"),
         (3, True, (0,), "num_rounds"), (3.0, 1, (0,), "dim")],
        ids=["float-dit", "bool-dit", "float-rounds", "bool-rounds", "float-dim"],
    )
    def test_fields_must_be_integers(self, dim, num_rounds, key, name):
        # a float dit would be "decoded" as a basis value 1.5, a bool dit serialized as true
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            ProtocolConfig(dim=dim, num_rounds=num_rounds, key=key)

    def test_numpy_integers_become_int(self):
        config = ProtocolConfig(np.int64(3), np.int64(2), np.array([2, 0]))
        assert (config.dim, config.num_rounds, config.key) == (3, 2, (2, 0))
        assert all(type(v) is int for v in (config.dim, config.num_rounds, *config.key))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_must_be_a_64_bit_word(self, seed):
        with pytest.raises(ValueError, match=rf"^rng_seed must lie in \[0, 2\*\*64\), got {seed}$"):
            ProtocolConfig(dim=3, num_rounds=1, key=(0,), rng_seed=seed)


class TestRng:
    def test_seed_determinism(self):
        a = make_rng(5, stream=2).integers(0, 100, 8)
        b = make_rng(5, stream=2).integers(0, 100, 8)
        assert list(a) == list(b)

    def test_streams_decorrelated(self):
        a = make_rng(5, stream=1).integers(0, 100, 8)
        b = make_rng(5, stream=2).integers(0, 100, 8)
        assert list(a) != list(b)

    @pytest.mark.parametrize(
        "seed, stream, name, value",
        [(-1, 0, "seed", -1), (2**64, 0, "seed", 2**64),
         (0, -1, "stream", -1), (0, 2**64, "stream", 2**64)],
        ids=["seed-negative", "seed-2**64", "stream-negative", "stream-2**64"],
    )
    def test_values_outside_64_bits_are_refused(self, seed, stream, name, value):
        # masking them would alias -1 with 2**64 - 1 and 2**64 with 0
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 2\*\*64\), got {value}$"):
            make_rng(seed, stream)

    def test_float_seed_is_refused_not_truncated(self):
        with pytest.raises(TypeError):
            make_rng(1.5)

    def test_largest_seed_and_stream_accepted(self):
        top = 2**64 - 1
        assert list(make_rng(top, top).integers(0, 100, 8)) != list(make_rng(0).integers(0, 100, 8))


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


class TestExactZeroError:
    """Bob's decode stage holds the key dit with probability exactly 1, not by sampling."""

    @staticmethod
    def decode_stage(round_transcript, attacked):
        if not attacked:
            return round_transcript.stage_state("post_decode")
        labels = round_transcript.stage_labels
        return round_transcript.stages[labels.index(f"psi_{round_transcript.round_index}_1") - 1][1]

    @pytest.mark.parametrize("dim", range(2, 9))
    @pytest.mark.parametrize("attacked", [False, True], ids=["honest", "gao"])
    def test_decode_is_point_mass_on_key_dit(self, dim, attacked):
        key = tuple(int(x) for x in make_rng(dim, stream=1).integers(0, dim, 9))
        config = ProtocolConfig(dim=dim, num_rounds=9, key=key, rng_seed=dim)
        session = run_session(config, GaoAttack() if attacked else None)
        for round_transcript, dit in zip(session.rounds, key):
            stage = self.decode_stage(round_transcript, attacked)
            assert stage.measurement_distribution("k") == {dit: Fraction(1)}


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

    @pytest.mark.parametrize("dim", (4, 6, 8, 9))
    @pytest.mark.parametrize("rounds", [None, {1, 3}], ids=["every-round", "rounds-1-3"])
    def test_composite_dim_stages_stay_normalized(self, dim, rounds):
        # each collapse must find a branch weight that is a power of d
        for seed in range(3):
            key = tuple(int(x) for x in make_rng(seed, stream=dim).integers(0, dim, 9))
            config = ProtocolConfig(dim=dim, num_rounds=9, key=key, rng_seed=seed)
            session = run_session(config, InterceptResend(rounds))
            for round_transcript in session.rounds:
                for label, state in round_transcript.stages:
                    assert state.norm_squared() == 1, (seed, round_transcript.round_index, label)

    @pytest.mark.parametrize("rounds", [{99}, {0, -2}, {1, 4}])
    def test_attack_rounds_outside_session_rejected(self, rounds):
        config = ProtocolConfig(dim=3, num_rounds=3, key=(0, 1, 2), rng_seed=4)
        with pytest.raises(ValueError, match="outside the session"):
            run_session(config, InterceptResend(rounds))


class TestAdversaryContract:
    def test_strategy_wires_keep_their_order(self):
        # the transit qudit goes right after Bob's half; wires a hook adjoins
        # after it stay in the order the hook gave them
        class TwoAncillas(AdversaryStrategy):
            def on_basis_change(self, state, round_index):
                if round_index == 1:
                    state = state.tensor(basis_state(state.dim, [("x", 0)]))
                    state = state.tensor(basis_state(state.dim, [("e", 0)]))
                return state

        config = ProtocolConfig(dim=3, num_rounds=2, key=(1, 2), rng_seed=0)
        session = run_session(config, TwoAncillas())
        for r in session.rounds:
            assert r.stage_state("pre_encode").wires == ("a", "b", "k", "x", "e")
        assert session.final_shared_state.wires == ("a", "b", "x", "e")
        assert session.bob_outcomes == (1, 2)

    def test_transit_wire_must_survive(self):
        class WireEater(AdversaryStrategy):
            def on_transit(self, state, round_index, measure):
                stripped = basis_state(
                    state.dim, [(w, 0) for w in state.wires if w != "k"]
                )
                return [([stripped], None, 1)]

        config = ProtocolConfig(dim=3, num_rounds=1, key=(1,), rng_seed=0)
        with pytest.raises(ProtocolViolationError):
            run_session(config, WireEater())


class TestRngDraws:
    def test_one_draw_per_measurement_eve_first(self, monkeypatch):
        events = []

        class CountingRng:
            def __init__(self, rng):
                self.rng = rng

            def random(self):
                events.append("draw")
                return self.rng.random()

        class LoggedIntercept(InterceptResend):
            def on_transit(self, state, round_index, measure):
                events.append(f"eve-{round_index}")
                branches = super().on_transit(state, round_index, measure)
                events.append(f"sent-{round_index}")
                return branches

        config = ProtocolConfig(dim=3, num_rounds=4, key=(2, 0, 1, 1), rng_seed=9)
        expected = transcript_to_json_dict(run_session(config, InterceptResend({1, 3})))
        make_rng = protocol.make_rng
        monkeypatch.setattr(protocol, "make_rng", lambda seed: CountingRng(make_rng(seed)))
        session = run_session(config, LoggedIntercept({1, 3}))
        assert events == [
            "eve-1", "draw", "sent-1", "draw",
            "eve-2", "sent-2", "draw",
            "eve-3", "draw", "sent-3", "draw",
            "eve-4", "sent-4", "draw",
        ]
        assert transcript_to_json_dict(session) == expected


class TestRingArithmetic:
    @pytest.mark.parametrize("dim", [3, 5])
    @pytest.mark.parametrize(
        "num_rounds, adversary",
        [(4, InterceptResend({1, 3})), (5, GaoAttack())],
        ids=["intercept", "gao"],
    )
    def test_a_round_multiplies_no_ring_elements(self, monkeypatch, dim, num_rounds, adversary):
        # adjoining the transit qudit and the ancilla rebuilds basis tuples only
        calls = []
        original = CycloElem.__mul__

        def counted(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(CycloElem, "__mul__", counted)
        monkeypatch.setattr(CycloElem, "__rmul__", counted)
        key = tuple(q % dim for q in range(num_rounds))
        run_session(ProtocolConfig(dim, num_rounds, key, rng_seed=dim), adversary)
        assert calls == []


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

    def test_repeated_index_rejected(self):
        config = ProtocolConfig(dim=3, num_rounds=4, key=(0, 1, 2, 0), rng_seed=0)
        session = run_session(config)
        announce_subsequence(session, [3])
        with pytest.raises(ValueError, match="already announced"):
            announce_subsequence(session, [3])
        with pytest.raises(ValueError, match="already announced"):
            announce_subsequence(session, [1, 2, 2])
        assert session.announced == [(3, 2)]

    def test_parse_policies(self):
        assert parse_announce("none", 5) == []
        assert parse_announce("odd", 5) == [1, 3, 5]
        assert parse_announce("even", 5) == [2, 4]
        assert parse_announce("13", 13) == [13]
        assert parse_announce("3,5", 5) == [3, 5]
        assert parse_announce(" 3 , +5", 5) == [3, 5]

    @pytest.mark.parametrize(
        "spec", ["1_3", "1,1_0", "\u0661"], ids=["separator", "separator-in-list", "non-ascii-digit"]
    )
    def test_parse_reads_ascii_digits_only(self, spec):
        # int() would read "1_3" as 13 and "\u0661" as 1
        with pytest.raises(ValueError, match="comma list"):
            parse_announce(spec, 20)

    @pytest.mark.parametrize("spec", ["0", "6", "3,6", "x", "3,,5", "", "odd,3", "3,3", "2,4,2"])
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
    @pytest.mark.parametrize("adversary", [None, InterceptResend()], ids=["honest", "intercept"])
    def test_no_knowledge_for_kinds_whose_reads_say_nothing(self, adversary):
        session = run_session(ProtocolConfig(dim=3, num_rounds=5, key=(1, 0, 2, 1, 2)), adversary)
        announce_subsequence(session, [1, 3])
        assert session.eve_knowledge() is None
        assert session.eve_observations == ()
        assert session.eve_inference() == (None, {})

    def test_session_knowledge_matches_observations(self):
        config = ProtocolConfig(dim=3, num_rounds=9, key=(1, 0, 2, 1, 2, 0, 0, 1, 2), rng_seed=0)
        session = run_session(config, GaoAttack())
        knowledge = session.eve_knowledge()
        assert knowledge.dim == 3
        assert [o.round_index for o in knowledge.observations] == [3, 5, 7, 9]
        assert knowledge.q1_candidates == frozenset({0, 1, 2})
