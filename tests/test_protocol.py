import itertools
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from helpers import GENERIC_STAGE_LABELS, dense_bell, dense_of, dense_round, philox
from qkdlab import protocol
from qkdlab.adversary import AdversaryStrategy, GaoAttack, InterceptResend
from qkdlab.analysis import exact_outcomes
from qkdlab.protocol import (
    ProtocolConfig,
    ProtocolViolationError,
    announce_subsequence,
    check_rounds,
    dump_transcript,
    make_rng,
    parse_announce,
    _round,
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
    @staticmethod
    def draws(rng) -> list[int]:
        return [rng.randrange(100) for _ in range(8)]

    def test_seed_determinism(self):
        assert self.draws(make_rng(5, stream=2)) == self.draws(make_rng(5, stream=2))

    def test_streams_decorrelated(self):
        assert self.draws(make_rng(5, stream=1)) != self.draws(make_rng(5, stream=2))

    @pytest.mark.parametrize(
        "a, b", [((1, 23), (12, 3)), ((0, 2**64 - 1), (1, 0))], ids=["digits", "word-boundary"]
    )
    def test_seed_and_stream_do_not_alias(self, a, b):
        # seed and stream are packed into one integer, 64 bits each
        assert make_rng(*a).random() != make_rng(*b).random()

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

    @pytest.mark.parametrize(
        "make, name",
        [(lambda: ProtocolConfig(3, 1, (0,), rng_seed=True), "rng_seed"),
         (lambda: make_rng(1, stream=False), "stream"),
         (lambda: make_rng(True), "seed")],
        ids=["config-rng-seed", "make-rng-stream", "make-rng-seed"],
    )
    def test_bool_seed_is_refused(self, make, name):
        # operator.index reads True as 1, and the transcript would write "rng_seed": true
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got (True|False)$"):
            make()

    def test_float_seed_is_refused_not_truncated(self):
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
            make_rng(1.5)
        with pytest.raises(ValueError, match=r"^rng_seed must be an integer, got 1\.5$"):
            ProtocolConfig(3, 1, (0,), rng_seed=1.5)

    def test_largest_seed_and_stream_accepted(self):
        top = 2**64 - 1
        assert self.draws(make_rng(top, top)) != self.draws(make_rng(0))


class TestHonestRound:
    def test_single_round_recovers_dit_and_bell(self):
        rng = philox(0)
        state, transcript = run_round(bell_state(3), 1, 1, AdversaryStrategy(), rng)
        assert transcript.bob_outcome == 1
        assert state_equals(state, bell_state(3))

    def test_stage_labels(self):
        rng = philox(0)
        _, transcript = run_round(bell_state(3), 1, 2, AdversaryStrategy(), rng)
        assert list(transcript.stage_labels) == list(GENERIC_STAGE_LABELS)

    def test_transit_is_maximally_mixed(self):
        rng = philox(0)
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
        rng = philox(77, stream=dim)
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
        key = tuple(int(x) for x in philox(dim, stream=1).integers(0, dim, 9))
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
            key = tuple(int(x) for x in philox(seed, stream=dim).integers(0, dim, 9))
            config = ProtocolConfig(dim=dim, num_rounds=9, key=key, rng_seed=seed)
            session = run_session(config, InterceptResend(rounds))
            for round_transcript in session.rounds:
                for label, state in round_transcript.stages:
                    assert state.norm_squared() == 1, (seed, round_transcript.round_index, label)

    @pytest.mark.parametrize("rounds", [{99}, {0, -2}, {1, 4}])
    def test_attack_rounds_outside_session_rejected(self, rounds):
        config = ProtocolConfig(dim=3, num_rounds=3, key=(0, 1, 2), rng_seed=4)
        # the rounds are checked in sorted order
        first = min(r for r in rounds if not 1 <= r <= 3)
        with pytest.raises(ValueError, match=rf"^attack round index {first} outside rounds 1\.\.3$"):
            run_session(config, InterceptResend(rounds))


    @pytest.mark.parametrize("rounds", [[1.5], [True]], ids=["float", "bool"])
    def test_non_integer_attack_rounds_rejected(self, rounds):
        # 1.5 intercepted nothing and True intercepted round 1, and both were recorded as given
        with pytest.raises(ValueError, match=f"^attack round must be an integer, got {rounds[0]}$"):
            InterceptResend(rounds)

    def test_numpy_attack_rounds_are_recorded_as_int(self):
        strategy = InterceptResend([np.int64(2), np.int64(2)])
        assert strategy.attack_rounds == (2,) and type(strategy.attack_rounds[0]) is int
        session = run_session(ProtocolConfig(dim=3, num_rounds=3, key=(0, 1, 2), rng_seed=4), strategy)
        text = json.dumps(transcript_to_json_dict(session))
        assert json.loads(text)["adversary"]["attack_rounds"] == [2]


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
        with pytest.raises(ValueError, match="^announce index 2 repeated$"):
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

    @pytest.mark.parametrize(
        "indices, message",
        [
            ([True], "announce index must be an integer, got True"),
            ([2.0], "announce index must be an integer, got 2.0"),
            ([1, 4], "announce index 4 outside rounds 1..3"),
            ([2, 1, 2], "announce index 2 repeated"),
        ],
        ids=["bool", "float", "outside", "repeated"],
    )
    def test_indices_follow_check_rounds(self, indices, message):
        session = run_session(ProtocolConfig(dim=3, num_rounds=3, key=(0, 1, 2), rng_seed=0))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            announce_subsequence(session, indices)
        assert session.announced == []

    def test_numpy_index_is_announced_as_int(self):
        session = run_session(ProtocolConfig(dim=3, num_rounds=3, key=(0, 1, 2), rng_seed=0))
        assert announce_subsequence(session, [np.int64(2)]) == [(2, 1)]
        assert type(session.announced[0][0]) is int
        assert json.loads(json.dumps(transcript_to_json_dict(session)))["announced"] == [[2, 1]]

    def test_check_rounds(self):
        assert check_rounds([3, np.int64(1)], 3, "x") == (3, 1)
        assert [type(i) for i in check_rounds([np.int64(1)], 3, "x")] == [int]
        assert check_rounds((), 3, "x") == ()
        for indices, message in (
            ([1.5], "x index must be an integer, got 1.5"),
            ([0], "x index 0 outside rounds 1..3"),
            ([1, 1], "x index 1 repeated"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                check_rounds(indices, 3, "x")

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


#: (strategy, dense schedule kind, intercepted rounds) per oracle case
ORACLE_CASES = {
    "honest": (lambda: None, "honest", None),
    "gao": (GaoAttack, "gao", None),
    "intercept": (InterceptResend, "intercept", None),
    "intercept-round-1": (lambda: InterceptResend({1}), "intercept", {1}),
}


def _assert_dense_close(state, dense, tol=1e-9):
    wires, vec = dense_of(state)
    assert wires == dense[0]
    assert np.max(np.abs(vec - dense[1])) <= tol


class TestDenseSessionOracle:
    """Whole sessions against tests/helpers.py's dense re-implementation of a round.

    Every branch of every round is walked on both sides: each stage that
    _round yields and the next shared state match the dense vectors, and
    after each round every history's probability from exact_outcomes
    matches the dense walk's.  The sparse walk runs three times, so the
    later walks read states the op memo stored.  Interception in every
    round makes d**2 branches a round from round 2 on, so that case stops
    once a walk would pass 512 branches.
    """

    @pytest.mark.parametrize("dim", range(2, 6))
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_session_matches_dense_oracle(self, dim, case):
        make_strategy, kind, attacked = ORACLE_CASES[case]
        strategy = make_strategy() or AdversaryStrategy()
        rounds = 5
        if case == "intercept":
            rounds = max(r for r in range(1, 6) if dim ** (2 * r - 1) <= 512)
        key = tuple(int(x) for x in philox(dim, stream=29).integers(0, dim, rounds))
        dense_rounds = {}  # (history, round index) -> dense branches by (value, outcome)
        for _ in range(3):
            walk = [((), bell_state(dim), dense_bell(dim), 1.0)]
            for index, dit in enumerate(key, start=1):
                nxt = []
                for history, state, dense, p in walk:
                    if (history, index) not in dense_rounds:
                        dense_rounds[history, index] = {
                            (value, outcome): (stages, shared, q)
                            for stages, value, outcome, shared, q in dense_round(
                                dense, index, dit, kind, attacked
                            )
                        }
                    want = dense_rounds[history, index]
                    got = list(_round(state, index, dit, strategy, PureState.branches))
                    assert sorted(want) == sorted((v, o) for _, v, o, _, _ in got)
                    for states, value, outcome, shared, q in got:
                        stages, dense_shared, dense_q = want[value, outcome]
                        assert len(states) == len(stages)
                        for s, d in zip([*states, shared], [*stages, dense_shared]):
                            _assert_dense_close(s, d)
                        assert abs(float(q) - dense_q) <= 1e-12
                        nxt.append((history + ((value, outcome),), shared, dense_shared, p * dense_q))
                walk = nxt
                histories = {}
                for history, _, _, p in walk:
                    histories[history] = histories.get(history, 0.0) + p
                exact = exact_outcomes(dim, key[:index], make_strategy())
                assert exact.keys() == histories.keys()
                assert max(abs(float(p) - histories[h]) for h, p in exact.items()) <= 1e-12
