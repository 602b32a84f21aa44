import csv
import io
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from qkdlab.adversary import AdversaryStrategy, GaoAttack, InterceptResend
from qkdlab.analysis import (
    CSV_COLUMNS,
    compute_metrics,
    exact_intercept_observation_distribution,
    exact_next_round_error,
    exact_outcomes,
    monte_carlo,
    report_to_csv,
    report_to_json,
)
from qkdlab.protocol import (
    ProtocolConfig,
    announce_subsequence,
    parse_announce,
    run_session,
    transcript_to_json_dict,
)
from qkdlab.register import PureState


def session_for(dim, key, adversary=None, seed=0):
    config = ProtocolConfig(dim=dim, num_rounds=len(key), key=key, rng_seed=seed)
    return run_session(config, adversary), config


class TestComputeMetrics:
    def test_honest_baseline(self):
        session, config = session_for(3, (0, 1, 2, 0))
        metrics = compute_metrics(session, config.key)
        assert metrics.qber_overall == 0
        assert metrics.qber_by_round == (0, 0, 0, 0)
        assert not metrics.detection_triggered
        assert metrics.eve_known_fraction == 0
        assert metrics.eve_candidate_count == 3

    def test_gao_zero_qber(self):
        session, config = session_for(5, (4, 0, 2, 1, 3), GaoAttack())
        metrics = compute_metrics(session, config.key)
        assert metrics.qber_overall == 0

    def test_known_fraction_counted_from_transcript(self):
        key = (1, 0, 2, 1, 2, 0, 0, 1, 2)
        session, config = session_for(3, key, GaoAttack())
        announce_subsequence(session, [3])
        metrics = compute_metrics(session, config.key)
        observed = {obs.round_index for obs in session.eve_observations}
        expected = Fraction(1 + len(observed), 9)
        assert metrics.eve_known_fraction == expected == Fraction(5, 9)
        assert metrics.eve_candidate_count == 1

    def test_unresolved_candidates_stay_d(self):
        key = (1, 0, 2, 1, 2)
        session, config = session_for(3, key, GaoAttack())
        metrics = compute_metrics(session, config.key)
        assert metrics.eve_known_fraction == 0
        assert metrics.eve_candidate_count == 3

    def test_announced_rounds_leave_qber_denominator(self):
        key = (1, 0, 2, 1)
        session, config = session_for(3, key)
        announce_subsequence(session, [1, 2])
        metrics = compute_metrics(session, config.key)
        # 2 usable rounds remain, both correct
        assert metrics.qber_overall == 0

    def test_every_round_announced(self):
        # no usable round is left, so the overall error rate is 0 by definition
        session, config = session_for(3, (1, 0, 2))
        announce_subsequence(session, [1, 2, 3])
        metrics = compute_metrics(session, config.key)
        assert metrics.qber_overall == 0
        assert metrics.qber_by_round == (0, 0, 0)
        assert not metrics.detection_triggered

    def test_detection_flag(self):
        # seed chosen so the intercepted round-2 outcome differs from the key
        for seed in range(40):
            session, config = session_for(3, (1, 2, 0), InterceptResend(), seed=seed)
            announce_subsequence(session, [2])
            metrics = compute_metrics(session, config.key)
            if session.rounds[1].bob_outcome != config.key[1]:
                assert metrics.detection_triggered
                break
        else:
            pytest.fail("no seed produced a round-2 error in 40 tries")

    def test_length_mismatch_rejected(self):
        session, _ = session_for(3, (1, 2))
        with pytest.raises(ValueError):
            compute_metrics(session, (1, 2, 0))

    @pytest.mark.parametrize("dim", range(2, 6))
    @pytest.mark.parametrize(
        "adversary", [None, InterceptResend(), GaoAttack()], ids=["honest", "intercept", "gao"]
    )
    def test_metrics_and_transcript_read_one_inference(self, dim, adversary):
        rounds = 7
        key = _key(dim, rounds)
        for announce in ([], [1], [1, 3, 5, 7], [rounds]):
            session, _ = session_for(dim, key, adversary, seed=dim)
            announce_subsequence(session, announce)
            resolved, known = session.eve_inference()
            eve = transcript_to_json_dict(session)["eve"]
            if adversary is None:
                assert eve is None and (resolved, known) == (None, {})
            else:
                assert eve["resolved_q1"] == resolved
                assert eve["known_dits"] == {str(r): v for r, v in sorted(known.items())}
            metrics = compute_metrics(session, key)
            assert metrics.eve_known_fraction == Fraction(len(known), rounds)
            assert metrics.eve_candidate_count == (dim if resolved is None else 1)
            if isinstance(adversary, InterceptResend) and announce == [1]:
                # announcing the first dit resolves nothing for an interceptor
                assert metrics.eve_known_fraction == 0 and eve["known_dits"] == {}
            if isinstance(adversary, GaoAttack) and announce:
                assert known == {r: key[r - 1] for r in range(1, rounds + 1, 2)}

    def test_metrics_are_recomputable(self):
        session, config = session_for(3, (1, 0, 2, 1, 2), GaoAttack())
        announce_subsequence(session, [3])
        first = compute_metrics(session, config.key)
        second = compute_metrics(session, config.key)
        assert first == second


class TestExactNextRoundError:
    @pytest.mark.parametrize("dim", (2, 3, 5, 7, 8, 9, 11, 13))
    @pytest.mark.parametrize("attack_round", (1, 2, 6))
    def test_matches_closed_form(self, dim, attack_round):
        assert exact_next_round_error(dim, attack_round) == Fraction(dim - 1, dim)

    def test_explicit_key_does_not_matter(self):
        for key in ((0, 0, 0), (2, 1, 0), (1, 1, 1)):
            assert exact_next_round_error(3, 2, key=key) == Fraction(2, 3)

    def test_branches_reuse_the_honest_transit_stage(self, monkeypatch):
        calls = []
        original = PureState.apply_hadamard

        def counted(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(PureState, "apply_hadamard", counted)
        assert exact_next_round_error(3, 1) == Fraction(2, 3)
        # round 1 once (2 Hadamards), round 2 once per Eve/Bob branch (3 x 2)
        assert len(calls) == 8

    def test_branches_without_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the enumeration sampled an outcome")

        monkeypatch.setattr(PureState, "measure_computational", refuse)
        assert exact_next_round_error(3, 1) == Fraction(2, 3)
        assert exact_intercept_observation_distribution(3, 2, (1, 2)) == {
            v: Fraction(1, 3) for v in range(3)
        }

    def test_no_enumeration_bounds(self):
        assert exact_next_round_error(11, 1) == Fraction(10, 11)
        assert exact_next_round_error(3, 6) == Fraction(2, 3)
        with pytest.raises(ValueError, match="attack_round must be positive"):
            exact_next_round_error(3, 0)
        with pytest.raises(ValueError, match="need at least 3 key dits"):
            exact_next_round_error(3, 2, key=(0, 1))

    @pytest.mark.parametrize("attack_round", [True, 1.5], ids=["bool", "float"])
    def test_attack_round_must_be_an_integer(self, attack_round):
        # True + 1 made a two-round walk intercepting round 1 and returned 2/3
        with pytest.raises(
            ValueError, match=f"^attack_round must be an integer, got {attack_round}$"
        ):
            exact_next_round_error(3, attack_round)
        with pytest.raises(ValueError, match="^attack_round must be an integer"):
            exact_intercept_observation_distribution(3, attack_round, (0, 1))


class TestObservationDistribution:
    def test_uniform_and_key_independent(self):
        dists = [
            exact_intercept_observation_distribution(3, 1, (q, 0))
            for q in range(3)
        ]
        uniform = {v: Fraction(1, 3) for v in range(3)}
        assert all(d == uniform for d in dists)

    def test_second_round_attack_also_uniform(self):
        for q in range(3):
            dist = exact_intercept_observation_distribution(3, 2, (1, q))
            assert dist == {v: Fraction(1, 3) for v in range(3)}

    def test_total_variation_zero(self):
        base = exact_intercept_observation_distribution(5, 1, (0,))
        for q in range(1, 5):
            other = exact_intercept_observation_distribution(5, 1, (q,))
            tv = sum(abs(base[v] - other[v]) for v in range(5)) / 2
            assert tv == 0


def _key(dim, length):
    return tuple((3 * i + 1) % dim for i in range(length))


def _round_error(walk, key, index):
    """Exact probability that Bob's outcome in round index + 1 differs from its key dit."""
    return sum((p for history, p in walk.items() if history[index][1] != key[index]), Fraction(0))


class TestExactOutcomes:
    def test_refuses_attack_rounds_outside_the_session(self):
        with pytest.raises(ValueError) as refused:
            run_session(ProtocolConfig(3, 3, (0, 1, 2)), InterceptResend({9}))
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            exact_outcomes(3, (0, 1, 2), InterceptResend({9}))

    @pytest.mark.parametrize(
        "dim, key",
        [(3, ()), (3, (0, 3)), (3, (-1,)), (1, (0,)), (3, (1.5,)), (3, (True,)), (3.0, (0,))],
    )
    def test_refuses_the_keys_a_session_refuses(self, dim, key):
        with pytest.raises(ValueError) as refused:
            run_session(ProtocolConfig(dim, len(key), key))
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            exact_outcomes(dim, key, AdversaryStrategy())

    @pytest.mark.parametrize(
        "dim, rounds",
        [(2, r) for r in range(2, 7)]
        + [(3, r) for r in range(2, 5)]
        + [(4, 2), (4, 3), (5, 2), (5, 3), (6, 2), (7, 2)],
    )
    def test_intercept_every_round_error_law(self, dim, rounds):
        # Bob's errors in r intercepted rounds are Binomial(r - 1, (d - 1)/d)
        key = _key(dim, rounds)
        law = {}
        for history, p in exact_outcomes(dim, key, InterceptResend()).items():
            errors = sum(outcome != q for (_, outcome), q in zip(history, key))
            law[errors] = law.get(errors, 0) + p
        e, n = Fraction(dim - 1, dim), rounds - 1
        assert law == {k: math.comb(n, k) * e**k * (1 - e) ** (n - k) for k in range(n + 1)}

    def test_monte_carlo_within_3_sigma_of_the_walk(self):
        # monte_carlo draws a key per trial; the exact marginals do not depend on it
        marginals = []
        for key in ((0, 1, 2, 0), (2, 2, 1, 0)):
            walk = exact_outcomes(3, key, InterceptResend())
            marginals.append([_round_error(walk, key, i) for i in range(4)])
        assert marginals[0] == marginals[1]
        trials = 300
        config = ProtocolConfig(3, 4, (0, 1, 2, 0))
        report = monte_carlo(config, InterceptResend(), trials, seed=1)
        for rate, p in zip(report.round_error_rates, marginals[0]):
            assert abs(rate - p) <= 3 * math.sqrt(p * (1 - p) / trials)

    def test_branches_sharing_a_history_add_up(self):
        # two transit branches that read the same value (None) and lead to the
        # same Bob outcome make one history; neither probability may be lost
        class SplitChannel(AdversaryStrategy):
            def on_transit(self, state, round_index, measure):
                return [([state], None, Fraction(1, 2)), ([state], None, Fraction(1, 2))]

        walk = exact_outcomes(3, (0, 1), SplitChannel())
        assert walk == {((None, 0), (None, 1)): 1}

    @pytest.mark.parametrize("dim", range(2, 6))
    def test_none_is_the_honest_channel(self, dim):
        # as in run_session and monte_carlo
        key = _key(dim, 3)
        assert exact_outcomes(dim, key, None) == exact_outcomes(dim, key, AdversaryStrategy())

    @pytest.mark.parametrize("dim", range(2, 9))
    @pytest.mark.parametrize("strategy", [AdversaryStrategy(), GaoAttack()], ids=["honest", "gao"])
    def test_deterministic_strategy_walks_one_branch(self, dim, strategy):
        key = _key(dim, 5)
        ((history, p),) = exact_outcomes(dim, key, strategy).items()
        assert p == 1
        assert tuple(outcome for _, outcome in history) == key
        session = run_session(ProtocolConfig(dim, 5, key), strategy)
        assert tuple(value for value, _ in history) == tuple(
            r.eve_observation for r in session.rounds
        )


class TestMonteCarlo:
    def test_gao_always_zero(self):
        config = ProtocolConfig(dim=3, num_rounds=4, key=(0,) * 4, rng_seed=0)
        report = monte_carlo(config, GaoAttack(), 60, seed=5)
        assert report.mean_qber == 0
        assert report.all_trials_zero_qber
        assert report.detection_rate == 0
        assert report.strategy == "gao"

    def test_honest_zero(self):
        config = ProtocolConfig(dim=3, num_rounds=3, key=(0,) * 3, rng_seed=0)
        report = monte_carlo(config, None, 40, seed=6)
        assert report.mean_qber == 0
        assert report.strategy == "none"

    def test_intercept_next_round_rate_within_3_sigma(self):
        trials = 800
        config = ProtocolConfig(dim=3, num_rounds=2, key=(0, 0), rng_seed=0)
        report = monte_carlo(config, InterceptResend({1}), trials, seed=7)
        p = 2 / 3
        sigma3 = 3 * (p * (1 - p) / trials) ** 0.5
        assert abs(report.round_error_rates[1] - p) < sigma3
        assert report.round_error_rates[0] == 0  # round 1 undisturbed

    def test_reproducible(self):
        config = ProtocolConfig(dim=3, num_rounds=3, key=(0,) * 3, rng_seed=0)
        a = monte_carlo(config, InterceptResend(), 50, seed=8)
        b = monte_carlo(config, InterceptResend(), 50, seed=8)
        assert a == b

    def test_announced_sessions_feed_inference(self):
        config = ProtocolConfig(dim=3, num_rounds=5, key=(0,) * 5, rng_seed=0)
        report = monte_carlo(config, GaoAttack(), 30, seed=9, announce=[3])
        assert report.mean_eve_known_fraction == pytest.approx(3 / 5)

    def test_announce_policy_odd(self):
        config = ProtocolConfig(dim=3, num_rounds=4, key=(0,) * 4, rng_seed=0)
        report = monte_carlo(config, GaoAttack(), 10, seed=10, announce=parse_announce("odd", 4))
        assert report.mean_eve_known_fraction == pytest.approx(2 / 4)

    def test_trials_must_be_positive(self):
        config = ProtocolConfig(dim=3, num_rounds=2, key=(0, 0), rng_seed=0)
        with pytest.raises(ValueError):
            monte_carlo(config, None, 0, seed=0)

    @pytest.mark.parametrize("trials", [True, 2.5], ids=["bool", "float"])
    def test_trials_must_be_an_integer(self, trials):
        # True ran one trial and reported "trials": true
        config = ProtocolConfig(dim=3, num_rounds=2, key=(0, 0), rng_seed=0)
        with pytest.raises(ValueError, match=f"^trials must be an integer, got {trials}$"):
            monte_carlo(config, None, trials, seed=0)

    def test_numpy_trials_are_reported_as_int(self):
        config = ProtocolConfig(dim=3, num_rounds=2, key=(0, 0), rng_seed=0)
        report = monte_carlo(config, None, np.int64(2), seed=0)
        assert report == monte_carlo(config, None, 2, seed=0)
        assert type(report.trials) is int
        assert json.loads(report_to_json([report]))[0]["trials"] == 2


class TestReports:
    def make_report(self):
        config = ProtocolConfig(dim=3, num_rounds=3, key=(0,) * 3, rng_seed=0)
        return monte_carlo(config, InterceptResend(), 25, seed=11)

    def test_json_round_trip(self):
        report = self.make_report()
        rows = json.loads(report_to_json([report]))
        assert rows[0]["strategy"] == "intercept"
        assert rows[0]["trials"] == 25
        assert len(rows[0]["round_error_rates"]) == 3

    def test_csv_columns(self):
        report = self.make_report()
        reader = csv.DictReader(io.StringIO(report_to_csv([report])))
        assert tuple(reader.fieldnames) == CSV_COLUMNS
        row = next(reader)
        assert row["strategy"] == "intercept"
        assert row["dim"] == "3"
        assert len(row["round_error_rates"].split(";")) == 3
