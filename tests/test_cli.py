import json

import pytest

from qkdlab import cli
from qkdlab.register import state_equals


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_gao_paper_key(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--d", "3", "--rounds", "5",
            "--key", "1,0,2,1,2", "--attack", "gao",
        )
        assert code == 0
        assert "qber         = 0" in out
        assert "eve observations = [0, 1]" in out

    def test_honest_default(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--d", "3", "--rounds", "3", "--attack", "none")
        assert code == 0
        assert "qber         = 0" in out

    def test_composite_dim_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--d", "4", "--rounds", "5", "--key", "1,2,3,0,1",
            "--attack", "gao", "--announce", "3",
        )
        assert code == 0
        assert "bob outcomes = 1,2,3,0,1" in out
        assert "qber         = 0" in out

    def test_announce_index_zero_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["run", "--d", "3", "--rounds", "3", "--announce", "0"])
        assert info.value.code == 64
        assert "outside rounds 1..3" in capsys.readouterr().err

    def test_intercept_round_out_of_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["run", "--d", "3", "--rounds", "3", "--attack", "intercept",
                      "--intercept-rounds", "99"])
        assert info.value.code == 64
        assert "--intercept-rounds" in capsys.readouterr().err

    def test_key_length_mismatch_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["run", "--d", "3", "--rounds", "4", "--key", "1,2"])
        assert info.value.code == 64

    def test_key_and_key_seed_conflict(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["run", "--key", "1,1,1,1,1", "--key-seed", "3"])
        assert info.value.code == 64

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["run", "--frobnicate"])
        assert info.value.code == 64

    def test_detection_exit_code(self, capsys):
        # persistent intercept with announced rounds: scan seeds for a
        # mismatch, which must map to exit code 2
        for seed in range(25):
            code, out, _ = run_cli(
                capsys, "run", "--d", "3", "--rounds", "4", "--key", "1,2,0,1",
                "--attack", "intercept", "--announce", "even", "--seed", str(seed),
            )
            if "detection    = yes" in out:
                assert code == 2
                return
        pytest.fail("no seed triggered detection in 25 tries")

    def test_unwritable_trace_is_runtime_error(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--d", "3", "--rounds", "2", "--key", "1,2",
            "--trace", "/nonexistent-dir/trace.json",
        )
        assert code == 1
        assert "error:" in err

    def test_trace_round_trips(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        code, _, _ = run_cli(
            capsys, "run", "--d", "3", "--rounds", "3", "--key", "0,1,2",
            "--attack", "gao", "--trace", str(path),
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == "v1"
        assert doc["config"]["key"] == [0, 1, 2]
        assert len(doc["rounds"]) == 3

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("QKDLAB_SEED", "1234")
        code, out, _ = run_cli(capsys, "run", "--d", "3", "--rounds", "3", "--key", "0,0,0")
        assert code == 0
        assert "seed=1234" in out

    def test_bad_env_seed_is_runtime_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QKDLAB_SEED", "not-a-number")
        code, _, err = run_cli(capsys, "run", "--d", "3", "--rounds", "1", "--key", "1")
        assert code == 1
        assert "QKDLAB_SEED" in err


class TestVerifyPaper:
    @pytest.mark.parametrize(
        "dim,key",
        [(3, "1,0,2,1,2"), (2, "1,1,0,1,0"), (5, "4,1,3,0,2")],
    )
    def test_all_stages_pass(self, capsys, dim, key):
        code, out, _ = run_cli(capsys, "verify-paper", "--d", str(dim), "--key", key)
        assert code == 0
        assert "all 32 stage checks passed" in out

    def test_random_key_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "--d", "5", "--key-seed", "31")
        assert code == 0
        assert "all 32 stage checks passed" in out

    def test_composite_dim_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper", "--d", "6", "--key", "5,2,0,3,4")
        assert code == 0
        assert "all 32 stage checks passed" in out

    def test_mode_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify-paper", "--d", "3", "--key", "1,0,2,1,2", "--mode", "float"])
        assert info.value.code == 64

    def test_mismatch_exits_3(self, capsys, monkeypatch):
        import qkdlab.closed_forms as cf

        real = cf.eavesdrop_stage_states

        def sabotaged(dim, key):
            stages = real(dim, key)
            stages["Phi_1"] = stages["Phi_0"]  # wrong closed form for one stage
            return stages

        monkeypatch.setattr(cli, "eavesdrop_stage_states", sabotaged)
        code, out, _ = run_cli(capsys, "verify-paper", "--d", "3", "--key", "1,0,2,1,2")
        assert code == 3
        assert "Phi_1      FAIL" in out
        assert "first failure at Phi_1" in out

    def test_ignores_rounds_flag(self, capsys):
        # a 5-round session is always used, whatever --rounds says
        code, out, _ = run_cli(
            capsys, "verify-paper", "--d", "3", "--rounds", "9", "--key-seed", "2"
        )
        assert code == 0


class TestExperiment:
    def test_intercept_reports_exact_and_mc(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "--d", "3", "--rounds", "2", "--attack", "intercept",
            "--trials", "600", "--seed", "3", "--format", "json",
        )
        assert code == 0
        row = json.loads(out)[0]
        assert row["exact_next_round_error"] == "2/3"
        assert abs(row["mc_next_round_error"] - 2 / 3) < row["mc_next_round_sigma3"]

    def test_composite_dim_reports_exact_error(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "--d", "4", "--rounds", "2", "--attack", "intercept",
            "--trials", "40", "--seed", "3",
        )
        assert code == 0
        assert json.loads(out)[0]["exact_next_round_error"] == "3/4"

    @pytest.mark.parametrize(
        "argv",
        [
            ("--d", "11", "--rounds", "2"),
            ("--d", "3", "--rounds", "8", "--intercept-rounds", "6"),
        ],
    )
    def test_exact_fields_null_outside_enumeration_bounds(self, capsys, argv):
        code, out, _ = run_cli(
            capsys, "experiment", *argv, "--attack", "intercept", "--trials", "4",
        )
        assert code == 0
        row = json.loads(out)[0]
        assert row["exact_next_round_error"] is None
        assert row["mc_next_round_error"] is None
        assert row["mc_next_round_sigma3"] is None

    def test_announce_single_index_is_not_split(self, capsys, monkeypatch):
        seen = []
        real = cli.monte_carlo

        def spy(*args, **kwargs):
            seen.append(kwargs["announce"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "monte_carlo", spy)
        code, _, _ = run_cli(
            capsys, "experiment", "--d", "2", "--rounds", "13", "--attack", "gao",
            "--trials", "2", "--announce", "13",
        )
        assert code == 0
        assert seen == [[13]]

    def test_announce_comma_list(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "--d", "3", "--rounds", "5", "--attack", "gao",
            "--trials", "5", "--announce", "3,5",
        )
        assert code == 0
        # q1 is resolved, so q1, q3 and q5 are known
        assert json.loads(out)[0]["mean_eve_known_fraction"] == 3 / 5

    def test_zero_trials_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["experiment", "--trials", "0"])
        assert info.value.code == 64

    def test_gao_all_trials_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "--d", "5", "--rounds", "4", "--attack", "gao",
            "--trials", "40", "--seed", "4",
        )
        assert code == 0
        row = json.loads(out)[0]
        assert row["all_trials_zero_qber"] is True
        assert row["mean_qber"] == 0

    def test_honest_baseline(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "--d", "3", "--rounds", "3", "--trials", "20",
        )
        assert code == 0
        assert json.loads(out)[0]["mean_qber"] == 0

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "--d", "3", "--rounds", "2", "--attack", "intercept",
            "--trials", "30", "--format", "csv",
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("strategy,dim,num_rounds,trials,seed,mean_qber")

    def test_report_file_deterministic(self, capsys, tmp_path):
        blobs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code, _, _ = run_cli(
                capsys, "experiment", "--d", "3", "--rounds", "3", "--attack",
                "intercept", "--trials", "50", "--seed", "12", "--format", "csv",
                "--trace", str(path),
            )
            assert code == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestModuleEntry:
    def test_importable_main(self):
        # python -m execution path shares cli.main
        from qkdlab.cli import main
        assert callable(main)
