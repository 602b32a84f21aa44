import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qkdlab
from qkdlab import cli
from qkdlab.register import PureState, state_equals
from qkdlab.ring import zeta_pow


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
        assert "--intercept-rounds index 99 outside rounds 1..3" in capsys.readouterr().err

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

    def test_seed_is_set_by_flag_only(self, capsys, monkeypatch):
        # no environment variable sets --seed a second way
        monkeypatch.setenv("QKDLAB_SEED", "1234")
        code, out, _ = run_cli(capsys, "run", "--d", "3", "--rounds", "3", "--key", "0,0,0")
        assert code == 0
        assert "seed=0" in out


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

    def test_trace_writes_transcript(self, capsys, tmp_path):
        path = tmp_path / "verify.json"
        code, out, _ = run_cli(
            capsys, "verify-paper", "--d", "3", "--key", "1,0,2,1,2", "--trace", str(path)
        )
        assert code == 0
        assert "all 32 stage checks passed" in out
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == "v1"
        assert len(doc["rounds"]) == 5
        assert sum(len(r["stages"]) for r in doc["rounds"]) == 32

    def test_mode_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify-paper", "--d", "3", "--key", "1,0,2,1,2", "--mode", "float"])
        assert info.value.code == 64

    def test_mismatch_exits_3(self, capsys, monkeypatch):
        import qkdlab.closed_forms as cf

        real = cf.eavesdrop_stage_states

        def sabotaged(dim, key):
            stages = real(dim, key)
            st = stages["Phi_1"]  # wrong closed form for one stage: times zeta
            zeta = zeta_pow(dim, 1)
            stages["Phi_1"] = PureState(
                dim, st.wires, st.scale_exp, {b: amp * zeta for b, amp in st.terms.items()}
            )
            return stages

        monkeypatch.setattr(cli, "eavesdrop_stage_states", sabotaged)
        code, out, _ = run_cli(capsys, "verify-paper", "--d", "3", "--key", "1,0,2,1,2")
        assert code == 3
        assert "Phi_1      FAIL" in out
        assert "1 of 32 stage checks failed" in out
        assert out.splitlines()[-1] == (
            "first failure at Phi_1 (simulated != expected): "
            "basis (a=0, b=0, k=1, e=0): (1) * 3^(-1/2) != (z) * 3^(-1/2)"
        )

    def test_missing_stage_exits_3(self, capsys, monkeypatch):
        import qkdlab.closed_forms as cf

        real = cf.eavesdrop_stage_states

        def extra(dim, key):
            stages = real(dim, key)
            stages["Phi_9"] = stages["Phi_0"]  # a stage the session never records
            return stages

        monkeypatch.setattr(cli, "eavesdrop_stage_states", extra)
        code, out, _ = run_cli(capsys, "verify-paper", "--d", "3", "--key", "1,0,2,1,2")
        assert code == 3
        assert "Phi_9      FAIL" in out
        assert out.splitlines()[-1] == (
            "first failure at Phi_9 (simulated != expected): missing from the transcript"
        )

    def test_rounds_flag_is_usage_error(self, capsys):
        # the closed forms fix the session at five rounds, so --rounds is no flag here
        for argv in (
            ("--rounds", "9", "--key", "1,0,2,1,2,0,0,1,2"),
            ("--rounds", "0"),
            ("--rounds", "5", "--key-seed", "2"),
        ):
            with pytest.raises(SystemExit) as info:
                cli.main(["verify-paper", "--d", "3", *argv])
            assert info.value.code == 64
            assert "unrecognized arguments: --rounds" in capsys.readouterr().err


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
        "argv, exact",
        [
            (("--d", "11", "--rounds", "2", "--attack", "intercept"), "10/11"),
            (("--d", "3", "--rounds", "8", "--attack", "intercept",
              "--intercept-rounds", "6"), "2/3"),
            # no round follows the only intercepted one
            (("--d", "3", "--rounds", "3", "--attack", "intercept",
              "--intercept-rounds", "3"), None),
            (("--d", "3", "--rounds", "3", "--attack", "gao"), None),
        ],
        ids=["d11", "intercept-round-6", "last-round-only", "gao"],
    )
    def test_exact_next_round_fields(self, capsys, argv, exact):
        code, out, _ = run_cli(capsys, "experiment", *argv, "--trials", "4")
        assert code == 0
        row = json.loads(out)[0]
        assert row["exact_next_round_error"] == exact
        for name in ("mc_next_round_error", "mc_next_round_sigma3"):
            assert (row[name] is None) == (exact is None)

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

    @pytest.mark.parametrize(
        "argv", [["--key", "1,1"], ["--key-seed", "3"]], ids=["key", "key-seed"]
    )
    def test_key_flags_are_usage_errors(self, capsys, argv):
        # every trial draws its own key, so a given key would be ignored
        with pytest.raises(SystemExit) as info:
            cli.main(["experiment", "--d", "3", "--rounds", "2", "--trials", "5", *argv])
        assert info.value.code == 64
        assert f"unrecognized arguments: {argv[0]}" in capsys.readouterr().err

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


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--d", "0"], "dimension must be at least 2, got 0"),
            (["run", "--d", "-3"], "dimension must be at least 2, got -3"),
            (["verify-paper", "--d", "0"], "dimension must be at least 2, got 0"),
            (["run", "--rounds", "-1"], "num_rounds must be positive, got -1"),
            (["experiment", "--rounds", "-2", "--trials", "3"],
             "num_rounds must be positive, got -2"),
        ],
        ids=["run-d0", "run-d-3", "verify-d0", "run-rounds-1", "experiment-rounds-2"],
    )
    def test_bad_dim_or_rounds_without_key(self, capsys, argv, message):
        # checked before a random key is drawn for them
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 64
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--key", "1,,2,0"],
            ["--key", "1,2,0,"],
            ["--attack", "intercept", "--intercept-rounds", "1,,2"],
        ],
        ids=["key-inner", "key-trailing", "intercept-rounds"],
    )
    def test_empty_comma_part(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli.main(["run", "--d", "3", "--rounds", "3", *argv])
        assert info.value.code == 64
        assert "expected comma-separated integers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--d", "3", "--rounds", "20", "--announce", "1_3"],
             "--announce: announce must be \"none\", \"odd\", \"even\" or a comma list, got '1_3'"),
            (["--d", "11", "--rounds", "1", "--key", "1_0"],
             "argument --key: expected comma-separated integers, got '1_0'"),
            (["--rounds", "12", "--attack", "intercept", "--intercept-rounds", "1_2"],
             "argument --intercept-rounds: expected comma-separated integers, got '1_2'"),
        ],
        ids=["announce", "key", "intercept-rounds"],
    )
    def test_digit_separator_in_comma_list(self, capsys, argv, message):
        # int() alone reads "1_3" as 13
        with pytest.raises(SystemExit) as info:
            cli.main(["run", *argv])
        assert info.value.code == 64
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--d", "1_1"], "argument --d: expected an integer, got '1_1'"),
            (["run", "--rounds", "1_2"], "argument --rounds: expected an integer, got '1_2'"),
            (["run", "--seed", "1_0"],
             "argument --seed: expected an integer in [0, 2**64), got '1_0'"),
            (["verify-paper", "--key-seed", "3_1"],
             "argument --key-seed: expected an integer in [0, 2**64), got '3_1'"),
            (["experiment", "--trials", "1_0"],
             "argument --trials: expected an integer, got '1_0'"),
            (["run", "--d", "\u0665"], "argument --d: expected an integer, got '\u0665'"),
        ],
        ids=["d", "rounds", "seed", "key-seed", "trials", "non-ascii-digit"],
    )
    def test_integer_option_reads_ascii_digits_only(self, capsys, argv, message):
        # type=int and int(text) read "1_1" as 11 and an Arabic-Indic five as 5
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 64
        err = capsys.readouterr().err
        assert err.startswith(f"usage: qkdlab {argv[0]} ")
        assert message in err

    def test_integer_option_keeps_sign_and_blanks(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--d", " 5 ", "--rounds", "+3", "--seed", " 7")
        assert code == 0
        assert out.startswith("dim=5 rounds=3 attack=none seed=7\n")

    @pytest.mark.parametrize(
        "argv", [["run"], ["experiment", "--trials", "2"]], ids=["run", "experiment"]
    )
    def test_repeated_announce_index(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, "--rounds", "5", "--announce", "3,3"])
        assert info.value.code == 64
        assert "announce index 3 repeated" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["run"], ["experiment", "--trials", "2"]], ids=["run", "experiment"]
    )
    def test_repeated_intercept_rounds_index(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, "--rounds", "5", "--attack", "intercept",
                      "--intercept-rounds", "2,4,2"])
        assert info.value.code == 64
        assert "--intercept-rounds index 2 repeated" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", str(2**64)], ids=["negative", "2**64"])
    @pytest.mark.parametrize(
        "argv",
        [["run", "--seed"], ["verify-paper", "--seed"], ["experiment", "--trials", "2", "--seed"],
         ["run", "--key-seed"], ["verify-paper", "--key-seed"]],
        ids=["run-seed", "verify-seed", "experiment-seed", "run-key-seed", "verify-key-seed"],
    )
    def test_seed_outside_64_bits(self, capsys, argv, value):
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, value])
        assert info.value.code == 64
        assert f"expected an integer in [0, 2**64), got '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["run"], ["experiment", "--trials", "2"]], ids=["run", "experiment"]
    )
    @pytest.mark.parametrize("attack", [[], ["--attack", "none"], ["--attack", "gao"]],
                             ids=["default", "none", "gao"])
    def test_intercept_rounds_without_intercept_attack(self, capsys, argv, attack):
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, *attack, "--intercept-rounds", "9"])
        assert info.value.code == 64
        assert "--intercept-rounds needs --attack intercept" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--attack", "intercept", "--intercept-rounds", "2,2"],
             "--intercept-rounds index 2 repeated"),
            (["verify-paper", "--d", "0"], "dimension must be at least 2, got 0"),
            (["experiment", "--trials", "0"], "--trials must be positive, got 0"),
        ],
        ids=["run", "verify-paper", "experiment"],
    )
    def test_checked_after_parsing_reads_like_argparse(self, capsys, argv, message):
        # an error argparse finds in the same subcommand gives the reference usage lines
        with pytest.raises(SystemExit):
            cli.main([argv[0], "--seed", "-1"])
        reference = capsys.readouterr().err
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 64
        err = capsys.readouterr().err
        prog = f"qkdlab {argv[0]}"
        assert err.endswith(f"\n{prog}: error: {message}\n")
        assert err.split(f"{prog}: error: ")[0] == reference.split(f"{prog}: error: ")[0]


class TestModuleEntry:
    def test_importable_main(self):
        # python -m execution path shares cli.main
        from qkdlab.cli import main
        assert callable(main)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["run", "--d", "3", "--rounds", "3", "--key", "0,1,2"], 0),
            (["run", "--frobnicate"], 64),
        ],
        ids=["run", "unknown-flag"],
    )
    def test_python_dash_m_exit_code(self, tmp_path, argv, code):
        src = str(Path(qkdlab.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        result = subprocess.run(
            [sys.executable, "-m", "qkdlab", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert result.returncode == code, result.stderr


NO_NUMPY = """
import sys
from qkdlab import cli
assert "numpy" not in sys.modules, "importing qkdlab loaded numpy"
sys.modules["numpy"] = None  # a later import of numpy raises ModuleNotFoundError
for argv in (
    ["run", "--attack", "intercept"],
    ["verify-paper", "--d", "5"],
    ["experiment", "--attack", "intercept", "--trials", "50"],
):
    code = cli.main(argv)
    assert code == 0, (argv, code)
"""


def test_runs_without_numpy(tmp_path):
    # numpy is a test dependency only; the package needs the standard library alone
    src = str(Path(qkdlab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    result = subprocess.run(
        [sys.executable, "-c", NO_NUMPY], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
