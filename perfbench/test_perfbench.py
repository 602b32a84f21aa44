"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest
from checkout import ROOT
from run import WORKLOAD_NAMES
from worker import measure, trace
from workloads import WORKLOADS, GaoD7, SessionInput, VerifyTrace

from qkdlab import register

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_names_and_units_are_well_formed():
    names = [w["name"] for w in DECLARED["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for spec in DECLARED[group]:
            names.append(spec["name"])
            assert UNIT.fullmatch(spec["unit"]), spec
            assert spec["better"] in ("higher", "lower"), spec
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    declared = tuple(w["name"] for w in DECLARED["workloads"])
    assert declared == WORKLOAD_NAMES == tuple(WORKLOADS)


def test_untraced_run_prints_exactly_the_end_to_end_metrics():
    done = subprocess.run(
        [*RUN, "--workload", "verify-trace", "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, check=True,
    )
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {spec["name"]: spec["unit"] for spec in DECLARED["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_exactly_the_per_layer_metrics():
    done = subprocess.run(
        [*RUN, "--workload", "intercept-mc", "--seed", "3", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=180, check=True,
    )
    result = _last_json(done.stdout)
    assert result["correct"]
    want = {spec["name"]: spec["unit"] for spec in DECLARED["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["analysis.monte_carlo.self_ms"] > 0
    assert metrics["trace.overhead_ratio"] > 0


def test_layer_counts_repeat_exactly_across_traced_runs(monkeypatch):
    monkeypatch.setattr(GaoD7, "trace_ops", 2)
    original = register.PureState.__dict__["apply_hadamard"]
    first, second = (trace(GaoD7(seed=5), seed=5)["metrics"] for _ in range(2))
    assert register.PureState.__dict__["apply_hadamard"] is original
    counts = [
        name for name in first
        if name.endswith((".calls", ".terms_in", ".terms_out", ".bytes", ".useful_ratio"))
    ]
    assert len(counts) > 20
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["register.hadamard.calls"] == 38
    assert first["protocol.run_round.calls"] == 13


def test_traced_verify_flow_reaches_the_serialization_layers(monkeypatch):
    monkeypatch.setattr(VerifyTrace, "trace_ops", 1)
    metrics = trace(VerifyTrace(seed=2), seed=2)["metrics"]
    for name in (
        "register.to_json.self_ms",
        "register.from_json.self_ms",
        "register.state_equals.self_ms",
        "closed_forms.stage_states.self_ms",
        "protocol.transcript_json.bytes",
    ):
        assert metrics[name] > 0, name


class WrongExpectedKey(GaoD7):
    """Checks each session against a key that differs from the one sent."""

    def check(self, inp, session):
        wrong = tuple((q + 1) % self.DIM for q in inp.key)
        return super().check(SessionInput(wrong, inp.rng_seed), session)


@pytest.mark.parametrize("workload, failed", [(GaoD7, 0), (WrongExpectedKey, 1)])
def test_gao_check_registers_a_failed_op(workload, failed):
    result = measure(workload(seed=4), seconds=0)
    assert result["attempted"] == 1
    assert result["failed"] == failed


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gao-d7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
