"""Golden SHA-256 digests of the exact outputs and of seeded intercept sessions.

Each case serializes one deterministic result to canonical JSON and
compares its SHA-256 with a digest recorded from an earlier version of
the simulator, so a refactor that changes any coefficient, stage,
basis state or probability fails with the name of the case.  Intercept
sessions are sampled, but their only draws are random.Random.random(),
whose sequence for a given seed Python promises to keep across versions.
Monte-Carlo reports are left out: they also draw with randrange and
getrandbits, which carry no such promise.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from qkdlab.adversary import GaoAttack, InterceptResend
from qkdlab.analysis import exact_intercept_observation_distribution, exact_next_round_error
from qkdlab.closed_forms import eavesdrop_stage_states
from qkdlab.protocol import ProtocolConfig, run_session, transcript_to_json_dict

DIMS = range(2, 8)


def _key(dim: int, length: int) -> tuple[int, ...]:
    return tuple((3 * i + 1) % dim for i in range(length))


def _transcript(dim: int, strategy) -> dict:
    config = ProtocolConfig(dim=dim, num_rounds=5, key=_key(dim, 5), rng_seed=dim)
    return transcript_to_json_dict(run_session(config, strategy))


def _stages(dim: int) -> dict:
    return {
        label: state.to_json_dict()
        for label, state in eavesdrop_stage_states(dim, _key(dim, 5)).items()
    }


def _fractions(dist: dict) -> dict:
    return {str(k): str(v) for k, v in dist.items()}


CASES = {
    **{f"transcript-honest-d{d}": (lambda d=d: _transcript(d, None)) for d in DIMS},
    **{f"transcript-gao-d{d}": (lambda d=d: _transcript(d, GaoAttack())) for d in DIMS},
    **{
        f"transcript-intercept-d{d}": (
            lambda d=d: [_transcript(d, InterceptResend()), _transcript(d, InterceptResend({1}))]
        )
        for d in DIMS
    },
    **{f"closed-form-stages-d{d}": (lambda d=d: _stages(d)) for d in DIMS},
    "exact-next-round-error": lambda: {
        f"{d},{r}": str(exact_next_round_error(d, r)) for d in DIMS for r in (1, 2, 3)
    },
    "exact-intercept-observation-distribution": lambda: {
        f"{d},{r}": _fractions(exact_intercept_observation_distribution(d, r, _key(d, r)))
        for d in DIMS
        for r in (1, 2, 3)
    },
}

GOLDEN = {
    "closed-form-stages-d2": "721bd79f706e18cdaaabde8014a45c9325b1d835cff4dfaf6c417d22d684bc63",
    "closed-form-stages-d3": "0d8a8d67c6cfb4028cfa0c73c729d36c35015a56f546a8451b10b6be2625ff81",
    "closed-form-stages-d4": "0f3c3e1d071b7473f273473c2c6cff7c66bcaac0a9e70da3aad5ff6bf4eb14c5",
    "closed-form-stages-d5": "2a20a7c38e291bddfee0442e08e8a858d7e8b03814495103bf732d9eb818ea66",
    "closed-form-stages-d6": "fb0f8ea1362135a406a15871863f7b78046079c41738887c7d11dd07e0d37931",
    "closed-form-stages-d7": "87bcd5920d8a040769ea71d9e0a2d91ffa11fb5dd7c0857520e65ebddd3f2a60",
    "exact-intercept-observation-distribution": "1917c6628072c1e58cc76e1607e5f83c7b4e7544e3eec2f106b9d08fe998212b",
    "exact-next-round-error": "ff5b934eb9d1d9ec1f556878d1eafc9b6f5dae26464d61adb5f977d59754ea57",
    "transcript-gao-d2": "9731e1165c4d2969e261437b6f79120bdd2dce7a6b14cecbdca2845ed4e41f4f",
    "transcript-gao-d3": "d9f7f5c794d50be14334e1f7a4f5adaf1941eff6e2e407e5062d92223b0943ae",
    "transcript-gao-d4": "ff8e81403125a1ecc4cb3cbe15ec75afe6c08b16ddf191ef0bb9da5a43cf3366",
    "transcript-gao-d5": "3f3a59829738bd91636efff250df47f148c20d9615b16f9423dc2f93c194f5b7",
    "transcript-gao-d6": "3db91cb27f18a566c24961df401604ae85cf8ad190f7c8f4456b882d26a5008d",
    "transcript-gao-d7": "fd5fd3d53a4c3eddba67bbee7589c29bfb268de1207283f866a3384d84fe455a",
    "transcript-honest-d2": "a95fa513a8da2c82642241d3af090969073798d88d1d20350b1f543c00f08659",
    "transcript-honest-d3": "e68053e20bd206a6b6dcddb3fdfc68ecaefd9bf20cddf686988824dd3563e68e",
    "transcript-honest-d4": "42b05b5e74d2d1fe00a2946bfc5a8ccff3d704dfd62cf141c543a06a111affcc",
    "transcript-honest-d5": "8a59bfba661edc61ffd361bfc27cd985503e06b2887800a3a67b2f1399915dab",
    "transcript-honest-d6": "0636f9ba9f7e7e547feb2d05a15bed82971ec7c77c32558b5818f53b140202e9",
    "transcript-honest-d7": "ffae6d16db5427b3b6370b5d5290e210a7d3492d8f9574ec7ebfa52ff0d4a58b",
    "transcript-intercept-d2": "987ceb1042a197ccba17b6cae9ca3a795ce04cbd55588813819a87baf899d895",
    "transcript-intercept-d3": "38cb62b3788d2c6b1ce0e2c87adcaa08e26f95a50f1b2171bc6c229331038526",
    "transcript-intercept-d4": "60635753e3b342cbe71b7f7bc591025f63c21c98dd8a431f986bd6c4d79664fe",
    "transcript-intercept-d5": "880a1e96331d15f3f7dc8e61fb028c7fb3295448dbcaf356dccf1888abdcedfe",
    "transcript-intercept-d6": "cc00aded123477cea7c18cc31b6e97095813201cbaac630df85ead34814abfbf",
    "transcript-intercept-d7": "cc1cea235bfd3f8d267c4a678bdd9b4d1b5b0f14e10a8b19287951c905320d33",
}


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_case_has_a_digest():
    assert sorted(CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden_digest(case):
    assert _digest(CASES[case]()) == GOLDEN[case], f"{case} differs from its golden digest"
