"""Command-line front end.

Subcommands:

  run           simulate one session and print its metrics
  verify-paper  check every stage of a five-round attacked session
                against independently constructed closed forms
  experiment    aggregate metrics over many seeded sessions

Exit codes: 0 success, 1 runtime error, 2 detection triggered,
3 verification mismatch, 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .adversary import GaoAttack, InterceptResend
from .analysis import (
    MAX_EXACT_DIM,
    MAX_EXACT_ROUNDS,
    compute_metrics,
    exact_next_round_error,
    monte_carlo,
    report_to_csv,
    report_to_json,
)
from .closed_forms import eavesdrop_stage_states
from .protocol import (
    ProtocolConfig,
    announce_subsequence,
    dump_transcript,
    make_rng,
    parse_announce,
    run_session,
)
from .register import state_equals

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DETECTION = 2
EXIT_VERIFY_MISMATCH = 3
EXIT_USAGE = 64

SEED_ENV_VAR = "QKDLAB_SEED"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _dit_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qkdlab", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--d", type=int, default=3, help="qudit dimension (default 3)")
    common.add_argument("--rounds", type=int, default=5, help="number of rounds (default 5)")
    key_group = common.add_mutually_exclusive_group()
    key_group.add_argument("--key", type=_dit_list, help="comma-separated key dits")
    key_group.add_argument("--key-seed", type=int, help="derive a random key from this seed")
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"session RNG seed (default: ${SEED_ENV_VAR} or 0)",
    )

    run = sub.add_parser("run", parents=[common], help="simulate one session")
    run.add_argument(
        "--attack",
        choices=("none", "intercept", "gao"),
        default="none",
        help="channel adversary (default none)",
    )
    run.add_argument(
        "--intercept-rounds",
        type=_dit_list,
        default=None,
        help="rounds the interceptor measures (default: all)",
    )
    run.add_argument(
        "--announce",
        default="none",
        help='rounds whose dits Alice announces: "none", "odd", "even", or a comma list',
    )
    run.add_argument("--trace", help="write the session transcript (JSON) to this path")

    verify = sub.add_parser(
        "verify-paper",
        parents=[common],
        help="check simulated stages against closed forms",
    )
    verify.add_argument("--trace", help="write the session transcript (JSON) to this path")

    experiment = sub.add_parser(
        "experiment", parents=[common], help="aggregate many seeded sessions"
    )
    experiment.add_argument(
        "--attack",
        choices=("none", "intercept", "gao"),
        default="none",
        help="channel adversary (default none)",
    )
    experiment.add_argument(
        "--intercept-rounds",
        type=_dit_list,
        default=None,
        help="rounds the interceptor measures (default: all)",
    )
    experiment.add_argument(
        "--announce",
        default="none",
        help='announcement policy applied to every trial (default "none")',
    )
    experiment.add_argument("--trials", type=int, default=1000, help="number of sessions")
    experiment.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    experiment.add_argument("--trace", help="write the report to this path")
    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"${SEED_ENV_VAR} must be an integer, got {env!r}")
    return 0


def _resolve_key(args, parser, seed: int, rounds: int) -> tuple[int, ...]:
    if args.key is not None:
        key = args.key
        if len(key) != rounds:
            parser.error(f"--key has {len(key)} dits but --rounds is {rounds}")
        return key
    key_seed = args.key_seed if args.key_seed is not None else seed
    rng = make_rng(key_seed, stream=1)
    return tuple(int(x) for x in rng.integers(0, args.d, rounds))


def _make_config(args, parser, rounds=None) -> ProtocolConfig:
    seed = _resolve_seed(args)
    rounds = rounds if rounds is not None else args.rounds
    key = _resolve_key(args, parser, seed, rounds)
    try:
        return ProtocolConfig(dim=args.d, num_rounds=rounds, key=key, rng_seed=seed)
    except ValueError as exc:
        parser.error(str(exc))


def _make_adversary(args, parser, num_rounds: int):
    if args.attack == "none":
        return None
    if args.attack == "intercept":
        rounds = args.intercept_rounds
        if rounds is None:
            return InterceptResend()
        if not rounds or not all(1 <= index <= num_rounds for index in rounds):
            parser.error(f"--intercept-rounds must name rounds in 1..{num_rounds}, got {rounds}")
        return InterceptResend(rounds)
    return GaoAttack()


def _parse_announce(args, parser, num_rounds: int) -> list[int]:
    try:
        return parse_announce(args.announce, num_rounds)
    except ValueError as exc:
        parser.error(f"--announce: {exc}")


def cmd_run(args, parser) -> int:
    config = _make_config(args, parser)
    adversary = _make_adversary(args, parser, config.num_rounds)
    announce = _parse_announce(args, parser, config.num_rounds)
    session = run_session(config, adversary)
    if announce:
        announce_subsequence(session, announce)
    metrics = compute_metrics(session, config.key)
    if args.trace:
        dump_transcript(session, args.trace)
    print(
        f"dim={config.dim} rounds={config.num_rounds} attack={session.adversary_kind} "
        f"seed={config.rng_seed}"
    )
    print("key          =", ",".join(map(str, config.key)))
    print("bob outcomes =", ",".join(map(str, session.bob_outcomes)))
    print(f"qber         = {metrics.qber_overall} ({float(metrics.qber_overall):.4f})")
    print(f"announced    = {session.announced}")
    print(f"detection    = {'yes' if metrics.detection_triggered else 'no'}")
    if session.adversary_kind == "gao":
        values = [o.value for o in session.eve_observations]
        print(f"eve observations = {values}")
        print(
            f"eve known fraction = {metrics.eve_known_fraction} "
            f"candidates={metrics.eve_candidate_count}"
        )
    elif session.adversary_kind == "intercept":
        values = [r.eve_observation for r in session.rounds if r.eve_observation is not None]
        print(f"eve observations = {values}")
    if args.trace:
        print(f"trace written to {args.trace}")
    return EXIT_DETECTION if metrics.detection_triggered else EXIT_OK


def _first_difference(simulated, expected) -> str:
    a = simulated.sorted_wires()
    b = expected.sorted_wires()
    for basis in sorted(a.terms.keys() | b.terms.keys()):
        va, vb = a.complex_amplitude(basis), b.complex_amplitude(basis)
        if abs(va - vb) > 1e-9:
            return (
                f"basis {basis}: simulated ({a.amplitude(basis)}) * {a.global_factor():.6g}"
                f" != expected ({b.amplitude(basis)}) * {b.global_factor():.6g}"
            )
    return "states differ only in exact form (same amplitudes to float precision)"


def cmd_verify_paper(args, parser) -> int:
    config = _make_config(args, parser, rounds=5)
    session = run_session(config, GaoAttack())
    if args.trace:
        dump_transcript(session, args.trace)
    expected = eavesdrop_stage_states(config.dim, config.key)
    simulated = {}
    for round_transcript in session.rounds:
        simulated.update(dict(round_transcript.stages))
    failures = []
    for label, want in expected.items():
        got = simulated.get(label)
        ok = got is not None and state_equals(got, want)
        print(f"{label:<10} {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append((label, got, want))
    if failures:
        label, got, want = failures[0]
        print(f"{len(failures)} of {len(expected)} stage checks failed")
        if got is None:
            print(f"first failure: stage {label} missing from the transcript")
        else:
            print(f"first failure at {label}: {_first_difference(got, want)}")
        return EXIT_VERIFY_MISMATCH
    print(f"all {len(expected)} stage checks passed")
    return EXIT_OK


def cmd_experiment(args, parser) -> int:
    if args.trials < 1:
        parser.error(f"--trials must be positive, got {args.trials}")
    config = _make_config(args, parser)
    adversary = _make_adversary(args, parser, config.num_rounds)
    announce = _parse_announce(args, parser, config.num_rounds)
    report = monte_carlo(config, adversary, args.trials, config.rng_seed, announce=announce)
    if args.attack == "intercept":
        attack_round = (
            min(args.intercept_rounds) if args.intercept_rounds else 1
        )
        # the exact add-on enumerates rounds 1..attack_round+1
        if (
            attack_round < config.num_rounds
            and config.dim <= MAX_EXACT_DIM
            and attack_round + 1 <= MAX_EXACT_ROUNDS
        ):
            exact = exact_next_round_error(config.dim, attack_round)
            p = float(exact)
            report = dataclasses.replace(
                report,
                exact_next_round_error=exact,
                mc_next_round_error=report.round_error_rates[attack_round],
                mc_next_round_sigma3=3 * (p * (1 - p) / args.trials) ** 0.5,
            )
    text = report_to_json([report]) if args.format == "json" else report_to_csv([report])
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"report written to {args.trace}")
    else:
        print(text, end="")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "verify-paper": cmd_verify_paper,
        "experiment": cmd_experiment,
    }
    try:
        return handlers[args.command](args, parser)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
