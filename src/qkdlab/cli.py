"""Command-line front end.

Subcommands:

  run           simulate one session and print its metrics
  verify-paper  check every stage of a five-round attacked session
                against independently constructed closed forms
  experiment    aggregate metrics over many seeded sessions

Every subcommand takes --d and --seed (default 0).  run and verify-paper
simulate one key, given by --key or drawn from --key-seed; experiment
draws a fresh key for every trial and takes neither.

Exit codes: 0 success, 1 runtime error, 2 detection triggered,
3 verification mismatch, 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .adversary import GaoAttack, InterceptResend
from .analysis import (
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
    check_rounds,
    check_seed,
    dump_transcript,
    make_rng,
    parse_announce,
    parse_int,
    parse_int_list,
    run_session,
)
from .register import first_difference

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DETECTION = 2
EXIT_VERIFY_MISMATCH = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _dit_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(parse_int_list(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _int(text: str) -> int:
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _seed(text: str) -> int:
    try:
        return check_seed(parse_int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer in [0, 2**64), got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qkdlab", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--d", type=_int, default=3, help="qudit dimension (default 3)")
    common.add_argument("--seed", type=_seed, default=0, help="session RNG seed (default 0)")

    # run and verify-paper simulate one key; experiment draws a fresh one per trial
    keyed = argparse.ArgumentParser(add_help=False)
    key_group = keyed.add_mutually_exclusive_group()
    key_group.add_argument("--key", type=_dit_list, help="comma-separated key dits")
    key_group.add_argument("--key-seed", type=_seed, help="derive a random key from this seed")

    # run and experiment choose the session's length and adversary
    session = argparse.ArgumentParser(add_help=False)
    session.add_argument("--rounds", type=_int, default=5, help="number of rounds (default 5)")
    session.add_argument(
        "--attack",
        choices=("none", "intercept", "gao"),
        default="none",
        help="channel adversary (default none)",
    )
    session.add_argument(
        "--intercept-rounds",
        type=_dit_list,
        default=None,
        help="rounds the interceptor measures, with --attack intercept (default: all)",
    )
    session.add_argument(
        "--announce",
        default="none",
        help='rounds whose dits Alice announces: "none", "odd", "even", or a comma list',
    )

    run = sub.add_parser("run", parents=[common, keyed, session], help="simulate one session")
    run.add_argument("--trace", help="write the session transcript (JSON) to this path")
    run.set_defaults(handler=cmd_run, parser=run)

    verify = sub.add_parser(
        "verify-paper",
        parents=[common, keyed],
        help="check simulated stages against closed forms",
    )
    verify.add_argument("--trace", help="write the session transcript (JSON) to this path")
    # the closed forms describe a five-round session
    verify.set_defaults(rounds=5, handler=cmd_verify_paper, parser=verify)

    experiment = sub.add_parser(
        "experiment", parents=[common, session], help="aggregate many seeded sessions"
    )
    experiment.add_argument("--trials", type=_int, default=1000, help="number of sessions")
    experiment.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    experiment.add_argument("--trace", help="write the report to this path")
    experiment.set_defaults(handler=cmd_experiment, parser=experiment)
    return parser


def _resolve_key(args, parser) -> tuple[int, ...]:
    rounds = args.rounds
    if args.key is not None:
        key = args.key
        if len(key) != rounds:
            parser.error(f"--key has {len(key)} dits but the session has {rounds} rounds")
        return key
    if args.d < 2 or rounds < 1:
        return ()  # nothing to draw; ProtocolConfig names the bad --d or --rounds
    key_seed = args.key_seed if args.key_seed is not None else args.seed
    rng = make_rng(key_seed, stream=1)
    return tuple(rng.randrange(args.d) for _ in range(rounds))


def _make_config(args, parser, key) -> ProtocolConfig:
    try:
        return ProtocolConfig(dim=args.d, num_rounds=args.rounds, key=key, rng_seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))


def _make_adversary(args, parser, num_rounds: int):
    if args.intercept_rounds is not None and args.attack != "intercept":
        parser.error("--intercept-rounds needs --attack intercept")
    if args.attack == "none":
        return None
    if args.attack == "intercept":
        rounds = args.intercept_rounds
        if rounds is None:
            return InterceptResend()
        try:
            return InterceptResend(check_rounds(rounds, num_rounds, "--intercept-rounds"))
        except ValueError as exc:
            parser.error(str(exc))
    return GaoAttack()


def _parse_announce(args, parser, num_rounds: int) -> list[int]:
    try:
        return parse_announce(args.announce, num_rounds)
    except ValueError as exc:
        parser.error(f"--announce: {exc}")


def cmd_run(args, parser) -> int:
    config = _make_config(args, parser, _resolve_key(args, parser))
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
    if session.adversary_kind != "none":
        values = [r.eve_observation for r in session.rounds if r.eve_observation is not None]
        print(f"eve observations = {values}")
    if session.eve_knowledge() is not None:
        print(
            f"eve known fraction = {metrics.eve_known_fraction} "
            f"candidates={metrics.eve_candidate_count}"
        )
    if args.trace:
        print(f"trace written to {args.trace}")
    return EXIT_DETECTION if metrics.detection_triggered else EXIT_OK


def cmd_verify_paper(args, parser) -> int:
    config = _make_config(args, parser, _resolve_key(args, parser))
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
        diff = "missing from the transcript" if got is None else first_difference(got, want)
        print(f"{label:<10} {'ok' if diff is None else 'FAIL'}")
        if diff is not None:
            failures.append((label, diff))
    if failures:
        label, diff = failures[0]
        print(f"{len(failures)} of {len(expected)} stage checks failed")
        print(f"first failure at {label} (simulated != expected): {diff}")
        return EXIT_VERIFY_MISMATCH
    print(f"all {len(expected)} stage checks passed")
    return EXIT_OK


def cmd_experiment(args, parser) -> int:
    if args.trials < 1:
        parser.error(f"--trials must be positive, got {args.trials}")
    # monte_carlo draws each trial's key, so the config's key only fills the slot
    config = _make_config(args, parser, (0,) * args.rounds)
    adversary = _make_adversary(args, parser, config.num_rounds)
    announce = _parse_announce(args, parser, config.num_rounds)
    report = monte_carlo(config, adversary, args.trials, config.rng_seed, announce=announce)
    if args.attack == "intercept":
        attack_round = min(args.intercept_rounds or (1,))
        # the exact add-on needs a round after the first intercepted one
        if attack_round < config.num_rounds:
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
    args = build_parser().parse_args(argv)
    try:
        # args.parser is the subcommand's own, so the usage errors a handler
        # finds read "qkdlab run: error: ..." like the ones argparse finds
        return args.handler(args, args.parser)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
