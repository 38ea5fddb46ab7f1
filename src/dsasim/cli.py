"""Command-line front end: run scenarios, validate configs, query the oracle."""
from __future__ import annotations

import argparse
import logging
import sys

from .config import load_config
from .errors import ConfigError, DsasimError
from .metrics import erlang_b
from .runner import run_scenario


def _seed(text: str) -> int:
    """An ``--seed-override`` value: an integer >= 0, as ``traffic.seed`` is."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsasim",
        description="Discrete-event simulator of dynamic spectrum sharing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario (single run or sweep)")
    run.add_argument("config", help="scenario YAML document")
    run.add_argument("--out", required=True, help="output directory for results")
    run.add_argument(
        "--seed-override", type=_seed, default=None, help="replace the config's base seed"
    )
    run.add_argument(
        "--verbose", action="store_true", help="debug logging plus per-run session logs"
    )

    validate = sub.add_parser("validate", help="parse and validate a scenario document")
    validate.add_argument("config", help="scenario YAML document")

    oracle = sub.add_parser("erlang-b", help="evaluate the Erlang-B blocking formula")
    oracle.add_argument("--channels", type=int, required=True, help="number of channels K")
    oracle.add_argument("--load", type=float, required=True, help="offered load in Erlangs")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )

    if args.command == "erlang-b":
        try:
            print(f"{erlang_b(args.channels, args.load):.9f}")
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    try:
        config = load_config(args.config)
    except FileNotFoundError:
        print(f"error: no such file: {args.config}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {args.config}: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"{args.config}: OK")
        return 0

    try:
        return run_scenario(
            config, args.out, seed_override=args.seed_override, verbose=args.verbose
        )
    except DsasimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
