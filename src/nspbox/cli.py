"""Command-line entry point.

    nsp run|linear|refine|perturb|check-lemmas [--config PATH] [--assert] [--out DIR]

Exit codes: 0 ok, 1 assertion failure, 2 configuration error (an unreadable
config file included), 3 numerical abort, 4 I/O error (an output directory
that cannot be created or written).
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, config_help, parse_config
from .experiments import (
    experiment_check_lemmas,
    experiment_linear,
    experiment_nonlinear,
    experiment_perturb,
    experiment_refine,
)
from .stepper import NumericalAbort

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_DRIVERS = {
    "run": experiment_nonlinear,
    "linear": experiment_linear,
    "refine": experiment_refine,
    "perturb": experiment_perturb,
    "check-lemmas": experiment_check_lemmas,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsp",
        description="periodic-box charged-fluid solver and shell-norm analysis harness",
        epilog=config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=sorted(_DRIVERS), help="experiment driver")
    parser.add_argument("--config", help="configuration file (defaults apply when omitted)")
    parser.add_argument(
        "--assert",
        dest="enforce",
        action="store_true",
        help="exit nonzero if any enabled assertion fails",
    )
    parser.add_argument("--out", help="output directory (overrides output.dir)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        else:
            text = ""
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = args.out if args.out is not None else cfg.output_dir
    print(f"nsp {args.command}: grid {cfg.grid.dim}D M={cfg.grid.size}, out={out_dir}")

    driver = _DRIVERS[args.command]
    try:
        result = driver(cfg, out_dir, do_assert=args.enforce)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
