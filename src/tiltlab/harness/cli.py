"""Command-line entry point.

    tiltlab <subcommand> --config <path> [--seed <u64>] [--out <dir>]

Subcommands mirror the run kinds (pretrain, finetune, guide, oracle, eval,
sweep); ``plotdata`` post-processes an existing run directory given via
--out. Exit codes: 0 success, 2 validation failure, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import NumericError
from .config import RUN_KINDS, load_config
from .plotdata import emit_plotdata
from .runner import EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, VALIDATION_ERRORS, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tiltlab",
                                     description="KL-tilted diffusion fine-tuning laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in RUN_KINDS:
        p = sub.add_parser(kind, help=f"run a '{kind}' experiment from a config file")
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
    p = sub.add_parser("plotdata", help="emit tidy plot CSVs for a finished run")
    p.add_argument("--out", required=True, help="run directory to post-process")
    p.add_argument("--config", default=None, help=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=None, help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "plotdata":
        try:
            emit_plotdata(args.out)
        except VALIDATION_ERRORS as exc:
            print(f"plotdata failed: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        except NumericError as exc:
            print(f"numeric failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        return EXIT_OK

    try:
        cfg = load_config(args.config)
    except Exception as exc:
        print(f"cannot load config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    cfg.setdefault("kind", args.command)
    if cfg["kind"] != args.command:
        print(f"config kind '{cfg['kind']}' does not match subcommand '{args.command}'",
              file=sys.stderr)
        return EXIT_VALIDATION
    if args.seed is not None:
        cfg["seed"] = args.seed
    out = args.out or cfg.get("out")
    if not out:
        print("no output directory: pass --out or set 'out' in the config", file=sys.stderr)
        return EXIT_VALIDATION
    return run_experiment(cfg, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
