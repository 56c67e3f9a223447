"""Command-line entry point.

All subcommands take the same declarative JSON config; `--set` overrides
individual keys. Exit codes: 0 success, 2 config error, 1 runtime error;
every failure prints one line to stderr, and `STANCECAST_LOG=debug` adds the
traceback of an unexpected one.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys

from .config import ConfigError, PipelineConfig
from .pipeline import STAGES, PipelineError, run_stage

log = logging.getLogger("stancecast.cli")

_COMMANDS = {name: functools.partial(run_stage, stage=name) for name in STAGES}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stancecast",
        description="Thread reconstruction, stance labeling, and next-stance forecasting",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, stage in STAGES.items():
        sub = subparsers.add_parser(name, help=stage.help)
        sub.add_argument("--config", required=True, help="path to the JSON config file")
        sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override a config key, e.g. learning.outer_k=5")
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("STANCECAST_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](PipelineConfig.from_file(args.config, overrides=args.set))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        log.debug("%s failed", args.command, exc_info=True)
        message = " ".join(str(exc).splitlines())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
