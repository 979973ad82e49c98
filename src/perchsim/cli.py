"""Command-line entry point.

Usage: ``perchsim <scenario> [--config PATH] [--seed N] [--out DIR]``.
Exit codes: 0 = scenario criteria met, 1 = criteria failed,
2 = configuration error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .config import ConfigError, load_config
from .harness import (
    EXIT_CONFIG_ERROR,
    RunConfig,
    Scenario,
    run_scenario,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perchsim",
        description="Deterministic branch-perching simulation scenarios.",
    )
    parser.add_argument("scenario",
                        choices=[s.value for s in Scenario],
                        help="scenario to run")
    parser.add_argument("--config", metavar="PATH",
                        help="key = value configuration file")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="base RNG seed (default 0)")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default current)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = load_config(args.config) if args.config else {}
        cfg = RunConfig(scenario=Scenario(args.scenario), out_dir=args.out,
                        seed=args.seed, overrides=overrides)
        return run_scenario(cfg)
    except (ConfigError, OSError) as exc:
        print(f"perchsim: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
