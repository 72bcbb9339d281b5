"""Command-line experiment runner.

    ifd-sim <scenario> --config <file> [--seed <u64>] [--out <dir>] [--threads <n>]

Exit codes: 0 on success, 2 on configuration errors, 3 when a numeric
tolerance guarantee fails during propagation. Outputs are byte-identical
for identical (config, seed). --threads (default IFD_SIM_THREADS, then the
config's threads) must be at least 1 but has no effect: every scenario
runs in one thread.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import ConfigError, NumericToleranceError
from .config import load_config
from .scenarios import CSV_NAMES, SCENARIOS, emit_csv, emit_summary_json, run_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifd-sim",
        description="Interaction-free detection simulator: scenario runner.",
    )
    parser.add_argument("scenario", choices=tuple(SCENARIOS), help="scenario to run")
    parser.add_argument("--config", required=True, help="key=value configuration file")
    parser.add_argument("--seed", type=int, default=None, help="override rng_seed")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted for compatibility, no effect; must be >= 1 (default: IFD_SIM_THREADS or 1)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, scenario=args.scenario)
        if args.seed is not None:
            config = replace(config, rng_seed=args.seed)
        if args.out is not None:
            config = replace(config, output_dir=args.out)
        threads = args.threads
        if threads is None:
            env_threads = os.environ.get("IFD_SIM_THREADS", str(config.threads))
            try:
                threads = int(env_threads)
            except ValueError:
                raise ConfigError(f"IFD_SIM_THREADS must be an integer, got {env_threads!r}") from None
        if threads < 1:
            raise ConfigError("threads must be >= 1")
        config = replace(config, threads=threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        result = run_scenario(config)
        os.makedirs(config.output_dir, exist_ok=True)
        csv_path = os.path.join(config.output_dir, CSV_NAMES[config.scenario])
        emit_csv(result, csv_path)
        emit_summary_json(result, os.path.join(config.output_dir, "summary.json"))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericToleranceError as exc:
        print(f"numeric tolerance failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2

    print(f"{config.scenario}: {len(result.rows)} rows -> {csv_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
