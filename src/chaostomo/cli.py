"""Command-line entry point: run or validate experiment configurations."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .experiments import EXPERIMENTS, ConfigError, ExperimentConfig, parse_config, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaostomo",
        description="Kicked-top weak-measurement tomography experiments (CSV output).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run an experiment and write CSV series")
    run_parser.add_argument("--experiment", choices=EXPERIMENTS, help="experiment to run")
    run_parser.add_argument("--config", help="key=value config file")
    run_parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    run_parser.add_argument(
        "--lambda", dest="lambda_list", type=float, nargs="+", metavar="LAM",
        help="kick strengths to sweep (overrides config)",
    )
    run_parser.add_argument("--out", dest="output_dir", help="output directory")

    validate_parser = sub.add_parser("validate", help="check a config file and exit")
    validate_parser.add_argument("--config", required=True, help="key=value config file")
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    # Flags go in as argparse parsed them; the config stores each as its annotated type.
    keys = (f.name for f in fields(ExperimentConfig))
    return {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config, _overrides(args))
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print(f"config ok: experiment={config.experiment}")
        return 0
    try:
        manifest = run(config)
    except Exception as exc:  # noqa: BLE001 - report any runtime failure with exit 1
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    for path in manifest.series_files:
        print(path)
    print(f"done in {manifest.duration_seconds:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
