"""Command-line entry point.

Subcommands map one-to-one onto the experiment drivers in
`experiments.EXPERIMENTS`, which also gives each its help line.  Each
subcommand takes `--out`, `--format` and `--config`, plus one flag per
numeric setting its experiment reads, typed, described and given its
interval by `experiments.SETTING_TYPES`; a JSON config file may hold `out`,
`format` and the experiment's settings, and no other key.  Settings resolve
with flags taking precedence over the config file, which takes precedence
over built-in defaults.  Exit codes: 0 on success, 1 when a verification or
invariant check fails or the run runs out of memory, 2 for invalid
configuration, including a row file or config echo path that cannot be
written (checked before the run).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .experiments import (
    EXPERIMENTS,
    FORMATS,
    SETTING_TYPES,
    ExperimentConfig,
    run_experiment,
    write_config_echo,
    write_rows,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_CONFIG = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unot",
        description="Fidelity statistics and noise experiments for "
        "approximate universal spin-flip operations.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, experiment in EXPERIMENTS.items():
        sub = subs.add_parser(command, help=experiment.help)
        sub.add_argument("--out", help="output file path")
        sub.add_argument("--format", choices=FORMATS, help="output format")
        sub.add_argument("--config", help="JSON config file")
        for name in experiment.settings:
            if name in SETTING_TYPES:
                kind, interval, text = SETTING_TYPES[name]
                flag = "--" + name.replace("_", "-")
                sub.add_argument(flag, type=kind, help=f"{text}, in {interval}")
    return parser


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    keys = ("out", "format", *EXPERIMENTS[args.command].settings)
    merged: dict = {}
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text())
        except RecursionError:
            raise ValueError("config file nests too deeply to read") from None
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in data.items():
            if key not in keys:
                raise ValueError(
                    f"config key {key!r} is not a setting of {args.command} "
                    f"(allowed: {', '.join(keys)})"
                )
            merged[key] = value
    for name, value in vars(args).items():
        if name not in ("command", "config") and value is not None:
            merged[name] = value
    config = ExperimentConfig(experiment=args.command, **merged)
    for path in (config.output_path(), config.echo_path()):
        if path.is_dir() or not os.access(path.parent, os.W_OK | os.X_OK):
            raise ValueError(
                f"out {str(path)!r} is a directory or not in a writable folder"
            )
    return config


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _build_config(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        result = run_experiment(config)
    except RuntimeError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    write_rows(config.output_path(), result.fieldnames, result.rows, config.format)
    echo_path = write_config_echo(config)
    for line in result.report:
        print(line)
    print(f"wrote {config.output_path()} ({len(result.rows)} rows), {echo_path}")
    return EXIT_OK if result.ok else EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
