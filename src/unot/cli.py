"""Command-line entry point.

Subcommands map one-to-one onto the experiment drivers.  Each subcommand
takes `--out`, `--format` and `--config`, plus one flag per setting its
experiment reads (`experiments.SETTINGS`); a JSON config file may hold `out`,
`format` and those same settings, and no other key.  Settings resolve with
flags taking precedence over the config file, which takes precedence over
built-in defaults.  Exit codes: 0 on success, 1 when a verification or
invariant check fails, 2 for invalid configuration, including an output
path that cannot be written (checked before the run).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .experiments import (
    SETTINGS,
    ExperimentConfig,
    run_experiment,
    write_config_echo,
    write_rows,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_CONFIG = 2

_COMMAND_HELP = {
    "verify": "check closed forms against oracles",
    "tradeoff": "sample circuits across the F-Delta region",
    "noise-sweep": "response of the optimal controls to control noise",
    "optimize": "differential-evolution search runs",
    "recover": "search under periodically injected control noise",
    "compensate": "deviation of tilted-axis mixtures",
}

# Flag type and help of every setting; the grids are config-file keys only.
_FLAGS = {
    "seed": (int, "master RNG seed"),
    "trials": (int, "number of repetitions"),
    "samples": (int, "Monte Carlo samples per estimate"),
    "npop": (int, "population size"),
    "dweight": (float, "differential weight"),
    "cr": (float, "crossover rate"),
    "iters": (int, "iteration count"),
    "stride": (int, "iterations between output rows"),
    "eta": (float, "noise degree in [0, 1]"),
    "period": (int, "iterations between injections"),
    "tol_scale": (float, "multiply every verification budget by this factor"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unot",
        description="Fidelity statistics and noise experiments for "
        "approximate universal spin-flip operations.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, settings in SETTINGS.items():
        sub = subs.add_parser(command, help=_COMMAND_HELP[command])
        sub.add_argument("--out", help="output file path")
        sub.add_argument(
            "--format", dest="fmt", choices=("csv", "jsonl"), help="output format"
        )
        sub.add_argument("--config", help="JSON config file")
        for name in settings:
            if name in _FLAGS:
                kind, text = _FLAGS[name]
                sub.add_argument("--" + name.replace("_", "-"), type=kind, help=text)
    return parser


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    keys = ("out", "format", *SETTINGS[args.command])
    merged: dict = {}
    if args.config:
        data = json.loads(Path(args.config).read_text())
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in data.items():
            if key not in keys:
                raise ValueError(
                    f"config key {key!r} is not a setting of {args.command} "
                    f"(allowed: {', '.join(keys)})"
                )
            merged["fmt" if key == "format" else key] = value
    for name, value in vars(args).items():
        if name not in ("command", "config") and value is not None:
            merged[name] = value
    config = ExperimentConfig(name=args.command, **merged)
    out = config.output_path()
    if out.is_dir() or not os.access(out.parent, os.W_OK | os.X_OK):
        raise ValueError(f"out {str(out)!r} is a directory or not in a writable folder")
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
    write_rows(config.output_path(), result.fieldnames, result.rows, config.fmt)
    echo_path = write_config_echo(config)
    for line in result.report:
        print(line)
    print(f"wrote {config.output_path()} ({len(result.rows)} rows), {echo_path}")
    return EXIT_OK if result.ok else EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
