"""Frozen golden outputs of every subcommand at small settings.

Each fixture under tests/golden/ holds the config echo, the rows and the
pass flag of one run, with floats at full precision.  A rerun must
reproduce integer, bool and string values exactly and each float within
1e-12 of its golden value's magnitude plus 1e-15, since BLAS builds may
differ in the last few ulps.

The fixtures change only together with a declared change of the random
stream or a declared move of a computed value.  To rewrite the named
fixtures:  PYTHONPATH=src python tests/test_golden.py verify compensate
With no names, only the fixtures that fail the comparison are rewritten.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from unot.experiments import ExperimentConfig, run_experiment

GOLDEN_DIR = Path(__file__).parent / "golden"
# A float passes within REL_TOL * |golden| + ABS_TOL.
REL_TOL = 1e-12
ABS_TOL = 1e-15

# Subcommand -> settings that differ from its defaults.
GOLDEN_RUNS = {
    "optimize": {"trials": 2, "iters": 50},
    "recover": {"trials": 2, "iters": 120, "period": 50},
    "noise-sweep": {"trials": 50},
    "verify": {"trials": 60, "samples": 2000},
    "tradeoff": {"trials": 60},
    "compensate": {},
}


def _plain(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def golden_record(name: str) -> dict:
    config = ExperimentConfig(experiment=name, **GOLDEN_RUNS[name])
    result = run_experiment(config)
    return {
        "config": config.echo_dict(),
        "fieldnames": result.fieldnames,
        "rows": [{k: _plain(v) for k, v in row.items()} for row in result.rows],
        "ok": bool(result.ok),
    }


def _fixture_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def _assert_same(fresh, golden, where: str) -> None:
    if isinstance(golden, float):
        assert isinstance(fresh, float), f"{where}: {fresh!r} is not a float"
        assert abs(fresh - golden) <= REL_TOL * abs(golden) + ABS_TOL, (
            f"{where}: {fresh!r} != {golden!r}"
        )
    else:
        assert type(fresh) is type(golden) and fresh == golden, (
            f"{where}: {fresh!r} != {golden!r}"
        )


def _assert_reproduces(fresh: dict, golden: dict, name: str) -> None:
    """Raise AssertionError unless the record `fresh` matches `golden`."""
    assert fresh["config"] == golden["config"]
    assert fresh["fieldnames"] == golden["fieldnames"]
    assert fresh["ok"] == golden["ok"]
    assert len(fresh["rows"]) == len(golden["rows"])
    for index, (row, ref) in enumerate(zip(fresh["rows"], golden["rows"])):
        assert list(row) == list(ref)
        for key in ref:
            _assert_same(row[key], ref[key], f"{name} row {index} {key}")


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_output_is_reproduced(name):
    golden = json.loads(_fixture_path(name).read_text())
    _assert_reproduces(golden_record(name), golden, name)


def _fails(name: str, fresh: dict) -> bool:
    path = _fixture_path(name)
    if not path.exists():
        return True
    try:
        _assert_reproduces(fresh, json.loads(path.read_text()), name)
    except AssertionError:
        return True
    return False


if __name__ == "__main__":
    names = sys.argv[1:]
    unknown = sorted(set(names) - set(GOLDEN_RUNS))
    if unknown:
        sys.exit(f"unknown fixture(s): {', '.join(unknown)}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for run_name in names or sorted(GOLDEN_RUNS):
        record = golden_record(run_name)
        if names or _fails(run_name, record):
            path = _fixture_path(run_name)
            path.write_text(json.dumps(record, indent=1) + "\n")
            print(f"wrote {path}", file=sys.stderr)
