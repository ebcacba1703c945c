"""Frozen golden outputs of every subcommand at small settings.

Each fixture under tests/golden/ holds the config echo, the rows and the
pass flag of one run, with floats at full precision.  A rerun must
reproduce integer, bool and string values exactly and floats within 1e-12,
since BLAS builds may differ in the last ulp.

The fixtures change only together with a declared change of the random
stream.  To write them:  PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from unot.experiments import ExperimentConfig, run_experiment

GOLDEN_DIR = Path(__file__).parent / "golden"
FLOAT_TOL = 1e-12

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
    config = ExperimentConfig(name=name, **GOLDEN_RUNS[name])
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
        assert abs(fresh - golden) <= FLOAT_TOL, f"{where}: {fresh!r} != {golden!r}"
    else:
        assert type(fresh) is type(golden) and fresh == golden, (
            f"{where}: {fresh!r} != {golden!r}"
        )


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_output_is_reproduced(name):
    golden = json.loads(_fixture_path(name).read_text())
    fresh = golden_record(name)
    assert fresh["config"] == golden["config"]
    assert fresh["fieldnames"] == golden["fieldnames"]
    assert fresh["ok"] == golden["ok"]
    assert len(fresh["rows"]) == len(golden["rows"])
    for index, (row, ref) in enumerate(zip(fresh["rows"], golden["rows"])):
        assert list(row) == list(ref)
        for key in ref:
            _assert_same(row[key], ref[key], f"{name} row {index} {key}")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for run_name in sorted(GOLDEN_RUNS):
        path = _fixture_path(run_name)
        path.write_text(json.dumps(golden_record(run_name), indent=1) + "\n")
        print(f"wrote {path}", file=sys.stderr)
