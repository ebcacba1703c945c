"""Tests for the experiment drivers and output plumbing."""

import csv
import json

import numpy as np
import pytest

from unot.experiments import (
    EXPERIMENTS,
    MAX_ARRAY_BYTES,
    ExperimentConfig,
    run_experiment,
    write_config_echo,
    write_rows,
)


def test_defaults_resolve_per_experiment():
    assert ExperimentConfig("verify").trials == 1000
    assert ExperimentConfig("optimize").trials == 20
    assert ExperimentConfig("optimize").stride == 20
    assert ExperimentConfig("recover").stride == 1
    assert str(ExperimentConfig("noise-sweep").output_path()) == "noise-sweep.csv"
    assert str(ExperimentConfig("verify", fmt="jsonl").output_path()) == "verify.jsonl"


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig("bogus")
    with pytest.raises(ValueError):
        ExperimentConfig("verify", fmt="yaml")
    with pytest.raises(ValueError):
        ExperimentConfig("verify", trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig("optimize", npop=3)
    with pytest.raises(ValueError):
        ExperimentConfig("recover", eta=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig("recover", period=-2)
    for tol_scale in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            ExperimentConfig("verify", tol_scale=tol_scale)
    with pytest.raises(ValueError):
        ExperimentConfig("compensate", alpha_grid=(0.1, 0.35))
    with pytest.raises(ValueError):
        ExperimentConfig("noise-sweep", eta_grid=(0.0, 1.2))
    for bad in (
        {"trials": True},
        {"npop": 10.0},
        {"cr": False},
        {"out": 5},
        {"eta_grid": (0.1, True)},
        {"eta_grid": "0.5"},
        {"eta": 0.1, "eta_grid": (0.2,)},
    ):
        with pytest.raises(ValueError):
            ExperimentConfig("noise-sweep", **bad)


def test_echo_dict_is_complete(tmp_path):
    echo = ExperimentConfig("tradeoff", seed=5).echo_dict()
    assert echo["experiment"] == "tradeoff"
    assert echo["seed"] == 5
    assert echo["rng_algorithm"] == "numpy-pcg64/de-v2"
    assert echo["trials"] == 1000
    config = ExperimentConfig(
        "recover", seed=np.int64(5), period=np.int64(7), out=str(tmp_path / "r.csv")
    )
    echo = json.loads(write_config_echo(config).read_text())
    assert (echo["seed"], echo["period"]) == (5, 7)


def test_numpy_real_settings_echo_as_plain_numbers(tmp_path):
    config = ExperimentConfig(
        "compensate",
        tol_scale=np.float32(2),
        cr=np.float32(0.5),
        out=str(tmp_path / "f.csv"),
    )
    echo = json.loads(write_config_echo(config).read_text())
    assert (echo["tol_scale"], echo["cr"]) == (2.0, 0.5)
    assert type(config.tol_scale) is float and type(config.cr) is float


def test_write_rows_csv_format(tmp_path):
    path = tmp_path / "rows.csv"
    rows = [{"x": 1.0 / 3.0, "n": 3, "flag": True}]
    write_rows(path, ["x", "n", "flag"], rows, "csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "x,n,flag"
    assert lines[1] == "0.333333333333,3,True"


def test_write_rows_jsonl_round_trip(tmp_path):
    path = tmp_path / "rows.jsonl"
    rows = [{"x": 2.0 / 3.0, "n": 7, "flag": False}]
    write_rows(path, ["x", "n", "flag"], rows, "jsonl")
    parsed = [json.loads(line) for line in path.read_text().splitlines()]
    assert parsed == [{"x": 0.666666666667, "n": 7, "flag": False}]


def test_config_echo_file(tmp_path):
    config = ExperimentConfig("compensate", out=str(tmp_path / "c.csv"))
    echo_path = write_config_echo(config)
    data = json.loads(echo_path.read_text())
    assert data["experiment"] == "compensate"
    assert echo_path.name == "c.csv.config.json"


def test_verify_passes_at_reduced_scale():
    config = ExperimentConfig("verify", trials=60, samples=4000, seed=1)
    result = run_experiment(config)
    assert result.ok
    assert len(result.rows) == 9
    assert all(row["passed"] for row in result.rows)


def test_verify_fails_with_corrupted_tolerances():
    config = ExperimentConfig("verify", trials=30, samples=2000, tol_scale=1e-8)
    result = run_experiment(config)
    assert not result.ok
    assert any(not row["passed"] for row in result.rows)


def test_tradeoff_rows_stay_inside_their_regions():
    config = ExperimentConfig("tradeoff", trials=80, seed=2)
    result = run_experiment(config)
    assert result.ok
    assert len(result.rows) == 240
    assert {row["qubit_count"] for row in result.rows} == {1, 2, 3}
    assert all(row["in_region"] for row in result.rows)


def test_noise_sweep_zero_eta_row_is_exact():
    config = ExperimentConfig(
        "noise-sweep", trials=50, seed=3, eta_grid=(0.0, 0.2)
    )
    rows = run_experiment(config).rows
    assert len(rows) == 2
    assert abs(rows[0]["mean_f"] - 2.0 / 3.0) < 1e-12
    assert rows[0]["mean_delta"] < 1e-13
    assert rows[0]["std_f"] < 1e-12
    assert rows[1]["mean_f"] < rows[0]["mean_f"]
    assert rows[1]["mean_delta"] > 0.01


def test_largest_array_estimate_meets_the_ceiling_exactly():
    # Configs only: nothing is run, so nothing of this size is allocated.
    for name, setting, per_unit, extra in (
        ("verify", "samples", 128, {}),
        ("verify", "trials", 360, {}),
        ("noise-sweep", "trials", 1024, {}),
        ("tradeoff", "trials", 216, {}),
        # Below npop 130 the first evaluation's 1 KiB per member is largest,
        ("optimize", "trials", 1024 * 10, {"npop": 10}),
        ("recover", "trials", 1024 * 10, {"npop": 10}),
        # above it the donor keys: npop - 1 float64 per member.
        ("optimize", "trials", 8 * 200 * 199, {"npop": 200}),
    ):
        largest = MAX_ARRAY_BYTES // per_unit
        ExperimentConfig(name, **{setting: largest}, **extra)
        with pytest.raises(ValueError, match="GiB ceiling"):
            ExperimentConfig(name, **{setting: largest + 1}, **extra)
    for name in EXPERIMENTS:
        ExperimentConfig(name)


def test_noise_sweep_single_eta_flag():
    config = ExperimentConfig("noise-sweep", trials=20, eta=0.1, seed=4)
    rows = run_experiment(config).rows
    assert len(rows) == 1
    assert rows[0]["eta"] == 0.1


def test_optimize_rows_and_improvement():
    config = ExperimentConfig("optimize", trials=3, iters=40, stride=15, seed=5)
    rows = run_experiment(config).rows
    assert [row["iteration"] for row in rows] == [0, 15, 30, 40]
    assert all(row["trials"] == 3 for row in rows)
    fitness = [row["mean_fitness"] for row in rows]
    assert fitness[-1] > fitness[0]
    assert not any(row["noise_injected"] for row in rows)


def test_recover_emits_both_schedules_by_default():
    config = ExperimentConfig("recover", trials=2, iters=8, eta=0.3, stride=4)
    result = run_experiment(config)
    schedules = {row["schedule"] for row in result.rows}
    assert schedules == {50, 100}


def test_recover_with_noise_disabled_matches_optimize():
    opt = ExperimentConfig("optimize", trials=2, iters=12, stride=3, seed=6)
    rec = ExperimentConfig(
        "recover", trials=2, iters=12, stride=3, seed=6, eta=0.0, period=50
    )
    opt_rows = run_experiment(opt).rows
    rec_rows = run_experiment(rec).rows
    assert len(opt_rows) == len(rec_rows)
    for a, b in zip(opt_rows, rec_rows):
        b = dict(b)
        assert b.pop("schedule") == 50
        assert a == b


def test_recover_marks_injection_iterations():
    config = ExperimentConfig(
        "recover", trials=2, iters=10, eta=0.6, period=4, stride=1, seed=7
    )
    rows = run_experiment(config).rows
    injected = [row["iteration"] for row in rows if row["noise_injected"]]
    assert injected == [4, 8]


def test_compensate_default_grid_and_columns():
    result = run_experiment(ExperimentConfig("compensate"))
    alphas = [row["alpha"] for row in result.rows]
    assert len(alphas) == 25
    assert min(alphas) > 0.0 and max(alphas) < 0.3
    assert any(abs(a - 0.05) < 1e-12 for a in alphas)
    for row in result.rows:
        assert row["deviation_four_gate"] < row["deviation_three_gate"]
        assert abs(row["avg_fidelity"] - 2.0 / 3.0) < 1e-12
        expected = 2.0 * row["alpha"] / (3.0 * np.sqrt(15.0))
        assert abs(row["deviation_three_gate"] - expected) < 1e-12


@pytest.mark.parametrize("grid", [None, (1e-3, 1e-4, 1e-5)], ids=["default", "tiny"])
def test_compensate_rows_match_the_closed_forms(grid):
    # Delta of the three-gate map is 2 alpha / (3 sqrt 15), of the four-gate
    # map 2 alpha^2 / (3 sqrt 15); the four-gate value is 1.7e-11 at 1e-5.
    scale = 2.0 / (3.0 * np.sqrt(15.0))
    for row in run_experiment(ExperimentConfig("compensate", alpha_grid=grid)).rows:
        alpha = row["alpha"]
        assert abs(row["deviation_three_gate"] - scale * alpha) < 1e-16
        assert abs(row["deviation_four_gate"] - scale * alpha * alpha) < 1e-16


def test_rows_respect_trace_ranges():
    config = ExperimentConfig("recover", trials=2, iters=20, eta=0.8, period=5, seed=8)
    for row in run_experiment(config).rows:
        assert 0.0 <= row["mean_f"] <= 1.0
        assert 0.0 <= row["mean_delta"] <= 0.5
        assert row["std_f"] >= 0.0 and row["std_delta"] >= 0.0
