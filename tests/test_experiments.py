"""Tests for the experiment drivers and output plumbing."""

import csv
import json
import sys
import threading
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import unot.experiments
from unot.circuit import ladder_linear, mixture_linear
from unot.cli import EXIT_FAILURE, main
from unot.evolve import _BLOCK_ROWS
from unot.experiments import (
    EXPERIMENTS,
    MAX_ARRAY_BYTES,
    ExperimentConfig,
    run_experiment,
    write_config_echo,
    write_rows,
)
from unot.oracle import _BLOCK_ROWS as _ORACLE_BLOCK_ROWS
from unot.oracle import sample_gates
from unot.rotation import rotation_batch


def test_defaults_resolve_per_experiment():
    assert ExperimentConfig("verify").trials == 1000
    assert ExperimentConfig("optimize").trials == 20
    assert ExperimentConfig("optimize").stride == 20
    assert ExperimentConfig("recover").stride == 1
    assert str(ExperimentConfig("noise-sweep").output_path()) == "noise-sweep.csv"
    assert str(ExperimentConfig("verify", format="jsonl").output_path()) == "verify.jsonl"


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig("bogus")
    with pytest.raises(ValueError):
        ExperimentConfig("verify", format="yaml")
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
    # Every field is echoed under its own name, which is its config-file key.
    keys = {item.name for item in fields(ExperimentConfig)}
    assert set(echo) == keys | {"rng_algorithm"}
    assert echo["experiment"] == "tradeoff"
    assert echo["format"] == "csv"
    assert echo["seed"] == 5
    assert echo["rng_algorithm"] == "numpy-pcg64/de-v2/arrays-v1"
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


def test_verify_checks_the_ladder_map_the_drivers_use(monkeypatch):
    # F and Delta see only Tr M and the symmetric part of M, so a transposed
    # Bloch map passes the region check; the simulation check must catch it.
    def transposed(*ladders):
        return ladder_linear(*ladders).transpose(0, 2, 1)

    monkeypatch.setattr(unot.experiments, "ladder_linear", transposed)
    result = run_experiment(ExperimentConfig("verify", trials=60, samples=2000))
    passed = {row["family"]: row["passed"] for row in result.rows}
    assert passed["region-membership"]
    assert not passed["circuit-map-equivalence"]
    assert not result.ok


def test_mixture_maps_do_not_depend_on_the_gates_past_their_count():
    # All 4 x 5 gates are drawn, row by row, then the (4, 5) weights; each
    # mixture's map is that of its own first gates and weights alone.
    counts = [2, 5, 3, 1]
    maps = unot.experiments._sample_mixtures(np.random.default_rng(9), counts)
    rng = np.random.default_rng(9)
    rotations = rotation_batch(*sample_gates(rng, 20)).reshape(4, 5, 3, 3)
    weights = rng.random((4, 5))
    for row, count in enumerate(counts):
        w = weights[row, :count] / weights[row, :count].sum()
        own = mixture_linear(w[None], rotations[row, None, :count])
        assert np.array_equal(maps[row], own[0])


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


def _sweep_rows(**settings):
    grid = (0.0, 0.1, 0.25, 0.5, 1.0)
    config = ExperimentConfig("noise-sweep", seed=6, eta_grid=grid, **settings)
    return run_experiment(config).rows


def test_noise_sweep_rows_do_not_depend_on_the_thread_count(monkeypatch):
    # Five points, each more than two kernel blocks: with two workers the
    # calling thread starts on point 0 and the second thread on point 1,
    # then each claims the next.  A short switch interval makes the threads
    # trade the GIL often.
    noise_stats = unot.experiments.noise_stats
    threads = []

    def noting_the_thread(*args):
        threads.append(threading.get_ident())
        return noise_stats(*args)

    monkeypatch.setattr(unot.experiments, "noise_stats", noting_the_thread)
    rows = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(
                unot.experiments.os, "sched_getaffinity", lambda pid: cpus, raising=False
            )
            threads.clear()
            rows[len(cpus)] = _sweep_rows(trials=2 * _BLOCK_ROWS + 7)
            assert len(threads) == 5 and len(set(threads)) == len(cpus)
    finally:
        sys.setswitchinterval(interval)
    assert rows[1] == rows[2]
    assert [row["eta"] for row in rows[1]] == [0.0, 0.1, 0.25, 0.5, 1.0]


def test_a_slow_thread_takes_fewer_points(monkeypatch):
    # The second thread holds its first point until the calling thread is
    # on the last one, so every other point goes to the calling thread.
    monkeypatch.setattr(
        unot.experiments.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )
    caller = threading.get_ident()
    last = threading.Event()
    takers = {}

    def work(k):
        takers[k] = threading.get_ident()
        if takers[k] == caller:
            if k == 8:
                last.set()
        else:
            assert last.wait(timeout=30)
        return k * k

    results = unot.experiments._on_two_threads(work, [(k,) for k in range(9)])
    assert results == [k * k for k in range(9)]
    assert [k for k, ident in takers.items() if ident != caller] == [1]


def test_usable_cpus_fall_back_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(unot.experiments.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(unot.experiments.os, "cpu_count", lambda: 2)
    assert unot.experiments._usable_cpus() == 2
    monkeypatch.setattr(unot.experiments.os, "cpu_count", lambda: None)
    assert unot.experiments._usable_cpus() == 1
    assert len(_sweep_rows(trials=20)) == 5


def _failing_point(monkeypatch, eta):
    noise_stats = unot.experiments.noise_stats

    def fail_at_eta(controls, noise, rng, count):
        if noise.strength == eta:
            raise RuntimeError("Kraus completeness violated beyond 1e-9")
        return noise_stats(controls, noise, rng, count)

    monkeypatch.setattr(unot.experiments, "noise_stats", fail_at_eta)


@pytest.mark.parametrize("eta", [0.0, 0.1, 1.0])
def test_a_failing_sweep_point_reaches_the_caller(monkeypatch, eta):
    # 0.0 fails on the calling thread's first point, 0.1 on the second
    # thread's first, 1.0 on the thread that claims the last point.
    monkeypatch.setattr(
        unot.experiments.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )
    _failing_point(monkeypatch, eta)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="Kraus completeness"):
        _sweep_rows(trials=2 * _BLOCK_ROWS + 7)
    assert threading.active_count() == before


def test_a_failing_sweep_point_exits_1(monkeypatch, tmp_path, capsys):
    _failing_point(monkeypatch, 0.1)
    out = tmp_path / "sweep.csv"
    code = main(["noise-sweep", "--trials", "20", "--out", str(out)])
    assert code == EXIT_FAILURE
    assert "invariant violation: Kraus completeness" in capsys.readouterr().err
    assert not out.exists()


def _verify_rows(**settings):
    config = ExperimentConfig(
        "verify", seed=4, trials=30, samples=2 * _ORACLE_BLOCK_ROWS + 7, **settings
    )
    return run_experiment(config).rows


def test_verify_rows_do_not_depend_on_the_thread_count(monkeypatch):
    # The 20 oracle estimates, each more than two oracle blocks: with two
    # workers the calling thread and the second thread each take some.
    mc_stats = unot.experiments.mc_stats
    threads = []

    def noting_the_thread(*args):
        threads.append(threading.get_ident())
        return mc_stats(*args)

    monkeypatch.setattr(unot.experiments, "mc_stats", noting_the_thread)
    rows = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(
                unot.experiments.os, "sched_getaffinity", lambda pid: cpus, raising=False
            )
            threads.clear()
            rows[len(cpus)] = _verify_rows()
            assert len(threads) == 20 and len(set(threads)) == len(cpus)
    finally:
        sys.setswitchinterval(interval)
    assert rows[1] == rows[2]
    assert all(row["passed"] for row in rows[1])


def _failing_estimate(monkeypatch, failing_call):
    mc_stats = unot.experiments.mc_stats
    calls = []
    lock = threading.Lock()

    def fail_at_call(*args):
        with lock:
            calls.append(None)
            call = len(calls)
        if call == failing_call:
            raise RuntimeError("bloch_map returned a non-finite Bloch vector")
        return mc_stats(*args)

    monkeypatch.setattr(unot.experiments, "mc_stats", fail_at_call)


@pytest.mark.parametrize("failing_call", [1, 2, 20])
def test_a_failing_oracle_estimate_reaches_the_caller(monkeypatch, failing_call):
    monkeypatch.setattr(
        unot.experiments.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )
    _failing_estimate(monkeypatch, failing_call)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="non-finite"):
        _verify_rows()
    assert threading.active_count() == before


def test_a_failing_oracle_estimate_exits_1(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(
        unot.experiments.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )
    _failing_estimate(monkeypatch, 2)
    out = tmp_path / "verify.csv"
    argv = ["verify", "--trials", "30", "--samples", "1000", "--out", str(out)]
    assert main(argv) == EXIT_FAILURE
    assert "invariant violation: bloch_map returned" in capsys.readouterr().err
    assert not out.exists()


def test_largest_array_estimate_meets_the_ceiling_exactly():
    # Configs only: nothing is run, so nothing of this size is allocated.
    for name, setting, per_unit, extra in (
        ("verify", "samples", 8, {}),
        ("verify", "trials", 360, {}),
        ("noise-sweep", "trials", 8, {}),
        ("tradeoff", "trials", 216, {}),
        # Below npop 65 the 63 float64 controls per member are largest (one
        # iteration, so the history stays below the ceiling),
        ("optimize", "trials", 504 * 10, {"npop": 10, "iters": 1}),
        ("recover", "trials", 504 * 10, {"npop": 10, "iters": 1}),
        # from it on the donor keys: npop - 1 float64 per member.
        ("optimize", "trials", 8 * 65 * 64, {"npop": 65}),
        ("optimize", "trials", 8 * 200 * 199, {"npop": 200}),
    ):
        largest = MAX_ARRAY_BYTES // per_unit
        ExperimentConfig(name, **{setting: largest}, **extra)
        with pytest.raises(ValueError, match="GiB ceiling"):
            ExperimentConfig(name, **{setting: largest + 1}, **extra)
    # The search history: one float64 per trial in each of iters + 1 rows.
    for name in ("optimize", "recover"):
        largest = MAX_ARRAY_BYTES // (8 * 20) - 1
        ExperimentConfig(name, iters=largest, trials=20)
        with pytest.raises(ValueError, match="iters and trials too large"):
            ExperimentConfig(name, iters=largest + 1, trials=20)
    for name in EXPERIMENTS:
        ExperimentConfig(name)


def test_ceiling_message_holds_counts_too_large_for_a_float():
    # The GiB figure must not pass through a float, which overflows at 2**1024.
    for name in ("optimize", "verify", "noise-sweep", "tradeoff"):
        with pytest.raises(ValueError, match=r"trials too large: .* \d{380,}\.\d GiB"):
            ExperimentConfig(name, trials=10**400)
    # The figure is rounded to the nearest tenth.
    with pytest.raises(ValueError, match=r"take 1\.5 GiB, above the 1 GiB ceiling"):
        ExperimentConfig("verify", samples=3 * 2**30 // 16)


def test_noise_sweep_peak_memory_stays_below_16_mib():
    # Tiling the controls and adding a same-size noise draw holds three
    # (trials, 63) float64 arrays, 25 MB each at 50 000 trials.
    config = ExperimentConfig("noise-sweep", trials=50_000, eta=0.3)
    tracemalloc.start()
    try:
        run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_report_median_is_numpy_median():
    sampler = np.random.default_rng(3)
    for n in (1, 2, 3, 20, 21):
        x = sampler.random(n)
        assert unot.experiments._median(x) == np.median(x)


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
