"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import unot
from unot.cli import EXIT_BAD_CONFIG, EXIT_FAILURE, EXIT_OK, main
from unot.experiments import EXPERIMENTS, SETTING_TYPES


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_verify_smoke(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    code = main(
        ["verify", "--trials", "40", "--samples", "3000", "--out", str(out)]
    )
    assert code == EXIT_OK
    assert out.exists()
    assert (tmp_path / "verify.csv.config.json").exists()
    rows = _read_csv(out)
    assert len(rows) == 9
    assert all(row["passed"] == "True" for row in rows)
    stdout = capsys.readouterr().out
    assert "9/9 families passed" in stdout


def test_verify_corrupted_tolerance_exits_nonzero(tmp_path):
    out = tmp_path / "verify.csv"
    code = main(
        [
            "verify",
            "--trials", "30",
            "--samples", "2000",
            "--tol-scale", "1e-8",
            "--out", str(out),
        ]
    )
    assert code == EXIT_FAILURE
    rows = _read_csv(out)
    assert any(row["passed"] == "False" for row in rows)


def test_reruns_are_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for out in (first, second):
        code = main(
            ["tradeoff", "--trials", "30", "--seed", "9", "--out", str(out)]
        )
        assert code == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [["noise-sweep", "--trials", "50"], ["verify", "--trials", "20", "--samples", "2000"]],
    ids=["noise-sweep", "verify"],
)
def test_rows_do_not_depend_on_the_blas_thread_count(tmp_path, argv):
    # The two-thread subcommands, run once with one OpenBLAS thread and once
    # with its default pool.
    src = str(Path(unot.__file__).parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    outputs = []
    for blas in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        out = tmp_path / f"rows{len(outputs)}.csv"
        subprocess.run(
            [sys.executable, "-m", "unot.cli", *argv, "--out", str(out)],
            env={**env, **blas},
            capture_output=True,
            check=True,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_seed_changes_output(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    main(["tradeoff", "--trials", "10", "--seed", "1", "--out", str(first)])
    main(["tradeoff", "--trials", "10", "--seed", "2", "--out", str(second)])
    assert first.read_bytes() != second.read_bytes()


def test_jsonl_output_parses(tmp_path):
    out = tmp_path / "c.jsonl"
    code = main(["compensate", "--format", "jsonl", "--out", str(out)])
    assert code == EXIT_OK
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 25
    assert set(rows[0]) == {
        "alpha",
        "deviation_three_gate",
        "deviation_four_gate",
        "avg_fidelity",
    }


def test_config_file_is_used(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 12, "seed": 3, "format": "jsonl"}))
    out = tmp_path / "t.jsonl"
    code = main(["tradeoff", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    assert len(out.read_text().splitlines()) == 36
    echo = json.loads((tmp_path / "t.jsonl.config.json").read_text())
    assert echo["trials"] == 12
    assert echo["seed"] == 3


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 12, "seed": 3}))
    out = tmp_path / "t.csv"
    code = main(
        ["tradeoff", "--config", str(cfg), "--seed", "5", "--out", str(out)]
    )
    assert code == EXIT_OK
    echo = json.loads((tmp_path / "t.csv.config.json").read_text())
    assert echo["seed"] == 5
    assert echo["trials"] == 12


@pytest.mark.parametrize(
    "command, data, name",
    [
        pytest.param("tradeoff", {"tirals": 12}, "tirals", id="misspelt"),
        pytest.param("tradeoff", {"trials": 1.5}, "trials", id="float-trials"),
        pytest.param("tradeoff", {"trials": True}, "trials", id="bool-trials"),
        pytest.param("tradeoff", {"seed": 1e3}, "seed", id="float-seed"),
        pytest.param("tradeoff", {"out": 5}, "out", id="number-out"),
        pytest.param(
            "noise-sweep", {"eta_grid": [0.1, True]}, "eta_grid", id="bool-in-grid"
        ),
        pytest.param("noise-sweep", {"eta_grid": "0.5"}, "eta_grid", id="string-grid"),
        pytest.param(
            "noise-sweep", {"eta": 0.3, "eta_grid": [0.1]}, "eta_grid", id="eta-and-grid"
        ),
        pytest.param("optimize", {"eta": 0.3, "period": 5}, "eta", id="unread-keys"),
        pytest.param("compensate", {"seed": 3}, "seed", id="unread-seed"),
        pytest.param(
            "verify", {"tol_scale": float("inf")}, "tol_scale", id="inf-tol-scale"
        ),
    ],
)
def test_unknown_config_key_is_rejected(
    tmp_path, monkeypatch, capsys, command, data, name
):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(data))
    code = main([command, "--config", "cfg.json"])
    assert code == EXIT_BAD_CONFIG
    assert name in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize(
    "command, name", [("compensate", "alpha_grid"), ("noise-sweep", "eta_grid")]
)
def test_empty_grid_is_rejected_as_empty(tmp_path, monkeypatch, capsys, command, name):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps({name: []}))
    assert main([command, "--config", "cfg.json"]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert f"{name} must not be empty" in err
    assert "must lie in" not in err


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000, '{"trials": ' + "[" * 100_000],
    ids=["nested-array", "nested-value"],
)
def test_deeply_nested_config_exits_two(tmp_path, monkeypatch, capsys, text):
    monkeypatch.chdir(tmp_path)
    Path("deep.json").write_text(text)
    assert main(["compensate", "--config", "deep.json"]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.json"]


def test_real_setting_beyond_float_range_exits_two(tmp_path, monkeypatch, capsys):
    # An integer too large for a float passed the (0, inf) check and then
    # overflowed in the verify budgets.
    monkeypatch.chdir(tmp_path)
    Path("big.json").write_text('{"tol_scale": 1' + "0" * 400 + "}")
    argv = ["verify", "--trials", "10", "--samples", "1000", "--config", "big.json"]
    assert main(argv) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: tol_scale ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]


@pytest.mark.parametrize("command", ["optimize", "verify", "noise-sweep", "tradeoff"])
def test_count_beyond_float_range_exits_two(tmp_path, monkeypatch, capsys, command):
    # The ceiling message must not convert the array size to a float.
    monkeypatch.chdir(tmp_path)
    Path("big.json").write_text('{"trials": 1' + "0" * 400 + "}")
    assert main([command, "--config", "big.json"]) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "GiB ceiling" in err and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]


def test_missing_config_file_is_rejected(tmp_path):
    code = main(["tradeoff", "--config", str(tmp_path / "nope.json")])
    assert code == EXIT_BAD_CONFIG


@pytest.mark.parametrize(
    "argv, name",
    [
        pytest.param(["optimize", "--npop", "2"], "npop", id="small-npop"),
        pytest.param(["recover", "--eta", "1.5"], "eta", id="large-eta"),
        pytest.param(["verify", "--trials", "0"], "trials", id="zero-trials"),
        pytest.param(
            ["verify", "--samples", "3", "--trials", "1"], "samples", id="few-samples"
        ),
        pytest.param(["verify", "--tol-scale", "inf"], "tol_scale", id="inf-tol-scale"),
        pytest.param(["verify", "--tol-scale", "nan"], "tol_scale", id="nan-tol-scale"),
        pytest.param(["compensate", "--seed", "3"], "--seed", id="unread-seed"),
        pytest.param(
            ["noise-sweep", "--samples", "3"], "--samples", id="unread-samples"
        ),
        pytest.param(
            ["compensate", "--out", "/nonexistent/x.csv"], "out", id="missing-folder"
        ),
        pytest.param(["verify", "--out", "./"], "out", id="directory-out"),
        pytest.param(
            ["optimize", "--npop", "100000", "--iters", "1", "--trials", "1"],
            "npop",
            id="huge-npop",
        ),
        pytest.param(
            ["optimize", "--trials", "300000", "--iters", "1"], "trials", id="eval-batch"
        ),
        pytest.param(["optimize", "--iters", str(10**9)], "iters", id="huge-iters"),
        pytest.param(["recover", "--iters", str(10**9)], "iters", id="huge-recover-iters"),
        pytest.param(["noise-sweep", "--trials", str(10**9)], "trials", id="huge-trials"),
        pytest.param(["verify", "--samples", str(10**10)], "samples", id="huge-samples"),
    ],
)
def test_semantic_validation_exits_two(tmp_path, monkeypatch, capsys, argv, name):
    def never(config):
        raise AssertionError("the run started")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("unot.cli.run_experiment", never)
    assert main(argv) == EXIT_BAD_CONFIG
    assert name in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unwritable_config_echo_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("x.csv.config.json").mkdir()
    assert main(["compensate", "--out", "x.csv"]) == EXIT_BAD_CONFIG
    assert "out" in capsys.readouterr().err
    assert not Path("x.csv").exists()


def test_memory_error_exits_one_without_traceback(tmp_path, monkeypatch, capsys):
    def exhausted(config):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("unot.cli.run_experiment", exhausted)
    assert main(["optimize", "--out", "x.csv"]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "74.5 GiB" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "patches, nan_families",
    [
        pytest.param(
            {
                "mc_stats": lambda *args: (
                    types.SimpleNamespace(value=float("nan"), std_error=float("nan")),
                    None,
                ),
            },
            {"three-qubit-oracle-agreement"},
            id="three-qubit",
        ),
        pytest.param(
            {
                "full_unitary": lambda preps, angles, axes: np.full(
                    (2 ** len(angles),) * 2, np.nan, dtype=complex
                )
            },
            {"circuit-map-equivalence"},
            id="circuit-map",
        ),
    ],
)
def test_a_nan_residual_fails_its_family(
    tmp_path, monkeypatch, capsys, patches, nan_families
):
    for name, fake in patches.items():
        monkeypatch.setattr(f"unot.experiments.{name}", fake)
    out = tmp_path / "verify.csv"
    code = main(["verify", "--trials", "30", "--samples", "1000", "--out", str(out)])
    assert code == EXIT_FAILURE
    stdout = capsys.readouterr().out
    for row in _read_csv(out):
        nan = row["family"] in nan_families
        assert row["passed"] == str(not nan)
        assert (row["worst_residual"] == "nan") == nan
        if nan:
            assert f"FAIL {row['family']}: worst residual nan" in stdout


def test_non_finite_oracle_output_exits_one_without_traceback(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(
        "unot.experiments.bloch_map_from_unitary",
        lambda u: lambda a: np.full(a.shape, np.nan),
    )
    code = main(["verify", "--trials", "30", "--samples", "1000", "--out", "x.csv"])
    assert code == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: ") and err.count("\n") == 1
    assert "non-finite" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_a_nan_unitary_exits_one_without_traceback(tmp_path, monkeypatch, capsys):
    # The Choi kernel cannot return a NaN F for the three-qubit families:
    # it refuses the channel.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(
        "unot.experiments.sample_unitary",
        lambda rng, dim: np.full((dim, dim), np.nan, dtype=complex),
    )
    code = main(["verify", "--trials", "30", "--samples", "1000", "--out", "x.csv"])
    assert code == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_usage_errors_exit_two():
    assert main(["no-such-command"]) == EXIT_BAD_CONFIG
    assert main(["verify", "--no-such-flag"]) == EXIT_BAD_CONFIG


def test_noise_sweep_eta_zero_row(tmp_path):
    out = tmp_path / "ns.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eta_grid": [0.0, 0.1], "trials": 30}))
    code = main(["noise-sweep", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    rows = _read_csv(out)
    assert float(rows[0]["mean_f"]) == pytest.approx(2.0 / 3.0, abs=1e-11)
    assert float(rows[0]["std_delta"]) < 1e-13


def test_compensate_accepts_zero_tilt(tmp_path):
    out = tmp_path / "c.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha_grid": [0.0]}))
    assert main(["compensate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    [row] = _read_csv(out)
    assert float(row["deviation_three_gate"]) == 0.0


@pytest.mark.parametrize(
    "command, intervals",
    [
        (
            "optimize",
            {
                "--seed": "[0, 18446744073709551616)",
                "--trials": "[1, inf)",
                "--npop": "[4, inf)",
                "--dweight": "(0, 2]",
                "--cr": "[0, 1]",
                "--iters": "[1, inf)",
                "--stride": "[1, inf)",
            },
        ),
        (
            "recover",
            {
                "--npop": "[4, inf)",
                "--dweight": "(0, 2]",
                "--cr": "[0, 1]",
                "--iters": "[1, inf)",
                "--eta": "[0, 1]",
                "--period": "[0, inf)",
            },
        ),
        (
            "verify",
            {
                "--seed": "[0, 18446744073709551616)",
                "--trials": "[1, inf)",
                "--samples": "[1000, inf)",
                "--tol-scale": "(0, inf)",
            },
        ),
    ],
    ids=["optimize", "recover", "verify"],
)
def test_help_shows_each_numeric_flags_interval(capsys, command, intervals):
    assert main([command, "--help"]) == EXIT_OK
    text = " ".join(capsys.readouterr().out.split())
    for flag, interval in intervals.items():
        metavar = flag[2:].replace("-", "_").upper()
        entry = text.split(f" {flag} {metavar} ", 1)[1].split(" --", 1)[0]
        assert entry.endswith(f", in {interval}")


def test_optimize_writes_stride_rows(tmp_path):
    out = tmp_path / "o.csv"
    code = main(
        [
            "optimize",
            "--trials", "2",
            "--iters", "30",
            "--stride", "10",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    rows = _read_csv(out)
    assert [int(row["iteration"]) for row in rows] == [0, 10, 20, 30]


def test_recover_emits_both_schedules(tmp_path):
    out = tmp_path / "r.csv"
    code = main(
        [
            "recover",
            "--trials", "2",
            "--iters", "6",
            "--eta", "0.4",
            "--stride", "3",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    rows = _read_csv(out)
    assert {row["schedule"] for row in rows} == {"50", "100"}


# Exit-code contract under fuzzed settings.  Every run stays tiny: trials <= 3,
# iters <= 5, npop <= 12 and samples <= 2000 whenever a run can start.
_NAN, _INF = float("nan"), float("inf")

# Values that pass validation (within the budget above), per setting.
_VALID = {
    "seed": [0, 7, 2**64 - 1],
    "trials": [1, 3],
    "samples": [1000, 2000],
    "npop": [4, 12],
    "dweight": [1e-6, 0.1, 2.0],
    "cr": [0.0, 0.5, 1.0],
    "iters": [1, 5],
    "stride": [1, 2, 7],
    "eta": [0.0, 0.25, 1.0],
    "period": [0, 2],
    "tol_scale": [1e-300, 1.0, 1e300],
    "eta_grid": [[0.0], [0.0, 1.0]],
    "alpha_grid": [[1e-9], [0.01, 0.299]],
}
# Values just outside each setting's range.
_BOUNDARY = {
    "seed": [-1, 2**64],
    "trials": [0, -3, 10**400],
    "samples": [999],
    "npop": [3],
    "dweight": [0.0, 2.0000001, _NAN],
    "cr": [-1e-9, 1.5],
    "iters": [0],
    "stride": [0],
    "eta": [-0.01, 1.01, _NAN],
    "period": [-1],
    "tol_scale": [0.0, _INF, _NAN, 10**400],
    "eta_grid": [[], [1.5], [0.1, True]],
    "alpha_grid": [[-1e-9], [0.3], [_NAN]],
}
_WRONG_TYPE = ["ten", True, [1], {"a": 1}]
# Settings that keep a run small; each is pinned to a valid value first.
_BUDGET_KEYS = ("trials", "samples", "npop", "iters")
_CONFIG_ONLY = ("eta_grid", "alpha_grid")


@st.composite
def _cli_cases(draw):
    """A subcommand with its argv flags and config-file object."""
    command = draw(st.sampled_from(sorted(EXPERIMENTS)))
    own = EXPERIMENTS[command].settings
    values = {k: draw(st.sampled_from(_VALID[k])) for k in own if k in _BUDGET_KEYS}
    foreign = sorted(set(_VALID) - set(own)) + ["bogus"]
    for _ in range(draw(st.integers(0, 3))):
        # Mostly the subcommand's own settings, mostly with valid values.
        key = draw(st.sampled_from(foreign if draw(st.integers(0, 5)) == 0 else own))
        kind = draw(st.sampled_from(["valid", "valid", "boundary", "wrong-type"]))
        if key not in own or kind == "valid":
            pool = _VALID.get(key, [1])
        elif kind == "boundary":
            pool = _BOUNDARY[key]
        else:
            is_int = SETTING_TYPES.get(key, (float,))[0] is int
            pool = _WRONG_TYPE + ([1.5] if is_int else [])
        values[key] = draw(st.sampled_from(pool))
    fmt = draw(st.sampled_from([None, None, "csv", "jsonl", "xml"]))
    if fmt is not None:
        values["format"] = fmt
    flags, config = [], {}
    for key, value in values.items():
        if key in _CONFIG_ONLY or draw(st.booleans()):
            config[key] = value
        else:
            flags += ["--" + key.replace("_", "-"), str(value)]
    return command, flags, config


def _run_cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _files(folder: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(folder.iterdir())}


@settings(derandomize=True, deadline=None, max_examples=80)
@given(case=_cli_cases())
@example(case=("verify", ["--tol-scale", "1e-300", "--trials", "1"], {"samples": 1000}))
@example(case=("compensate", [], {"alpha_grid": [0.1], "format": "jsonl"}))
def test_fuzzed_settings_keep_the_exit_code_contract(case):
    command, flags, config = case
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        argv = [command, *flags, "--out", str(folder / "rows.out")]
        if config:
            (folder / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(folder / "cfg.json")]
        before = _files(folder)
        code, err = _run_cli(argv)
        assert code in (EXIT_OK, EXIT_FAILURE, EXIT_BAD_CONFIG)
        assert "Traceback" not in err
        if code == EXIT_BAD_CONFIG:
            assert _files(folder) == before
        if code == EXIT_OK:
            first = _files(folder)
            assert _run_cli(argv)[0] == EXIT_OK
            assert _files(folder) == first
