"""The benchmark's workloads: the CLI call each child makes, and its checks.

Each workload turns a child seed into `unot` CLI arguments and checks the
row file and config echo a child wrote.  Checks use bands and invariants,
never byte digests, so a change of random stream still passes when the
statistics hold.  Standard library only.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# Recovery threshold of tests/test_acceptance.py::test_09.
XI_STAR = 0.64
# Final-iteration bands of test_08 (20 trials x 1000 iterations, defaults).
FINAL_F_MIN = 0.655
FINAL_DELTA_MAX = 0.02
BAND_TRIALS = 20
# eta = 0.1 bands of test_07.
ETA01_F = (0.615, 0.651)
ETA01_DELTA = (0.068, 0.122)
MAX_F = 2.0 / 3.0

# Verification families in output order, with their budgets at tol_scale 1.
VERIFY_BUDGETS = {
    "rotation-trace-identities": 1e-12,
    "one-qubit-line": 1e-12,
    "covariance-bounds": 1e-12,
    "mixture-upper-bound": 1e-12,
    "two-qubit-lower-bound": 1e-12,
    "region-membership": 1e-9,
    "three-qubit-ceiling": 1e-10,
    "three-qubit-oracle-agreement": 5.0,
    "circuit-map-equivalence": 1e-10,
}


def _floats(rows: list[dict], column: str) -> list[float]:
    values = [float(r[column]) for r in rows]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"non-finite value in column {column}")
    return values


class Workload:
    """One CLI subcommand at fixed settings; subclasses add output checks."""

    name = ""
    why = ""
    command = ""
    trials = 1
    flags: tuple[str, ...] = ()
    # Children a run makes at least, whatever --seconds says.
    min_children = 3
    # Children whose rows are pooled for the run-level check (0: none).
    pool_size = 0

    def argv(self, seed: int, out: Path, extra: tuple[str, ...] = ()) -> list[str]:
        return [
            self.command,
            "--seed", str(seed),
            "--trials", str(self.trials),
            *self.flags,
            *extra,
            "--out", str(out),
        ]

    def nominal_evals(self) -> int:
        raise NotImplementedError

    def check(self, out: Path, exit_code: int, seed: int) -> tuple[list[str], list[dict]]:
        """Problems found in one child's outputs, and its parsed rows."""
        if exit_code != 0:
            return [f"exit code {exit_code}"], []
        try:
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            echo = json.loads(Path(f"{out}.config.json").read_text())
        except (OSError, ValueError) as exc:
            return [f"unreadable output: {exc}"], []
        problems = []
        expected = {"experiment": self.command, "seed": seed, "trials": self.trials}
        for key, value in expected.items():
            if echo.get(key) != value:
                problems.append(f"config echo {key}={echo.get(key)!r}, expected {value!r}")
        try:
            problems += self.check_rows(rows)
        except (KeyError, ValueError, TypeError) as exc:
            problems.append(f"malformed rows: {exc!r}")
        return problems, rows

    def check_rows(self, rows: list[dict]) -> list[str]:
        raise NotImplementedError


class DeSearch(Workload):
    name = "de-search"
    why = (
        "unot optimize at the default DE settings: thousands of 10x63 eigh "
        "batches plus a per-member Python draw loop; the oracle is idle"
    )
    command = "optimize"
    trials = 4
    iters = 1000
    # Stride 1 reports every iteration, so the first crossing of XI_STAR is exact.
    flags = ("--iters", str(iters), "--stride", "1")
    # 10 children x 4 trials = 40 trials pooled: at least the 20 of test_08,
    # and enough that the pooled crossing of XI_STAR varies little by seed.
    min_children = 10
    pool_size = 10
    npop = 10

    def nominal_evals(self) -> int:
        return self.trials * self.npop * (self.iters + 1)

    def check_rows(self, rows):
        problems = []
        if [int(r["iteration"]) for r in rows] != list(range(self.iters + 1)):
            problems.append("iterations are not 0..iters")
        f = _floats(rows, "mean_f")
        d = _floats(rows, "mean_delta")
        xi = _floats(rows, "mean_fitness")
        if any(int(r["trials"]) != self.trials for r in rows):
            problems.append("trials column differs from --trials")
        if any(r["noise_injected"] != "False" for r in rows):
            problems.append("noise injected without a noise model")
        if not all(0.0 <= v <= 1.0 for v in f):
            problems.append("mean_f outside [0, 1]")
        if not all(0.0 <= v <= 0.5 for v in d):
            problems.append("mean_delta outside [0, 1/2]")
        if max(xi) > MAX_F + 1e-9:
            problems.append("mean_fitness above 2/3")
        if any(abs(x - (a - b)) > 1e-9 for x, a, b in zip(xi, f, d)):
            problems.append("mean_fitness differs from mean_f - mean_delta")
        # Strict greedy selection without noise never lowers a trial's best.
        if any(later < earlier - 1e-11 for earlier, later in zip(xi, xi[1:])):
            problems.append("mean_fitness decreased between iterations")
        return problems

    def check_pool(self, row_sets):
        """Pool the first `pool_size` children: XI_STAR reached, test_08 bands."""
        n = len(row_sets)
        xi = [sum(float(rows[it]["mean_fitness"]) for rows in row_sets) / n
              for it in range(self.iters + 1)]
        final_f = sum(float(rows[-1]["mean_f"]) for rows in row_sets) / n
        final_d = sum(float(rows[-1]["mean_delta"]) for rows in row_sets) / n
        iters_to_xi = next((it for it, v in enumerate(xi) if v >= XI_STAR), None)
        problems = []
        if iters_to_xi is None:
            problems.append(f"pooled mean fitness never reached {XI_STAR}")
        if n * self.trials >= BAND_TRIALS:
            if final_f < FINAL_F_MIN:
                problems.append(f"pooled final mean F {final_f:.4f} < {FINAL_F_MIN}")
            if final_d > FINAL_DELTA_MAX:
                problems.append(f"pooled final mean Delta {final_d:.4f} > {FINAL_DELTA_MAX}")
        info = {
            "pooled_trials": n * self.trials,
            "iters_to_xi": iters_to_xi,
            "final_mean_f": final_f,
            "final_mean_delta": final_d,
        }
        return problems, info


class NoiseSweep(Workload):
    name = "noise-sweep"
    why = (
        "unot noise-sweep over the 21-point eta grid at 4000 trials: the same "
        "evolve kernel at batch size 4000 with no per-member Python loop"
    )
    command = "noise-sweep"
    # At the default 1000 trials about half of a call is import; 4000 makes
    # evaluation dominate.
    trials = 4000
    grid = tuple(round(0.05 * k, 10) for k in range(21))

    def nominal_evals(self) -> int:
        return len(self.grid) * self.trials

    def check_rows(self, rows):
        problems = []
        eta = _floats(rows, "eta")
        if len(eta) != len(self.grid) or any(
            abs(a - b) > 1e-9 for a, b in zip(eta, self.grid)
        ):
            return ["eta column is not the 21-point grid 0, 0.05, ..., 1"]
        f = _floats(rows, "mean_f")
        d = _floats(rows, "mean_delta")
        spread = _floats(rows, "std_f") + _floats(rows, "std_delta")
        if any(int(r["trials"]) != self.trials for r in rows):
            problems.append("trials column differs from --trials")
        if not all(0.0 <= v <= MAX_F + 1e-12 for v in f):
            problems.append("mean_f outside [0, 2/3]")
        if not all(0.0 <= v <= 0.5 for v in d) or min(spread) < 0.0:
            problems.append("mean_delta outside [0, 1/2] or negative spread")
        if abs(f[0] - MAX_F) > 1e-12 or d[0] > 1e-12:
            problems.append(f"eta=0 row F={f[0]!r} Delta={d[0]!r}, expected 2/3 and 0")
        k = self.grid.index(0.1)
        if not (ETA01_F[0] <= f[k] <= ETA01_F[1] and ETA01_DELTA[0] <= d[k] <= ETA01_DELTA[1]):
            problems.append(f"eta=0.1 row F={f[k]} Delta={d[k]} outside the test_07 band")
        return problems


class Verify(Workload):
    name = "verify"
    why = (
        "unot verify at its defaults: 20 Monte Carlo oracle checks at 1e5 "
        "samples plus scalar closed-form loops; evolve is idle"
    )
    command = "verify"
    trials = 1000

    def nominal_evals(self) -> int:
        return self.trials * len(VERIFY_BUDGETS)

    def check_rows(self, rows):
        problems = []
        if [r["family"] for r in rows] != list(VERIFY_BUDGETS):
            return ["family rows differ from the nine verification families"]
        for row, budget in zip(rows, VERIFY_BUDGETS.values()):
            worst = float(row["worst_residual"])
            if float(row["budget"]) != budget:
                problems.append(f"{row['family']}: budget {row['budget']}, expected {budget}")
            if row["passed"] != "True" or not worst <= budget:
                problems.append(f"{row['family']}: residual {worst} over budget {budget}")
        return problems


WORKLOADS = {w.name: w for w in (DeSearch(), NoiseSweep(), Verify())}
