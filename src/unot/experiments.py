"""Experiment drivers behind the command-line interface.

Each runner takes an ExperimentConfig and returns an ExperimentResult with
plot-ready rows.  Every randomized quantity derives from the config seed,
so reruns with an identical config reproduce output files byte for byte.
"""

from __future__ import annotations

import csv
import json
import os
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .circuit import (
    MAX_TILT,
    compensated_four_gate_map,
    full_unitary,
    ladder_linear,
    misaligned_three_gate_map,
    mixture_linear,
)
from .evolve import (
    SETTINGS,
    DeConfig,
    NoiseModel,
    channel_from_unitary,
    check_setting,
    noise_stats,
    optimal_controls,
    run_feedback,
)
from .fidelity import (
    DEVIATION_SLOPE,
    MAX_AVG_FIDELITY,
    REGION_TOL,
    affine_stats_batch,
    one_qubit_stats_batch,
    pair_covariance_batch,
    region_residual,
)
from .oracle import (
    RNG_ALGORITHM,
    bloch_map_from_unitary,
    mc_stats,
    sample_bloch,
    sample_gates,
    sample_ladders,
    sample_unitary,
    spawn_seeds,
)
from .rotation import rotation_batch, rotation_trace

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentConfig",
    "ExperimentResult",
    "FORMATS",
    "SETTING_TYPES",
    "run_experiment",
    "write_rows",
    "write_config_echo",
]

FORMATS = ("csv", "jsonl")

# Fewest Monte Carlo samples per estimate: below this a standard error says
# too little for the 5-sigma oracle budget of `verify` to mean anything.
MIN_SAMPLES = 1000

# Largest single array, in bytes, a run may allocate.  Each experiment
# estimates its largest arrays from its settings before the run starts
# (`Experiment.array_bytes`), and a config above this is rejected.
MAX_ARRAY_BYTES = 2**30

# Type, interval and flag help of each numeric setting; only `eta` and
# `period` may stay None.  The DE and noise entries are the library's own
# (`evolve.SETTINGS`), except `iters`: a run needs one iteration, while
# `max_iterations` may be 0.  The grids `eta_grid` and `alpha_grid` are
# config-file keys only, each value checked against its `_GRID_INTERVALS` entry.
SETTING_TYPES = {
    "seed": (int, f"[0, {2**64})", "master RNG seed"),
    "trials": (int, "[1, inf)", "number of repetitions"),
    "samples": (int, f"[{MIN_SAMPLES}, inf)", "Monte Carlo samples per estimate"),
    "npop": (*SETTINGS["population_size"], "population size"),
    "dweight": (*SETTINGS["differential_weight"], "differential weight"),
    "cr": (*SETTINGS["crossover_rate"], "crossover rate"),
    "iters": (int, "[1, inf)", "iteration count"),
    "stride": (int, "[1, inf)", "iterations between output rows"),
    "eta": (*SETTINGS["strength"], "noise degree"),
    "period": (*SETTINGS["period"], "iterations between injections"),
    "tol_scale": (float, "(0, inf)", "multiply every verification budget by this factor"),
}
_GRID_INTERVALS = {"eta_grid": SETTING_TYPES["eta"][1], "alpha_grid": f"[0, {MAX_TILT})"}


@dataclass
class ExperimentConfig:
    """Effective settings of one experiment run.

    `trials` and `stride` default per experiment (`EXPERIMENTS`) when left
    as None; `eta` and `period` default to the experiment's own noise
    protocol.  Every numeric setting and grid value goes through
    `evolve.check_setting`: integers are stored as `int`, numpy reals as the
    Python number they hold, grids as tuples of floats; `out` is a string.
    """

    experiment: str
    seed: int = 0
    trials: int | None = None
    samples: int = 100_000
    npop: int = DeConfig.population_size
    dweight: float = DeConfig.differential_weight
    cr: float = DeConfig.crossover_rate
    iters: int = DeConfig.max_iterations
    eta: float | None = None
    period: int | None = None
    out: str | None = None
    format: str = "csv"
    stride: int | None = None
    tol_scale: float = 1.0
    eta_grid: tuple[float, ...] | None = None
    alpha_grid: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {self.format!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a string, got {self.out!r}")
        if self.trials is None:
            self.trials = EXPERIMENTS[self.experiment].trials
        if self.stride is None:
            self.stride = EXPERIMENTS[self.experiment].stride
        for label, (kind, interval, _) in SETTING_TYPES.items():
            value = getattr(self, label)
            if value is not None or label not in ("eta", "period"):
                setattr(self, label, check_setting(value, label, kind, interval))
        for label, interval in _GRID_INTERVALS.items():
            grid = getattr(self, label)
            if grid is None:
                continue
            if not isinstance(grid, (list, tuple)):
                raise ValueError(f"{label} must be a list of numbers, got {grid!r}")
            if not grid:
                raise ValueError(f"{label} must not be empty")
            values = [check_setting(v, f"{label} value", float, interval) for v in grid]
            setattr(self, label, tuple(map(float, values)))
        if self.eta is not None and self.eta_grid is not None:
            raise ValueError("eta and eta_grid cannot both be set")
        for label, size in EXPERIMENTS[self.experiment].array_bytes(self).items():
            if size > MAX_ARRAY_BYTES:
                # Tenths in integer arithmetic: a size may exceed any float.
                tenths = (10 * size + 2**29) >> 30
                raise ValueError(
                    f"{label} too large: an array of the run would take "
                    f"{tenths // 10}.{tenths % 10} GiB, above the "
                    f"{MAX_ARRAY_BYTES / 2**30:g} GiB ceiling"
                )

    def output_path(self) -> Path:
        return Path(self.out or f"{self.experiment}.{self.format}")

    def echo_path(self) -> Path:
        """Where the config echo is written: next to the output file."""
        return Path(f"{self.output_path()}.config.json")

    def echo_dict(self) -> dict:
        """Every setting as it took effect, under its config-file name."""
        echo = {}
        for item in fields(self):
            value = getattr(self, item.name)
            echo[item.name] = list(value) if isinstance(value, tuple) else value
        echo["out"] = str(self.output_path())
        echo["rng_algorithm"] = RNG_ALGORITHM
        return echo


@dataclass
class ExperimentResult:
    """Rows of one run; there is at least one, and all share their keys."""

    rows: list[dict]
    report: list[str] = field(default_factory=list)
    ok: bool = True

    @property
    def fieldnames(self) -> list[str]:
        return list(self.rows[0])


@dataclass(frozen=True)
class Experiment:
    """One subcommand: its driver, help line, the settings it reads besides
    the output path and format, its default trials and stride, and the
    bytes of its largest arrays under the settings that size them."""

    run: Callable[[ExperimentConfig], ExperimentResult]
    help: str
    settings: tuple[str, ...]
    trials: int
    stride: int = 1
    array_bytes: Callable[[ExperimentConfig], dict[str, int]] = lambda config: {}


def _sig12(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.12g}")
    return value


def write_rows(path: Path, fieldnames: list[str], rows: list[dict], fmt: str) -> None:
    """Write rows as CSV (one-line header) or JSON-lines, 12 significant digits."""
    path = Path(path)
    if fmt == "csv":
        with path.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            for row in rows:
                writer.writerow(
                    {
                        k: (f"{v:.12g}" if isinstance(v, (float, np.floating)) else v)
                        for k, v in row.items()
                    }
                )
    else:
        with path.open("w") as fh:
            for row in rows:
                fh.write(json.dumps({k: _sig12(v) for k, v in row.items()}))
                fh.write("\n")


def write_config_echo(config: ExperimentConfig) -> Path:
    """Write the effective config next to the output file, for audit."""
    echo_path = config.echo_path()
    text = json.dumps(config.echo_dict(), indent=2, sort_keys=True)
    echo_path.write_text(text + "\n")
    return echo_path


def _linear_stats(linear: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(F, Delta) arrays of unital channels a -> M a, in one kernel call."""
    return affine_stats_batch(linear, np.zeros((len(linear), 3)))


def _sample_mixtures(rng: np.random.Generator, counts) -> np.ndarray:
    """Bloch maps (n, 3, 3) of random mixtures of counts[i] gates.

    With width = max(counts), all n * width gates are drawn first, row by
    row, and then one (n, width) array of uniform weights.  Mixture i keeps
    its first counts[i] weights, normalized to sum 1; the gates past its
    count get weight 0 and add nothing to the gate-order sum.
    """
    counts = np.asarray(counts)
    shape = (len(counts), int(counts.max()))
    angles, axes = sample_gates(rng, shape[0] * shape[1])
    weights = rng.random(shape)
    weights[np.arange(shape[1]) >= counts[:, None]] = 0.0
    weights /= weights.sum(axis=1, keepdims=True)
    rotations = rotation_batch(angles, axes).reshape(*shape, 3, 3)
    return mixture_linear(weights, rotations)


def _worst(*residuals) -> float:
    """Largest entry of the given residual scalars and arrays, NaN if any
    entry is NaN: Python's `max` keeps whichever of a NaN and a number it
    sees first, so a NaN residual could pass a budget."""
    return float(np.max(np.concatenate([np.ravel(r) for r in residuals])))


def _verify_families(config: ExperimentConfig):
    scale = config.tol_scale
    n = config.trials
    seeds = spawn_seeds(config.seed, 8)
    sub = [np.random.default_rng(seed) for seed in seeds]

    # Trace identities of the rotation representation.
    angles, axes = sample_gates(sub[0], n)
    r = rotation_batch(angles, axes)
    tr = np.trace(r, axis1=1, axis2=2)
    tr_sq = np.trace(r @ r, axis1=1, axis2=2)
    worst = _worst(
        np.abs(tr - rotation_trace(angles)), np.abs(tr * tr - tr_sq - 2.0 * tr)
    )
    yield "rotation-trace-identities", worst, 1e-12 * scale

    # Single gates sit on the line Delta = F / sqrt(5).
    f, d = _linear_stats(rotation_batch(*sample_gates(sub[1], n)))
    worst = float(np.max(np.abs(d - f * DEVIATION_SLOPE)))
    yield "one-qubit-line", worst, 1e-12 * scale

    # Pairwise covariance bounds, including the equality cases.
    s = sub[2]
    angles, axes = sample_gates(s, 2 * n)
    c = pair_covariance_batch((angles[0::2], axes[0::2]), (angles[1::2], axes[1::2]))
    _, d = one_qubit_stats_batch(angles)
    d_k, d_l = d[0::2], d[1::2]
    worst = _worst(c - d_k * d_l, -0.5 * d_k * d_l - c, 0.0)
    angles, axes = sample_gates(s, 50)
    _, d = one_qubit_stats_batch(angles)
    ortho = np.cross(axes, [1.0, 0.0, 0.0])
    short = np.linalg.norm(ortho, axis=1) < 0.5
    ortho[short] = np.cross(axes[short], [0.0, 1.0, 0.0])
    ortho /= np.linalg.norm(ortho, axis=1, keepdims=True)
    parallel = pair_covariance_batch((angles, axes), (angles, axes))
    orthogonal = pair_covariance_batch((angles, axes), (angles, ortho))
    worst = _worst(worst, np.abs(parallel - d * d), np.abs(orthogonal + 0.5 * d * d))
    yield "covariance-bounds", worst, 1e-12 * scale

    # Mixtures never exceed the one-qubit line.
    f, d = _linear_stats(_sample_mixtures(sub[3], [2 + i % 4 for i in range(n)]))
    worst = _worst(d - f * DEVIATION_SLOPE, 0.0)
    yield "mixture-upper-bound", worst, 1e-12 * scale

    # Two-gate mixtures cannot fall below half the line.
    f, d = _linear_stats(_sample_mixtures(sub[4], [2] * n))
    worst = _worst(0.5 * f * DEVIATION_SLOPE - d, 0.0)
    yield "two-qubit-lower-bound", worst, 1e-12 * scale

    # Random ladder circuits land inside their qubit-count region.
    s = sub[5]
    per_count = max(1, n // 3)
    f, d = _linear_stats(
        np.concatenate(
            [ladder_linear(*sample_ladders(s, q, per_count)) for q in (1, 2, 3)]
        )
    )
    worst = float(np.max(region_residual(f, d, np.repeat([1, 2, 3], per_count))))
    yield "region-membership", worst, REGION_TOL * scale

    # Three-qubit ceiling and oracle agreement for Haar unitaries, F read
    # off the Choi kernel the searches run.  Each child draws its unitary and
    # then its samples; the estimates run on two threads, each through its
    # own map, and are folded in unitary order.
    children = [np.random.default_rng(seed) for seed in spawn_seeds(seeds[6], 20)]
    unitaries = np.stack([sample_unitary(child, 8) for child in children])
    f, _ = affine_stats_batch(*channel_from_unitary(unitaries))

    def estimate(u, child):
        return mc_stats(bloch_map_from_unitary(u), child, config.samples)[0]

    estimates = _on_two_threads(estimate, list(zip(unitaries, children)))
    worst_sigma = 0.0
    for f_u, est_f in zip(f, estimates):
        worst_sigma = _worst(
            worst_sigma, abs(f_u - est_f.value) / max(est_f.std_error, 1e-15)
        )
    yield "three-qubit-ceiling", _worst(0.0, f - MAX_AVG_FIDELITY, -f), 1e-10 * scale
    yield "three-qubit-oracle-agreement", worst_sigma, 5.0 * scale

    # Full-space simulation agrees with the reduced Bloch map the drivers use,
    # on 50 ladders of one to four qubits and 10 points r n of the Bloch ball
    # each: the ladders of each qubit count, the directions n, then the radii
    # r.  The state-vector map takes pure states only, so a point goes in as
    # the mixture (1 + r) / 2 of n and (1 - r) / 2 of -n.
    s = sub[7]
    ladders = [sample_ladders(s, q, k) for q, k in ((1, 13), (2, 13), (3, 12), (4, 12))]
    directions = sample_bloch(s, 500).reshape(50, 10, 3)
    radii = s.random((50, 10, 1)) ** (1.0 / 3.0)  # = uniform(0, 1) bitwise
    circuits = [circuit for ladder in ladders for circuit in zip(*ladder)]
    linear = np.concatenate([ladder_linear(*ladder) for ladder in ladders])
    worst = 0.0
    for circuit, m, n_dir, r in zip(circuits, linear, directions, radii):
        act = bloch_map_from_unitary(full_unitary(*circuit))
        full = 0.5 * (1.0 + r) * act(n_dir) + 0.5 * (1.0 - r) * act(-n_dir)
        worst = _worst(worst, np.abs(full - (r * n_dir) @ m.T))
    yield "circuit-map-equivalence", worst, 1e-10 * scale


def run_verify(config: ExperimentConfig) -> ExperimentResult:
    rows, report = [], []
    ok = True
    for family, worst, budget in _verify_families(config):
        passed = worst <= budget
        ok = ok and passed
        rows.append(
            {
                "family": family,
                "passed": passed,
                "worst_residual": float(worst),
                "budget": float(budget),
            }
        )
        report.append(
            f"{'PASS' if passed else 'FAIL'} {family}: worst residual "
            f"{worst:.3e} (budget {budget:.1e})"
        )
    report.append(
        f"verify: {sum(r['passed'] for r in rows)}/{len(rows)} families passed"
    )
    return ExperimentResult(rows, report, ok)


def run_tradeoff(config: ExperimentConfig) -> ExperimentResult:
    rng = np.random.default_rng(config.seed)
    rows = []
    violations = 0
    for qubit_count in (1, 2, 3):
        ladders = sample_ladders(rng, qubit_count, config.trials)
        f, d = _linear_stats(ladder_linear(*ladders))
        inside = region_residual(f, d, qubit_count) <= REGION_TOL
        violations += int(np.count_nonzero(~inside))
        rows.extend(
            {
                "qubit_count": qubit_count,
                "avg_fidelity": float(fi),
                "deviation": float(di),
                "in_region": bool(ok),
                "seed": int(config.seed),
            }
            for fi, di, ok in zip(f, d, inside)
        )
    report = [
        f"tradeoff: {len(rows)} circuits, {violations} region violations"
    ]
    return ExperimentResult(rows, report, violations == 0)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (Linux), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_two_threads(work: Callable, items: Sequence[tuple]) -> list:
    """`[work(*item) for item in items]` on min(2, usable CPUs, len(items))
    workers, for one or more independent items whose numpy work releases
    the GIL.

    The calling thread starts on item 0 and one more thread on item 1; then
    each worker claims the next unclaimed item, so a worker slowed by a busy
    CPU takes fewer items and the run does not wait on a fixed share.
    Each result lands at its item's place, so the list does not depend on
    the worker count or on which worker took an item.  After a failure each
    worker stops before its next item, and the first exception raised is
    raised here once all workers have stopped.
    """
    workers = min(2, _usable_cpus(), len(items))
    results = [None] * len(items)
    failures = []
    claim = threading.Lock()
    unclaimed = iter(range(workers, len(items)))

    def run(k):
        try:
            while k is not None and not failures:
                results[k] = work(*items[k])
                with claim:
                    k = next(unclaimed, None)
        except BaseException as exc:
            failures.append(exc)

    helpers = [
        threading.Thread(target=run, args=(k,), daemon=True) for k in range(1, workers)
    ]
    for helper in helpers:
        helper.start()
    run(0)
    for helper in helpers:
        helper.join()
    if failures:
        raise failures[0]
    return results


def run_noise_sweep(config: ExperimentConfig) -> ExperimentResult:
    p_star = optimal_controls()
    if config.eta_grid is not None:
        grid = config.eta_grid
    elif config.eta is not None:
        grid = (config.eta,)
    else:
        grid = tuple(np.arange(0.0, 1.0 + 1e-9, 0.05))

    def row(eta, seed):
        noise = NoiseModel(eta, period=None)
        f, d = noise_stats(p_star, noise, np.random.default_rng(seed), config.trials)
        stats = {k: float(v) for k, v in _summary(f, d).items()}
        return {"eta": float(eta), **stats, "trials": config.trials}

    rows = _on_two_threads(row, list(zip(grid, spawn_seeds(config.seed, len(grid)))))
    report = [
        "noise-sweep: eta={:.2f} -> F={:.4f}+-{:.4f} Delta={:.4f}+-{:.4f}".format(
            r["eta"], r["mean_f"], r["std_f"], r["mean_delta"], r["std_delta"]
        )
        for r in rows
    ]
    return ExperimentResult(rows, report)


def _summary(f: np.ndarray, d: np.ndarray) -> dict[str, np.ndarray]:
    """Mean and spread of F and Delta over the trials on the last axis
    (sample std from two trials on)."""
    ddof = 1 if f.shape[-1] > 1 else 0
    return {
        "mean_f": f.mean(axis=-1),
        "std_f": f.std(axis=-1, ddof=ddof),
        "mean_delta": d.mean(axis=-1),
        "std_delta": d.std(axis=-1, ddof=ddof),
    }


def _median(x: np.ndarray) -> float:
    """The median `np.median` gives, the mean of the two middle values for
    an even count, without the numpy.ma import that `np.median` makes."""
    s = np.sort(x)
    return float(s[[(s.size - 1) // 2, s.size // 2]].mean())


def _search(config: ExperimentConfig, noises):
    """One lockstep feedback run of `config.trials` trials per noise model.

    Every model reuses the same trial seeds.  Yields, per model, the rows at
    every `config.stride`-th iteration and the last, and the final F and
    Delta arrays of the trials.
    """
    de_config = DeConfig(config.npop, config.dweight, config.cr, config.iters)
    seeds = spawn_seeds(config.seed, config.trials)
    iterations = [*range(0, config.iters, config.stride), config.iters]
    for noise in noises:
        run = run_feedback(de_config, noise, seeds)
        stats = _summary(run.avg_fidelity[iterations], run.deviation[iterations])
        fitness = run.avg_fidelity[iterations] - run.deviation[iterations]
        stats["mean_fitness"] = fitness.mean(axis=-1)
        rows = [
            {
                "iteration": it,
                **{k: float(v[row]) for k, v in stats.items()},
                "noise_injected": bool(run.noise_injected[it]),
                "trials": config.trials,
            }
            for row, it in enumerate(iterations)
        ]
        yield rows, run.avg_fidelity[-1], run.deviation[-1]


def run_optimize(config: ExperimentConfig) -> ExperimentResult:
    [(rows, final_f, final_d)] = _search(config, [NoiseModel(0.0, period=None)])
    report = [
        f"optimize: {config.trials} runs x {config.iters} iterations; "
        f"final median F={_median(final_f):.4f}, "
        f"median Delta={_median(final_d):.4f}"
    ]
    return ExperimentResult(rows, report)


def run_recover(config: ExperimentConfig) -> ExperimentResult:
    eta = 0.5 if config.eta is None else config.eta
    schedules = (config.period,) if config.period is not None else (50, 100)
    runs = _search(config, [NoiseModel(eta, period=s) for s in schedules])
    rows, report = [], []
    for schedule, (run_rows, final_f, _) in zip(schedules, runs):
        rows.extend({"schedule": int(schedule), **row} for row in run_rows)
        report.append(
            f"recover: eta={eta} every {schedule} iterations over "
            f"{config.trials} runs; final median F={_median(final_f):.4f}"
        )
    return ExperimentResult(rows, report)


def run_compensate(config: ExperimentConfig) -> ExperimentResult:
    grid = config.alpha_grid or tuple(np.linspace(0.01, 0.25, 25))
    _, three = _linear_stats(misaligned_three_gate_map(grid))
    four_f, four = _linear_stats(compensated_four_gate_map(grid))
    rows = [
        {
            "alpha": float(alpha),
            "deviation_three_gate": float(d3),
            "deviation_four_gate": float(d4),
            "avg_fidelity": float(f4),
        }
        for alpha, d3, d4, f4 in zip(grid, three, four, four_f)
    ]
    report = [
        f"compensate: {len(rows)} tilt values; worst four-gate deviation "
        f"{max(r['deviation_four_gate'] for r in rows):.3e}"
    ]
    return ExperimentResult(rows, report)


_DE_SETTINGS = ("seed", "trials", "npop", "dweight", "cr", "iters", "stride")


def _de_arrays(c: ExperimentConfig) -> dict[str, int]:
    # Per member and trial, the population and each sweep's draws hold 63
    # float64 controls (504 B) and a sweep ranks npop - 1 float64 donor keys;
    # evaluation streams in fixed blocks.  The history keeps one float64 per
    # iteration row and trial.
    return {
        "npop and trials": c.trials * c.npop * max(504, 8 * (c.npop - 1)),
        "iters and trials": 8 * (c.iters + 1) * c.trials,
    }


# The command line offers exactly each experiment's settings as flags and
# config-file keys, in this order of subcommands.
EXPERIMENTS = {
    "verify": Experiment(
        run_verify,
        "check closed forms against oracles",
        ("seed", "trials", "samples", "tol_scale"),
        trials=1000,
        # The oracle's (samples,) float64 fidelities (it maps the samples in
        # fixed blocks); the (trials, 5, 3, 3) rotations of the padded gate
        # mixtures.
        array_bytes=lambda c: {"samples": 8 * c.samples, "trials": 360 * c.trials},
    ),
    "tradeoff": Experiment(
        run_tradeoff,
        "sample circuits across the F-Delta region",
        ("seed", "trials"),
        trials=1000,
        # The (trials, 3, 3, 3) rotations of the three-qubit ladders.
        array_bytes=lambda c: {"trials": 216 * c.trials},
    ),
    "noise-sweep": Experiment(
        run_noise_sweep,
        "response of the optimal controls to control noise",
        ("seed", "trials", "eta", "eta_grid"),
        trials=1000,
        # The (trials,) float64 F and Delta results: the controls and their
        # noise are drawn and evaluated in fixed blocks.
        array_bytes=lambda c: {"trials": 8 * c.trials},
    ),
    "optimize": Experiment(
        run_optimize,
        "differential-evolution search runs",
        _DE_SETTINGS,
        trials=20,
        stride=20,
        array_bytes=_de_arrays,
    ),
    "recover": Experiment(
        run_recover,
        "search under periodically injected control noise",
        _DE_SETTINGS + ("eta", "period"),
        trials=20,
        array_bytes=_de_arrays,
    ),
    "compensate": Experiment(
        run_compensate, "deviation of tilted-axis mixtures", ("alpha_grid",), trials=1
    ),
}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    return EXPERIMENTS[config.experiment].run(config)
