"""Experiment drivers behind the command-line interface.

Each runner takes an ExperimentConfig and returns an ExperimentResult with
plot-ready rows.  Every randomized quantity derives from the config seed,
so reruns with an identical config reproduce output files byte for byte.
"""

from __future__ import annotations

import csv
import json
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .circuit import (
    compensated_four_gate_map,
    density_from_bloch,
    ladder_linear,
    misaligned_three_gate_map,
    mixture_linear,
    simulate_full,
    stochastic_map_from_circuit,
)
from .evolve import (
    DeConfig,
    NoiseModel,
    apply_noise,
    control_stats_batch,
    gell_mann_basis,
    optimal_controls,
    run_feedback_trials,
)
from .fidelity import (
    DEVIATION_SLOPE,
    MAX_AVG_FIDELITY,
    REGION_TOL,
    affine_stats_batch,
    one_qubit_stats_batch,
    pair_covariance_batch,
    region_residual,
    three_qubit_avg_fidelity,
)
from .oracle import (
    RNG_ALGORITHM,
    SeededSampler,
    bloch_map_from_three_qubit_unitary,
    mc_stats,
    sample_bloch,
    sample_gates,
    sample_ladder_circuit,
    sample_ladders,
    sample_unitary,
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

# Type and flag help of each numeric setting; only `eta` and `period` may
# stay None.  The grids `eta_grid` and `alpha_grid` are config-file keys only.
SETTING_TYPES = {
    "seed": (int, "master RNG seed"),
    "trials": (int, "number of repetitions"),
    "samples": (int, f"Monte Carlo samples per estimate (at least {MIN_SAMPLES})"),
    "npop": (int, "population size"),
    "dweight": (float, "differential weight"),
    "cr": (float, "crossover rate"),
    "iters": (int, "iteration count"),
    "stride": (int, "iterations between output rows"),
    "eta": (float, "noise degree in [0, 1]"),
    "period": (int, "iterations between injections"),
    "tol_scale": (float, "multiply every verification budget by this factor"),
}


def _is_number(value, kind=numbers.Real) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    """Effective settings of one experiment run.

    `trials` and `stride` default per experiment (`EXPERIMENTS`) when left
    as None; `eta` and `period` default to the experiment's own noise
    protocol.  Every value is type-checked: integers reject bools and floats
    and are stored as `int`, reals reject bools and numpy scalars among them
    are stored as the Python number they hold, grids are lists of numbers
    and `out` is a string.
    """

    name: str
    seed: int = 0
    trials: int | None = None
    samples: int = 100_000
    npop: int = 10
    dweight: float = 0.1
    cr: float = 0.03
    iters: int = 1000
    eta: float | None = None
    period: int | None = None
    out: str | None = None
    fmt: str = "csv"
    stride: int | None = None
    tol_scale: float = 1.0
    eta_grid: tuple[float, ...] | None = None
    alpha_grid: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.name not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.name!r}")
        if self.fmt not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {self.fmt!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a string, got {self.out!r}")
        if self.trials is None:
            self.trials = EXPERIMENTS[self.name].trials
        if self.stride is None:
            self.stride = EXPERIMENTS[self.name].stride
        for label, (kind, _) in SETTING_TYPES.items():
            value = getattr(self, label)
            if value is None and label in ("eta", "period"):
                continue
            if not _is_number(value, numbers.Integral if kind is int else numbers.Real):
                what = "an integer" if kind is int else "a real number"
                raise ValueError(f"{label} must be {what}, got {value!r}")
            if kind is int:
                setattr(self, label, int(value))
            elif isinstance(value, np.generic):
                setattr(self, label, value.item())
        for label, inside, span in (
            ("eta_grid", lambda e: 0.0 <= e <= 1.0, "[0, 1]"),
            ("alpha_grid", lambda a: 0.0 < a < 0.3, "(0, 0.3)"),
        ):
            grid = getattr(self, label)
            if grid is None:
                continue
            if not isinstance(grid, (list, tuple)) or not all(map(_is_number, grid)):
                raise ValueError(f"{label} must be a list of numbers, got {grid!r}")
            if not grid or not all(map(inside, grid)):
                raise ValueError(f"{label} values must lie in {span}")
            setattr(self, label, tuple(float(v) for v in grid))
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        for label, value, low in (
            ("trials", self.trials, 1),
            ("samples", self.samples, MIN_SAMPLES),
            ("npop", self.npop, 4),
            ("iters", self.iters, 1),
            ("stride", self.stride, 1),
        ):
            if value < low:
                raise ValueError(f"{label} must be at least {low}")
        if not 0.0 < self.dweight <= 2.0:
            raise ValueError("dweight must lie in (0, 2]")
        if not 0.0 <= self.cr <= 1.0:
            raise ValueError("cr must lie in [0, 1]")
        if self.eta is not None and not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if self.eta is not None and self.eta_grid is not None:
            raise ValueError("eta and eta_grid cannot both be set")
        if self.period is not None and self.period < 0:
            raise ValueError("period must be nonnegative")
        if not 0.0 < self.tol_scale < np.inf:
            raise ValueError("tol_scale must be positive and finite")
        for label, size in EXPERIMENTS[self.name].array_bytes(self).items():
            if size > MAX_ARRAY_BYTES:
                raise ValueError(
                    f"{label} too large: an array of the run would take "
                    f"{size / 2**30:.1f} GiB, above the "
                    f"{MAX_ARRAY_BYTES / 2**30:g} GiB ceiling"
                )

    def output_path(self) -> Path:
        return Path(self.out or f"{self.name}.{self.fmt}")

    def echo_path(self) -> Path:
        """Where the config echo is written: next to the output file."""
        return Path(f"{self.output_path()}.config.json")

    def echo_dict(self) -> dict:
        """Every setting as it took effect, under its config-file name."""
        echo = {}
        for item in fields(self):
            value = getattr(self, item.name)
            key = {"name": "experiment", "fmt": "format"}.get(item.name, item.name)
            echo[key] = list(value) if isinstance(value, tuple) else value
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


def _sample_mixtures(sampler: SeededSampler, counts) -> np.ndarray:
    """Bloch maps (n, 3, 3) of random mixtures of counts[i] gates.

    Mixture by mixture, the gates are drawn first and then uniform weights,
    normalized to sum 1.  Shorter mixtures are padded with zero-weight
    identity gates, which add nothing to the gate-order sum.
    """
    width = max(counts)
    angles = np.zeros((len(counts), width))
    axes = np.zeros((len(counts), width, 3))
    axes[..., 2] = 1.0
    weights = np.zeros((len(counts), width))
    for row, count in enumerate(counts):
        angles[row, :count], axes[row, :count] = sample_gates(sampler, count)
        w = sampler.uniform(0.0, 1.0, count)
        weights[row, :count] = w / w.sum()
    return mixture_linear(weights, rotation_batch(angles, axes))


def _verify_families(config: ExperimentConfig):
    scale = config.tol_scale
    n = config.trials
    sub = SeededSampler(config.seed).split(8)

    # Trace identities of the rotation representation.
    angles, axes = sample_gates(sub[0], n)
    r = rotation_batch(angles, axes)
    tr = np.trace(r, axis1=1, axis2=2)
    tr_sq = np.trace(r @ r, axis1=1, axis2=2)
    worst = max(
        float(np.max(np.abs(tr - rotation_trace(angles)))),
        float(np.max(np.abs(tr * tr - tr_sq - 2.0 * tr))),
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
    worst = max(float(np.max(c - d_k * d_l)), float(np.max(-0.5 * d_k * d_l - c)), 0.0)
    angles, axes = sample_gates(s, 50)
    _, d = one_qubit_stats_batch(angles)
    ortho = np.cross(axes, [1.0, 0.0, 0.0])
    short = np.linalg.norm(ortho, axis=1) < 0.5
    ortho[short] = np.cross(axes[short], [0.0, 1.0, 0.0])
    ortho /= np.linalg.norm(ortho, axis=1, keepdims=True)
    parallel = pair_covariance_batch((angles, axes), (angles, axes))
    orthogonal = pair_covariance_batch((angles, axes), (angles, ortho))
    worst = max(
        worst,
        float(np.max(np.abs(parallel - d * d))),
        float(np.max(np.abs(orthogonal + 0.5 * d * d))),
    )
    yield "covariance-bounds", worst, 1e-12 * scale

    # Mixtures never exceed the one-qubit line.
    f, d = _linear_stats(_sample_mixtures(sub[3], [2 + i % 4 for i in range(n)]))
    worst = max(float(np.max(d - f * DEVIATION_SLOPE)), 0.0)
    yield "mixture-upper-bound", worst, 1e-12 * scale

    # Two-gate mixtures cannot fall below half the line.
    f, d = _linear_stats(_sample_mixtures(sub[4], [2] * n))
    worst = max(float(np.max(0.5 * f * DEVIATION_SLOPE - d)), 0.0)
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

    # Three-qubit ceiling and oracle agreement for Haar unitaries.
    s = sub[6]
    unitary_count = 20
    worst_excess = 0.0
    worst_sigma = 0.0
    for child in s.split(unitary_count):
        u = sample_unitary(child, 8)
        closed = three_qubit_avg_fidelity(u)
        worst_excess = max(worst_excess, closed - MAX_AVG_FIDELITY, -closed, 0.0)
        est_f, _ = mc_stats(
            bloch_map_from_three_qubit_unitary(u), child, config.samples
        )
        worst_sigma = max(
            worst_sigma, abs(closed - est_f.value) / max(est_f.std_error, 1e-15)
        )
    yield "three-qubit-ceiling", worst_excess, 1e-10 * scale
    yield "three-qubit-oracle-agreement", worst_sigma, 5.0 * scale

    # Full-space simulation agrees with the reduced stochastic map.
    s = sub[7]
    worst = 0.0
    for i in range(50):
        circuit = sample_ladder_circuit(s, 1 + i % 4)
        rho = np.empty((10, 2, 2), dtype=complex)
        for k in range(10):
            radius = float(s.uniform(0.0, 1.0, 1)[0]) ** (1.0 / 3.0)
            rho[k] = density_from_bloch(radius * sample_bloch(s))
        reduced = stochastic_map_from_circuit(circuit).apply_density(rho)
        worst = max(worst, float(np.max(np.abs(simulate_full(circuit, rho) - reduced))))
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
    sampler = SeededSampler(config.seed)
    rows = []
    violations = 0
    for qubit_count in (1, 2, 3):
        ladders = sample_ladders(sampler, qubit_count, config.trials)
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


def run_noise_sweep(config: ExperimentConfig) -> ExperimentResult:
    basis = gell_mann_basis(8)
    p_star = optimal_controls(basis)
    if config.eta_grid is not None:
        grid = config.eta_grid
    elif config.eta is not None:
        grid = (config.eta,)
    else:
        grid = tuple(np.arange(0.0, 1.0 + 1e-9, 0.05))
    rows = []
    for eta, child in zip(grid, SeededSampler(config.seed).split(len(grid))):
        pop = np.tile(p_star, (config.trials, 1))
        pop = apply_noise(pop, NoiseModel(eta, period=None), child)
        f, d = control_stats_batch(pop, basis)
        rows.append({"eta": float(eta), **_summary(f, d), "trials": config.trials})
    report = [
        "noise-sweep: eta={:.2f} -> F={:.4f}+-{:.4f} Delta={:.4f}+-{:.4f}".format(
            r["eta"], r["mean_f"], r["std_f"], r["mean_delta"], r["std_delta"]
        )
        for r in rows
    ]
    return ExperimentResult(rows, report)


def _summary(f: np.ndarray, d: np.ndarray) -> dict:
    """Mean and spread of F and Delta over trials (sample std from two on)."""
    ddof = 1 if len(f) > 1 else 0
    return {
        "mean_f": float(f.mean()),
        "std_f": float(f.std(ddof=ddof)),
        "mean_delta": float(d.mean()),
        "std_delta": float(d.std(ddof=ddof)),
    }


def _search(config: ExperimentConfig, noises):
    """One lockstep feedback run of `config.trials` trials per noise model.

    Every model reuses the same trial seeds.  Yields, per model, the rows at
    every `config.stride`-th iteration and the last, and the final F and
    Delta arrays of the trials.
    """
    de_config = DeConfig(
        population_size=config.npop,
        differential_weight=config.dweight,
        crossover_rate=config.cr,
        max_iterations=config.iters,
    )
    seeds = [child.seed for child in SeededSampler(config.seed).split(config.trials)]
    basis = gell_mann_basis(8)
    iterations = [*range(0, config.iters, config.stride), config.iters]
    for noise in noises:
        runs = run_feedback_trials(de_config, noise, basis, seeds)
        rows = []
        for it in iterations:
            best = [trace[it] for _, trace in runs]
            f = np.array([r.avg_fidelity for r in best])
            d = np.array([r.deviation for r in best])
            rows.append(
                {
                    "iteration": it,
                    **_summary(f, d),
                    "mean_fitness": float(np.mean([r.fitness for r in best])),
                    "noise_injected": bool(best[0].noise_injected),
                    "trials": len(best),
                }
            )
        yield rows, f, d


def run_optimize(config: ExperimentConfig) -> ExperimentResult:
    [(rows, final_f, final_d)] = _search(config, [NoiseModel(0.0, period=None)])
    report = [
        f"optimize: {config.trials} runs x {config.iters} iterations; "
        f"final median F={np.median(final_f):.4f}, "
        f"median Delta={np.median(final_d):.4f}"
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
            f"{config.trials} runs; final median F={np.median(final_f):.4f}"
        )
    return ExperimentResult(rows, report)


def run_compensate(config: ExperimentConfig) -> ExperimentResult:
    grid = config.alpha_grid or tuple(np.linspace(0.01, 0.25, 25))
    _, three = _linear_stats(
        np.array([misaligned_three_gate_map(a).bloch_linear() for a in grid])
    )
    four_f, four = _linear_stats(
        np.array([compensated_four_gate_map(a).bloch_linear() for a in grid])
    )
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
    # Per member and trial, an evaluation builds about 1 KiB (an 8x8 complex
    # unitary and its eigenvectors) and a sweep ranks npop - 1 float64 donor keys.
    return {"npop and trials": c.trials * c.npop * max(1024, 8 * (c.npop - 1))}


# The command line offers exactly each experiment's settings as flags and
# config-file keys, in this order of subcommands.
EXPERIMENTS = {
    "verify": Experiment(
        run_verify,
        "check closed forms against oracles",
        ("seed", "trials", "samples", "tol_scale"),
        trials=1000,
        # The oracle's (samples, 8) complex state; the (trials, 5, 3, 3)
        # rotations of the padded gate mixtures.
        array_bytes=lambda c: {"samples": 128 * c.samples, "trials": 360 * c.trials},
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
        # About 1 KiB per trial row: an 8x8 complex unitary and its eigenvectors.
        array_bytes=lambda c: {"trials": 1024 * c.trials},
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
    return EXPERIMENTS[config.name].run(config)
