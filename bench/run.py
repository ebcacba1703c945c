"""Benchmark of the `unot` CLI, end to end and per module.

Usage (from the repository root):

    python3 bench/run.py --workload de-search --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --self-test

One run starts `unot` CLI calls one after another, each in a fresh child
process (bench/child.py), until --seconds have passed and the workload's
minimum child count is met.  Child seeds derive from --seed.  Every child's
outputs are checked (bench/workloads.py).  With --trace 0 the last stdout
line holds the end-to-end metrics of the untraced children; with --trace 1
a few children also run a traced twin (bench/tracer.py) and the line holds
the per-layer metrics.  The line before it records versions, thread
settings, the commit and per-child figures; the same record is written to
.bench_work/results/.  --self-test shows that a failing verification and a
corrupted row file both count as failed runs.

The benchmark imports nothing outside the standard library; children get
the repository's `src` on PYTHONPATH, so no install step is needed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from tracer import aggregate
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# One BLAS thread per child: steadier on a small shared machine, and never
# more than the CPUs available.
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 90.0
# Stop starting children after this long, so a run ends within 180 s.
RUN_DEADLINE_S = 140.0
# Untraced children that also get a traced twin when --trace 1.
TRACED_TWINS = 3

END_TO_END = ("setup_s", "wall_s", "evals_per_s", "time_to_xi_s", "peak_rss_mb")
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "1/s",
    "time_to_xi_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics read from the span aggregate: (metric, span, field, unit).
SPAN_METRICS = [
    ("evolve.run_feedback.calls", "evolve.run_feedback", "calls", "count"),
    ("evolve.run_feedback.self_s", "evolve.run_feedback", "self_s", "s"),
    ("evolve.de_mutate.calls", "evolve.de_mutate", "calls", "count"),
    ("evolve.de_mutate.s", "evolve.de_mutate", "s", "s"),
    ("evolve.de_crossover.calls", "evolve.de_crossover", "calls", "count"),
    ("evolve.de_crossover.s", "evolve.de_crossover", "s", "s"),
    ("evolve.apply_noise.calls", "evolve.apply_noise", "calls", "count"),
    ("evolve.apply_noise.s", "evolve.apply_noise", "s", "s"),
    ("oracle.mc_stats.calls", "oracle.mc_stats", "calls", "count"),
    ("oracle.mc_stats.self_s", "oracle.mc_stats", "self_s", "s"),
    ("oracle.sample_bloch.s", "oracle.sample_bloch", "s", "s"),
    ("oracle.bloch_map.s", "oracle.bloch_map", "s", "s"),
    ("oracle.sample_unitary.s", "oracle.sample_unitary", "s", "s"),
    ("oracle.sample_gate.calls", "oracle.sample_gate", "calls", "count"),
    ("oracle.sample_gate.s", "oracle.sample_gate", "s", "s"),
    ("oracle.sample_ladder_circuit.calls", "oracle.sample_ladder_circuit", "calls", "count"),
    ("oracle.sample_ladder_circuit.s", "oracle.sample_ladder_circuit", "s", "s"),
    ("fidelity.one_qubit_stats.calls", "fidelity.one_qubit_stats", "calls", "count"),
    ("fidelity.one_qubit_stats.s", "fidelity.one_qubit_stats", "s", "s"),
    ("fidelity.pair_covariance.calls", "fidelity.pair_covariance", "calls", "count"),
    ("fidelity.pair_covariance.s", "fidelity.pair_covariance", "s", "s"),
    ("fidelity.stochastic_map_stats.calls", "fidelity.stochastic_map_stats", "calls", "count"),
    ("fidelity.stochastic_map_stats.s", "fidelity.stochastic_map_stats", "s", "s"),
    ("fidelity.three_qubit_avg_fidelity.s", "fidelity.three_qubit_avg_fidelity", "s", "s"),
    ("circuit.stochastic_map_from_circuit.calls", "circuit.stochastic_map_from_circuit", "calls", "count"),
    ("circuit.stochastic_map_from_circuit.s", "circuit.stochastic_map_from_circuit", "s", "s"),
    ("circuit.simulate_full.calls", "circuit.simulate_full", "calls", "count"),
    ("circuit.simulate_full.s", "circuit.simulate_full", "s", "s"),
    ("rotation.rotation_from_gate.calls", "rotation.rotation_from_gate", "calls", "count"),
    ("rotation.rotation_from_gate.s", "rotation.rotation_from_gate", "s", "s"),
    # The experiment runner's own loops: run_experiment time not covered by other spans.
    ("experiments.self_s", "experiments.run_experiment", "self_s", "s"),
    ("experiments.write_rows.s", "experiments.write_rows", "s", "s"),
    ("experiments.write_config_echo.s", "experiments.write_config_echo", "s", "s"),
]


@dataclass
class Child:
    """One finished child process and what its check found."""

    seed: int
    out: Path
    report: dict
    setup_s: float
    problems: list[str]
    rows: list[dict] = field(default_factory=list)
    trace_path: Path | None = None
    # The traced run of the same CLI call, when there is one.
    twin: Child | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(
    wl: Workload,
    seed: int,
    work: Path,
    label: str,
    traced: bool = False,
    run_id: str = "-",
    extra: tuple[str, ...] = (),
) -> Child:
    """Run one CLI call in a fresh process and check its outputs."""
    out = work / f"{label}.csv"
    report_path = work / f"{label}.report.json"
    trace_path = work / f"{label}.spans.json" if traced else None
    cmd = [
        sys.executable,
        str(BENCH / "child.py"),
        str(report_path),
        str(trace_path) if traced else "-",
        run_id,
        "--",
        *wl.argv(seed, out, extra),
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=work,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return Child(seed, out, {}, 0.0, [f"timed out after {CHILD_TIMEOUT_S} s"])
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return Child(seed, out, {}, 0.0, [f"child crashed: {tail[0]}"])
    problems, rows = wl.check(out, proc.returncode, seed)
    setup_s = report["imported_at"] - spawned
    return Child(seed, out, report, setup_s, problems, rows, trace_path)


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(children: list[Child]) -> dict:
    env = child_env()
    versions = next((c.report["versions"] for c in children if c.report), {})
    return {
        "commit": git_commit(ROOT),
        "versions": versions,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": env["OMP_NUM_THREADS"],
        "python_executable": Path(sys.executable).name,
    }


def layer_metrics(wl: Workload, pairs: list[Child], untraced: list[Child], pool_info: dict) -> dict:
    """Per-layer metrics: medians over the traced twins of `pairs`."""
    per_child = []
    for child in pairs:
        data = json.loads(child.twin.trace_path.read_text())
        spans = aggregate(data["spans"])
        counters = data["counters"]
        values = {
            metric: spans.get(span, {}).get(key, 0) for metric, span, key, _ in SPAN_METRICS
        }
        crossovers = values["evolve.de_crossover.calls"]
        values["evolve.useful_eval_ratio"] = (
            counters["evolve.useful_evals"] / crossovers if crossovers else 0.0
        )
        # In noise-sweep the runner's only uncovered work is the batched
        # evaluation, which is called through a private name.
        values["evolve.batch_eval_s"] = (
            values["experiments.self_s"] if wl.command == "noise-sweep" else 0.0
        )
        values["oracle.samples"] = counters["oracle.samples"]
        values["experiments.rows_bytes"] = counters["experiments.rows_bytes"]
        per_child.append(values)
    metrics = {}
    for name, _, _, unit in SPAN_METRICS:
        metrics[name] = (statistics.median(v[name] for v in per_child), unit)
    for name, unit in (
        ("evolve.useful_eval_ratio", "ratio"),
        ("evolve.batch_eval_s", "s"),
        ("oracle.samples", "count"),
        ("experiments.rows_bytes", "bytes"),
    ):
        metrics[name] = (statistics.median(v[name] for v in per_child), unit)
    overhead = [c.twin.report["wall_s"] - c.report["wall_s"] for c in pairs]
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    metrics["cli.import_s"] = (statistics.median(c.report["import_s"] for c in untraced), "s")
    metrics["evolve.iters_to_xi"] = (pool_info.get("iters_to_xi") or 0, "count")
    return metrics


def end_to_end_metrics(wl: Workload, untraced: list[Child], pool_info: dict) -> dict:
    wall = statistics.median(c.report["wall_s"] for c in untraced)
    time_to_xi = wall
    if pool_info.get("iters_to_xi") is not None:
        time_to_xi = pool_info["iters_to_xi"] * wall / wl.iters
    values = {
        "setup_s": statistics.median(c.setup_s for c in untraced),
        "wall_s": wall,
        "evals_per_s": wl.nominal_evals() / wall,
        "time_to_xi_s": time_to_xi,
        "peak_rss_mb": max(c.report["peak_rss_mb"] for c in untraced),
    }
    return {name: (values[name], END_TO_END_UNITS[name]) for name in END_TO_END}


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> int:
    label = f"{wl.name}-seed{seed}-trace{int(trace)}"
    work = WORK / label
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run_id = uuid.uuid4().hex
    seeds = random.Random(f"{wl.name}:{seed}")

    untraced: list[Child] = []
    start = time.monotonic()
    last = 0.0
    while True:
        elapsed = time.monotonic() - start
        enough = len(untraced) >= wl.min_children
        if elapsed > RUN_DEADLINE_S or (enough and elapsed + last > seconds):
            break
        k = len(untraced)
        child_seed = seeds.getrandbits(32)
        begun = time.monotonic()
        child = run_child(wl, child_seed, work, f"c{k}")
        if trace and k < TRACED_TWINS:
            twin = child.twin = run_child(wl, child_seed, work, f"c{k}t", True, run_id)
            if twin.ok and child.ok and twin.out.read_bytes() != child.out.read_bytes():
                twin.problems.append("traced rows differ from the untraced twin")
        untraced.append(child)
        last = time.monotonic() - begun

    traced = [c.twin for c in untraced if c.twin is not None]
    children = untraced + traced
    failed = sum(not c.ok for c in children)
    attempted = len(children)
    pool_info: dict = {}
    if wl.pool_size:
        attempted += 1
        pool = [c.rows for c in untraced[: wl.pool_size] if c.ok]
        if len(pool) < wl.pool_size:
            failed += 1
            print(f"pool incomplete: {len(pool)} of {wl.pool_size} children", file=sys.stderr)
        else:
            problems, pool_info = wl.check_pool(pool)
            if problems:
                failed += 1
                print("pool check: " + "; ".join(problems), file=sys.stderr)
    for child in children:
        if child.problems:
            print(f"child seed {child.seed}: " + "; ".join(child.problems), file=sys.stderr)

    good = [c for c in untraced if c.ok]
    pairs = [c for c in good if c.twin is not None and c.twin.ok]
    if not good or (trace and not pairs):
        print("no child produced checked output; no metrics", file=sys.stderr)
        return 1
    if trace:
        metrics = layer_metrics(wl, pairs, good, pool_info)
        metrics["error_rate"] = (failed / attempted, "ratio")
    else:
        metrics = end_to_end_metrics(wl, good, pool_info)

    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "run_id": run_id,
        "machine": machine_record(children),
        "children": len(untraced),
        "traced_children": len(traced),
        "child_wall_s": [c.report.get("wall_s") for c in untraced],
        "child_setup_s": [c.setup_s for c in untraced],
        "pool": pool_info,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{label}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def self_test() -> int:
    """A failing verify and a corrupted row file must both count as failed."""
    work = WORK / "self-test"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sweep, verify = WORKLOADS["noise-sweep"], WORKLOADS["verify"]

    good = run_child(sweep, 7, work, "sweep")
    strict = run_child(verify, 7, work, "verify-strict", extra=("--tol-scale", "1e-20"))
    corrupt_out = work / "sweep-corrupt.csv"
    lines = good.out.read_text().splitlines(keepends=True)
    # Row 1 is eta = 0; move its mean F off 2/3.
    fields = lines[1].split(",")
    fields[1] = "0.6"
    lines[1] = ",".join(fields)
    corrupt_out.write_text("".join(lines))
    shutil.copy(f"{good.out}.config.json", f"{corrupt_out}.config.json")
    problems, _ = sweep.check(corrupt_out, 0, 7)

    cases = {
        "clean noise-sweep": (good.problems, False),
        "verify --tol-scale 1e-20": (strict.problems, True),
        "corrupted row file": (problems, True),
    }
    failed = sum(bool(p) for p, _ in cases.values())
    passed = True
    for label, (found, should_fail) in cases.items():
        counted = bool(found)
        passed = passed and counted == should_fail
        verdict = "failed" if counted else "passed"
        print(f"{label}: {verdict} ({'; '.join(found) or 'all checks hold'})")
    print(
        json.dumps(
            {
                "self_test": "pass" if passed else "FAIL",
                "attempted": len(cases),
                "failed": failed,
                "error_rate": failed / len(cases),
            }
        )
    )
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "unot" / "cli.py").is_file():
        print(f"error: no unot package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
