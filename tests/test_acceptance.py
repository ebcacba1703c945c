"""Acceptance suite: one test per stated performance target.

Each test pins a tolerance or statistical band and a runtime budget.
Seeds are fixed so every number below is reproducible bit for bit.
"""

import time

import numpy as np
from references import (
    ball_action,
    bloch_map_from_affine,
    linear_stats,
    mixture_map,
    optimal_mixture,
    stochastic_map_from_circuit,
    three_qubit_avg_fidelity,
)

from unot.circuit import (
    compensated_four_gate_map,
    full_unitary,
    ladder_linear,
    misaligned_three_gate_map,
)
from unot.evolve import (
    DeConfig,
    NoiseModel,
    apply_noise,
    control_stats_batch,
    optimal_controls,
    run_feedback,
)
from unot.fidelity import (
    DEVIATION_SLOPE,
    REGION_TOL,
    affine_stats_batch,
    one_qubit_stats_batch,
    pair_covariance_batch,
    region_residual,
)
from unot.oracle import (
    bloch_map_from_unitary,
    mc_stats,
    sample_bloch,
    sample_gates,
    sample_ladders,
    sample_unitary,
    spawn_seeds,
)
from unot.rotation import rotation_batch, rotation_trace


def test_01_single_gates_sit_on_the_deviation_line():
    start = time.perf_counter()
    angles, _ = sample_gates(np.random.default_rng(101), 1000)
    avg_f, dev = one_qubit_stats_batch(angles)
    assert np.max(np.abs(dev - avg_f * DEVIATION_SLOPE)) < 1e-12
    assert time.perf_counter() - start < 1.0


def test_02_optimal_mixture_analytic_and_oracle():
    start = time.perf_counter()
    linear = mixture_map(*optimal_mixture())
    avg_f, dev = linear_stats(linear)
    assert abs(avg_f - 2.0 / 3.0) < 1e-12
    assert dev < 1e-12
    bloch_map = bloch_map_from_affine(linear, np.zeros(3))
    f, d = mc_stats(bloch_map, np.random.default_rng(102), 100_000)
    assert abs(f.value - 0.667) <= 0.005
    assert d.value < 0.005
    assert time.perf_counter() - start < 5.0


def test_03_three_qubit_ceiling_and_oracle_agreement():
    start = time.perf_counter()
    for child in map(np.random.default_rng, spawn_seeds(103, 100)):
        u = sample_unitary(child, 8)
        closed = three_qubit_avg_fidelity(u)
        assert closed <= 2.0 / 3.0 + 1e-10
        f, _ = mc_stats(bloch_map_from_unitary(u), child, 100_000)
        assert abs(closed - f.value) <= 5.0 * f.std_error
    assert time.perf_counter() - start < 60.0


def test_04_random_circuits_respect_their_regions():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    for qubit_count in (1, 2, 3):
        linear = ladder_linear(*sample_ladders(rng, qubit_count, 1000))
        avg_f, dev = affine_stats_batch(linear, np.zeros((1000, 3)))
        assert np.all(region_residual(avg_f, dev, qubit_count) <= REGION_TOL)
    assert time.perf_counter() - start < 30.0


def test_05_full_simulation_equals_reduced_map():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    for i in range(200):
        ladder = sample_ladders(rng, 1 + i % 4, 1)
        circuit = tuple(a[0] for a in ladder)
        act = bloch_map_from_unitary(full_unitary(*circuit))
        linear = mixture_map(*stochastic_map_from_circuit(*circuit))
        for _ in range(10):
            radius = float(rng.uniform(0.0, 1.0, 1)[0]) ** (1.0 / 3.0)
            a = radius * sample_bloch(rng, 1)[0]
            full = ball_action(act, a)[0]
            assert np.max(np.abs(full - linear @ a)) < 1e-10
    assert time.perf_counter() - start < 60.0


def test_06_covariance_bounds_hold_and_are_tight():
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    angles, axes = sample_gates(rng, 2000)
    c = pair_covariance_batch((angles[0::2], axes[0::2]), (angles[1::2], axes[1::2]))
    _, dev = one_qubit_stats_batch(angles)
    d_k, d_l = dev[0::2], dev[1::2]
    assert np.all(c <= d_k * d_l + 1e-12)
    assert np.all(c >= -0.5 * d_k * d_l - 1e-12)
    # Parallel axes reach the upper bound, orthogonal axes the lower one.
    angles = rng.uniform(0.0, 2.0 * np.pi, 200)
    _, dev = one_qubit_stats_batch(angles)
    d_k, d_l = dev[0::2], dev[1::2]
    z, x = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    parallel = pair_covariance_batch((angles[0::2], z), (angles[1::2], z))
    ortho = pair_covariance_batch((angles[0::2], z), (angles[1::2], x))
    assert np.max(np.abs(parallel - d_k * d_l)) < 1e-12
    assert np.max(np.abs(ortho + 0.5 * d_k * d_l)) < 1e-12
    assert time.perf_counter() - start < 1.0


def test_07_noise_degradation_band_at_one_tenth():
    start = time.perf_counter()
    population = np.tile(optimal_controls(), (1000, 1))
    population = apply_noise(population, NoiseModel(0.1), np.random.default_rng(424242))
    avg_f, dev = control_stats_batch(population)
    assert 0.615 <= avg_f.mean() <= 0.651
    assert 0.068 <= dev.mean() <= 0.122
    assert time.perf_counter() - start < 120.0


def test_08_search_converges_near_the_ceiling():
    start = time.perf_counter()
    config = DeConfig(
        population_size=10,
        differential_weight=0.1,
        crossover_rate=0.03,
        max_iterations=1000,
    )
    run = run_feedback(config, NoiseModel(0.0), range(20))
    assert np.median(run.avg_fidelity[-1]) >= 0.655
    assert np.median(run.deviation[-1]) <= 0.02
    assert time.perf_counter() - start < 600.0


def test_09_search_recovers_between_injections():
    start = time.perf_counter()
    config = DeConfig(max_iterations=1000)
    run = run_feedback(config, NoiseModel(0.5, period=100), range(20))
    for k in range(1, 11):
        assert np.median(run.avg_fidelity[100 * k]) < 0.60
    for k in range(2, 11):
        assert np.median(run.avg_fidelity[100 * k - 1]) >= 0.64
    assert time.perf_counter() - start < 600.0


def test_10_fourth_gate_compensates_a_tilted_axis():
    start = time.perf_counter()
    alpha = 0.05
    _, three = linear_stats(misaligned_three_gate_map(np.array([alpha]))[0])
    four_f, four = linear_stats(compensated_four_gate_map(np.array([alpha]))[0])
    assert abs(three - 2.0 * alpha / (3.0 * np.sqrt(15.0))) <= 1e-6
    assert four <= alpha**2 / 2.0
    assert abs(four_f - 2.0 / 3.0) < 1e-12
    assert time.perf_counter() - start < 1.0


def test_11_rotation_trace_identities():
    start = time.perf_counter()
    angles, axes = sample_gates(np.random.default_rng(111), 1000)
    r = rotation_batch(angles, axes)
    tr = np.trace(r, axis1=1, axis2=2)
    assert np.max(np.abs(tr - (2.0 * np.cos(angles) + 1.0))) < 1e-12
    assert np.max(np.abs(tr - rotation_trace(angles))) < 1e-12
    tr_sq = np.trace(r @ r, axis1=1, axis2=2)
    assert np.max(np.abs(tr * tr - tr_sq - 2.0 * tr)) < 1e-12
    assert time.perf_counter() - start < 1.0
