"""Acceptance suite: one test per stated performance target.

Each test pins a tolerance or statistical band and a runtime budget.
Seeds are fixed so every number below is reproducible bit for bit.
"""

import time

import numpy as np

from unot.circuit import (
    compensated_four_gate_map,
    density_from_bloch,
    misaligned_three_gate_map,
    optimal_stochastic_map,
    simulate_full,
    stochastic_map_from_circuit,
)
from unot.evolve import (
    DeConfig,
    NoiseModel,
    apply_noise,
    control_stats_batch,
    gell_mann_basis,
    optimal_controls,
    run_feedback_trials,
)
from unot.fidelity import (
    DEVIATION_SLOPE,
    AffineBlochChannel,
    one_qubit_stats,
    pair_covariance,
    region_membership,
    stochastic_map_stats,
    three_qubit_avg_fidelity,
)
from unot.oracle import (
    SeededSampler,
    bloch_map_from_affine,
    bloch_map_from_three_qubit_unitary,
    mc_stats,
    sample_bloch,
    sample_gate,
    sample_ladder_circuit,
    sample_unitary,
)
from unot.rotation import OneQubitGate, rotation_from_gate, rotation_trace, unit_axis

_BASIS8 = gell_mann_basis(8)


def test_01_single_gates_sit_on_the_deviation_line():
    start = time.perf_counter()
    sampler = SeededSampler(101)
    worst = 0.0
    for _ in range(1000):
        stats = one_qubit_stats(sample_gate(sampler))
        worst = max(worst, abs(stats.deviation - stats.avg_fidelity * DEVIATION_SLOPE))
    assert worst < 1e-12
    assert time.perf_counter() - start < 1.0


def test_02_optimal_mixture_analytic_and_oracle():
    start = time.perf_counter()
    smap = optimal_stochastic_map()
    stats = stochastic_map_stats(smap)
    assert abs(stats.avg_fidelity - 2.0 / 3.0) < 1e-12
    assert stats.deviation < 1e-12
    channel = AffineBlochChannel(smap.bloch_linear(), np.zeros(3))
    f, d = mc_stats(bloch_map_from_affine(channel), SeededSampler(102), 100_000)
    assert abs(f.value - 0.667) <= 0.005
    assert d.value < 0.005
    assert time.perf_counter() - start < 5.0


def test_03_three_qubit_ceiling_and_oracle_agreement():
    start = time.perf_counter()
    for child in SeededSampler(103).split(100):
        u = sample_unitary(child, 8)
        closed = three_qubit_avg_fidelity(u)
        assert closed <= 2.0 / 3.0 + 1e-10
        f, _ = mc_stats(bloch_map_from_three_qubit_unitary(u), child, 100_000)
        assert abs(closed - f.value) <= 5.0 * f.std_error
    assert time.perf_counter() - start < 60.0


def test_04_random_circuits_respect_their_regions():
    start = time.perf_counter()
    sampler = SeededSampler(104)
    for qubit_count in (1, 2, 3):
        for _ in range(1000):
            circuit = sample_ladder_circuit(sampler, qubit_count)
            stats = stochastic_map_stats(stochastic_map_from_circuit(circuit))
            assert region_membership(stats, qubit_count)
    assert time.perf_counter() - start < 30.0


def test_05_full_simulation_equals_reduced_map():
    start = time.perf_counter()
    sampler = SeededSampler(105)
    for i in range(200):
        circuit = sample_ladder_circuit(sampler, 1 + i % 4)
        smap = stochastic_map_from_circuit(circuit)
        for _ in range(10):
            radius = float(sampler.uniform(0.0, 1.0, 1)[0]) ** (1.0 / 3.0)
            rho = density_from_bloch(radius * sample_bloch(sampler))
            diff = simulate_full(circuit, rho) - smap.apply_density(rho)
            assert np.max(np.abs(diff)) < 1e-10
    assert time.perf_counter() - start < 60.0


def test_06_covariance_bounds_hold_and_are_tight():
    start = time.perf_counter()
    sampler = SeededSampler(106)
    for _ in range(1000):
        g_k, g_l = sample_gate(sampler), sample_gate(sampler)
        c = pair_covariance(g_k, g_l)
        d_k = one_qubit_stats(g_k).deviation
        d_l = one_qubit_stats(g_l).deviation
        assert c <= d_k * d_l + 1e-12
        assert c >= -0.5 * d_k * d_l - 1e-12
    for _ in range(100):
        angle_k = float(sampler.uniform(0.0, 2.0 * np.pi, 1)[0])
        angle_l = float(sampler.uniform(0.0, 2.0 * np.pi, 1)[0])
        parallel_k = OneQubitGate(angle_k, unit_axis(0.0, 0.0, 1.0))
        parallel_l = OneQubitGate(angle_l, unit_axis(0.0, 0.0, 1.0))
        ortho_l = OneQubitGate(angle_l, unit_axis(1.0, 0.0, 0.0))
        d_k = one_qubit_stats(parallel_k).deviation
        d_l = one_qubit_stats(parallel_l).deviation
        assert abs(pair_covariance(parallel_k, parallel_l) - d_k * d_l) < 1e-12
        assert abs(pair_covariance(parallel_k, ortho_l) + 0.5 * d_k * d_l) < 1e-12
    assert time.perf_counter() - start < 1.0


def test_07_noise_degradation_band_at_one_tenth():
    start = time.perf_counter()
    population = np.tile(optimal_controls(_BASIS8), (1000, 1))
    population = apply_noise(population, NoiseModel(0.1), SeededSampler(424242))
    avg_f, dev = control_stats_batch(population, _BASIS8)
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
    runs = run_feedback_trials(config, NoiseModel(0.0), _BASIS8, range(20))
    finals_f = [trace[-1].avg_fidelity for _, trace in runs]
    finals_d = [trace[-1].deviation for _, trace in runs]
    assert np.median(finals_f) >= 0.655
    assert np.median(finals_d) <= 0.02
    assert time.perf_counter() - start < 600.0


def test_09_search_recovers_between_injections():
    start = time.perf_counter()
    config = DeConfig(max_iterations=1000)
    runs = run_feedback_trials(config, NoiseModel(0.5, period=100), _BASIS8, range(20))
    traces = [trace for _, trace in runs]
    for k in range(1, 11):
        at_injection = np.median([t[100 * k].avg_fidelity for t in traces])
        assert at_injection < 0.60
    for k in range(2, 11):
        before_next = np.median([t[100 * k - 1].avg_fidelity for t in traces])
        assert before_next >= 0.64
    assert time.perf_counter() - start < 600.0


def test_10_fourth_gate_compensates_a_tilted_axis():
    start = time.perf_counter()
    alpha = 0.05
    three = stochastic_map_stats(misaligned_three_gate_map(alpha))
    four = stochastic_map_stats(compensated_four_gate_map(alpha))
    assert abs(three.deviation - 2.0 * alpha / (3.0 * np.sqrt(15.0))) <= 1e-6
    assert four.deviation <= alpha**2 / 2.0
    assert abs(four.avg_fidelity - 2.0 / 3.0) < 1e-12
    assert time.perf_counter() - start < 1.0


def test_11_rotation_trace_identities():
    start = time.perf_counter()
    sampler = SeededSampler(111)
    for _ in range(1000):
        gate = sample_gate(sampler)
        r = rotation_from_gate(gate)
        tr = np.trace(r)
        assert abs(tr - (2.0 * np.cos(gate.angle) + 1.0)) < 1e-12
        assert abs(tr - rotation_trace(gate.angle)) < 1e-12
        assert abs(tr * tr - np.trace(r @ r) - 2.0 * tr) < 1e-12
    assert time.perf_counter() - start < 1.0
