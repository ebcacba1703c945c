"""Tests for control parametrization, noise, and the feedback loop."""

import numpy as np
import pytest
from scipy.linalg import expm, schur

import unot.evolve
from unot.circuit import full_unitary, optimal_three_qubit_circuit
from unot.evolve import (
    DeConfig,
    GeneratorBasis,
    NoiseModel,
    apply_noise,
    channel_from_unitary,
    control_stats,
    control_stats_batch,
    de_crossover,
    de_mutate,
    fitness,
    gell_mann_basis,
    optimal_controls,
    run_feedback,
    run_feedback_trials,
    unitary_from_controls,
)
from unot.fidelity import affine_channel_stats
from unot.oracle import SeededSampler, mc_stats, bloch_map_from_affine, sample_unitary
from unot.rotation import PAULI

_BASIS8 = gell_mann_basis(8)


def test_basis_size_and_orthogonality():
    assert _BASIS8.count == 63
    assert _BASIS8.dim == 8
    mats = _BASIS8.matrices
    gram = np.einsum("aij,bji->ab", mats, mats).real
    assert np.max(np.abs(gram - 2.0 * np.eye(63))) < 1e-12
    assert np.max(np.abs(np.trace(mats, axis1=1, axis2=2))) < 1e-12
    assert np.max(np.abs(mats - mats.conj().transpose(0, 2, 1))) < 1e-12


def test_two_level_basis_is_the_pauli_triple():
    basis = gell_mann_basis(2)
    assert basis.count == 3
    for ours, pauli in zip(basis.matrices, PAULI):
        assert np.max(np.abs(ours - pauli)) < 1e-15


def test_generator_basis_rejects_nonhermitian():
    bad = np.zeros((1, 2, 2), dtype=complex)
    bad[0, 0, 1] = 1.0
    with pytest.raises(ValueError):
        GeneratorBasis(bad)


def test_unitary_from_controls_matches_expm():
    sampler = SeededSampler(40)
    for _ in range(5):
        p = sampler.uniform(-np.pi, np.pi, 63)
        u = unitary_from_controls(p, _BASIS8)
        h = np.einsum("a,aij->ij", p, _BASIS8.matrices)
        assert np.max(np.abs(u - expm(-1.0j * h))) < 1e-11
        assert np.max(np.abs(u @ u.conj().T - np.eye(8))) < 1e-12


def test_zero_controls_give_identity():
    u = unitary_from_controls(np.zeros(63), _BASIS8)
    assert np.max(np.abs(u - np.eye(8))) < 1e-15


def test_channel_of_system_bit_flip():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    channel = channel_from_unitary(np.kron(sx, np.eye(4, dtype=complex)))
    assert np.max(np.abs(channel.linear - np.diag([1.0, -1.0, -1.0]))) < 1e-12
    assert np.max(np.abs(channel.shift)) < 1e-12


def test_channel_route_matches_reduced_map_route():
    sampler = SeededSampler(41)
    from unot.circuit import stochastic_map_from_circuit
    from unot.oracle import sample_ladder_circuit

    for _ in range(10):
        circuit = sample_ladder_circuit(sampler, 3)
        channel = channel_from_unitary(full_unitary(circuit))
        linear = stochastic_map_from_circuit(circuit).bloch_linear()
        assert np.max(np.abs(channel.linear - linear)) < 1e-10
        assert np.max(np.abs(channel.shift)) < 1e-10


def test_kraus_completeness_holds_for_haar_unitaries():
    sampler = SeededSampler(42)
    for _ in range(100):
        channel = channel_from_unitary(sample_unitary(sampler, 8))
        stats = affine_channel_stats(channel)
        assert 0.0 <= stats.avg_fidelity <= 1.0


def test_channel_rejects_wrong_shape():
    with pytest.raises(ValueError):
        channel_from_unitary(np.eye(4, dtype=complex))


def test_fitness_of_embedded_system_flip():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    h = (np.pi / 2.0) * np.kron(sx, np.eye(4, dtype=complex))
    p = 0.5 * np.einsum("ij,aji->a", h, _BASIS8.matrices).real
    expected = 2.0 / 3.0 - 0.29814239699997197
    assert abs(fitness(p, _BASIS8) - expected) < 1e-12


def test_fitness_never_beats_the_ceiling():
    sampler = SeededSampler(43)
    for _ in range(200):
        p = sampler.uniform(-np.pi, np.pi, 63)
        assert fitness(p, _BASIS8) <= 2.0 / 3.0 + 1e-9


def test_optimal_controls_hit_the_ceiling_exactly():
    p = optimal_controls(_BASIS8)
    stats = control_stats(p, _BASIS8)
    assert abs(stats.avg_fidelity - 2.0 / 3.0) < 1e-12
    assert stats.deviation < 1e-12
    assert abs(fitness(p, _BASIS8) - 2.0 / 3.0) < 1e-12


def test_optimal_controls_reproduce_the_ladder_unitary():
    p = optimal_controls(_BASIS8)
    u = unitary_from_controls(p, _BASIS8)
    target = full_unitary(optimal_three_qubit_circuit())
    # Equal up to a global phase; align on the largest entry.
    idx = np.unravel_index(np.argmax(np.abs(target)), target.shape)
    phase = u[idx] / target[idx]
    assert abs(abs(phase) - 1.0) < 1e-9
    assert np.max(np.abs(u - phase * target)) < 1e-9


def test_optimal_controls_match_the_schur_logarithm():
    u = full_unitary(optimal_three_qubit_circuit())
    # The eigenvector route is basis-independent only for distinct eigenphases.
    phases = np.angle(np.linalg.eigvals(u))
    gaps = np.abs(np.angle(np.exp(1j * (phases[:, None] - phases[None, :]))))
    assert np.min(gaps[~np.eye(8, dtype=bool)]) >= 0.1
    t, z = schur(u, output="complex")
    angles = np.angle(np.diagonal(t))
    lift = np.empty_like(angles)
    lift[np.argsort(angles)] = 2.0 * np.pi * (-1.0) ** np.arange(8)
    h = -(z * (angles + lift)) @ z.conj().T
    h -= np.trace(h) / 8 * np.eye(8)
    reference = 0.5 * np.einsum("ij,aji->a", h, _BASIS8.matrices).real
    assert np.max(np.abs(optimal_controls(_BASIS8) - reference)) < 1e-13


def test_optimal_control_stats_agree_with_oracle():
    p = optimal_controls(_BASIS8)
    channel = channel_from_unitary(unitary_from_controls(p, _BASIS8))
    f, d = mc_stats(
        bloch_map_from_affine(channel), SeededSampler(44), 20000
    )
    assert abs(f.value - 2.0 / 3.0) < 1e-10
    assert d.value < 1e-10


def test_fitness_against_oracle_for_random_controls():
    sampler = SeededSampler(45)
    for child in sampler.split(20):
        p = child.uniform(-np.pi, np.pi, 63)
        stats = control_stats(p, _BASIS8)
        channel = channel_from_unitary(unitary_from_controls(p, _BASIS8))
        f, d = mc_stats(
            bloch_map_from_affine(channel), child, 100000
        )
        assert abs(stats.avg_fidelity - f.value) < 5.0 * f.std_error
        assert abs(stats.deviation - d.value) < 5.0 * max(d.std_error, 1e-6)


def test_noise_model_validation_and_schedule():
    with pytest.raises(ValueError):
        NoiseModel(-0.1)
    with pytest.raises(ValueError):
        NoiseModel(1.5)
    with pytest.raises(ValueError):
        NoiseModel(0.5, period=-1)
    never = NoiseModel(0.5, period=None)
    assert not any(never.hits(i) for i in range(100))
    once = NoiseModel(0.5, period=0)
    assert once.hits(0)
    assert not any(once.hits(i) for i in range(1, 100))
    periodic = NoiseModel(0.5, period=5)
    assert [i for i in range(1, 16) if periodic.hits(i)] == [5, 10, 15]
    assert not periodic.hits(0)
    disabled = NoiseModel(0.0, period=5)
    assert not any(disabled.hits(i) for i in range(100))


def test_apply_noise_zero_strength_is_exact():
    population = SeededSampler(46).uniform(-np.pi, np.pi, (6, 63))
    sampler = SeededSampler(47)
    out = apply_noise(population, NoiseModel(0.0), sampler)
    assert np.array_equal(out, population)
    assert sampler.position == 0


def test_apply_noise_shift_is_bounded():
    population = np.zeros((5, 63))
    out = apply_noise(population, NoiseModel(0.3), SeededSampler(48))
    assert np.max(np.abs(out)) <= 0.3 * np.pi
    assert np.max(np.abs(out)) > 0.0


def test_de_mutate_arithmetic():
    population = np.arange(24.0).reshape(3, 4, 2)
    picks = SeededSampler(49).pick_distinct(3, 3, (3, 4))
    mutant = de_mutate(population, 0.1, picks)
    assert mutant.shape == population.shape
    for t in range(3):
        for i in range(4):
            a, b, c = np.where(picks[t, i] >= i, picks[t, i] + 1, picks[t, i])
            assert a != i and b != i and c != i
            expected = population[t, a] + 0.1 * (population[t, b] - population[t, c])
            assert np.array_equal(mutant[t, i], expected)


def test_de_mutate_donors_are_distinct_and_not_the_member():
    # Member j of every trial is the unit vector e_j, so the mutant
    # e_a + 0.5 (e_b - e_c) shows its donors: 1 at a, 0.5 at b, -0.5 at c.
    trials, n = 50, 10
    population = np.tile(np.eye(n), (trials, 1, 1))
    picks = SeededSampler(52).pick_distinct(n - 1, 3, (trials, n))
    mutant = de_mutate(population, 0.5, picks)
    for t in range(trials):
        for i in range(n):
            row = mutant[t, i]
            assert row[i] == 0.0
            assert sorted(row[row != 0.0].tolist()) == [-0.5, 0.5, 1.0]


def test_de_crossover_rate_statistics():
    sampler = SeededSampler(50)
    target = np.zeros((10, 1000, 63))
    mutant = np.ones((10, 1000, 63))
    trial = de_crossover(target, mutant, 0.5, sampler.random(target.shape))
    assert abs(trial.sum(axis=-1).mean() - 31.5) < 1.0


def test_de_crossover_extremes():
    sampler = SeededSampler(51)
    target = np.zeros((4, 10, 63))
    mutant = np.ones((4, 10, 63))
    draws = sampler.random(target.shape)
    assert np.all(de_crossover(target, mutant, 0.0, draws).sum(axis=-1) == 0.0)
    assert np.all(de_crossover(target, mutant, 1.0, draws).sum(axis=-1) == 63.0)


def test_de_config_validation():
    with pytest.raises(ValueError):
        DeConfig(population_size=3)
    with pytest.raises(ValueError):
        DeConfig(differential_weight=0.0)
    with pytest.raises(ValueError):
        DeConfig(crossover_rate=1.5)


def test_run_feedback_trace_shape_and_determinism():
    config = DeConfig(max_iterations=40, seed=7)
    state_a, trace_a = run_feedback(config, NoiseModel(0.0), _BASIS8)
    state_b, trace_b = run_feedback(config, NoiseModel(0.0), _BASIS8)
    assert len(trace_a) == 41
    assert trace_a == trace_b
    assert np.array_equal(state_a.population, state_b.population)
    assert state_a.population.shape == (10, 63)


def test_run_feedback_fitness_is_monotone_without_noise():
    config = DeConfig(max_iterations=120, seed=8)
    _, trace = run_feedback(config, NoiseModel(0.0), _BASIS8)
    values = [row.fitness for row in trace]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(row.fitness <= 2.0 / 3.0 + 1e-9 for row in trace)
    assert not any(row.noise_injected for row in trace)


def test_run_feedback_improves_on_the_initial_population():
    config = DeConfig(max_iterations=150, seed=9)
    _, trace = run_feedback(config, NoiseModel(0.0), _BASIS8)
    assert trace[-1].fitness > trace[0].fitness + 0.05


def test_run_feedback_marks_injections():
    config = DeConfig(max_iterations=60, seed=10)
    _, trace = run_feedback(config, NoiseModel(0.4, period=25), _BASIS8)
    flags = [row.iteration for row in trace if row.noise_injected]
    assert flags == [25, 50]
    for prev, row in zip(trace, trace[1:]):
        if not row.noise_injected:
            assert row.fitness >= prev.fitness


def test_run_feedback_single_injection_at_start():
    config = DeConfig(max_iterations=30, seed=11)
    _, trace = run_feedback(config, NoiseModel(0.4, period=0), _BASIS8)
    assert trace[0].noise_injected
    assert not any(row.noise_injected for row in trace[1:])


def test_run_feedback_accepts_initial_population():
    config = DeConfig(max_iterations=5, seed=12)
    start = np.tile(optimal_controls(_BASIS8), (10, 1))
    state, trace = run_feedback(config, NoiseModel(0.0), _BASIS8, start)
    assert abs(trace[0].fitness - 2.0 / 3.0) < 1e-12
    assert all(abs(row.fitness - 2.0 / 3.0) < 1e-12 for row in trace)
    with pytest.raises(ValueError):
        run_feedback(config, NoiseModel(0.0), _BASIS8, np.zeros((3, 63)))


def test_run_feedback_rejects_nonfinite_initial_population():
    config = DeConfig(max_iterations=1, seed=13)
    start = np.tile(optimal_controls(_BASIS8), (10, 1))
    start[3, 5] = np.nan
    with pytest.raises(ValueError, match="finite") as info:
        run_feedback(config, NoiseModel(0.0), _BASIS8, start)
    assert not isinstance(info.value, np.linalg.LinAlgError)


def test_batch_control_stats_check_their_controls():
    sampler = SeededSampler(46)
    pop = sampler.uniform(-np.pi, np.pi, (4, 63))
    avg_f, dev = control_stats_batch(pop, _BASIS8)
    for k in range(4):
        stats = control_stats(pop[k], _BASIS8)
        assert abs(stats.avg_fidelity - avg_f[k]) < 1e-12
        assert abs(stats.deviation - dev[k]) < 1e-12
    with pytest.raises(ValueError, match="shape"):
        control_stats_batch(pop[:, :62], _BASIS8)
    with pytest.raises(ValueError, match="shape"):
        control_stats_batch(pop[None], _BASIS8)
    with pytest.raises(ValueError, match="shape"):
        control_stats(pop, _BASIS8)
    pop[2, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        control_stats_batch(pop, _BASIS8)


@pytest.mark.parametrize("noise", [NoiseModel(0.0), NoiseModel(0.4, period=25)])
def test_lockstep_trials_equal_their_lone_runs(noise):
    seeds = [3, 17, 2**63 + 5]
    runs = run_feedback_trials(DeConfig(max_iterations=60), noise, _BASIS8, seeds)
    assert len(runs) == len(seeds)
    for seed, (state, trace) in zip(seeds, runs):
        lone_state, lone_trace = run_feedback(
            DeConfig(max_iterations=60, seed=seed), noise, _BASIS8
        )
        assert trace == lone_trace
        assert np.array_equal(state.population, lone_state.population)
        assert np.array_equal(state.fitness, lone_state.fitness)
        assert state.best_index == lone_state.best_index


def test_lockstep_prefix_of_seeds_is_unchanged():
    config = DeConfig(max_iterations=40)
    four = run_feedback_trials(config, NoiseModel(0.0), _BASIS8, [1, 2, 3, 4])
    two = run_feedback_trials(config, NoiseModel(0.0), _BASIS8, [1, 2])
    for (state4, trace4), (state2, trace2) in zip(four[:2], two):
        assert trace4 == trace2
        assert np.array_equal(state4.population, state2.population)


def test_unchanged_trial_vectors_are_not_evaluated(monkeypatch):
    rows = []
    original = unot.evolve.control_stats_batch

    def counting(pop, basis):
        rows.append(len(pop))
        return original(pop, basis)

    monkeypatch.setattr(unot.evolve, "control_stats_batch", counting)
    config = DeConfig(crossover_rate=0.0, max_iterations=30)
    runs = run_feedback_trials(config, NoiseModel(0.0), _BASIS8, [1, 2, 3])
    assert rows == [3 * 10]
    assert all(len(trace) == 31 for _, trace in runs)
