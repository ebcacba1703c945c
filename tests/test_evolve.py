"""Tests for control parametrization, noise, and the feedback loop."""

import functools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from references import (
    bloch_map_from_affine,
    control_stats_kraus,
    control_stats_one_call,
    feedback_one_trial,
    mixture_map,
    noise_stats_one_draw,
    stochastic_map_from_circuit,
    three_qubit_avg_fidelity,
)
from scipy.linalg import expm, schur

import unot.evolve
from unot.circuit import full_unitary, optimal_three_qubit_circuit
from unot.cli import main
from unot.evolve import (
    _BLOCK_ROWS,
    _GENERATORS,
    _INTERLEAVED,
    DeConfig,
    NoiseModel,
    apply_noise,
    channel_from_unitary,
    check_setting,
    control_stats_batch,
    de_crossover,
    de_mutate,
    gell_mann_basis,
    noise_stats,
    optimal_controls,
    run_feedback,
    unitary_from_controls,
)
from unot.fidelity import affine_stats_batch
from unot.oracle import mc_stats, sample_ladders, sample_unitary, spawn_seeds
from unot.rotation import PAULI

_SU8 = gell_mann_basis(8)


def _stats(p):
    # (F, Delta) of one control vector: the one-row call of the batch.
    avg_f, dev = control_stats_batch(np.asarray(p)[None])
    return avg_f[0], dev[0]


def _fitness(p):
    avg_f, dev = _stats(p)
    return avg_f - dev


def _history_fitness(run):
    # The best member's xi after each iteration, (iterations + 1, trials).
    return run.avg_fidelity - run.deviation


def test_basis_size_and_orthogonality():
    mats = gell_mann_basis(8)
    assert mats.shape == (63, 8, 8)
    gram = np.einsum("aij,bji->ab", mats, mats).real
    assert np.max(np.abs(gram - 2.0 * np.eye(63))) < 1e-12
    assert np.max(np.abs(np.trace(mats, axis1=1, axis2=2))) < 1e-12
    assert np.max(np.abs(mats - mats.conj().transpose(0, 2, 1))) < 1e-12


def test_two_level_basis_is_the_pauli_triple():
    mats = gell_mann_basis(2)
    assert mats.shape == (3, 2, 2)
    for ours, pauli in zip(mats, PAULI):
        assert np.max(np.abs(ours - pauli)) < 1e-15


def test_interleaved_generators_give_h_and_are_read_only():
    assert np.array_equal(_GENERATORS, _SU8)
    assert np.array_equal(_INTERLEAVED.view(complex).reshape(63, 8, 8), _SU8)
    assert not _GENERATORS.flags.writeable
    assert not _INTERLEAVED.flags.writeable
    p = np.random.default_rng(54).uniform(-np.pi, np.pi, (5, 63))
    h = (p @ _INTERLEAVED).view(complex).reshape(5, 8, 8)
    assert np.max(np.abs(h - np.einsum("na,aij->nij", p, _SU8))) < 1e-13


def test_unitary_from_controls_matches_expm():
    rng = np.random.default_rng(40)
    for _ in range(5):
        p = rng.uniform(-np.pi, np.pi, 63)
        u = unitary_from_controls(p)
        h = np.einsum("a,aij->ij", p, _SU8)
        assert np.max(np.abs(u - expm(-1.0j * h))) < 1e-11
        assert np.max(np.abs(u @ u.conj().T - np.eye(8))) < 1e-12


def test_zero_controls_give_identity():
    u = unitary_from_controls(np.zeros(63))
    assert np.max(np.abs(u - np.eye(8))) < 1e-15


@pytest.mark.parametrize("shape", [(1, 63), (2, 63), (62,)])
def test_unitary_from_controls_takes_one_control_vector(shape):
    with pytest.raises(ValueError, match=r"must have shape \(63,\)"):
        unitary_from_controls(np.zeros(shape))


def _channel(u):
    # Affine parts of one unitary: the one-row call of the batch.
    linear, shift = channel_from_unitary(np.asarray(u)[None])
    return linear[0], shift[0]


def test_channel_of_system_bit_flip():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    linear, shift = channel_from_unitary(np.kron(sx, np.eye(4, dtype=complex))[None])
    assert linear.shape == (1, 3, 3) and shift.shape == (1, 3)
    assert np.max(np.abs(linear[0] - np.diag([1.0, -1.0, -1.0]))) < 1e-12
    assert np.max(np.abs(shift)) < 1e-12


@pytest.mark.parametrize("count", [1, 2, 20])
def test_channel_rows_are_bitwise_their_one_row_calls(count):
    rngs = map(np.random.default_rng, spawn_seeds(47, count))
    unitaries = np.stack([sample_unitary(rng, 8) for rng in rngs])
    linear, shift = channel_from_unitary(unitaries)
    assert linear.shape == (count, 3, 3) and shift.shape == (count, 3)
    for k in range(count):
        one_linear, one_shift = channel_from_unitary(unitaries[k : k + 1])
        assert np.array_equal(linear[k], one_linear[0])
        assert np.array_equal(shift[k], one_shift[0])


def test_kernel_fidelity_matches_the_closed_form():
    rngs = map(np.random.default_rng, spawn_seeds(48, 200))
    unitaries = np.stack([sample_unitary(rng, 8) for rng in rngs])
    avg_f, _ = affine_stats_batch(*channel_from_unitary(unitaries))
    closed = np.array([three_qubit_avg_fidelity(u) for u in unitaries])
    assert np.max(np.abs(avg_f - closed)) <= 1e-15


def test_kernel_fidelity_ceiling_markers():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    unitaries = np.stack(
        [
            np.eye(8, dtype=complex),
            np.kron(sx, np.eye(4, dtype=complex)),
            full_unitary(*optimal_three_qubit_circuit()),
        ]
    )
    avg_f, dev = affine_stats_batch(*channel_from_unitary(unitaries))
    assert avg_f[0] == 0.0 and dev[0] == 0.0
    assert np.max(np.abs(avg_f[1:] - 2.0 / 3.0)) <= 1e-15
    assert dev[2] < 1e-15


def test_channel_route_matches_reduced_map_route():
    rng = np.random.default_rng(41)
    for _ in range(10):
        ladder = tuple(a[0] for a in sample_ladders(rng, 3, 1))
        linear, shift = _channel(full_unitary(*ladder))
        reduced = mixture_map(*stochastic_map_from_circuit(*ladder))
        assert np.max(np.abs(linear - reduced)) < 1e-10
        assert np.max(np.abs(shift)) < 1e-10


def test_kraus_completeness_holds_for_haar_unitaries():
    rng = np.random.default_rng(42)
    unitaries = np.stack([sample_unitary(rng, 8) for _ in range(100)])
    avg_f, _ = affine_stats_batch(*channel_from_unitary(unitaries))
    assert np.all((0.0 <= avg_f) & (avg_f <= 1.0))


def test_channel_rejects_wrong_shape():
    for shape in [(4, 4), (8, 8), (1, 4, 4), (2, 8, 4)]:
        with pytest.raises(ValueError, match=r"\(n, 8, 8\)"):
            channel_from_unitary(np.zeros(shape, dtype=complex))


def test_kraus_completeness_check_rejects_nan():
    u = np.eye(8, dtype=complex)
    u[2, 0] = np.nan
    with pytest.raises(RuntimeError, match="Kraus completeness"):
        channel_from_unitary(u[None])


def test_fitness_of_embedded_system_flip():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    h = (np.pi / 2.0) * np.kron(sx, np.eye(4, dtype=complex))
    p = 0.5 * np.einsum("ij,aji->a", h, _SU8).real
    expected = 2.0 / 3.0 - 0.29814239699997197
    assert abs(_fitness(p) - expected) < 1e-12


def test_fitness_never_beats_the_ceiling():
    rng = np.random.default_rng(43)
    for _ in range(200):
        p = rng.uniform(-np.pi, np.pi, 63)
        assert _fitness(p) <= 2.0 / 3.0 + 1e-9


def test_optimal_controls_hit_the_ceiling_exactly():
    p = optimal_controls()
    avg_f, dev = _stats(p)
    assert abs(avg_f - 2.0 / 3.0) < 1e-12
    assert dev < 1e-12
    assert abs(_fitness(p) - 2.0 / 3.0) < 1e-12


def test_optimal_controls_reproduce_the_ladder_unitary():
    p = optimal_controls()
    u = unitary_from_controls(p)
    target = full_unitary(*optimal_three_qubit_circuit())
    # Equal up to a global phase; align on the largest entry.
    idx = np.unravel_index(np.argmax(np.abs(target)), target.shape)
    phase = u[idx] / target[idx]
    assert abs(abs(phase) - 1.0) < 1e-9
    assert np.max(np.abs(u - phase * target)) < 1e-9


def test_optimal_controls_match_the_schur_logarithm():
    u = full_unitary(*optimal_three_qubit_circuit())
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
    reference = 0.5 * np.einsum("ij,aji->a", h, _SU8).real
    assert np.max(np.abs(optimal_controls() - reference)) < 1e-13


def test_optimal_control_stats_agree_with_oracle():
    p = optimal_controls()
    channel = _channel(unitary_from_controls(p))
    f, d = mc_stats(bloch_map_from_affine(*channel), np.random.default_rng(44), 20000)
    assert abs(f.value - 2.0 / 3.0) < 1e-10
    assert d.value < 1e-10


def test_fitness_against_oracle_for_random_controls():
    for child in map(np.random.default_rng, spawn_seeds(45, 20)):
        p = child.uniform(-np.pi, np.pi, 63)
        avg_f, dev = _stats(p)
        channel = _channel(unitary_from_controls(p))
        f, d = mc_stats(bloch_map_from_affine(*channel), child, 100000)
        assert abs(avg_f - f.value) < 5.0 * f.std_error
        assert abs(dev - d.value) < 5.0 * max(d.std_error, 1e-6)


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
    population = np.random.default_rng(46).uniform(-np.pi, np.pi, (6, 63))
    rng = np.random.default_rng(47)
    out = apply_noise(population, NoiseModel(0.0), rng)
    assert np.array_equal(out, population)
    assert rng.bit_generator.state == np.random.default_rng(47).bit_generator.state


def test_apply_noise_shift_is_bounded():
    population = np.zeros((5, 63))
    out = apply_noise(population, NoiseModel(0.3), np.random.default_rng(48))
    assert np.max(np.abs(out)) <= 0.3 * np.pi
    assert np.max(np.abs(out)) > 0.0


def _ranked_picks(rng, shape, pool):
    # Three distinct indices from range(pool) per cell of `shape`, as a sweep
    # takes them: the first three places of the ranking of `pool` keys.
    return np.argsort(rng.random((*shape, pool)), axis=-1)[..., :3]


def test_de_mutate_arithmetic():
    population = np.arange(24.0).reshape(3, 4, 2)
    picks = _ranked_picks(np.random.default_rng(49), (3, 4), 3)
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
    picks = _ranked_picks(np.random.default_rng(52), (trials, n), n - 1)
    mutant = de_mutate(population, 0.5, picks)
    for t in range(trials):
        for i in range(n):
            row = mutant[t, i]
            assert row[i] == 0.0
            assert sorted(row[row != 0.0].tolist()) == [-0.5, 0.5, 1.0]


def test_de_crossover_rate_statistics():
    rng = np.random.default_rng(50)
    target = np.zeros((10, 1000, 63))
    mutant = np.ones((10, 1000, 63))
    trial = de_crossover(target, mutant, 0.5, rng.random(target.shape))
    assert abs(trial.sum(axis=-1).mean() - 31.5) < 1.0


def test_de_crossover_extremes():
    rng = np.random.default_rng(51)
    target = np.zeros((4, 10, 63))
    mutant = np.ones((4, 10, 63))
    draws = rng.random(target.shape)
    assert np.all(de_crossover(target, mutant, 0.0, draws).sum(axis=-1) == 0.0)
    assert np.all(de_crossover(target, mutant, 1.0, draws).sum(axis=-1) == 63.0)


def _sweep_draws(monkeypatch, config, seeds):
    """The picks (sweeps, trials, n, 3) and crossover draws (sweeps, trials,
    n, d) that `run_feedback` hands to `de_mutate` and `de_crossover`."""
    picks, draws = [], []
    mutate, crossover = unot.evolve.de_mutate, unot.evolve.de_crossover

    def recording_mutate(population, weight, p):
        picks.append(p.copy())
        return mutate(population, weight, p)

    def recording_crossover(target, mutant, rate, d):
        draws.append(d.copy())
        return crossover(target, mutant, rate, d)

    monkeypatch.setattr(unot.evolve, "de_mutate", recording_mutate)
    monkeypatch.setattr(unot.evolve, "de_crossover", recording_crossover)
    run_feedback(config, NoiseModel(0.0), seeds)
    return np.stack(picks), np.stack(draws)


def test_de_donors_are_distinct_in_range_and_not_the_member(monkeypatch):
    n = 10
    picks, _ = _sweep_draws(monkeypatch, DeConfig(n, max_iterations=100), [2, 3])
    assert picks.shape == (100, 2, n, 3)
    assert picks.min() >= 0 and picks.max() < n - 1
    ordered = np.sort(picks, axis=-1)
    assert np.all(ordered[..., 1:] != ordered[..., :-1])
    donors = np.where(picks >= np.arange(n)[:, None], picks + 1, picks)
    assert np.all(donors != np.arange(n)[:, None])


def test_de_donor_slots_are_uniform(monkeypatch):
    # Crossover rate 0 takes no mutant component, so nothing is evaluated.
    n, sweeps = 10, 2000
    config = DeConfig(n, crossover_rate=0.0, max_iterations=sweeps)
    picks, _ = _sweep_draws(monkeypatch, config, [7])
    picks = picks.reshape(sweeps * n, 3)
    p = 1.0 / (n - 1)
    band = 5.0 * np.sqrt(len(picks) * p * (1.0 - p))
    for slot in range(3):
        counts = np.bincount(picks[:, slot], minlength=n - 1)
        assert np.all(np.abs(counts - len(picks) * p) <= band)


@pytest.mark.parametrize("n", [4, 10])
def test_de_sweep_draws_n_minus_one_keys_per_member(monkeypatch, n):
    # Each sweep reads n - 1 keys per member and then the (n, d) crossover
    # draws: bitwise what a fresh generator gives after the population.
    config = DeConfig(n, max_iterations=30)
    picks, draws = _sweep_draws(monkeypatch, config, [6])
    rng = np.random.default_rng(6)
    rng.uniform(-np.pi, np.pi, (n, 63))
    for sweep in range(30):
        keys = rng.random((n, n - 1))
        assert np.array_equal(picks[sweep, 0], np.argsort(keys, axis=-1)[:, :3])
        assert np.array_equal(draws[sweep, 0], rng.random((n, 63)))


@pytest.mark.parametrize(
    "noise",
    [NoiseModel(0.0), NoiseModel(0.5, period=0), NoiseModel(0.5, period=7)],
    ids=["no-noise", "period-0", "period-7"],
)
def test_run_feedback_follows_the_documented_draw_order(noise):
    config = DeConfig(crossover_rate=0.1, max_iterations=40)
    run = run_feedback(config, noise, [11])
    avg_f, dev, population = feedback_one_trial(config, noise, 11)
    assert np.array_equal(run.avg_fidelity[:, 0], avg_f)
    assert np.array_equal(run.deviation[:, 0], dev)
    assert np.array_equal(run.population[0], population)


def test_run_feedback_rejects_a_negative_seed():
    with pytest.raises(ValueError):
        run_feedback(DeConfig(max_iterations=1), NoiseModel(0.0), [-1])


def test_de_config_validation():
    with pytest.raises(ValueError):
        DeConfig(population_size=3)
    with pytest.raises(ValueError):
        DeConfig(differential_weight=0.0)
    with pytest.raises(ValueError):
        DeConfig(crossover_rate=1.5)


@pytest.mark.parametrize(
    "make, label",
    [
        (DeConfig, "population_size"),
        (DeConfig, "max_iterations"),
        (functools.partial(NoiseModel, 0.5), "period"),
    ],
    ids=["population_size", "max_iterations", "period"],
)
def test_integer_de_settings_reject_bools_and_fractions(make, label):
    for bad in (10.5, 2.5, np.float64(10.0), True, np.bool_(True), "10"):
        with pytest.raises(ValueError, match=f"{label} must be an integer"):
            make(**{label: bad})
    value = getattr(make(**{label: np.int64(10)}), label)
    assert type(value) is int and value == 10


@pytest.mark.parametrize(
    "make, label",
    [
        (DeConfig, "differential_weight"),
        (DeConfig, "crossover_rate"),
        (NoiseModel, "strength"),
    ],
    ids=["differential_weight", "crossover_rate", "strength"],
)
def test_real_de_settings_reject_bools_and_non_numbers(make, label):
    for bad in (True, np.bool_(True), "0.1", None):
        with pytest.raises(ValueError, match=f"{label} must be a real number"):
            make(**{label: bad})
    value = getattr(make(**{label: np.float64(0.5)}), label)
    assert type(value) is float and value == 0.5


def test_real_settings_reject_values_a_float_cannot_hold():
    for huge in (10**400, -(10**400), Fraction(10**400, 3)):
        with pytest.raises(ValueError, match="strength must fit in a float"):
            check_setting(huge, "strength", float, "[0, 1]")
        with pytest.raises(ValueError, match="differential_weight must fit in a float"):
            DeConfig(differential_weight=huge)
    # An integer a float can hold is kept as given.
    assert check_setting(10**300, "tol_scale", float, "(0, inf)") == 10**300


def test_zero_iterations_run_in_the_library_but_not_on_the_command_line(
    tmp_path, monkeypatch, capsys
):
    # The library may evaluate the initial population alone; a run needs one
    # iteration.
    run = run_feedback(DeConfig(max_iterations=0), NoiseModel(0.0), [3])
    assert run.avg_fidelity.shape == run.deviation.shape == (1, 1)
    monkeypatch.chdir(tmp_path)
    assert main(["optimize", "--iters", "0"]) == 2
    assert "iters" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_run_feedback_trace_shape_and_determinism():
    config = DeConfig(max_iterations=40)
    run_a = run_feedback(config, NoiseModel(0.0), [7])
    run_b = run_feedback(config, NoiseModel(0.0), [7])
    assert run_a.avg_fidelity.shape == (41, 1)
    for name in ("avg_fidelity", "deviation", "noise_injected", "population"):
        assert np.array_equal(getattr(run_a, name), getattr(run_b, name))
    assert run_a.population.shape == (1, 10, 63)


def test_run_feedback_fitness_is_monotone_without_noise():
    run = run_feedback(DeConfig(max_iterations=120), NoiseModel(0.0), [8])
    values = _history_fitness(run)[:, 0]
    assert np.all(values[1:] >= values[:-1])
    assert np.all(values <= 2.0 / 3.0 + 1e-9)
    assert not run.noise_injected.any()


def test_run_feedback_improves_on_the_initial_population():
    run = run_feedback(DeConfig(max_iterations=150), NoiseModel(0.0), [9])
    fitness = _history_fitness(run)
    assert fitness[-1, 0] > fitness[0, 0] + 0.05


def test_run_feedback_marks_injections():
    noise = NoiseModel(0.4, period=25)
    run = run_feedback(DeConfig(max_iterations=60), noise, [10])
    assert np.flatnonzero(run.noise_injected).tolist() == [25, 50]
    fitness = _history_fitness(run)
    for it in range(1, 61):
        if not run.noise_injected[it]:
            assert fitness[it, 0] >= fitness[it - 1, 0]


def test_run_feedback_single_injection_at_start():
    noise = NoiseModel(0.4, period=0)
    run = run_feedback(DeConfig(max_iterations=30), noise, [11])
    assert run.noise_injected[0]
    assert not run.noise_injected[1:].any()


def test_run_feedback_accepts_initial_population():
    config = DeConfig(max_iterations=5)
    start = np.tile(optimal_controls(), (1, 10, 1))
    run = run_feedback(config, NoiseModel(0.0), [12], start)
    fitness = _history_fitness(run)
    assert abs(fitness[0, 0] - 2.0 / 3.0) < 1e-12
    assert np.all(np.abs(fitness - 2.0 / 3.0) < 1e-12)
    with pytest.raises(ValueError):
        run_feedback(config, NoiseModel(0.0), [12], np.zeros((1, 3, 63)))


def test_run_feedback_rejects_nonfinite_initial_population():
    config = DeConfig(max_iterations=1)
    start = np.tile(optimal_controls(), (1, 10, 1))
    start[0, 3, 5] = np.nan
    with pytest.raises(ValueError, match="finite") as info:
        run_feedback(config, NoiseModel(0.0), [13], start)
    assert not isinstance(info.value, np.linalg.LinAlgError)


def test_feedback_run_contract(tmp_path, monkeypatch):
    """Layout of the history, and the rows `optimize` writes from it."""
    seeds = spawn_seeds(5, 3)
    noise = NoiseModel(0.3, period=7)
    run = run_feedback(DeConfig(max_iterations=20), noise, seeds)
    for name in ("avg_fidelity", "deviation"):
        assert getattr(run, name).shape == (21, 3)
        assert getattr(run, name).dtype == np.float64
    assert run.noise_injected.shape == (21,) and run.noise_injected.dtype == bool
    assert run.population.shape == (3, 10, 63) and run.population.dtype == np.float64
    assert all(run.noise_injected[i] == noise.hits(i) for i in range(21))
    for k, seed in enumerate(seeds):
        lone = run_feedback(DeConfig(max_iterations=20), noise, [seed])
        for name in ("avg_fidelity", "deviation"):
            assert np.array_equal(getattr(run, name)[:, k], getattr(lone, name)[:, 0])
        assert np.array_equal(run.population[k], lone.population[0])

    monkeypatch.chdir(tmp_path)
    argv = ["optimize", "--seed", "5", "--trials", "3", "--iters", "20", "--stride", "6"]
    assert main(argv + ["--format", "jsonl", "--out", "o.jsonl"]) == 0
    rows = [json.loads(line) for line in (tmp_path / "o.jsonl").read_text().splitlines()]
    run = run_feedback(DeConfig(max_iterations=20), NoiseModel(0.0), seeds)
    assert [row["iteration"] for row in rows] == [0, 6, 12, 18, 20]
    for row in rows:
        it = row["iteration"]
        for key, history in (
            ("mean_f", run.avg_fidelity),
            ("mean_delta", run.deviation),
            ("mean_fitness", _history_fitness(run)),
        ):
            assert row[key] == float(f"{history[it].mean():.12g}")
        assert row["noise_injected"] is bool(run.noise_injected[it])


def test_batch_control_stats_check_their_controls():
    rng = np.random.default_rng(46)
    pop = rng.uniform(-np.pi, np.pi, (4, 63))
    avg_f, dev = control_stats_batch(pop)
    for k in range(4):
        one_f, one_dev = _stats(pop[k])
        assert abs(one_f - avg_f[k]) < 1e-12
        assert abs(one_dev - dev[k]) < 1e-12
    with pytest.raises(ValueError, match="shape"):
        control_stats_batch(pop[:, :62])
    with pytest.raises(ValueError, match="shape"):
        control_stats_batch(pop[None])
    pop[2, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        control_stats_batch(pop)


@pytest.mark.parametrize(
    "n",
    [1, 34]
    + [k * _BLOCK_ROWS + j for k in (1, 2, 4) for j in (-1, 0, 1)]
    + [3 * _BLOCK_ROWS + 7, 6 * _BLOCK_ROWS + 7, 12 * _BLOCK_ROWS + 7],
)
def test_blocks_give_the_bits_of_one_call(n):
    pop = np.random.default_rng(47).uniform(-np.pi, np.pi, (n, 63))
    avg_f, dev = control_stats_batch(pop)
    one_f, one_dev = control_stats_one_call(pop)
    assert np.array_equal(avg_f, one_f) and np.array_equal(dev, one_dev)


def test_choi_route_matches_the_kraus_route():
    rng = np.random.default_rng(50)
    pop = np.concatenate(
        [
            rng.uniform(-np.pi, np.pi, (2000, 63)),
            optimal_controls() + 0.05 * rng.uniform(-np.pi, np.pi, (200, 63)),
        ]
    )
    avg_f, dev = control_stats_batch(pop)
    kraus_f, kraus_dev = control_stats_kraus(pop)
    assert np.max(np.abs(avg_f - kraus_f)) <= 1e-15
    assert np.max(np.abs(dev - kraus_dev)) <= 1e-15


def test_single_rows_give_the_bits_of_a_batch():
    pop = np.random.default_rng(51).uniform(-np.pi, np.pi, (40, 63))
    avg_f, dev = control_stats_batch(pop)
    for k in range(len(pop)):
        one_f, one_dev = control_stats_batch(pop[k])
        assert one_f[0] == avg_f[k] and one_dev[0] == dev[k]


@pytest.mark.parametrize(
    "count",
    [0, 1]
    + [k * _BLOCK_ROWS + j for k in (1, 2) for j in (-1, 0, 1)]
    + [4000],
)
@pytest.mark.parametrize("strength", [0.0, 0.3])
def test_noise_stats_give_the_bits_of_one_draw(count, strength):
    controls = optimal_controls()
    noise = NoiseModel(strength)
    streamed, drawn = np.random.default_rng(52), np.random.default_rng(52)
    avg_f, dev = noise_stats(controls, noise, streamed, count)
    one_f, one_dev = noise_stats_one_draw(controls, noise, drawn, count)
    assert np.array_equal(avg_f, one_f) and np.array_equal(dev, one_dev)
    assert streamed.bit_generator.state == drawn.bit_generator.state
    if not strength:
        fresh = np.random.default_rng(52)
        assert streamed.bit_generator.state == fresh.bit_generator.state
    assert np.array_equal(streamed.random(5), drawn.random(5))


def test_noise_stats_check_their_arguments():
    controls = optimal_controls()
    avg_f, dev = noise_stats(controls, NoiseModel(0.2), np.random.default_rng(53), 0)
    assert avg_f.shape == dev.shape == (0,)
    with pytest.raises(ValueError, match="shape"):
        noise_stats(controls[None], NoiseModel(0.2), np.random.default_rng(53), 3)
    with pytest.raises(ValueError, match="count"):
        noise_stats(controls, NoiseModel(0.2), np.random.default_rng(53), 2.0)


def test_zero_control_rows_give_empty_stats():
    avg_f, dev = control_stats_batch(np.zeros((0, 63)))
    assert avg_f.shape == dev.shape == (0,)
    assert avg_f.dtype == dev.dtype == np.float64


def test_control_stats_peak_memory_stays_below_2_mib():
    # Building every row's full unitary at once peaks at about 4.3 KB a row,
    # and a finite check of all rows at once at 63 bytes a row (3.0 MiB
    # here); checked and evaluated block by block they peak at about 1.6 MiB.
    pop = np.random.default_rng(48).uniform(-np.pi, np.pi, (50_000, 63))
    tracemalloc.start()
    try:
        control_stats_batch(pop)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20



@pytest.mark.parametrize("noise", [NoiseModel(0.0), NoiseModel(0.4, period=25)])
def test_lockstep_trials_equal_their_lone_runs(noise):
    seeds = [3, 17, 2**63 + 5]
    config = DeConfig(max_iterations=60)
    run = run_feedback(config, noise, seeds)
    assert run.avg_fidelity.shape == (61, len(seeds))
    for k, seed in enumerate(seeds):
        lone = run_feedback(config, noise, [seed])
        for name in ("avg_fidelity", "deviation"):
            assert np.array_equal(getattr(run, name)[:, k], getattr(lone, name)[:, 0])
        assert np.array_equal(run.noise_injected, lone.noise_injected)
        assert np.array_equal(run.population[k], lone.population[0])


def test_lockstep_prefix_of_seeds_is_unchanged():
    config = DeConfig(max_iterations=40)
    four = run_feedback(config, NoiseModel(0.0), [1, 2, 3, 4])
    two = run_feedback(config, NoiseModel(0.0), [1, 2])
    for name in ("avg_fidelity", "deviation"):
        assert np.array_equal(getattr(four, name)[:, :2], getattr(two, name))
    assert np.array_equal(four.noise_injected, two.noise_injected)
    assert np.array_equal(four.population[:2], two.population)


def test_unchanged_trial_vectors_are_not_evaluated(monkeypatch):
    rows = []
    original = unot.evolve.control_stats_batch

    def counting(pop):
        rows.append(len(pop))
        return original(pop)

    monkeypatch.setattr(unot.evolve, "control_stats_batch", counting)
    config = DeConfig(crossover_rate=0.0, max_iterations=30)
    run = run_feedback(config, NoiseModel(0.0), [1, 2, 3])
    assert rows == [3 * 10]
    assert run.avg_fidelity.shape == (31, 3)
