"""Tests for the seeded Monte Carlo oracle."""

import numpy as np
import pytest

from unot.circuit import optimal_stochastic_map, optimal_three_qubit_circuit, full_unitary
from unot.fidelity import AffineBlochChannel, one_qubit_stats, three_qubit_avg_fidelity
from unot.oracle import (
    RNG_ALGORITHM,
    McEstimate,
    SeededSampler,
    bloch_map_from_affine,
    bloch_map_from_stochastic,
    bloch_map_from_three_qubit_unitary,
    mc_stats,
    sample_bloch,
    sample_gate,
    sample_ladder_circuit,
    sample_unitary,
)
from unot.rotation import OneQubitGate, rotation_from_gate, unit_axis


def test_rng_algorithm_label():
    assert RNG_ALGORITHM == "numpy-pcg64/de-v2"


def test_sampler_is_reproducible():
    a = SeededSampler(99).standard_normal((4, 4))
    b = SeededSampler(99).standard_normal((4, 4))
    assert np.array_equal(a, b)


def test_sampler_position_counts_scalar_draws():
    sampler = SeededSampler(1)
    assert sampler.position == 0
    sampler.uniform(0.0, 1.0, 10)
    assert sampler.position == 10
    sampler.standard_normal((2, 3))
    assert sampler.position == 16


def test_split_children_are_deterministic_and_distinct():
    first = [child.seed for child in SeededSampler(5).split(4)]
    second = [child.seed for child in SeededSampler(5).split(4)]
    assert first == second
    assert len(set(first)) == 4
    parent_draw = SeededSampler(5).uniform(0.0, 1.0, 3)
    child_draw = SeededSampler(first[0]).uniform(0.0, 1.0, 3)
    assert not np.allclose(parent_draw, child_draw)


def test_pick_distinct_values():
    sampler = SeededSampler(2)
    for _ in range(100):
        picks = sampler.pick_distinct(9, 3)
        assert len(set(picks.tolist())) == 3
        assert picks.min() >= 0 and picks.max() < 9


def test_pick_distinct_consumes_one_key_per_pool_member():
    sampler = SeededSampler(6)
    picks = sampler.pick_distinct(9, 3, (10,))
    assert picks.shape == (10, 3)
    assert sampler.position == 10 * 9
    sampler.pick_distinct(9, 3)
    assert sampler.position == 10 * 9 + 9
    sampler.pick_distinct(5, 2, (2, 3))
    assert sampler.position == 10 * 9 + 9 + 2 * 3 * 5


def test_pick_distinct_slots_are_uniform():
    rows = 20_000
    picks = SeededSampler(7).pick_distinct(9, 3, (rows,))
    p = 1.0 / 9.0
    band = 5.0 * np.sqrt(rows * p * (1.0 - p))
    for slot in range(3):
        counts = np.bincount(picks[:, slot], minlength=9)
        assert np.all(np.abs(counts - rows * p) <= band)
    assert np.all(np.sort(picks, axis=1)[:, 1:] != np.sort(picks, axis=1)[:, :-1])


def test_bloch_samples_sit_on_the_sphere():
    points = sample_bloch(SeededSampler(3), 2000)
    norms = np.linalg.norm(points, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert np.max(np.abs(points.mean(axis=0))) < 0.05


def test_haar_unitaries_are_unitary():
    sampler = SeededSampler(4)
    for dim in (2, 4, 8):
        u = sample_unitary(sampler, dim)
        assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < 1e-12


def test_haar_spectrum_has_no_phase_preference():
    sampler = SeededSampler(14)
    phases = []
    for _ in range(300):
        phases.extend(np.angle(np.linalg.eigvals(sample_unitary(sampler, 4))))
    assert abs(np.mean(np.cos(phases))) < 0.05
    assert abs(np.mean(np.sin(phases))) < 0.05


def test_sample_gate_ranges():
    sampler = SeededSampler(6)
    for _ in range(50):
        gate = sample_gate(sampler)
        assert 0.0 <= gate.angle < 2.0 * np.pi
        assert abs(np.linalg.norm(gate.axis) - 1.0) < 1e-12


def test_sample_ladder_circuit_shapes():
    sampler = SeededSampler(7)
    circuit = sample_ladder_circuit(sampler, 4)
    assert circuit.qubit_count == 4
    assert len(circuit.gates) == 4
    preps = np.asarray(circuit.prep_params)
    assert np.all((preps >= 0.0) & (preps <= 1.0))


def test_mc_estimate_fields():
    est = McEstimate(0.5, 0.01, 100)
    assert est.value == 0.5
    with pytest.raises(ValueError):
        McEstimate(0.5, -0.01, 100)


def test_identity_channel_statistics_vanish():
    ident = bloch_map_from_affine(AffineBlochChannel(np.eye(3), np.zeros(3)))
    f, d = mc_stats(ident, SeededSampler(21), 5000)
    assert abs(f.value) < 1e-15
    assert abs(d.value) < 1e-15


def test_mc_agrees_with_closed_form_for_a_gate():
    gate = OneQubitGate(np.pi / 2.0, unit_axis(1.0, 0.0, 0.0))
    rotation = rotation_from_gate(gate)
    exact = one_qubit_stats(gate)
    f, d = mc_stats(
        bloch_map_from_affine(AffineBlochChannel(rotation, np.zeros(3))),
        SeededSampler(22),
        40000,
    )
    assert abs(f.value - exact.avg_fidelity) < 5.0 * f.std_error
    assert abs(f.value - exact.avg_fidelity) < 0.01
    assert abs(d.value - exact.deviation) < 0.01


def test_optimal_map_oracle_is_flat():
    bloch_map = bloch_map_from_stochastic(optimal_stochastic_map())
    f, d = mc_stats(bloch_map, SeededSampler(23), 20000)
    assert abs(f.value - 2.0 / 3.0) < 1e-12
    assert d.value < 1e-12
    assert f.std_error < 1e-12


def test_three_qubit_unitary_oracle_matches_closed_form():
    sampler = SeededSampler(24)
    for child in sampler.split(5):
        u = sample_unitary(child, 8)
        closed = three_qubit_avg_fidelity(u)
        f, _ = mc_stats(bloch_map_from_three_qubit_unitary(u), child, 30000)
        assert abs(f.value - closed) < 5.0 * f.std_error


def test_three_qubit_oracle_on_the_optimal_circuit():
    u = full_unitary(optimal_three_qubit_circuit())
    f, d = mc_stats(bloch_map_from_three_qubit_unitary(u), SeededSampler(25), 30000)
    assert abs(f.value - 2.0 / 3.0) < 1e-12
    assert d.value < 1e-12


def test_mc_standard_error_shrinks_with_samples():
    gate = OneQubitGate(2.0, unit_axis(0.0, 1.0, 0.0))
    bloch_map = bloch_map_from_affine(AffineBlochChannel(rotation_from_gate(gate), np.zeros(3)))
    f_small, _ = mc_stats(bloch_map, SeededSampler(26), 2000)
    f_large, _ = mc_stats(bloch_map, SeededSampler(26), 32000)
    assert f_large.std_error < f_small.std_error
    assert f_small.n_samples == 2000


def test_seed_must_be_unsigned():
    with pytest.raises(ValueError):
        SeededSampler(-1)
