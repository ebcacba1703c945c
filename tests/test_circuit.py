"""Tests for ladder circuits and their stochastic-map reduction."""

import numpy as np
import pytest
from hypothesis import given, settings
from ladder_strategies import bloch_vectors, ladder_circuits
from references import apply_density, ladder_circuit, stochastic_map_from_circuit

from unot.circuit import (
    LadderCircuit,
    StochasticMap,
    bloch_from_density,
    check_density,
    compensated_four_gate_map,
    density_from_bloch,
    full_unitary,
    ladder_linear,
    misaligned_three_gate_map,
    mixture_linear,
    optimal_stochastic_map,
    optimal_three_qubit_circuit,
    simulate_full,
    weights_from_preps,
)
from unot.fidelity import stochastic_map_stats, three_qubit_avg_fidelity
from unot.oracle import SeededSampler, sample_bloch, sample_gates, sample_ladders
from unot.rotation import OneQubitGate, rotation_batch, unit_axis

_X = unit_axis(1.0, 0.0, 0.0)
_Y = unit_axis(0.0, 1.0, 0.0)
_Z = unit_axis(0.0, 0.0, 1.0)


def test_prep_weights_frozen_example():
    w = weights_from_preps(np.array([1.0 / 3.0, 0.5]))
    assert np.max(np.abs(w - 1.0 / 3.0)) < 1e-15
    assert abs(w.sum() - 1.0) < 1e-15


def test_prep_weights_two_level():
    w = weights_from_preps(np.array([0.25]))
    assert np.max(np.abs(w - np.array([0.25, 0.75]))) < 1e-15


def test_stochastic_map_validation():
    flip = OneQubitGate(np.pi, _X)
    with pytest.raises(ValueError):
        StochasticMap(np.array([0.7, 0.2]), (flip, flip))
    with pytest.raises(ValueError):
        StochasticMap(np.array([1.2, -0.2]), (flip, flip))
    with pytest.raises(ValueError):
        StochasticMap(np.array([0.5, 0.5]), (flip,))


def test_ladder_circuit_validation():
    flip = OneQubitGate(np.pi, _X)
    with pytest.raises(ValueError):
        LadderCircuit(np.array([0.5]), (flip, flip, flip))
    with pytest.raises(ValueError):
        LadderCircuit(np.array([1.5]), (flip, flip))


def test_optimal_circuit_reduces_to_three_axis_flips():
    smap = stochastic_map_from_circuit(optimal_three_qubit_circuit())
    assert np.max(np.abs(smap.weights - 1.0 / 3.0)) < 1e-12
    expected_axes = (_X, _Y, _Z)
    for gate, axis in zip(smap.gates, expected_axes):
        assert abs(gate.angle - np.pi) < 1e-10
        # Flip axes are sign-free, so compare the outer products.
        assert np.max(np.abs(np.outer(gate.axis, gate.axis) - np.outer(axis, axis))) < 1e-10


def test_direct_optimal_map_bloch_action():
    smap = optimal_stochastic_map()
    assert np.max(np.abs(smap.bloch_linear() + np.eye(3) / 3.0)) < 1e-15
    stats = stochastic_map_stats(smap)
    assert stats.avg_fidelity == 2.0 / 3.0
    assert stats.deviation == 0.0


def test_circuit_route_to_optimal_map_is_near_exact():
    stats = stochastic_map_stats(
        stochastic_map_from_circuit(optimal_three_qubit_circuit())
    )
    assert abs(stats.avg_fidelity - 2.0 / 3.0) < 1e-12
    # Extracted axes carry float dust, so the exact-zero deviation of the
    # directly constructed map relaxes to a small bound here.
    assert stats.deviation < 1e-8


def test_full_simulation_agrees_with_reduced_map():
    sampler = SeededSampler(31)
    for qubit_count in (1, 2, 3, 4):
        circuit = ladder_circuit(*sample_ladders(sampler, qubit_count, 1))
        smap = stochastic_map_from_circuit(circuit)
        for _ in range(5):
            a = sample_bloch(sampler) * float(sampler.uniform(0.0, 1.0, 1)[0])
            rho = density_from_bloch(a)
            direct = simulate_full(circuit, rho)
            reduced = apply_density(smap, rho)
            check_density(direct)
            assert np.max(np.abs(direct - reduced)) < 1e-10


def test_optimal_circuit_output_for_computational_input():
    rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    out = simulate_full(optimal_three_qubit_circuit(), rho)
    expected = np.diag([1.0 / 3.0, 2.0 / 3.0]).astype(complex)
    assert np.max(np.abs(out - expected)) < 1e-12


def test_full_unitary_dimensions_and_unitarity():
    circuit = ladder_circuit(*sample_ladders(SeededSampler(8), 3, 1))
    u = full_unitary(circuit)
    assert u.shape == (8, 8)
    assert np.max(np.abs(u @ u.conj().T - np.eye(8))) < 1e-12


def test_optimal_circuit_reaches_the_ceiling():
    u = full_unitary(optimal_three_qubit_circuit())
    assert abs(three_qubit_avg_fidelity(u) - 2.0 / 3.0) < 1e-12


def test_density_bloch_round_trip():
    sampler = SeededSampler(12)
    for _ in range(20):
        a = sample_bloch(sampler) * float(sampler.uniform(0.0, 1.0, 1)[0])
        rho = density_from_bloch(a)
        check_density(rho)
        assert np.max(np.abs(bloch_from_density(rho) - a)) < 1e-12


def test_check_density_rejects_bad_matrices():
    with pytest.raises(ValueError):
        check_density(np.array([[0.9, 0.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        check_density(np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex))


def test_misaligned_map_deviation_grows_linearly():
    alpha = 0.05
    stats = stochastic_map_stats(misaligned_three_gate_map(alpha))
    expected = 2.0 * alpha / (3.0 * np.sqrt(15.0))
    assert abs(stats.deviation - expected) < 1e-15
    assert abs(stats.avg_fidelity - 2.0 / 3.0) < 1e-15


def test_compensated_map_deviation_is_quadratic():
    alpha = 0.05
    stats = stochastic_map_stats(compensated_four_gate_map(alpha))
    expected = 2.0 * alpha**2 / (3.0 * np.sqrt(15.0))
    assert abs(stats.deviation - expected) < 1e-12
    assert abs(stats.avg_fidelity - 2.0 / 3.0) < 1e-15


def test_compensation_improves_on_misalignment():
    for alpha in (0.01, 0.1, 0.2, 0.29):
        three = stochastic_map_stats(misaligned_three_gate_map(alpha)).deviation
        four = stochastic_map_stats(compensated_four_gate_map(alpha)).deviation
        assert four < three


def test_tilt_angle_bounds():
    with pytest.raises(ValueError):
        misaligned_three_gate_map(0.3)
    with pytest.raises(ValueError):
        compensated_four_gate_map(-0.01)


@settings(deadline=None)
@given(circuit=ladder_circuits(), bloch=bloch_vectors)
def test_full_simulation_matches_reduced_map(circuit, bloch):
    rho = density_from_bloch(bloch)
    reduced = apply_density(stochastic_map_from_circuit(circuit), rho)
    assert np.max(np.abs(simulate_full(circuit, rho) - reduced)) < 1e-10


def _ladder_arrays(circuit):
    angles = np.array([[g.angle for g in circuit.gates]])
    axes = np.array([[g.axis for g in circuit.gates]])
    return np.array([circuit.prep_params]).reshape(1, -1), angles, axes


@settings(deadline=None)
@given(circuit=ladder_circuits())
def test_ladder_linear_matches_the_unitary_route(circuit):
    linear = ladder_linear(*_ladder_arrays(circuit))[0]
    reference = stochastic_map_from_circuit(circuit).bloch_linear()
    assert np.max(np.abs(linear - reference)) < 1e-14


def test_optimal_circuit_ladder_is_minus_identity_over_three():
    linear = ladder_linear(*_ladder_arrays(optimal_three_qubit_circuit()))[0]
    assert np.max(np.abs(linear + np.eye(3) / 3.0)) < 1e-15


def test_ladder_linear_rows_are_independent():
    preps, angles, axes = sample_ladders(SeededSampler(6), 3, 30)
    batch = ladder_linear(preps, angles, axes)
    for i in range(30):
        one = ladder_linear(preps[i : i + 1], angles[i : i + 1], axes[i : i + 1])
        assert np.array_equal(batch[i], one[0])


@pytest.mark.parametrize("bad", [1.5, -0.25, np.nan])
def test_ladder_linear_rejects_preparations_outside_the_unit_interval(bad):
    preps, angles, axes = sample_ladders(SeededSampler(2), 3, 4)
    preps[2, 1] = bad
    with pytest.raises(ValueError):
        ladder_linear(preps, angles, axes)
    with pytest.raises(ValueError):
        weights_from_preps(preps)


def test_ladder_linear_rejects_bad_gates_and_shapes():
    preps, angles, axes = sample_ladders(SeededSampler(2), 3, 4)
    with pytest.raises(ValueError):
        ladder_linear(preps[:, :1], angles, axes)
    axes[1, 2] *= 1.001
    with pytest.raises(ValueError):
        ladder_linear(preps, angles, axes)


def test_weights_from_preps_rows_match_single_calls():
    preps = SeededSampler(3).uniform(0.0, 1.0, (20, 3))
    batch = weights_from_preps(preps)
    assert np.array_equal(batch, np.array([weights_from_preps(p) for p in preps]))
    assert np.array_equal(weights_from_preps(()), [1.0])


def test_mixture_linear_is_the_gate_order_sum():
    angles, axes = sample_gates(SeededSampler(4), 5)
    weights = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
    gates = [OneQubitGate(a, x) for a, x in zip(angles, axes)]
    rotations = rotation_batch(angles, axes)
    expected = sum(w * r for w, r in zip(weights, rotations))
    assert np.array_equal(mixture_linear(weights[None], rotations[None])[0], expected)
    assert np.array_equal(StochasticMap(weights, tuple(gates)).bloch_linear(), expected)


def _density_stack(sampler, count):
    radii = sampler.uniform(0.0, 1.0, count)
    return np.array([density_from_bloch(r * sample_bloch(sampler)) for r in radii])


@pytest.mark.parametrize("qubit_count", [1, 2, 3, 4])
def test_simulate_full_on_a_stack_equals_single_calls(qubit_count):
    sampler = SeededSampler(40 + qubit_count)
    circuit = ladder_circuit(*sample_ladders(sampler, qubit_count, 1))
    rho = _density_stack(sampler, 10)
    single = np.array([simulate_full(circuit, r) for r in rho])
    assert np.array_equal(simulate_full(circuit, rho), single)
    smap = stochastic_map_from_circuit(circuit)
    assert np.array_equal(
        apply_density(smap, rho), np.array([apply_density(smap, r) for r in rho])
    )
    assert np.array_equal(bloch_from_density(rho), [bloch_from_density(r) for r in rho])


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param([[0.5, 0.2], [0.0, 0.5]], id="non-hermitian"),
        pytest.param([[1.5, 0.0], [0.0, -0.5]], id="non-psd"),
        pytest.param([[0.9, 0.0], [0.0, 0.0]], id="trace"),
    ],
)
def test_simulate_full_rejects_a_bad_density_in_a_stack(bad):
    sampler = SeededSampler(9)
    circuit = ladder_circuit(*sample_ladders(sampler, 3, 1))
    rho = _density_stack(sampler, 5)
    rho[3] = np.array(bad, dtype=complex)
    with pytest.raises(ValueError):
        simulate_full(circuit, rho)
    with pytest.raises(ValueError):
        check_density(rho)



_FLIPS = (OneQubitGate(np.pi, _X),) * 2


@pytest.mark.parametrize(
    "build",
    [
        lambda: StochasticMap([np.nan, np.nan], _FLIPS),
        lambda: StochasticMap([np.nan, 1.0], _FLIPS),
        lambda: density_from_bloch([np.nan, 0.0, 0.0]),
        lambda: check_density(np.full((2, 2), np.nan)),
        lambda: LadderCircuit((np.nan,), _FLIPS),
        lambda: weights_from_preps([0.5, np.nan]),
        lambda: OneQubitGate(np.nan, _X),
        lambda: OneQubitGate(1.0, [np.nan, 0.0, 1.0]),
    ],
    ids=[
        "weights", "one-weight", "bloch", "density", "ladder", "preps", "angle", "axis"
    ],
)
def test_validators_reject_nan(build):
    with pytest.raises(ValueError):
        build()
