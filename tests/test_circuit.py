"""Tests for ladder circuits and their stochastic-map reduction."""

import numpy as np
import pytest
from hypothesis import given, settings
from ladder_strategies import bloch_vectors, ladder_circuits
from references import (
    apply_density,
    linear_stats,
    mixture_map,
    optimal_mixture,
    stochastic_map_from_circuit,
    three_qubit_avg_fidelity,
)

from unot.circuit import (
    bloch_from_density,
    check_density,
    compensated_four_gate_map,
    density_from_bloch,
    full_unitary,
    ladder_linear,
    misaligned_three_gate_map,
    mixture_linear,
    optimal_three_qubit_circuit,
    simulate_full,
    weights_from_preps,
)
from unot.fidelity import affine_stats_batch
from unot.oracle import sample_bloch, sample_gates, sample_ladders
from unot.rotation import rotation_batch, unitary_batch

_X, _Y, _Z = np.eye(3)
# Two and three pi flips about x, as (angles, axes).
_FLIPS = (np.full(2, np.pi), np.array([_X, _X]))
_THREE_FLIPS = (np.full(3, np.pi), np.array([_X, _X, _X]))


def _first_ladder(rng, qubit_count):
    """(preps, angles, axes) of one ladder drawn by `sample_ladders`."""
    return tuple(a[0] for a in sample_ladders(rng, qubit_count, 1))


def _tilt_stats(maps):
    return affine_stats_batch(maps, np.zeros((len(maps), 3)))


def test_prep_weights_frozen_example():
    w = weights_from_preps(np.array([1.0 / 3.0, 0.5]))
    assert np.max(np.abs(w - 1.0 / 3.0)) < 1e-15
    assert abs(w.sum() - 1.0) < 1e-15


def test_prep_weights_two_level():
    w = weights_from_preps(np.array([0.25]))
    assert np.max(np.abs(w - np.array([0.25, 0.75]))) < 1e-15


def test_stochastic_map_validation():
    flips = rotation_batch(*_FLIPS)[None]
    with pytest.raises(ValueError):
        mixture_linear(np.array([[0.7, 0.2]]), flips)
    with pytest.raises(ValueError):
        mixture_linear(np.array([[1.2, -0.2]]), flips)
    with pytest.raises(ValueError):
        mixture_linear(np.array([[0.5, 0.5]]), flips[:, :1])
    with pytest.raises(ValueError):
        mixture_linear(np.zeros((1, 0)), flips[:, :0])


def test_ladder_circuit_validation():
    with pytest.raises(ValueError):
        full_unitary(np.array([0.5]), *_THREE_FLIPS)
    with pytest.raises(ValueError):
        full_unitary(np.array([1.5]), *_FLIPS)
    with pytest.raises(ValueError):
        full_unitary(np.zeros(0), np.zeros(0), np.zeros((0, 3)))
    with pytest.raises(ValueError):
        simulate_full(np.array([0.5]), *_THREE_FLIPS, np.eye(2) / 2.0)


def test_optimal_circuit_reduces_to_three_axis_flips():
    weights, angles, axes = stochastic_map_from_circuit(*optimal_three_qubit_circuit())
    assert np.max(np.abs(weights - 1.0 / 3.0)) < 1e-12
    expected_axes = (_X, _Y, _Z)
    for angle, axis, expected in zip(angles, axes, expected_axes):
        assert abs(angle - np.pi) < 1e-10
        # Flip axes are sign-free, so compare the outer products.
        assert np.max(np.abs(np.outer(axis, axis) - np.outer(expected, expected))) < 1e-10


def test_direct_optimal_map_bloch_action():
    linear = mixture_map(*optimal_mixture())
    assert np.max(np.abs(linear + np.eye(3) / 3.0)) < 1e-15
    avg_f, dev = linear_stats(linear)
    assert avg_f == 2.0 / 3.0
    assert dev == 0.0


def test_circuit_route_to_optimal_map_is_near_exact():
    avg_f, dev = linear_stats(
        mixture_map(*stochastic_map_from_circuit(*optimal_three_qubit_circuit()))
    )
    assert abs(avg_f - 2.0 / 3.0) < 1e-12
    # Extracted axes carry float dust, so the exact-zero deviation of the
    # directly constructed map relaxes to a small bound here.
    assert dev < 1e-8


def test_full_simulation_agrees_with_reduced_map():
    rng = np.random.default_rng(31)
    for qubit_count in (1, 2, 3, 4):
        ladder = _first_ladder(rng, qubit_count)
        mixture = stochastic_map_from_circuit(*ladder)
        for _ in range(5):
            a = sample_bloch(rng, 1)[0] * float(rng.uniform(0.0, 1.0, 1)[0])
            rho = density_from_bloch(a)
            direct = simulate_full(*ladder, rho)
            reduced = apply_density(*mixture, rho)
            check_density(direct)
            assert np.max(np.abs(direct - reduced)) < 1e-10


def test_optimal_circuit_output_for_computational_input():
    rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    out = simulate_full(*optimal_three_qubit_circuit(), rho)
    expected = np.diag([1.0 / 3.0, 2.0 / 3.0]).astype(complex)
    assert np.max(np.abs(out - expected)) < 1e-12


def test_full_unitary_dimensions_and_unitarity():
    u = full_unitary(*_first_ladder(np.random.default_rng(8), 3))
    assert u.shape == (8, 8)
    assert np.max(np.abs(u @ u.conj().T - np.eye(8))) < 1e-12


def test_optimal_circuit_reaches_the_ceiling():
    u = full_unitary(*optimal_three_qubit_circuit())
    assert abs(three_qubit_avg_fidelity(u) - 2.0 / 3.0) < 1e-12


def test_density_bloch_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = sample_bloch(rng, 1)[0] * float(rng.uniform(0.0, 1.0, 1)[0])
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
    avg_f, dev = _tilt_stats(misaligned_three_gate_map(np.array([alpha])))
    expected = 2.0 * alpha / (3.0 * np.sqrt(15.0))
    assert abs(dev[0] - expected) < 1e-15
    assert abs(avg_f[0] - 2.0 / 3.0) < 1e-15


def test_compensated_map_deviation_is_quadratic():
    alpha = 0.05
    avg_f, dev = _tilt_stats(compensated_four_gate_map(np.array([alpha])))
    expected = 2.0 * alpha**2 / (3.0 * np.sqrt(15.0))
    assert abs(dev[0] - expected) < 1e-12
    assert abs(avg_f[0] - 2.0 / 3.0) < 1e-15


def test_compensation_improves_on_misalignment():
    alphas = np.array([0.01, 0.1, 0.2, 0.29])
    _, three = _tilt_stats(misaligned_three_gate_map(alphas))
    _, four = _tilt_stats(compensated_four_gate_map(alphas))
    assert np.all(four < three)


def test_tilt_maps_rows_equal_single_alpha_calls():
    alphas = np.linspace(0.0, 0.29, 7)
    for build in (misaligned_three_gate_map, compensated_four_gate_map):
        single = [build(alphas[i : i + 1])[0] for i in range(len(alphas))]
        assert np.array_equal(build(alphas), np.array(single))


def test_tilt_angle_bounds():
    with pytest.raises(ValueError):
        misaligned_three_gate_map(np.array([0.1, 0.3]))
    with pytest.raises(ValueError):
        compensated_four_gate_map(np.array([-0.01]))
    with pytest.raises(ValueError):
        misaligned_three_gate_map(0.1)


@settings(deadline=None)
@given(circuit=ladder_circuits(), bloch=bloch_vectors)
def test_full_simulation_matches_reduced_map(circuit, bloch):
    rho = density_from_bloch(bloch)
    reduced = apply_density(*stochastic_map_from_circuit(*circuit), rho)
    assert np.max(np.abs(simulate_full(*circuit, rho) - reduced)) < 1e-10


def _ladder_arrays(circuit):
    # One ladder as a batch of one.
    return tuple(a[None] for a in circuit)


@settings(deadline=None)
@given(circuit=ladder_circuits())
def test_ladder_linear_matches_the_unitary_route(circuit):
    linear = ladder_linear(*_ladder_arrays(circuit))[0]
    reference = mixture_map(*stochastic_map_from_circuit(*circuit))
    assert np.max(np.abs(linear - reference)) < 1e-14


def test_optimal_circuit_ladder_is_minus_identity_over_three():
    linear = ladder_linear(*_ladder_arrays(optimal_three_qubit_circuit()))[0]
    assert np.max(np.abs(linear + np.eye(3) / 3.0)) < 1e-15


def test_ladder_linear_rows_are_independent():
    preps, angles, axes = sample_ladders(np.random.default_rng(6), 3, 30)
    batch = ladder_linear(preps, angles, axes)
    for i in range(30):
        one = ladder_linear(preps[i : i + 1], angles[i : i + 1], axes[i : i + 1])
        assert np.array_equal(batch[i], one[0])


@pytest.mark.parametrize("bad", [1.5, -0.25, np.nan])
def test_ladder_linear_rejects_preparations_outside_the_unit_interval(bad):
    preps, angles, axes = sample_ladders(np.random.default_rng(2), 3, 4)
    preps[2, 1] = bad
    with pytest.raises(ValueError):
        ladder_linear(preps, angles, axes)
    with pytest.raises(ValueError):
        weights_from_preps(preps)


def test_ladder_linear_rejects_bad_gates_and_shapes():
    preps, angles, axes = sample_ladders(np.random.default_rng(2), 3, 4)
    with pytest.raises(ValueError):
        ladder_linear(preps[:, :1], angles, axes)
    axes[1, 2] *= 1.001
    with pytest.raises(ValueError):
        ladder_linear(preps, angles, axes)


def test_weights_from_preps_rows_match_single_calls():
    preps = np.random.default_rng(3).uniform(0.0, 1.0, (20, 3))
    batch = weights_from_preps(preps)
    assert np.array_equal(batch, np.array([weights_from_preps(p) for p in preps]))
    assert np.array_equal(weights_from_preps(()), [1.0])


def test_mixture_linear_is_the_gate_order_sum():
    angles, axes = sample_gates(np.random.default_rng(4), 5)
    weights = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
    rotations = rotation_batch(angles, axes)
    expected = sum(w * r for w, r in zip(weights, rotations))
    assert np.array_equal(mixture_linear(weights[None], rotations[None])[0], expected)
    # A zero-weight gate padded on adds nothing.
    padded = np.concatenate([rotations, rotation_batch([1.0], [_Z])])
    padded_weights = np.append(weights, 0.0)
    assert np.array_equal(mixture_linear(padded_weights[None], padded[None])[0], expected)


def _density_stack(rng, count):
    radii = rng.uniform(0.0, 1.0, count)
    return np.array([density_from_bloch(r * sample_bloch(rng, 1)[0]) for r in radii])


@pytest.mark.parametrize("qubit_count", [1, 2, 3, 4])
def test_simulate_full_on_a_stack_equals_single_calls(qubit_count):
    rng = np.random.default_rng(40 + qubit_count)
    ladder = _first_ladder(rng, qubit_count)
    rho = _density_stack(rng, 10)
    single = np.array([simulate_full(*ladder, r) for r in rho])
    assert np.array_equal(simulate_full(*ladder, rho), single)
    mixture = stochastic_map_from_circuit(*ladder)
    assert np.array_equal(
        apply_density(*mixture, rho), np.array([apply_density(*mixture, r) for r in rho])
    )
    assert np.array_equal(bloch_from_density(rho), [bloch_from_density(r) for r in rho])


def test_density_from_bloch_on_a_stack_equals_single_calls():
    rng = np.random.default_rng(15)
    bloch = rng.uniform(0.0, 1.0, (12, 1)) * sample_bloch(rng, 12)
    single = np.array([density_from_bloch(a) for a in bloch])
    assert np.array_equal(density_from_bloch(bloch), single)
    assert np.array_equal(density_from_bloch(bloch.reshape(3, 4, 3)), single.reshape(3, 4, 2, 2))
    bloch[5] *= 1.01 / np.linalg.norm(bloch[5])
    with pytest.raises(ValueError):
        density_from_bloch(bloch)
    with pytest.raises(ValueError):
        density_from_bloch(bloch[:, :2])


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param([[0.5, 0.2], [0.0, 0.5]], id="non-hermitian"),
        pytest.param([[1.5, 0.0], [0.0, -0.5]], id="non-psd"),
        pytest.param([[0.9, 0.0], [0.0, 0.0]], id="trace"),
    ],
)
def test_simulate_full_rejects_a_bad_density_in_a_stack(bad):
    rng = np.random.default_rng(9)
    ladder = _first_ladder(rng, 3)
    rho = _density_stack(rng, 5)
    rho[3] = np.array(bad, dtype=complex)
    with pytest.raises(ValueError):
        simulate_full(*ladder, rho)
    with pytest.raises(ValueError):
        check_density(rho)


@pytest.mark.parametrize(
    "build",
    [
        lambda: mixture_linear([[np.nan, np.nan]], rotation_batch(*_FLIPS)[None]),
        lambda: mixture_linear([[np.nan, 1.0]], rotation_batch(*_FLIPS)[None]),
        lambda: density_from_bloch([np.nan, 0.0, 0.0]),
        lambda: check_density(np.full((2, 2), np.nan)),
        lambda: full_unitary([np.nan], *_FLIPS),
        lambda: weights_from_preps([0.5, np.nan]),
        lambda: rotation_batch(np.nan, _X),
        lambda: unitary_batch(1.0, [np.nan, 0.0, 1.0]),
    ],
    ids=[
        "weights", "one-weight", "bloch", "density", "ladder", "preps", "angle", "axis"
    ],
)
def test_validators_reject_nan(build):
    with pytest.raises(ValueError):
        build()
