"""Tests for ladder circuits and their stochastic-map reduction."""

import numpy as np
import pytest
from hypothesis import given, settings
from ladder_strategies import bloch_vectors, ladder_circuits
from references import (
    ball_action,
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
    mixture_linear,
    optimal_three_qubit_circuit,
    weights_from_preps,
)
from unot.fidelity import affine_stats_batch
from unot.oracle import bloch_map_from_unitary, sample_bloch, sample_gates, sample_ladders
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


def _full_space_map(ladder):
    # Bloch action of the ladder's unitary on system (x) |0...0>.
    return bloch_map_from_unitary(full_unitary(*ladder))


def test_full_simulation_agrees_with_reduced_map():
    rng = np.random.default_rng(31)
    for qubit_count in (1, 2, 3, 4):
        ladder = _first_ladder(rng, qubit_count)
        act = _full_space_map(ladder)
        reduced = mixture_map(*stochastic_map_from_circuit(*ladder))
        for _ in range(5):
            a = sample_bloch(rng, 1)[0] * float(rng.uniform(0.0, 1.0, 1)[0])
            direct = ball_action(act, a)[0]
            assert np.max(np.abs(direct - reduced @ a)) < 1e-10


def test_optimal_circuit_output_for_computational_input():
    # |0><0| leaves as diag(1/3, 2/3): Bloch vector (0, 0, 1) -> (0, 0, -1/3).
    circuit = optimal_three_qubit_circuit()
    out = _full_space_map(circuit)(_Z)[0]
    reduced = mixture_map(*stochastic_map_from_circuit(*circuit)) @ _Z
    assert np.max(np.abs(out - [0.0, 0.0, -1.0 / 3.0])) < 1e-12
    assert np.max(np.abs(out - reduced)) < 1e-12


def test_full_unitary_dimensions_and_unitarity():
    u = full_unitary(*_first_ladder(np.random.default_rng(8), 3))
    assert u.shape == (8, 8)
    assert np.max(np.abs(u @ u.conj().T - np.eye(8))) < 1e-12


def test_optimal_circuit_reaches_the_ceiling():
    u = full_unitary(*optimal_three_qubit_circuit())
    assert abs(three_qubit_avg_fidelity(u) - 2.0 / 3.0) < 1e-12


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
    direct = ball_action(_full_space_map(circuit), bloch)[0]
    reduced = mixture_map(*stochastic_map_from_circuit(*circuit)) @ bloch
    assert np.max(np.abs(direct - reduced)) < 1e-10


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
    # Nested lists are taken as arrays.
    nested = mixture_linear([weights.tolist()], [rotations.tolist()])
    assert np.array_equal(nested[0], expected)
    # A zero-weight gate padded on adds nothing.
    padded = np.concatenate([rotations, rotation_batch([1.0], [_Z])])
    padded_weights = np.append(weights, 0.0)
    assert np.array_equal(mixture_linear(padded_weights[None], padded[None])[0], expected)


@pytest.mark.parametrize(
    "build",
    [
        lambda: mixture_linear([[np.nan, np.nan]], rotation_batch(*_FLIPS)[None]),
        lambda: mixture_linear([[np.nan, 1.0]], rotation_batch(*_FLIPS)[None]),
        lambda: full_unitary([np.nan], *_FLIPS),
        lambda: weights_from_preps([0.5, np.nan]),
        lambda: rotation_batch(np.nan, _X),
        lambda: unitary_batch(1.0, [np.nan, 0.0, 1.0]),
    ],
    ids=["weights", "one-weight", "ladder", "preps", "angle", "axis"],
)
def test_validators_reject_nan(build):
    with pytest.raises(ValueError):
        build()
