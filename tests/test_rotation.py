"""Tests for the axis-angle rotation layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unot.oracle import SeededSampler, sample_gates
from unot.rotation import (
    OneQubitGate,
    gate_from_unitary,
    rotation_batch,
    rotation_from_gate,
    rotation_from_unitary,
    rotation_squared_trace,
    rotation_trace,
    skew_from_axis,
    unit_axis,
    unitary_from_gate,
)

_Z = unit_axis(0.0, 0.0, 1.0)


def _random_gate(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return OneQubitGate(rng.uniform(0.0, 2.0 * np.pi), axis)


def test_quarter_turn_about_z_matches_frozen_matrix():
    gate = OneQubitGate(np.pi / 2.0, _Z)
    expected = np.array(
        [
            [0.0, -1.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    assert np.max(np.abs(rotation_from_gate(gate) - expected)) < 1e-12


def test_axis_angle_form_matches_conjugation_route():
    rng = np.random.default_rng(11)
    for _ in range(200):
        gate = _random_gate(rng)
        direct = rotation_from_gate(gate)
        via_unitary = rotation_from_unitary(unitary_from_gate(gate))
        assert np.max(np.abs(direct - via_unitary)) < 1e-12


def test_rotation_from_unitary_ignores_global_phase():
    rng = np.random.default_rng(3)
    gate = _random_gate(rng)
    u = unitary_from_gate(gate)
    phased = np.exp(1.0j * 0.7321) * u
    assert np.max(np.abs(rotation_from_unitary(phased) - rotation_from_unitary(u))) < 1e-12


def test_gate_from_unitary_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(100):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        gate = OneQubitGate(rng.uniform(0.1, 2.0 * np.pi - 0.1), axis)
        back = gate_from_unitary(unitary_from_gate(gate))
        assert abs(back.angle - gate.angle) < 1e-10
        assert np.max(np.abs(back.axis - gate.axis)) < 1e-10


def test_gate_from_unitary_identity_special_case():
    gate = gate_from_unitary(np.eye(2, dtype=complex))
    assert gate.angle == 0.0
    assert np.array_equal(gate.axis, _Z)


def test_gate_from_unitary_keeps_tiny_rotations():
    # A 1e-12 rotation moves R by 2e-12; it must not be rounded to the identity.
    gate = OneQubitGate(1e-12, np.array([0.6, 0.0, 0.8]))
    back = gate_from_unitary(unitary_from_gate(gate))
    assert np.max(np.abs(rotation_from_gate(back) - rotation_from_gate(gate))) < 1e-15


def test_gate_from_unitary_rejects_nonunitary():
    with pytest.raises(ValueError):
        gate_from_unitary(np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))


def test_angle_normalized_into_base_interval():
    gate = OneQubitGate(-np.pi / 2.0, _Z)
    assert abs(gate.angle - 3.0 * np.pi / 2.0) < 1e-12
    wrapped = OneQubitGate(2.0 * np.pi, _Z)
    assert wrapped.angle == 0.0


def test_axis_must_be_unit_length():
    with pytest.raises(ValueError):
        OneQubitGate(1.0, np.array([1.0, 1.0, 0.0]))


def test_skew_matrix_reproduces_cross_product():
    rng = np.random.default_rng(5)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    s = skew_from_axis(axis)
    for _ in range(10):
        v = rng.normal(size=3)
        assert np.max(np.abs(s @ v - np.cross(v, axis))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    angle=st.floats(0.0, 2.0 * np.pi, allow_nan=False),
    seed=st.integers(0, 2**32 - 1),
)
def test_rotation_is_special_orthogonal(angle, seed):
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    norm = np.linalg.norm(axis)
    if norm < 1e-3:
        axis = np.array([0.0, 0.0, 1.0])
        norm = 1.0
    r = rotation_from_gate(OneQubitGate(angle, axis / norm))
    assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-12
    assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_trace_closed_forms():
    rng = np.random.default_rng(23)
    for _ in range(100):
        gate = _random_gate(rng)
        r = rotation_from_gate(gate)
        tr = np.trace(r)
        assert abs(tr - rotation_trace(gate.angle)) < 1e-12
        assert abs(np.trace(r @ r) - rotation_squared_trace(gate.angle)) < 1e-12
        assert abs(tr * tr - np.trace(r @ r) - 2.0 * tr) < 1e-12


def test_trace_values_at_marker_angles():
    assert abs(rotation_trace(np.pi) + 1.0) < 1e-15
    assert abs(rotation_trace(0.0) - 3.0) < 1e-15
    assert abs(rotation_squared_trace(np.pi) - 3.0) < 1e-15


def test_rotation_batch_equals_single_gates_bitwise():
    angles, axes = sample_gates(SeededSampler(19), 2000)
    single = [rotation_from_gate(OneQubitGate(a, x)) for a, x in zip(angles, axes)]
    assert np.array_equal(rotation_batch(angles, axes), np.array(single))
    # Leading dimensions are kept.
    stacked = rotation_batch(angles.reshape(40, 50), axes.reshape(40, 50, 3))
    assert np.array_equal(stacked.reshape(2000, 3, 3), np.array(single))


@pytest.mark.parametrize(
    "angles, axes",
    [
        pytest.param([0.5, 1.0], [[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]], id="long-axis"),
        pytest.param([0.5, 1.0], [[0.0, 0.0, 1.0], [np.nan, 0.0, 1.0]], id="nan-axis"),
        pytest.param([0.5, 1.0], [[0.0, 0.0, 1.0], [np.inf, 0.0, 0.0]], id="inf-axis"),
        pytest.param([0.5, np.nan], [[0.0, 0.0, 1.0]] * 2, id="nan-angle"),
        pytest.param([0.5, np.inf], [[0.0, 0.0, 1.0]] * 2, id="inf-angle"),
        pytest.param([0.5], [[0.0, 0.0, 1.0]] * 2, id="shape-mismatch"),
        pytest.param([0.5], [[0.0, 1.0]], id="two-component-axis"),
    ],
)
def test_rotation_batch_rejects_what_a_gate_rejects(angles, axes):
    with pytest.raises(ValueError):
        rotation_batch(np.array(angles), np.array(axes))
