"""Tests for the axis-angle rotation layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import gate_from_unitary, rotation_from_unitary

from unot.oracle import sample_gates
from unot.rotation import rotation_batch, rotation_trace, unitary_batch

_Z = np.array([0.0, 0.0, 1.0])


def _random_gate(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return rng.uniform(0.0, 2.0 * np.pi), axis


def _rotation(angle, axis):
    # The one-row call of the batch.
    return rotation_batch([angle], [axis])[0]


def test_quarter_turn_about_z_matches_frozen_matrix():
    gate = (np.pi / 2.0, _Z)
    expected = np.array(
        [
            [0.0, -1.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    assert np.max(np.abs(_rotation(*gate) - expected)) < 1e-12


def test_axis_angle_form_matches_conjugation_route():
    rng = np.random.default_rng(11)
    for _ in range(200):
        gate = _random_gate(rng)
        direct = _rotation(*gate)
        via_unitary = rotation_from_unitary(unitary_batch(*gate))
        assert np.max(np.abs(direct - via_unitary)) < 1e-12


def test_rotation_from_unitary_ignores_global_phase():
    rng = np.random.default_rng(3)
    u = unitary_batch(*_random_gate(rng))
    phased = np.exp(1.0j * 0.7321) * u
    assert np.max(np.abs(rotation_from_unitary(phased) - rotation_from_unitary(u))) < 1e-12


def test_gate_from_unitary_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(100):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.1, 2.0 * np.pi - 0.1)
        back_angle, back_axis = gate_from_unitary(unitary_batch(angle, axis))
        assert abs(back_angle - angle) < 1e-10
        assert np.max(np.abs(back_axis - axis)) < 1e-10


def test_gate_from_unitary_identity_special_case():
    angle, axis = gate_from_unitary(np.eye(2, dtype=complex))
    assert angle == 0.0
    assert np.array_equal(axis, _Z)


def test_gate_from_unitary_keeps_tiny_rotations():
    # A 1e-12 rotation moves R by 2e-12; it must not be rounded to the identity.
    gate = (1e-12, np.array([0.6, 0.0, 0.8]))
    back = gate_from_unitary(unitary_batch(*gate))
    assert np.max(np.abs(_rotation(*back) - _rotation(*gate))) < 1e-15


def test_gate_from_unitary_rejects_nonunitary():
    with pytest.raises(ValueError):
        gate_from_unitary(np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))


def test_angles_are_kept_and_only_the_unitary_sees_a_full_turn():
    # The rotation is 2 pi periodic; the unitary changes sign over a full
    # turn, which is why angles are never reduced modulo 2 pi.
    assert np.max(np.abs(_rotation(-np.pi / 2.0, _Z) - _rotation(1.5 * np.pi, _Z))) < 1e-12
    assert np.max(np.abs(_rotation(2.0 * np.pi, _Z) - np.eye(3))) < 1e-15
    angles, axes = sample_gates(np.random.default_rng(13), 50)
    turned = unitary_batch(angles + 2.0 * np.pi, axes)
    assert np.max(np.abs(turned + unitary_batch(angles, axes))) < 1e-14


def test_axis_must_be_unit_length():
    for gates in (rotation_batch, unitary_batch):
        with pytest.raises(ValueError):
            gates(1.0, np.array([1.0, 1.0, 0.0]))


def test_skew_matrix_reproduces_cross_product():
    # Rodrigues: R v = cos t v + sin t (n x v) + (1 - cos t)(n . v) n.
    rng = np.random.default_rng(5)
    angle, n = _random_gate(rng)
    c, s = np.cos(angle), np.sin(angle)
    r = _rotation(angle, n)
    for _ in range(10):
        v = rng.normal(size=3)
        expected = c * v + s * np.cross(n, v) + (1.0 - c) * (n @ v) * n
        assert np.max(np.abs(r @ v - expected)) < 1e-12


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
    r = _rotation(angle, axis / norm)
    assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-12
    assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_trace_closed_forms():
    rng = np.random.default_rng(23)
    for _ in range(100):
        angle, axis = _random_gate(rng)
        r = _rotation(angle, axis)
        tr = np.trace(r)
        assert abs(tr - rotation_trace(angle)) < 1e-12
        assert abs(np.trace(r @ r) - (4.0 * np.cos(angle) ** 2 - 1.0)) < 1e-12
        assert abs(tr * tr - np.trace(r @ r) - 2.0 * tr) < 1e-12


def test_trace_values_at_marker_angles():
    assert abs(rotation_trace(np.pi) + 1.0) < 1e-15
    assert abs(rotation_trace(0.0) - 3.0) < 1e-15


def test_rotation_batch_equals_single_gates_bitwise():
    angles, axes = sample_gates(np.random.default_rng(19), 2000)
    single = [_rotation(a, x) for a, x in zip(angles, axes)]
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
    for gates in (rotation_batch, unitary_batch):
        with pytest.raises(ValueError):
            gates(np.array(angles), np.array(axes))


def test_unitary_batch_rows_equal_single_gates_bitwise():
    angles, axes = sample_gates(np.random.default_rng(21), 200)
    batch = unitary_batch(angles.reshape(20, 10), axes.reshape(20, 10, 3))
    single = [unitary_batch(a, x) for a, x in zip(angles, axes)]
    assert np.array_equal(batch.reshape(200, 2, 2), np.array(single))
