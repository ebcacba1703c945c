"""Axis-angle rotations for single-qubit gates.

A gate U = exp(-i*angle/2 * axis.sigma) acts on Bloch vectors through the
3x3 rotation R with entries R_ij = Tr(sigma_i U sigma_j U^dag) / 2.  That
conjugation formula is the sign convention used everywhere in this package;
the Rodrigues form below reproduces it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULI",
    "OneQubitGate",
    "unit_axis",
    "rotation_batch",
    "unitary_from_gate",
    "rotation_trace",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

_AXIS_NORM_TOL = 1e-12
_IDENTITY = np.eye(3)
_TWO_PI = 2.0 * np.pi


def unit_axis(x: float, y: float, z: float) -> np.ndarray:
    """Normalize (x, y, z) to a unit vector."""
    v = np.array([x, y, z], dtype=float)
    norm = np.linalg.norm(v)
    if not np.isfinite(norm) or norm == 0.0:
        raise ValueError("axis must be a nonzero finite vector")
    return v / norm


def _check_axes(axes: np.ndarray) -> np.ndarray:
    """Axes of shape (..., 3), each row finite and of unit norm within 1e-12."""
    axes = np.asarray(axes, dtype=float)
    if axes.shape[-1:] != (3,):
        raise ValueError(f"axes must have trailing dimension 3, got {axes.shape}")
    # A non-finite component makes the norm inf or NaN, which fails too.
    if not (np.abs(np.sqrt((axes * axes).sum(axis=-1)) - 1.0) <= _AXIS_NORM_TOL).all():
        raise ValueError("axis must be a finite unit vector within 1e-12")
    return axes


def _check_axis(axis: np.ndarray) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,):
        raise ValueError(f"axis must have shape (3,), got {axis.shape}")
    return _check_axes(axis)


@dataclass(frozen=True)
class OneQubitGate:
    """Rotation by `angle` about unit vector `axis`.

    The angle is stored modulo 2*pi in [0, 2*pi).  A zero angle with any
    axis is the identity gate.
    """

    angle: float
    axis: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.angle):
            raise ValueError("angle must be finite")
        axis = _check_axis(self.axis).copy()
        axis.setflags(write=False)
        object.__setattr__(self, "angle", float(np.mod(self.angle, _TWO_PI)))
        object.__setattr__(self, "axis", axis)


# Flat slots of the off-diagonal entries of S, the axis component each holds
# and its sign.
_SKEW_SLOTS = [1, 2, 3, 5, 6, 7]
_SKEW_SOURCE = [2, 1, 2, 0, 1, 0]
_SKEW_SIGN = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0])


def _skew(n: np.ndarray) -> np.ndarray:
    # Skew matrices S_ij = sum_k eps_ijk n_k of axes (..., 3), shape
    # (..., 3, 3), so that S @ v = v x n.
    s = np.zeros(n.shape[:-1] + (9,))
    s[..., _SKEW_SLOTS] = n[..., _SKEW_SOURCE] * _SKEW_SIGN
    return s.reshape(n.shape[:-1] + (3, 3))


def rotation_batch(angles: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """3x3 Bloch rotations of gates given as angles (...) and unit axes (..., 3).

    Rodrigues form R = I - sin(angle) S + (1 - cos(angle)) S^2 with S the
    skew matrix of the axis (S @ v = v x n), which equals the conjugation
    formula Tr(sigma_i U sigma_j U^dag)/2 exactly; the result has shape
    (..., 3, 3).
    Raises ValueError, as `OneQubitGate` does, for a non-finite angle or an
    axis row that is not a finite unit vector.
    """
    angles = np.asarray(angles, dtype=float)
    axes = _check_axes(axes)
    if axes.shape[:-1] != angles.shape:
        raise ValueError(f"axes {axes.shape} do not match angles {angles.shape}")
    if not np.isfinite(angles).all():
        raise ValueError("angle must be finite")
    s = _skew(axes)
    sin = np.sin(angles)[..., None, None]
    versine = (1.0 - np.cos(angles))[..., None, None]
    return _IDENTITY - sin * s + versine * (s @ s)


def unitary_from_gate(gate: OneQubitGate) -> np.ndarray:
    """2x2 unitary exp(-i*angle/2 * axis.sigma), always special unitary."""
    half = 0.5 * gate.angle
    n_dot_sigma = (
        gate.axis[0] * SIGMA_X + gate.axis[1] * SIGMA_Y + gate.axis[2] * SIGMA_Z
    )
    return np.cos(half) * np.eye(2, dtype=complex) - 1.0j * np.sin(half) * n_dot_sigma


def rotation_trace(angle):
    """Tr R = 2 cos(angle) + 1, for one rotation angle or an array of them."""
    return 2.0 * np.cos(angle) + 1.0

