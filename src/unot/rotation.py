"""Axis-angle rotations for single-qubit gates.

Gates are held as arrays: angles of shape (...) and unit axes of shape
(..., 3).  A gate U = exp(-i*angle/2 * axis.sigma) acts on Bloch vectors through the
3x3 rotation R with entries R_ij = Tr(sigma_i U sigma_j U^dag) / 2.  That
conjugation formula is the sign convention used everywhere in this package;
the Rodrigues form below reproduces it exactly.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULI",
    "rotation_batch",
    "unitary_batch",
    "rotation_trace",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

_AXIS_NORM_TOL = 1e-12
_IDENTITY = np.eye(3)


def _check_gates(angles, axes) -> tuple[np.ndarray, np.ndarray]:
    """Gates as float arrays of angles (...) and axes (..., 3).

    Raises ValueError unless every axis row is a finite unit vector within
    1e-12, the shapes match and every angle is finite; each check is written
    so that a NaN fails it.
    """
    angles = np.asarray(angles, dtype=float)
    axes = np.asarray(axes, dtype=float)
    if axes.shape[-1:] != (3,):
        raise ValueError(f"axes must have trailing dimension 3, got {axes.shape}")
    # A non-finite component makes the norm inf or NaN, which fails too.
    if not (np.abs(np.sqrt((axes * axes).sum(axis=-1)) - 1.0) <= _AXIS_NORM_TOL).all():
        raise ValueError("axis must be a finite unit vector within 1e-12")
    if axes.shape[:-1] != angles.shape:
        raise ValueError(f"axes {axes.shape} do not match angles {angles.shape}")
    if not np.isfinite(angles).all():
        raise ValueError("angle must be finite")
    return angles, axes


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
    (..., 3, 3).  Raises ValueError for an invalid gate (`_check_gates`).
    """
    angles, axes = _check_gates(angles, axes)
    s = _skew(axes)
    sin = np.sin(angles)[..., None, None]
    versine = (1.0 - np.cos(angles))[..., None, None]
    return _IDENTITY - sin * s + versine * (s @ s)


def unitary_batch(angles, axes) -> np.ndarray:
    """2x2 unitaries exp(-i*angle/2 * axis.sigma), shape (..., 2, 2), of gates
    given as angles (...) and unit axes (..., 3); always special unitary.

    The angle is not reduced modulo 2*pi: U(t + 2*pi) = -U(t), a sign that
    the Bloch rotation cannot see but a ladder's full unitary keeps.
    Raises ValueError for an invalid gate (`_check_gates`).
    """
    angles, axes = _check_gates(angles, axes)
    half = (0.5 * angles)[..., None, None]
    x, y, z = (axes[..., k, None, None] for k in range(3))
    n_dot_sigma = x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z
    return np.cos(half) * np.eye(2, dtype=complex) - 1.0j * np.sin(half) * n_dot_sigma


def rotation_trace(angle):
    """Tr R = 2 cos(angle) + 1, for one rotation angle or an array of them."""
    return 2.0 * np.cos(angle) + 1.0

