"""Average fidelity and fidelity deviation of approximate spin-flip maps.

The figure of merit for a map E acting on Bloch vectors is the flip
fidelity f[a] = (1 - a . r_out(a)) / 2 against the antipodal target state.
Averaging f and f^2 over the uniform sphere gives the pair (F, Delta)
computed here in closed form for single gates, stochastic mixtures of
gates, and affine Bloch channels; a three-qubit dilation enters as the
affine channel `evolve.channel_from_unitary` reads off its Choi matrix.

`affine_stats_batch` is the one kernel for affine channels a -> M a + c:
it maps a batch of (M, c) to arrays of (F, Delta); a gate mixture enters
it as M = sum_k w_k R_k, c = 0.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "one_qubit_stats_batch",
    "pair_covariance_batch",
    "affine_stats_batch",
    "region_residual",
    "MAX_AVG_FIDELITY",
    "REGION_TOL",
    "DEVIATION_SLOPE",
]

# A perfect universal flip is impossible; 2/3 is the best average fidelity
# any physical map can reach.
MAX_AVG_FIDELITY = 2.0 / 3.0

# Single gates and their mixtures satisfy Delta <= F * DEVIATION_SLOPE.
DEVIATION_SLOPE = 1.0 / np.sqrt(5.0)

# A point whose region residual is at most this counts as inside the region.
REGION_TOL = 1e-9

_STATS_TOL = 1e-12


def _versine(angle):
    # 1 - cos(angle) as 2 sin^2(angle / 2): no cancellation near angle = 0.
    half = np.sin(0.5 * angle)
    return 2.0 * half * half


def one_qubit_stats_batch(angles) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (F, Delta) arrays of single gates with the given angles.

    F = (3 - Tr R) / 6 = (1 - cos t) / 3 and Delta = F / sqrt(5).  F is
    evaluated as 2 sin^2(t/2) / 3, which keeps full relative precision for
    small angles, where 3 - Tr R cancels.  Raises ValueError for a
    non-finite angle, NaN included.
    """
    angles = np.asarray(angles, dtype=float)
    if not np.isfinite(angles).all():
        raise ValueError("angle must be finite")
    f = _versine(angles) / 3.0
    return f, f * DEVIATION_SLOPE


def pair_covariance_batch(gates_k, gates_l) -> np.ndarray:
    """Covariances of the pointwise fidelities of gate pairs over the sphere.

    `gates_k` and `gates_l` are (angles, axes) pairs of arrays of shapes
    (...) and (..., 3), as `oracle.sample_gates` returns them.  The
    covariance is (1 - cos t_k)(1 - cos t_l)(3 (n_k . n_l)^2 - 1) / 90, with
    1 - cos t evaluated as 2 sin^2(t/2) so that it keeps full relative
    precision for small angles.  The diagonal case reproduces Delta^2 of a
    single gate; off-diagonal values range between -Delta_k Delta_l / 2
    (orthogonal axes) and +Delta_k Delta_l (parallel axes).  For a mixture,
    w . C . w is the paper's pairwise form of Delta^2, an independent
    reference for `affine_stats_batch`.
    """
    (angles_k, axes_k), (angles_l, axes_l) = gates_k, gates_l
    overlap = np.einsum("...i,...i->...", axes_k, axes_l)
    return (
        _versine(angles_k) * _versine(angles_l) * (3.0 * overlap * overlap - 1.0) / 90.0
    )


def affine_stats_batch(linear: np.ndarray, shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(F, Delta) arrays of a batch of affine Bloch channels a -> M a + c.

    `linear` has shape (n, 3, 3) and `shift` shape (n, 3).  F = 1/2 - Tr M / 6,
    and the sphere variance of the pointwise fidelity is the sum of squares
    Delta^2 = |S - (Tr M / 3) I|_F^2 / 30 + |c|^2 / 12 with S = (M + M^T) / 2,
    which cannot go negative and keeps its relative precision near Delta = 0.
    Raises ValueError for other shapes, and RuntimeError when any row leaves
    F in [0, 1] or Delta <= 1/2, NaN and infinite rows included.
    """
    linear = np.asarray(linear, dtype=float)
    shift = np.asarray(shift, dtype=float)
    if linear.ndim != 3 or linear.shape[1:] != (3, 3) or shift.shape != (len(linear), 3):
        raise ValueError(
            f"need linear parts (n, 3, 3) and shifts (n, 3), got {linear.shape}, {shift.shape}"
        )
    tr = np.trace(linear, axis1=1, axis2=2)
    traceless = 0.5 * (linear + linear.transpose(0, 2, 1))
    traceless -= (tr / 3.0)[:, None, None] * np.eye(3)
    dev = np.sqrt(
        np.einsum("nij,nij->n", traceless, traceless) / 30.0
        + np.einsum("ni,ni->n", shift, shift) / 12.0
    )
    avg_f = 0.5 - tr / 6.0
    tol = _STATS_TOL
    if not np.all((avg_f >= -tol) & (avg_f <= 1.0 + tol) & (dev <= 0.5 + tol)):
        raise RuntimeError("channel statistics outside F in [0, 1], Delta <= 1/2")
    return avg_f, dev


def region_residual(avg_fidelity, deviation, qubit_count):
    """Distance of (F, Delta) outside the attainable region (0 when inside).

    Elementwise over arrays; `qubit_count` may be one number or an array.
    One qubit: the line Delta = F / sqrt(5).  Two qubits: the band
    F / (2 sqrt(5)) <= Delta <= F / sqrt(5).  Three or more: the full wedge
    0 <= Delta <= F / sqrt(5).  All regions require 0 <= F <= 2/3.
    """
    q = np.asarray(qubit_count)
    if np.any(q < 1):
        raise ValueError("qubit_count must be at least 1")
    f, d = np.asarray(avg_fidelity, dtype=float), np.asarray(deviation, dtype=float)
    upper = f * DEVIATION_SLOPE
    lower = np.where(q == 1, upper, np.where(q == 2, 0.5 * upper, 0.0))
    out = np.maximum(-f, f - MAX_AVG_FIDELITY)
    residual = np.maximum(np.maximum(out, lower - d), d - upper)
    # Inside, every term is at most 0; adding 0.0 reports that as +0.0, never -0.0.
    residual = np.maximum(residual, 0.0) + 0.0
    return float(residual) if residual.ndim == 0 else residual

