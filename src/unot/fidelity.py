"""Average fidelity and fidelity deviation of approximate spin-flip maps.

The figure of merit for a map E acting on Bloch vectors is the flip
fidelity f[a] = (1 - a . r_out(a)) / 2 against the antipodal target state.
Averaging f and f^2 over the uniform sphere gives the pair (F, Delta)
computed here in closed form for single gates, stochastic mixtures of
gates, affine Bloch channels, and three-qubit dilations.

`affine_stats_batch` is the one kernel for affine channels a -> M a + c:
it maps a batch of (M, c) to arrays of (F, Delta), and the scalar
`affine_channel_stats` and `stochastic_map_stats` (a mixture acts as
M = sum_k w_k R_k, c = 0) are one-row calls of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import StochasticMap
from .rotation import OneQubitGate

__all__ = [
    "FidelityStats",
    "AffineBlochChannel",
    "pointwise_fidelity",
    "one_qubit_stats",
    "one_qubit_stats_batch",
    "pair_covariance",
    "pair_covariance_batch",
    "stochastic_map_stats",
    "affine_stats_batch",
    "affine_channel_stats",
    "three_qubit_avg_fidelity",
    "region_residual",
    "region_membership",
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
_BLOCH_NORM_TOL = 1e-9
_UNITARY_TOL = 1e-8


@dataclass(frozen=True)
class FidelityStats:
    """Average fidelity and its standard deviation over uniform pure inputs."""

    avg_fidelity: float
    deviation: float

    def __post_init__(self):
        f, d = float(self.avg_fidelity), float(self.deviation)
        if not (-_STATS_TOL <= f <= 1.0 + _STATS_TOL):
            raise ValueError(f"avg_fidelity {f} outside [0, 1]")
        if not (-_STATS_TOL <= d <= 0.5 + _STATS_TOL):
            raise ValueError(f"deviation {d} outside [0, 1/2]")
        object.__setattr__(self, "avg_fidelity", f)
        object.__setattr__(self, "deviation", d)


@dataclass(frozen=True)
class AffineBlochChannel:
    """Qubit channel acting on Bloch vectors as a -> linear @ a + shift."""

    linear: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        linear = np.asarray(self.linear, dtype=float)
        shift = np.asarray(self.shift, dtype=float)
        if linear.shape != (3, 3):
            raise ValueError(f"linear part must be 3x3, got {linear.shape}")
        if shift.shape != (3,):
            raise ValueError(f"shift must have shape (3,), got {shift.shape}")
        if not (np.all(np.isfinite(linear)) and np.all(np.isfinite(shift))):
            raise ValueError("channel entries must be finite")
        linear = linear.copy()
        shift = shift.copy()
        linear.setflags(write=False)
        shift.setflags(write=False)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "shift", shift)


def pointwise_fidelity(rotation: np.ndarray, bloch: np.ndarray) -> np.ndarray | float:
    """Flip fidelity f = (1 - a . R a) / 2 for one or many Bloch vectors.

    `bloch` may have shape (3,) or (..., 3); unit norm is required within 1e-9.
    """
    rotation = np.asarray(rotation, dtype=float)
    bloch = np.asarray(bloch, dtype=float)
    if rotation.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {rotation.shape}")
    if bloch.shape[-1:] != (3,):
        raise ValueError("bloch vectors must have trailing dimension 3")
    norms = np.linalg.norm(bloch, axis=-1)
    if np.max(np.abs(norms - 1.0)) > _BLOCH_NORM_TOL:
        raise ValueError("bloch vectors must be unit length within 1e-9")
    quad = np.einsum("...i,ij,...j->...", bloch, rotation, bloch)
    f = 0.5 * (1.0 - quad)
    return float(f) if f.ndim == 0 else f


def _versine(angle):
    # 1 - cos(angle) as 2 sin^2(angle / 2): no cancellation near angle = 0.
    half = np.sin(0.5 * angle)
    return 2.0 * half * half


def one_qubit_stats_batch(angles) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (F, Delta) arrays of single gates with the given angles.

    F = (3 - Tr R) / 6 = (1 - cos t) / 3 and Delta = F / sqrt(5).  F is
    evaluated as 2 sin^2(t/2) / 3, which keeps full relative precision for
    small angles, where 3 - Tr R cancels.
    """
    f = _versine(np.asarray(angles, dtype=float)) / 3.0
    return f, f * DEVIATION_SLOPE


def one_qubit_stats(gate: OneQubitGate) -> FidelityStats:
    """(F, Delta) of one gate; see `one_qubit_stats_batch`."""
    f, d = one_qubit_stats_batch(gate.angle)
    return FidelityStats(f, d)


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


def pair_covariance(gate_k: OneQubitGate, gate_l: OneQubitGate) -> float:
    """Covariance of two gates; see `pair_covariance_batch`."""
    return float(
        pair_covariance_batch((gate_k.angle, gate_k.axis), (gate_l.angle, gate_l.axis))
    )


def stochastic_map_stats(smap: StochasticMap) -> FidelityStats:
    """(F, Delta) of a convex mixture of gates: the channel a -> (sum_k w_k R_k) a."""
    return affine_channel_stats(AffineBlochChannel(smap.bloch_linear(), np.zeros(3)))


def affine_stats_batch(linear: np.ndarray, shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(F, Delta) arrays of a batch of affine Bloch channels a -> M a + c.

    `linear` has shape (n, 3, 3) and `shift` shape (n, 3).  F = 1/2 - Tr M / 6,
    and the sphere variance of the pointwise fidelity is the sum of squares
    Delta^2 = |S - (Tr M / 3) I|_F^2 / 30 + |c|^2 / 12 with S = (M + M^T) / 2,
    which cannot go negative and keeps its relative precision near Delta = 0.
    Raises RuntimeError when any row leaves F in [0, 1] or Delta <= 1/2,
    NaN rows included.
    """
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


def affine_channel_stats(channel: AffineBlochChannel) -> FidelityStats:
    """(F, Delta) of one affine Bloch channel; see `affine_stats_batch`."""
    avg_f, dev = affine_stats_batch(channel.linear[None], channel.shift[None])
    return FidelityStats(avg_f[0], dev[0])


def three_qubit_avg_fidelity(u: np.ndarray) -> float:
    """Average flip fidelity of an 8x8 unitary on system + two fresh ancillas.

    Basis ordering puts the system qubit first (most significant bit), the
    ancillas start in |00>.  In closed form
    F = 2/3 - (1/6) sum_m |u[m, 0] + u[m + 4, 4]|^2, bounded by [0, 2/3].
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got shape {u.shape}")
    if np.max(np.abs(u @ u.conj().T - np.eye(8))) > _UNITARY_TOL:
        raise ValueError("matrix is not unitary within tolerance")
    overlap = u[0:4, 0] + u[4:8, 4]
    return MAX_AVG_FIDELITY - float(np.sum(np.abs(overlap) ** 2)) / 6.0


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


def region_membership(stats: FidelityStats, qubit_count: int) -> bool:
    """Whether (F, Delta) lies within `REGION_TOL` of its qubit-count region."""
    residual = region_residual(stats.avg_fidelity, stats.deviation, qubit_count)
    return bool(residual <= REGION_TOL)
