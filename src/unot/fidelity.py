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
from .rotation import OneQubitGate, rotation_trace

__all__ = [
    "FidelityStats",
    "AffineBlochChannel",
    "pointwise_fidelity",
    "one_qubit_stats",
    "pair_covariance",
    "stochastic_map_stats",
    "affine_stats_batch",
    "affine_channel_stats",
    "three_qubit_avg_fidelity",
    "region_residual",
    "region_membership",
    "MAX_AVG_FIDELITY",
    "DEVIATION_SLOPE",
]

# A perfect universal flip is impossible; 2/3 is the best average fidelity
# any physical map can reach.
MAX_AVG_FIDELITY = 2.0 / 3.0

# Single gates and their mixtures satisfy Delta <= F * DEVIATION_SLOPE.
DEVIATION_SLOPE = 1.0 / np.sqrt(5.0)

_STATS_TOL = 1e-12
_BLOCH_NORM_TOL = 1e-9
_UNITARY_TOL = 1e-8
_REGION_TOL = 1e-9


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


def one_qubit_stats(gate: OneQubitGate) -> FidelityStats:
    """Closed-form (F, Delta) of a single gate.

    F = (3 - Tr R) / 6 and Delta = F / sqrt(5); both depend on the angle only.
    """
    f = (3.0 - rotation_trace(gate)) / 6.0
    return FidelityStats(f, f * DEVIATION_SLOPE)


def pair_covariance(gate_k: OneQubitGate, gate_l: OneQubitGate) -> float:
    """Covariance of the pointwise fidelities of two gates over the sphere.

    Reduces to (1 - cos t_k)(1 - cos t_l)(3 (n_k . n_l)^2 - 1) / 90, which is
    used instead of the raw trace combination because it keeps full relative
    precision for small angles.  The diagonal case reproduces Delta^2 of a
    single gate; off-diagonal values range between -Delta_k Delta_l / 2
    (orthogonal axes) and +Delta_k Delta_l (parallel axes).  For a mixture,
    w . C . w is the paper's pairwise form of Delta^2, an independent
    reference for `stochastic_map_stats`.
    """
    overlap_sq = float(np.dot(gate_k.axis, gate_l.axis)) ** 2
    return (
        (1.0 - np.cos(gate_k.angle))
        * (1.0 - np.cos(gate_l.angle))
        * (3.0 * overlap_sq - 1.0)
        / 90.0
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


def region_residual(stats: FidelityStats, qubit_count: int) -> float:
    """Distance of (F, Delta) outside the attainable region (0 when inside).

    One qubit: the line Delta = F / sqrt(5).  Two qubits: the band
    F / (2 sqrt(5)) <= Delta <= F / sqrt(5).  Three or more: the full wedge
    0 <= Delta <= F / sqrt(5).  All regions require 0 <= F <= 2/3.
    """
    if qubit_count < 1:
        raise ValueError("qubit_count must be at least 1")
    f, d = stats.avg_fidelity, stats.deviation
    upper = f * DEVIATION_SLOPE
    out = max(0.0, -f, f - MAX_AVG_FIDELITY)
    if qubit_count == 1:
        return max(out, abs(d - upper))
    if qubit_count == 2:
        return max(out, 0.5 * upper - d, d - upper)
    return max(out, -d, d - upper)


def region_membership(stats: FidelityStats, qubit_count: int) -> bool:
    """Whether (F, Delta) lies within 1e-9 of the region for `qubit_count` qubits."""
    return bool(region_residual(stats, qubit_count) <= _REGION_TOL)
