"""Ladder circuits that realize stochastic mixtures of gates.

An n-qubit ladder holds one system qubit and n - 1 ancillas.  Ancilla j is
prepared in sqrt(1 - v_j)|0> + sqrt(v_j)|1>; gate U_0 acts unconditionally
on the system and gate U_j (j >= 1) acts only when ancillas 1..j are all in
|0>.  Tracing out the ancillas leaves the stochastic map

    rho -> sum_k w_k W_k rho W_k^dag,   W_k = U_k ... U_1 U_0,

with branch weights w_0 = v_1, w_k = (1 - v_1)...(1 - v_k) v_{k+1} and
w_{n-1} = (1 - v_1)...(1 - v_{n-1}).

A ladder is held as arrays: preparations (q - 1,), angles (q,) and unit
axes (q, 3), with a leading batch dimension where a function takes many.
"""

from __future__ import annotations

import numpy as np

from .rotation import rotation_batch, unitary_batch

__all__ = [
    "weights_from_preps",
    "mixture_linear",
    "ladder_linear",
    "full_unitary",
    "optimal_three_qubit_circuit",
    "misaligned_three_gate_map",
    "compensated_four_gate_map",
    "MAX_TILT",
]

_WEIGHT_TOL = 1e-12

# The misalignment maps take tilts alpha in [0, MAX_TILT).
MAX_TILT = 0.3


def _check_preps(prep_params) -> np.ndarray:
    preps = np.asarray(prep_params, dtype=float)
    if not ((preps >= 0.0) & (preps <= 1.0)).all():  # NaN fails too
        raise ValueError("preparation parameters must lie in [0, 1]")
    return preps


def weights_from_preps(prep_params) -> np.ndarray:
    """Branch weights (..., n) of ladders with preparation parameters (..., n - 1)."""
    preps = _check_preps(prep_params)
    # Branch k keeps (1 - v_1) ... (1 - v_k) v_{k+1}; the last branch the product.
    ones = np.ones(preps.shape[:-1] + (1,))
    weights = np.cumprod(np.concatenate([ones, 1.0 - preps], axis=-1), axis=-1)
    weights[..., :-1] *= preps
    return weights


def mixture_linear(weights: np.ndarray, rotations: np.ndarray) -> np.ndarray:
    """Linear Bloch actions sum_k w_k R_k of a batch of gate mixtures.

    `weights` has shape (n, k) and `rotations` shape (n, k, 3, 3), each an
    array or anything `np.asarray` takes, such as nested lists; the sum
    runs in gate order.  A zero weight adds nothing, so mixtures of fewer
    gates may be padded.  Raises ValueError unless there is one weight per
    gate and at least one gate, every weight is at least -1e-12 and each
    row sums to 1 within 1e-12, NaN weights failing.
    """
    weights = np.asarray(weights, dtype=float)
    rotations = np.asarray(rotations, dtype=float)
    if weights.ndim != 2 or weights.shape[1] == 0 or rotations.shape[:2] != weights.shape:
        raise ValueError("need one weight per gate, at least one gate")
    # Each check is written so that a NaN fails it.
    if not np.all(weights >= -_WEIGHT_TOL):
        raise ValueError("weights must be nonnegative")
    if not np.all(np.abs(weights.sum(axis=1) - 1.0) <= _WEIGHT_TOL):
        raise ValueError("weights must sum to 1 within 1e-12")
    out = weights[:, 0, None, None] * rotations[:, 0]
    for k in range(1, weights.shape[1]):
        out += weights[:, k, None, None] * rotations[:, k]
    return out


def ladder_linear(preps, angles, axes) -> np.ndarray:
    """Linear Bloch actions (n, 3, 3) of n ladders given as arrays.

    `preps` (n, q - 1), `angles` (n, q) and `axes` (n, q, 3) are laid out as
    `oracle.sample_ladders` returns them.  Branch k acts as W_k = U_k ... U_0,
    and since the Bloch rotation of a product is the product of rotations,
    its rotation is R_k ... R_0: no 2x2 unitary is formed.  Raises
    ValueError for a preparation outside [0, 1], an invalid gate or
    mismatched shapes.
    """
    weights = weights_from_preps(preps)
    composed = rotation_batch(angles, axes)
    if weights.shape != composed.shape[:2]:
        raise ValueError("need one preparation per ancilla in every ladder")
    for k in range(1, composed.shape[1]):
        composed[:, k] = composed[:, k] @ composed[:, k - 1]
    return mixture_linear(weights, composed)


def full_unitary(preps, angles, axes) -> np.ndarray:
    """Unitary of one ladder, system qubit as most significant bit.

    `preps` (q - 1,), `angles` (q,) and `axes` (q, 3) describe the ladder.
    Ancilla j sits at bit q - 1 - j, so ancilla 1 is the most significant
    ancilla.  Layers: every ancilla preparation first, then U_0, then the
    conditional gates in order.  Raises ValueError for a preparation outside
    [0, 1], an invalid gate, no gate, or a preparation count other than q - 1.
    """
    preps = _check_preps(preps)
    gates = unitary_batch(angles, axes)
    if gates.ndim != 3 or len(gates) == 0 or preps.shape != (len(gates) - 1,):
        raise ValueError("need at least one gate and one preparation per ancilla")
    n = len(gates)
    anc_dim = 2 ** (n - 1)
    prep = np.eye(1, dtype=complex)
    for a, b in zip(np.sqrt(1.0 - preps), np.sqrt(preps)):
        prep = np.kron(prep, np.array([[a, -b], [b, a]], dtype=complex))
    u = np.kron(np.eye(2, dtype=complex), prep)
    u = np.kron(gates[0], np.eye(anc_dim)) @ u
    for j in range(1, n):
        # Projector onto ancillas 1..j in |0>: the first 2^(n-1-j) basis states.
        proj = np.diag((np.arange(anc_dim) < 2 ** (n - 1 - j)).astype(complex))
        layer = np.kron(gates[j], proj) + np.kron(
            np.eye(2, dtype=complex), np.eye(anc_dim) - proj
        )
        u = layer @ u
    return u


_X_AXIS, _Y_AXIS, _Z_AXIS = np.eye(3)


def optimal_three_qubit_circuit() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(preps, angles, axes) of the three-qubit ladder that realizes the best
    approximate universal flip: F = 2/3 with zero deviation, a -> -a / 3.

    Preparations (1/3, 1/2) give branch weights (1/3, 1/3, 1/3); gates
    pi@x, pi@z, pi@x compose to flips about x, y and z.
    """
    return (
        np.array([1.0 / 3.0, 1.0 / 2.0]),
        np.full(3, np.pi),
        np.array([_X_AXIS, _Z_AXIS, _X_AXIS]),
    )


def _tilted_flip_maps(alpha, weights, signs) -> np.ndarray:
    # Bloch maps (n, 3, 3) of pi flips about x, y and about one axis per sign
    # in the y-z plane whose overlap with y is exactly sign * alpha.
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 1 or not np.all((alpha >= 0.0) & (alpha < MAX_TILT)):
        raise ValueError(f"alpha must be an (n,) array in [0, {MAX_TILT})")
    tilted = [
        np.stack([np.zeros_like(alpha), sign * alpha, np.sqrt(1.0 - alpha * alpha)], -1)
        for sign in signs
    ]
    fixed = [np.broadcast_to(axis, alpha.shape + (3,)) for axis in (_X_AXIS, _Y_AXIS)]
    axes = np.stack(fixed + tilted, axis=1)
    rotations = rotation_batch(np.full(axes.shape[:-1], np.pi), axes)
    return mixture_linear(np.broadcast_to(weights, axes.shape[:-1]), rotations)


def misaligned_three_gate_map(alpha) -> np.ndarray:
    """Bloch maps (n, 3, 3) of the optimal mixture with the third flip axis
    tilted from z toward y by each `alpha` of an (n,) grid.

    The tilt leaves F = 2/3 but lifts the deviation to 2 alpha / (3 sqrt(15)),
    first order in the misalignment.
    """
    return _tilted_flip_maps(alpha, np.full(3, 1.0 / 3.0), (1.0,))


def compensated_four_gate_map(alpha) -> np.ndarray:
    """Bloch maps (n, 3, 3) of four-gate mixtures that cancel the first-order
    misalignment error, for each `alpha` of an (n,) grid.

    The tilted z gate is split into two half-weight gates tilted by +alpha
    and -alpha; weights (1/3, 1/3, 1/6, 1/6).  F stays 2/3 and the deviation
    drops to 2 alpha^2 / (3 sqrt(15)), second order in the misalignment.
    """
    return _tilted_flip_maps(alpha, np.array([1.0, 1.0, 0.5, 0.5]) / 3.0, (1.0, -1.0))
