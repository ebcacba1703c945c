"""Ladder circuits that realize stochastic mixtures of gates.

An n-qubit ladder holds one system qubit and n - 1 ancillas.  Ancilla j is
prepared in sqrt(1 - v_j)|0> + sqrt(v_j)|1>; gate U_0 acts unconditionally
on the system and gate U_j (j >= 1) acts only when ancillas 1..j are all in
|0>.  Tracing out the ancillas leaves the stochastic map

    rho -> sum_k w_k W_k rho W_k^dag,   W_k = U_k ... U_1 U_0,

with branch weights w_0 = v_1, w_k = (1 - v_1)...(1 - v_k) v_{k+1} and
w_{n-1} = (1 - v_1)...(1 - v_{n-1}).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rotation import OneQubitGate, rotation_batch, unit_axis, unitary_from_gate

__all__ = [
    "StochasticMap",
    "LadderCircuit",
    "weights_from_preps",
    "mixture_linear",
    "ladder_linear",
    "full_unitary",
    "simulate_full",
    "density_from_bloch",
    "bloch_from_density",
    "check_density",
    "optimal_stochastic_map",
    "optimal_three_qubit_circuit",
    "misaligned_three_gate_map",
    "compensated_four_gate_map",
]

_WEIGHT_TOL = 1e-12
_DENSITY_TOL = 1e-10
_EIGVAL_TOL = 1e-9


@dataclass(frozen=True)
class StochasticMap:
    """Convex mixture of gates rho -> sum_k weights[k] W_k rho W_k^dag."""

    weights: np.ndarray
    gates: tuple[OneQubitGate, ...]

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        gates = tuple(self.gates)
        if weights.ndim != 1 or len(weights) != len(gates) or len(gates) == 0:
            raise ValueError("need one weight per gate, at least one gate")
        # Each check is written so that a NaN fails it.
        if not np.all(weights >= -_WEIGHT_TOL):
            raise ValueError("weights must be nonnegative")
        if not abs(weights.sum() - 1.0) <= _WEIGHT_TOL:
            raise ValueError("weights must sum to 1 within 1e-12")
        weights = weights.copy()
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "gates", gates)

    def bloch_linear(self) -> np.ndarray:
        """Linear Bloch action sum_k w_k R_k of the mixture."""
        angles = np.array([g.angle for g in self.gates])
        axes = np.array([g.axis for g in self.gates])
        return mixture_linear(self.weights[None], rotation_batch(angles, axes)[None])[0]


@dataclass(frozen=True)
class LadderCircuit:
    """Preparation parameters and conditional gates of an n-qubit ladder."""

    prep_params: tuple[float, ...]
    gates: tuple[OneQubitGate, ...]

    def __post_init__(self):
        preps = tuple(float(v) for v in self.prep_params)
        gates = tuple(self.gates)
        if len(gates) == 0:
            raise ValueError("circuit needs at least one gate")
        if len(preps) != len(gates) - 1:
            raise ValueError("need exactly one preparation parameter per ancilla")
        if any(not (0.0 <= v <= 1.0) for v in preps):
            raise ValueError("preparation parameters must lie in [0, 1]")
        object.__setattr__(self, "prep_params", preps)
        object.__setattr__(self, "gates", gates)

    @property
    def qubit_count(self) -> int:
        return len(self.gates)


def weights_from_preps(prep_params) -> np.ndarray:
    """Branch weights (..., n) of ladders with preparation parameters (..., n - 1)."""
    preps = np.asarray(prep_params, dtype=float)
    if not ((preps >= 0.0) & (preps <= 1.0)).all():
        raise ValueError("preparation parameters must lie in [0, 1]")
    # Branch k keeps (1 - v_1) ... (1 - v_k) v_{k+1}; the last branch the product.
    ones = np.ones(preps.shape[:-1] + (1,))
    weights = np.cumprod(np.concatenate([ones, 1.0 - preps], axis=-1), axis=-1)
    weights[..., :-1] *= preps
    return weights


def mixture_linear(weights: np.ndarray, rotations: np.ndarray) -> np.ndarray:
    """Linear Bloch actions sum_k w_k R_k of a batch of gate mixtures.

    `weights` has shape (n, k) and `rotations` shape (n, k, 3, 3); the sum
    runs in gate order.  A zero weight adds nothing, so mixtures of fewer
    gates may be padded.
    """
    out = weights[:, 0, None, None] * rotations[:, 0]
    for k in range(1, weights.shape[1]):
        out += weights[:, k, None, None] * rotations[:, k]
    return out


def ladder_linear(
    preps: np.ndarray, angles: np.ndarray, axes: np.ndarray
) -> np.ndarray:
    """Linear Bloch actions (n, 3, 3) of n ladders given as arrays.

    `preps` (n, q - 1), `angles` (n, q) and `axes` (n, q, 3) are laid out as
    `oracle.sample_ladders` returns them.  Branch k acts as W_k = U_k ... U_0,
    and since the Bloch rotation of a product is the product of rotations,
    its rotation is R_k ... R_0: no 2x2 unitary is formed.  Raises
    ValueError for a preparation outside [0, 1] or an invalid gate.
    """
    weights = weights_from_preps(preps)
    composed = rotation_batch(angles, axes)
    if weights.shape != composed.shape[:2]:
        raise ValueError("need one preparation per ancilla in every ladder")
    for k in range(1, composed.shape[1]):
        composed[:, k] = composed[:, k] @ composed[:, k - 1]
    return mixture_linear(weights, composed)


def _prep_unitary(v: float) -> np.ndarray:
    a = np.sqrt(1.0 - v)
    b = np.sqrt(v)
    return np.array([[a, -b], [b, a]], dtype=complex)


def full_unitary(circuit: LadderCircuit) -> np.ndarray:
    """Unitary of the whole ladder, system qubit as most significant bit.

    Ancilla j sits at bit n - 1 - j, so ancilla 1 is the most significant
    ancilla.  Layers: every ancilla preparation first, then U_0, then the
    conditional gates in order.
    """
    n = circuit.qubit_count
    anc_dim = 2 ** (n - 1)
    prep = np.eye(1, dtype=complex)
    for v in circuit.prep_params:
        prep = np.kron(prep, _prep_unitary(v))
    u = np.kron(np.eye(2, dtype=complex), prep)
    u = np.kron(unitary_from_gate(circuit.gates[0]), np.eye(anc_dim)) @ u
    branch = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    for j, gate in enumerate(circuit.gates[1:], start=1):
        proj = np.eye(1, dtype=complex)
        for _ in range(j):
            proj = np.kron(proj, branch)
        proj = np.kron(proj, np.eye(2 ** (n - 1 - j), dtype=complex))
        layer = np.kron(unitary_from_gate(gate), proj) + np.kron(
            np.eye(2, dtype=complex), np.eye(anc_dim) - proj
        )
        u = layer @ u
    return u


def simulate_full(circuit: LadderCircuit, rho_in: np.ndarray) -> np.ndarray:
    """Run the full ladder on `rho_in` (x) |0...0><0...0| and trace out ancillas.

    `rho_in` may be one density matrix or a stack (..., 2, 2); the ladder
    unitary is built once for the whole stack.
    """
    rho_in = check_density(rho_in)
    n = circuit.qubit_count
    anc_dim = 2 ** (n - 1)
    anc = np.zeros((anc_dim, anc_dim), dtype=complex)
    anc[0, 0] = 1.0
    rho = np.kron(rho_in, anc)
    u = full_unitary(circuit)
    rho = u @ rho @ u.conj().T
    blocks = rho.reshape(rho_in.shape[:-2] + (2, anc_dim, 2, anc_dim))
    return np.einsum("...imjm->...ij", blocks)


def check_density(rho: np.ndarray) -> np.ndarray:
    """Validate a qubit density matrix, or a stack (..., 2, 2) of them, and
    return it as a complex array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise ValueError(f"density matrix must be 2x2, got {rho.shape}")
    # Each check is written so that a NaN fails it, before `eigvalsh` sees one.
    if not np.max(np.abs(rho - rho.conj().swapaxes(-1, -2))) <= _DENSITY_TOL:
        raise ValueError("density matrix must be Hermitian within 1e-10")
    trace = np.trace(rho, axis1=-2, axis2=-1).real
    if not np.max(np.abs(trace - 1.0)) <= _DENSITY_TOL:
        raise ValueError("density matrix must have unit trace within 1e-10")
    if not np.min(np.linalg.eigvalsh(rho)) >= -_EIGVAL_TOL:
        raise ValueError("density matrix must be positive semidefinite")
    return rho


def density_from_bloch(bloch: np.ndarray) -> np.ndarray:
    """Density matrix (I + a . sigma) / 2 of a Bloch vector with |a| <= 1."""
    a = np.asarray(bloch, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"bloch vector must have shape (3,), got {a.shape}")
    if not np.linalg.norm(a) <= 1.0 + _DENSITY_TOL:  # NaN fails too
        raise ValueError("bloch vector must have norm at most 1")
    return 0.5 * np.array(
        [[1.0 + a[2], a[0] - 1.0j * a[1]], [a[0] + 1.0j * a[1], 1.0 - a[2]]],
        dtype=complex,
    )


def bloch_from_density(rho: np.ndarray) -> np.ndarray:
    """Bloch vector of a qubit density matrix, or vectors (..., 3) of a stack."""
    rho = check_density(rho)
    return np.stack(
        [
            2.0 * rho[..., 1, 0].real,
            2.0 * rho[..., 1, 0].imag,
            (rho[..., 0, 0] - rho[..., 1, 1]).real,
        ],
        axis=-1,
    )


_X_AXIS = unit_axis(1.0, 0.0, 0.0)
_Y_AXIS = unit_axis(0.0, 1.0, 0.0)
_Z_AXIS = unit_axis(0.0, 0.0, 1.0)


def optimal_stochastic_map() -> StochasticMap:
    """Equal-weight mixture of pi flips about x, y, z.

    This is the best approximate universal flip: F = 2/3 with zero
    deviation, Bloch action a -> -a / 3.
    """
    gates = tuple(OneQubitGate(np.pi, ax) for ax in (_X_AXIS, _Y_AXIS, _Z_AXIS))
    return StochasticMap(np.full(3, 1.0 / 3.0), gates)


def optimal_three_qubit_circuit() -> LadderCircuit:
    """Three-qubit ladder whose reduced map is `optimal_stochastic_map`.

    Preparations (1/3, 1/2) give branch weights (1/3, 1/3, 1/3); gates
    pi@x, pi@z, pi@x compose to flips about x, y and z.
    """
    gates = (
        OneQubitGate(np.pi, _X_AXIS),
        OneQubitGate(np.pi, _Z_AXIS),
        OneQubitGate(np.pi, _X_AXIS),
    )
    return LadderCircuit((1.0 / 3.0, 1.0 / 2.0), gates)


def _tilted_axis(alpha: float, sign: float) -> np.ndarray:
    # Unit vector in the y-z plane whose overlap with y is exactly alpha.
    return np.array([0.0, sign * alpha, np.sqrt(1.0 - alpha * alpha)])


def misaligned_three_gate_map(alpha: float) -> StochasticMap:
    """Optimal map with the third flip axis tilted from z toward y by `alpha`.

    The tilt leaves F = 2/3 but lifts the deviation to 2 alpha / (3 sqrt(15)),
    first order in the misalignment.
    """
    if not 0.0 <= alpha < 0.3:
        raise ValueError("alpha must lie in [0, 0.3)")
    gates = (
        OneQubitGate(np.pi, _X_AXIS),
        OneQubitGate(np.pi, _Y_AXIS),
        OneQubitGate(np.pi, _tilted_axis(alpha, 1.0)),
    )
    return StochasticMap(np.full(3, 1.0 / 3.0), gates)


def compensated_four_gate_map(alpha: float) -> StochasticMap:
    """Four-gate mixture that cancels the first-order misalignment error.

    The tilted z gate is split into two half-weight gates tilted by +alpha
    and -alpha; weights (1/3, 1/3, 1/6, 1/6).  F stays 2/3 and the deviation
    drops to 2 alpha^2 / (3 sqrt(15)), second order in the misalignment.
    """
    if not 0.0 <= alpha < 0.3:
        raise ValueError("alpha must lie in [0, 0.3)")
    gates = (
        OneQubitGate(np.pi, _X_AXIS),
        OneQubitGate(np.pi, _Y_AXIS),
        OneQubitGate(np.pi, _tilted_axis(alpha, 1.0)),
        OneQubitGate(np.pi, _tilted_axis(alpha, -1.0)),
    )
    return StochasticMap(np.array([1.0, 1.0, 0.5, 0.5]) / 3.0, gates)
