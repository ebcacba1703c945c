"""Monte-Carlo reference estimates for sphere averages.

Closed-form fidelity statistics in this package are always checkable
against direct sampling: draw Bloch vectors uniformly on the sphere, push
them through the channel, and average the pointwise flip fidelity.  The
sampler wraps numpy's PCG64 generator so every estimate is reproducible
from a single integer seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import qr

from .circuit import LadderCircuit
from .rotation import OneQubitGate

__all__ = [
    "SeededSampler",
    "McEstimate",
    "sample_bloch",
    "sample_unitary",
    "sample_gate",
    "sample_gates",
    "sample_ladder_circuit",
    "sample_ladders",
    "mc_stats",
    "bloch_map_from_affine",
    "bloch_map_from_three_qubit_unitary",
]

RNG_ALGORITHM = "numpy-pcg64/de-v2"

_TWO_PI = 2.0 * np.pi


@dataclass
class SeededSampler:
    """Reproducible random source: same seed, same draw sequence.

    `position` counts scalar draws consumed, so two samplers with equal
    seed and position produce identical futures.
    """

    seed: int
    position: int = field(default=0, init=False)

    def __post_init__(self):
        seed = int(self.seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def standard_normal(self, size) -> np.ndarray:
        out = self._rng.standard_normal(size)
        self.position += out.size
        return out

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        out = self._rng.uniform(low, high, size)
        self.position += out.size
        return out

    def random(self, size) -> np.ndarray:
        out = self._rng.random(size)
        self.position += out.size
        return out

    def pick_distinct(self, pool_size: int, count: int, shape: tuple = ()) -> np.ndarray:
        """Draw `count` distinct indices from range(pool_size), once per cell
        of `shape`: an array of shape `shape + (count,)`.

        Each cell ranks `pool_size` uniform keys and keeps the first `count`
        positions of the ranking, so it consumes `pool_size` draws.
        """
        if not 0 <= count <= pool_size:
            raise ValueError("count must lie in [0, pool_size]")
        keys = self.random(tuple(shape) + (pool_size,))
        return np.argsort(keys, axis=-1)[..., :count]

    def split(self, count: int) -> list["SeededSampler"]:
        """Derive independent child samplers, deterministic in the seed."""
        children = np.random.SeedSequence(self.seed).spawn(count)
        return [
            SeededSampler(int(child.generate_state(1, dtype=np.uint64)[0]))
            for child in children
        ]


@dataclass(frozen=True)
class McEstimate:
    """Sample estimate with its standard error and sample count."""

    value: float
    std_error: float
    n_samples: int

    def __post_init__(self):
        if self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")


def sample_bloch(sampler: SeededSampler, count: int | None = None) -> np.ndarray:
    """Uniform point(s) on the unit sphere via normalized Gaussian triples."""
    n = 1 if count is None else int(count)
    if n < 1:
        raise ValueError("count must be positive")
    v = _unit_rows(sampler.standard_normal((n, 3)))
    return v[0] if count is None else v


def _unit_rows(v: np.ndarray) -> np.ndarray:
    # Normalize the trailing 3-vectors of `v` in place.
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return v


def sample_unitary(sampler: SeededSampler, dim: int) -> np.ndarray:
    """Haar-random unitary from a QR-decomposed complex Ginibre matrix.

    The R factor's diagonal phases are divided out so the distribution is
    exactly Haar rather than QR-convention dependent.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    z = (
        sampler.standard_normal((dim, dim))
        + 1.0j * sampler.standard_normal((dim, dim))
    ) / np.sqrt(2.0)
    q, r = qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def sample_gates(sampler: SeededSampler, count: int) -> tuple[np.ndarray, np.ndarray]:
    """`count` random gates as arrays: angles (count,) uniform in [0, 2*pi)
    and axes (count, 3) uniform on the sphere, drawn as `count` one-qubit
    ladders (which have no preparations), so exactly as `count` calls of
    `sample_gate` draw them."""
    _, angles, axes = sample_ladders(sampler, 1, count)
    return angles[:, 0], axes[:, 0]


def sample_gate(sampler: SeededSampler) -> OneQubitGate:
    """Random gate: the one-row call of `sample_gates`."""
    angles, axes = sample_gates(sampler, 1)
    return OneQubitGate(angles[0], axes[0])


def sample_ladders(
    sampler: SeededSampler, qubit_count: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`count` random ladders as arrays: preparations (count, qubit_count - 1)
    uniform in [0, 1], gate angles (count, qubit_count) uniform in [0, 2*pi)
    and axes (count, qubit_count, 3) uniform on the sphere.

    Circuit by circuit, the preparations are drawn first and then the gates
    one at a time, each its angle and then its axis's Gaussian triple: a
    batch consumes the stream exactly as `count` calls of
    `sample_ladder_circuit`.  Only the axis normalization runs once.
    """
    if qubit_count < 1:
        raise ValueError("qubit_count must be at least 1")
    if count < 1:
        raise ValueError("count must be positive")
    preps = np.empty((count, qubit_count - 1))
    angles = np.empty((count, qubit_count))
    axes = np.empty((count, qubit_count, 3))
    for i in range(count):
        if qubit_count > 1:  # an empty draw consumes no numbers, only time
            preps[i] = sampler.uniform(0.0, 1.0, qubit_count - 1)
        for k in range(qubit_count):
            angles[i, k] = sampler.random(1)[0] * _TWO_PI  # = uniform(0, 2 pi) bitwise
            axes[i, k] = sampler.standard_normal((1, 3))[0]
    return preps, angles, _unit_rows(axes)


def sample_ladder_circuit(sampler: SeededSampler, qubit_count: int) -> LadderCircuit:
    """Random ladder: the one-row call of `sample_ladders`."""
    preps, angles, axes = sample_ladders(sampler, qubit_count, 1)
    return LadderCircuit(tuple(preps[0]), tuple(map(OneQubitGate, angles[0], axes[0])))


def mc_stats(
    bloch_map, sampler: SeededSampler, n_samples: int
) -> tuple[McEstimate, McEstimate]:
    """Monte-Carlo (F, Delta) of a channel given by its Bloch-vector action.

    `bloch_map` maps an (n, 3) array of input Bloch vectors to the (n, 3)
    output vectors.  Delta is the population standard deviation of the
    pointwise fidelities; its standard error comes from the delta method
    applied to the sample variance.
    """
    n = int(n_samples)
    if n < 2:
        raise ValueError("need at least two samples")
    a = sample_bloch(sampler, n)
    out = np.asarray(bloch_map(a), dtype=float)
    if out.shape != (n, 3):
        raise ValueError(f"bloch_map returned shape {out.shape}, expected ({n}, 3)")
    f = 0.5 * (1.0 - np.einsum("ni,ni->n", a, out))
    mean = float(np.mean(f))
    centered = f - mean
    c2 = centered * centered
    m2 = float(np.mean(c2))
    m4 = float(np.mean(c2 * c2))
    std = float(np.sqrt(m2))
    se_mean = std / np.sqrt(n)
    se_var = np.sqrt(max(m4 - m2 * m2, 0.0) / n)
    se_std = se_var / (2.0 * std) if std > 0.0 else 0.0
    return McEstimate(mean, se_mean, n), McEstimate(std, se_std, n)


def bloch_map_from_affine(channel) -> "callable":
    """Bloch action of an affine channel (duck-typed: .linear and .shift)."""
    linear = np.asarray(channel.linear, dtype=float)
    shift = np.asarray(channel.shift, dtype=float)
    return lambda a: a @ linear.T + shift


def bloch_map_from_three_qubit_unitary(u: np.ndarray) -> "callable":
    """Bloch action of an 8x8 unitary on system (x) |00>, by state vectors.

    Independent of any Kraus or affine reduction: each unit Bloch vector
    becomes a pure system state, (1 + z, x + iy) / sqrt(2 (1 + z)) for z >= 0
    and the phase-equivalent (x - iy, 1 - z) / sqrt(2 (1 - z)) for z < 0, the
    joint state is evolved, and the reduced system Bloch vector is read off
    the 2x2 marginal.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got shape {u.shape}")
    columns = u[:, [0, 4]].T

    def act(a: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(a, dtype=float))
        x, y, z = a.T
        zero = np.zeros_like(z)
        parts = np.where(
            (z >= 0.0)[:, None],
            np.stack([1.0 + z, zero, x, y], axis=1),
            np.stack([x, -y, 1.0 - z, zero], axis=1),
        )
        parts /= np.sqrt(2.0 * (1.0 + np.abs(z)))[:, None]
        psi = parts.view(complex) @ columns
        rho10 = np.einsum("nm,nm->n", psi[:, 4:], psi[:, :4].conj())
        halves = psi.view(float).reshape(-1, 2, 8)
        norms = np.einsum("nsk,nsk->ns", halves, halves)
        return np.stack(
            [2.0 * rho10.real, 2.0 * rho10.imag, norms[:, 0] - norms[:, 1]], axis=1
        )

    return act
