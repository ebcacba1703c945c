"""Monte-Carlo reference estimates for sphere averages.

Closed-form fidelity statistics in this package are always checkable
against direct sampling: draw Bloch vectors uniformly on the sphere, push
them through the channel, and average the pointwise flip fidelity.  Every
draw comes from a numpy `Generator` (PCG64) the caller passes in, so every
estimate is reproducible from a single integer seed; `spawn_seeds` derives
the independent child seeds of a run.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "spawn_seeds",
    "McEstimate",
    "sample_bloch",
    "sample_unitary",
    "sample_gates",
    "sample_ladders",
    "mc_stats",
    "bloch_map_from_unitary",
]

RNG_ALGORITHM = "numpy-pcg64/de-v2/arrays-v1"

_TWO_PI = 2.0 * np.pi

# Rows `mc_stats` draws and maps at a time.  A block's vectors and the
# three-qubit map's temporaries take about 1 MB whatever the sample count;
# only the (n,) fidelities grow with n.  `verify` runs its 20 estimates on
# two threads, which overlap only while numpy works outside the GIL, so a
# block must be long against the microseconds each of its numpy calls holds
# the GIL for.  Medians of 8 fresh processes, each running those 20
# estimates of 1e5 samples on 2 vCPUs (numpy 2.4, OpenBLAS 0.3.31): at one
# BLAS thread two threads took 0.34 s at 2048 rows and 0.30 s at 3072, and
# one thread 0.45-0.49 s at either.  From 4096 rows on, OpenBLAS's default
# thread pool takes up the (m, 2) @ (2, 8) state product, and on that pool
# two threads took 0.63 s at 4096 rows against 0.33 s at 3072; 8192 rows
# raised peak RSS by 10%.  The map allocates its temporaries afresh for
# each block, and a default `verify` call takes about 11 000 minor page
# faults at one BLAS thread and 9 500 on the default pool.
_BLOCK_ROWS = 3072


def spawn_seeds(seed: int, count: int) -> list[int]:
    """`count` independent child seeds of `seed`, deterministic in it: the
    first 64-bit word of each child of `np.random.SeedSequence(seed)`.
    Raises TypeError for a seed that is not an integer and ValueError for
    one outside [0, 2**64)."""
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return [
        int(child.generate_state(1, dtype=np.uint64)[0])
        for child in np.random.SeedSequence(seed).spawn(count)
    ]


@dataclass(frozen=True)
class McEstimate:
    """Sample estimate with its standard error and sample count."""

    value: float
    std_error: float
    n_samples: int

    def __post_init__(self):
        if not (np.isfinite(self.value) and np.isfinite(self.std_error)):
            raise ValueError("value and std_error must be finite")
        if self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")


def sample_bloch(rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` uniform points on the unit sphere, shape (count, 3), via
    normalized Gaussian triples.  `count` must be an integer."""
    count = operator.index(count)
    if count < 1:
        raise ValueError("count must be positive")
    return _unit_rows(rng.standard_normal((count, 3)))


def _unit_rows(v: np.ndarray) -> np.ndarray:
    # Normalize the trailing 3-vectors of `v` in place.
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return v


def sample_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary from a QR-decomposed complex Ginibre matrix.

    The R factor's diagonal phases are divided out so the distribution is
    exactly Haar rather than QR-convention dependent.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    z = (
        rng.standard_normal((dim, dim))
        + 1.0j * rng.standard_normal((dim, dim))
    ) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def sample_gates(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """`count` random gates as arrays: angles (count,) uniform in [0, 2*pi)
    and axes (count, 3) uniform on the sphere, drawn as `count` one-qubit
    ladders (which have no preparations): all angles, then all axes."""
    _, angles, axes = sample_ladders(rng, 1, count)
    return angles[:, 0], axes[:, 0]


def sample_ladders(
    rng: np.random.Generator, qubit_count: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`count` random ladders as arrays: preparations (count, qubit_count - 1)
    uniform in [0, 1], gate angles (count, qubit_count) uniform in [0, 2*pi)
    and axes (count, qubit_count, 3) uniform on the sphere.

    Three draws, in this order: the preparations, `random` of their shape
    (bitwise `uniform(0, 1)`; no number for one qubit), the angles as
    2 pi times `random` of theirs (bitwise `uniform(0, 2 pi)`), and the
    axes' Gaussian triples, normalized in place.
    """
    if qubit_count < 1:
        raise ValueError("qubit_count must be at least 1")
    if count < 1:
        raise ValueError("count must be positive")
    preps = rng.random((count, qubit_count - 1))
    angles = rng.random((count, qubit_count)) * _TWO_PI
    return preps, angles, _unit_rows(rng.standard_normal((count, qubit_count, 3)))


def mc_stats(
    bloch_map, rng: np.random.Generator, n_samples: int
) -> tuple[McEstimate, McEstimate]:
    """Monte-Carlo (F, Delta) of a channel given by its Bloch-vector action.

    `bloch_map` maps an (m, 3) array of input Bloch vectors to the (m, 3)
    output vectors, and must act row by row: the samples go through it in
    blocks of at most `_BLOCK_ROWS` rows.  The blocks consume the stream
    exactly as one draw of all n vectors would and give the same bits, since
    the mean and moments are still taken over the whole (n,) array of
    pointwise fidelities.  A non-finite map output raises RuntimeError.
    Delta is the population standard deviation of the pointwise fidelities;
    its standard error comes from the delta method applied to the sample
    variance.  `n_samples` must be an integer.
    """
    n = operator.index(n_samples)
    if n < 2:
        raise ValueError("need at least two samples")
    f = np.empty(n)
    for start in range(0, n, _BLOCK_ROWS):
        m = min(_BLOCK_ROWS, n - start)
        a = sample_bloch(rng, m)
        out = np.asarray(bloch_map(a), dtype=float)
        if out.shape != (m, 3):
            raise ValueError(f"bloch_map returned shape {out.shape}, expected ({m}, 3)")
        if not np.isfinite(out).all():
            raise RuntimeError("bloch_map returned a non-finite Bloch vector")
        f[start : start + m] = 0.5 * (1.0 - np.einsum("ni,ni->n", a, out))
    mean = float(np.mean(f))
    c2 = f  # squared in place: the fidelities are not needed after the mean
    c2 -= mean
    c2 *= c2
    m2 = float(np.mean(c2))
    c2 *= c2
    m4 = float(np.mean(c2))
    std = float(np.sqrt(m2))
    se_mean = std / np.sqrt(n)
    se_var = np.sqrt(max(m4 - m2 * m2, 0.0) / n)
    se_std = se_var / (2.0 * std) if std > 0.0 else 0.0
    return McEstimate(mean, se_mean, n), McEstimate(std, se_std, n)


def bloch_map_from_unitary(u: np.ndarray) -> "callable":
    """Bloch action of a (2^q, 2^q) unitary on system (x) |0...0>, by state
    vectors, the system qubit as most significant bit (q >= 1).

    Independent of any Kraus or affine reduction: each unit Bloch vector
    becomes a pure system state, (1 + z, x + iy) / sqrt(2 (1 + z)) for z >= 0
    and the phase-equivalent (x - iy, 1 - z) / sqrt(2 (1 - z)) for z < 0, the
    joint state is evolved through columns 0 and 2^(q - 1) of `u`, and the
    reduced system Bloch vector is read off the 2x2 marginal.

    Each call returns a fresh (m, 3) array and allocates its temporaries
    afresh, so the map keeps no state between calls.
    """
    u = np.asarray(u, dtype=complex)
    dim = u.shape[0] if u.ndim == 2 else 0
    if u.shape != (dim, dim) or dim < 2 or dim & (dim - 1):
        raise ValueError(f"expected a (2^q, 2^q) matrix, got shape {u.shape}")
    half = dim // 2
    columns = u[:, [0, half]].T

    def act(a: np.ndarray) -> np.ndarray:
        a = np.atleast_2d(np.asarray(a, dtype=float))
        m = len(a)
        x, y, z = a.T
        parts = np.empty((m, 4))
        # The z < 0 amplitudes everywhere, then the z >= 0 ones over them.
        parts[:, 0] = x
        np.negative(y, out=parts[:, 1])
        np.subtract(1.0, z, out=parts[:, 2])
        parts[:, 3] = 0.0
        upper = z >= 0.0
        np.add(1.0, z, out=parts[:, 0], where=upper)
        np.copyto(parts[:, 1], 0.0, where=upper)
        np.copyto(parts[:, 2], x, where=upper)
        np.copyto(parts[:, 3], y, where=upper)
        scale = np.abs(z)
        scale += 1.0
        scale *= 2.0
        np.sqrt(scale, out=scale)
        parts /= scale[:, None]
        psi = parts.view(complex) @ columns
        rho10 = np.einsum("nm,nm->n", psi[:, half:], np.conjugate(psi[:, :half]))
        halves = psi.view(float).reshape(m, 2, dim)
        norms = np.einsum("nsk,nsk->ns", halves, halves)
        out = np.empty((m, 3))
        np.multiply(rho10.real, 2.0, out=out[:, 0])
        np.multiply(rho10.imag, 2.0, out=out[:, 1])
        np.subtract(norms[:, 0], norms[:, 1], out=out[:, 2])
        return out

    return act
