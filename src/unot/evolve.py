"""Differential-evolution feedback for three-qubit flip circuits.

A candidate circuit is a real control vector p driving the unitary
U(p) = exp(-i sum_j p_j g_j), where the g_j are the 63 su(8) generators
of `gell_mann_basis(8)`, fixed at import.  Feeding the system qubit plus
two fresh ancillas through U(p) and discarding the ancillas yields a qubit
channel whose figure of merit

    xi = F - Delta

is maximal (xi = 2/3) exactly at the optimal universal flip.  The feedback
loop is DE/rand/1 with binomial crossover and strict greedy selection,
optionally disturbed by periodic control noise to probe stability.
`run_feedback` runs one loop per seed in lockstep and returns their history
as (iterations + 1, trials) arrays in a `FeedbackRun`.
"""

from __future__ import annotations

import numbers
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .circuit import full_unitary, optimal_three_qubit_circuit
from .fidelity import affine_stats_batch
from .rotation import PAULI

__all__ = [
    "SETTINGS",
    "check_setting",
    "NoiseModel",
    "DeConfig",
    "FeedbackRun",
    "gell_mann_basis",
    "unitary_from_controls",
    "channel_from_unitary",
    "control_stats_batch",
    "noise_stats",
    "optimal_controls",
    "apply_noise",
    "de_mutate",
    "de_crossover",
    "run_feedback",
]

_KRAUS_TOL = 1e-9

_SIGMA = np.stack(PAULI)

# The ancillas enter in |00> and the system bit is most significant, so the
# channel reads only columns 0 and 4 of the 8x8 unitary.
_CHANNEL_COLS = np.array([0, 4])

# control_stats_batch and noise_stats evaluate this many rows at a time.
# noise-sweep keeps one block in flight on each of its two threads; at 256
# rows the pair keeps peak RSS near a one-thread run's.
_BLOCK_ROWS = 256


def _pauli_transfer_map() -> np.ndarray:
    """Real (32, 16) map from a flattened, interleaved Choi matrix to R.

    With C[(k, s), (l, t)] = <s| E(|k><l|) |t>, the Pauli-transfer matrix
    R_ij = Tr(sigma_i E(sigma_j)) / 2 (sigma_0 = I) is the row-major sum
    T C over C's 16 entries.  R is real, so applied to C's interleaved real
    and imaginary parts T becomes the real map Re(T z) = Re T Re z - Im T Im z.
    """
    sigma = np.concatenate([np.eye(2)[None], _SIGMA])
    t = 0.5 * np.einsum("its,jkl->ijkslt", sigma, sigma).reshape(16, 16)
    out = np.empty((32, 16))
    out[0::2], out[1::2] = t.T.real, -t.T.imag
    return out


_PAULI_TRANSFER = _pauli_transfer_map()


def gell_mann_basis(dim: int) -> np.ndarray:
    """Generalized Gell-Mann generators of su(dim), shape (dim^2 - 1, dim, dim).

    The generators are Hermitian and traceless with Tr(g_i g_j) = 2 delta_ij.
    Ordering: symmetric pair matrices for j < k in row-major pair order,
    then the antisymmetric pairs in the same order, then the dim - 1
    diagonal generators.  The controls of this module are coordinates over
    `gell_mann_basis(8)`.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    mats = []
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = m[k, j] = 1.0
            mats.append(m)
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
    for l in range(1, dim):
        m = np.zeros((dim, dim), dtype=complex)
        scale = np.sqrt(2.0 / (l * (l + 1)))
        for i in range(l):
            m[i, i] = scale
        m[l, l] = -l * scale
        mats.append(m)
    return np.array(mats)


# The su(8) generators of the controls, built once and read-only.
_GENERATORS = gell_mann_basis(8)
_GENERATORS.setflags(write=False)
_COUNT, _DIM = _GENERATORS.shape[:2]
# The same generators as a real (63, 128) matrix, each row the real and
# imaginary parts of one flattened generator in turn, so
# `(p @ _INTERLEAVED).view(complex)` is h = sum_j p_j g_j flattened.  A view
# of the read-only generators, so read-only too.
_INTERLEAVED = _GENERATORS.view(float).reshape(_COUNT, -1)


# Type and interval of each numeric field of `DeConfig` and `NoiseModel`.
SETTINGS = {
    "population_size": (int, "[4, inf)"),
    "differential_weight": (float, "(0, 2]"),
    "crossover_rate": (float, "[0, 1]"),
    "max_iterations": (int, "[0, inf)"),
    "strength": (float, "[0, 1]"),
    "period": (int, "[0, inf)"),
}


def check_setting(value, label: str, kind: type, interval: str):
    """`value` as a setting of type `kind` (int or float) in `interval`, like
    "(0, 2]", where a round bracket leaves its end out.  Bools, other types,
    NaN, reals too large for a float and values outside raise a ValueError
    that names `label`.  An int setting returns an `int`; a real keeps its
    type, a numpy real becomes the Python number it holds.
    """
    number = numbers.Integral if kind is int else numbers.Real
    if not isinstance(value, number) or isinstance(value, bool):
        what = "an integer" if kind is int else "a real number"
        raise ValueError(f"{label} must be {what}, got {value!r}")
    if kind is float:
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"{label} must fit in a float") from None
    low, high = (float(end) for end in interval[1:-1].split(", "))
    above = low < value if interval[0] == "(" else low <= value
    below = value < high if interval[-1] == ")" else value <= high
    if not (above and below):
        raise ValueError(f"{label} must lie in {interval}")
    if kind is int:
        return int(value)
    return value.item() if isinstance(value, np.generic) else value


def _check_fields(record) -> None:
    """Check a frozen record's fields against `SETTINGS`; a None period passes."""
    for item in fields(record):
        value = getattr(record, item.name)
        if value is not None or item.name != "period":
            value = check_setting(value, item.name, *SETTINGS[item.name])
            object.__setattr__(record, item.name, value)


def _check_controls(p: np.ndarray, batch: bool) -> np.ndarray:
    """Controls of shape (63,), or also (n, 63) when `batch`.  A single
    vector must be finite; `_block_stats` checks a batch block by block."""
    p = np.asarray(p, dtype=float)
    if p.shape != (_COUNT,) and not (batch and p.ndim == 2 and p.shape[1] == _COUNT):
        allowed = f"([n,] {_COUNT})" if batch else f"({_COUNT},)"
        raise ValueError(f"controls must have shape {allowed}, got {p.shape}")
    if not batch:
        _check_finite(p)
    return p


def _check_finite(p: np.ndarray) -> None:
    if not np.isfinite(p).all():
        raise ValueError("controls must be finite")


def unitary_from_controls(p: np.ndarray) -> np.ndarray:
    """U(p) = exp(-i sum_j p_j g_j) of one control vector of shape (63,)."""
    p = _check_controls(p, batch=False)
    return _unitary_columns(p[None], np.arange(_DIM))[0]


def _row_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a 2-D `a`, each row's bits the same whatever the row count.

    numpy hands a one-row product to BLAS gemv, which sums in another order
    than gemm, so a lone row goes through gemm as a pair.
    """
    if len(a) == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


def _unitary_columns(pop: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Columns `cols` of U(p) for each row p of `pop`, shape (n, 8, len(cols))."""
    h = _row_product(pop, _INTERLEAVED).view(complex).reshape(-1, _DIM, _DIM)
    vals, vecs = np.linalg.eigh(h)
    phases = np.exp(-1.0j * vals)
    return vecs @ (phases[:, :, None] * vecs[:, cols, :].conj().swapaxes(1, 2))


def _channel_parts_from_columns(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Affine Bloch parts (linear, shift) from columns 0 and 4 of 8x8 unitaries.

    `cols` has shape (n, 8, 2), and row 4 s + a of column k holds
    <s a| U |k 0 0>.  Laid out as x[(k, s), a], the columns give the Choi
    matrix C = x x^dag, C[(k, s), (l, t)] = <s| E(|k><l|) |t>, and
    `_PAULI_TRANSFER` reads the channel off it.  Raises RuntimeError when
    a row's partial trace of C over s, the Kraus completeness sum, is not
    the identity within 1e-9, NaN rows included.
    """
    n = cols.shape[0]
    x = cols.swapaxes(1, 2).reshape(n, 4, 4)
    choi = x @ x.conj().swapaxes(1, 2)
    partial = choi[:, 0::2, 0::2] + choi[:, 1::2, 1::2]
    if not np.all(np.abs(partial - np.eye(2)) <= _KRAUS_TOL):
        raise RuntimeError("Kraus completeness violated beyond 1e-9")
    transfer = _row_product(choi.reshape(n, 16).view(float), _PAULI_TRANSFER).reshape(n, 4, 4)
    return transfer[:, 1:, 1:], transfer[:, 1:, 0]


def channel_from_unitary(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Affine Bloch parts, linear (n, 3, 3) and shift (n, 3), of the qubit
    channels a batch of (n, 8, 8) unitaries leaves on the system after
    ancillas in |00> are discarded: the Choi kernel the control paths run.

    Each row's bits do not depend on n.  Raises ValueError for other shapes,
    and RuntimeError when a row breaks Kraus completeness beyond 1e-9, NaN
    rows included.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 3 or u.shape[1:] != (_DIM, _DIM):
        raise ValueError(f"expected (n, 8, 8) unitaries, got shape {u.shape}")
    return _channel_parts_from_columns(u[:, :, _CHANNEL_COLS])


def _block_stats(count: int, block) -> tuple[np.ndarray, np.ndarray]:
    """(F, Delta) of `count` control rows that `block(start, m)` hands over
    `_BLOCK_ROWS` at a time, as an (m, d) array of rows start to start + m.
    Each block's rows must be finite, so no check builds a mask of all rows."""
    avg_f, dev = np.empty(count), np.empty(count)
    for start in range(0, count, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, count)
        rows = block(start, stop - start)
        _check_finite(rows)
        cols = _unitary_columns(rows, _CHANNEL_COLS)
        avg_f[start:stop], dev[start:stop] = affine_stats_batch(
            *_channel_parts_from_columns(cols)
        )
    return avg_f, dev


def control_stats_batch(pop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(F, Delta) arrays of the channels realized by each row of `pop`.

    `pop` has shape (63,) or (n, 63).  The rows go through the kernel
    in blocks of at most `_BLOCK_ROWS`, and each block builds only columns 0
    and 4 of its unitaries, the two the channel reads.  Every row is
    computed on its own, so the results do not depend on the block size and
    are bitwise those of one call over all rows; zero rows give two empty
    arrays.  Raises ValueError for a non-finite row, and RuntimeError when a
    block breaks Kraus completeness or leaves F in [0, 1] or Delta <= 1/2.
    """
    pop = _check_controls(pop, batch=True).reshape(-1, _COUNT)
    return _block_stats(len(pop), lambda start, m: pop[start : start + m])


def optimal_controls() -> np.ndarray:
    """Controls whose unitary realizes the optimal universal flip.

    Takes the full unitary of the optimal three-qubit ladder, extracts a
    traceless Hermitian logarithm from its eigendecomposition, and projects
    it onto the su(8) generators.  The fitness xi = F - Delta of the result
    (`control_stats_batch`) is 2/3 up to roundoff.

    The ladder unitary has 8 distinct eigenphases (the closest two lie
    about 0.62 rad apart), so each eigenvector is fixed up to a phase, the
    QR-orthonormalized eigenvectors are a unitary basis, and the logarithm
    does not depend on which eigenvectors `eig` returns.  A unitary with a
    repeated eigenphase would need a Schur basis instead.

    The eigenphase branches are lifted alternately by +-2*pi in sorted
    order, which leaves the unitary bit-for-bit unchanged but spreads the
    generator spectrum to the scale the feedback loop itself converges to.
    Perturbing these controls therefore degrades (F, Delta) the same way
    perturbing a feedback-found solution does; the principal branch sits in
    a visibly sharper basin.
    """
    u = full_unitary(*optimal_three_qubit_circuit())
    w, v = np.linalg.eig(u)
    z = np.linalg.qr(v)[0]
    angles = np.angle(w)
    lift = np.empty_like(angles)
    lift[np.argsort(angles)] = 2.0 * np.pi * (-1.0) ** np.arange(angles.size)
    h = -(z * (angles + lift)) @ z.conj().T
    h -= np.trace(h) / _DIM * np.eye(_DIM)
    return 0.5 * np.einsum("ij,aji->a", h, _GENERATORS).real


@dataclass(frozen=True)
class NoiseModel:
    """Additive control noise p -> p + strength * eps, eps ~ U[-pi, pi]^d.

    `period` schedules injections: None means never, 0 means a single
    injection into the initial population, and a positive k injects at the
    end of iterations k, 2k, 3k, ...
    """

    strength: float
    period: int | None = None

    __post_init__ = _check_fields

    def hits(self, iteration: int) -> bool:
        if self.period is None or self.strength == 0.0:
            return False
        if self.period == 0:
            return iteration == 0
        return iteration >= 1 and iteration % self.period == 0


def apply_noise(
    population: np.ndarray, noise: NoiseModel, rng: np.random.Generator
) -> np.ndarray:
    """Disturb every member: one fresh uniform [-pi, pi] vector each.

    Zero strength returns the population unchanged without consuming any
    draws, so a disabled model never perturbs the random stream.
    """
    population = np.asarray(population, dtype=float)
    if noise.strength == 0.0:
        return population.copy()
    eps = rng.uniform(-np.pi, np.pi, population.shape)
    return population + noise.strength * eps


def noise_stats(
    controls: np.ndarray,
    noise: NoiseModel,
    rng: np.random.Generator,
    count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(F, Delta) arrays of `count` noisy copies of one control vector.

    Bitwise `control_stats_batch(apply_noise(np.tile(controls, (count, 1)),
    noise, rng))`, and the stream moves as that one draw moves it, but each
    block's noise is drawn just before the block is evaluated, so no
    (count, d) array exists.  Zero strength draws nothing, and every copy
    is then the same row, evaluated once.
    """
    controls = _check_controls(controls, batch=False)
    count = check_setting(count, "count", int, "[0, inf)")
    if noise.strength == 0.0:
        avg_f, dev = control_stats_batch(controls)
        return np.full(count, avg_f[0]), np.full(count, dev[0])

    def block(start, m):
        return apply_noise(np.broadcast_to(controls, (m, _COUNT)), noise, rng)

    return _block_stats(count, block)


@dataclass(frozen=True)
class DeConfig:
    population_size: int = 10
    differential_weight: float = 0.1
    crossover_rate: float = 0.03
    max_iterations: int = 1000

    __post_init__ = _check_fields


@dataclass(frozen=True)
class FeedbackRun:
    """History of a lockstep feedback run, one column per trial.

    `avg_fidelity` and `deviation` hold the best member's (F, Delta) after
    each iteration, shape (iterations + 1, trials), and its fitness xi is
    bitwise `avg_fidelity - deviation`;
    `noise_injected` flags the iterations that ended with an injection,
    shape (iterations + 1,); `population` is the final (trials, n, d)
    population.
    """

    avg_fidelity: np.ndarray
    deviation: np.ndarray
    noise_injected: np.ndarray
    population: np.ndarray


def de_mutate(population: np.ndarray, weight: float, picks: np.ndarray) -> np.ndarray:
    """DE/rand/1 mutants of every member of every trial.

    `population` has shape (trials, n, d) and `picks` shape (trials, n, 3),
    three distinct indices from range(n - 1) per member.  Member i's donors
    a, b, c are its picks with those >= i shifted up by one, so they differ
    from i; its mutant is p_a + weight * (p_b - p_c).
    """
    n = population.shape[1]
    donors = np.where(picks >= np.arange(n)[:, None], picks + 1, picks)
    a, b, c = np.moveaxis(donors, -1, 0)
    trial = np.arange(population.shape[0])[:, None]
    return population[trial, a] + weight * (population[trial, b] - population[trial, c])


def de_crossover(
    target: np.ndarray, mutant: np.ndarray, rate: float, draws: np.ndarray
) -> np.ndarray:
    """Binomial crossover: each component comes from the mutant iff its
    uniform draw r satisfies r <= rate; `draws` has the shape of `target`."""
    return np.where(draws <= rate, mutant, target)


def run_feedback(
    config: DeConfig,
    noise: NoiseModel,
    seeds: Sequence[int],
    initial_population: np.ndarray | None = None,
) -> FeedbackRun:
    """Run one feedback loop per seed, all trials advancing in lockstep.

    Column k of the returned history is trial k, which draws only from its
    own generator, `np.random.default_rng(seeds[k])`, so it is bitwise the
    lone run of that seed.  An `initial_population` replaces the first draw
    and has shape (trials, n, d).

    Row 0 records the initial population; each later iteration runs one DE
    sweep and then applies any noise scheduled for it, so an injection row
    shows the raw disturbed values before the loop starts healing them.  A
    sweep makes one `random(n (n - 1) + n d)` call per trial: the first
    n (n - 1) numbers are the (n, n - 1) donor keys, each member's picks the
    first three places of its keys' ranking, and the rest are the (n, d)
    crossover draws.  Trial moves are built from the pre-sweep population
    and committed together, so the history does not depend on evaluation
    order.  Selection is strict: a trial vector replaces its target only
    when its fitness improves, so one that took no mutant component is not
    evaluated.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    t, n, d = len(rngs), config.population_size, _COUNT
    if t == 0:
        raise ValueError("seeds must not be empty")
    if initial_population is None:
        population = np.stack([rng.uniform(-np.pi, np.pi, (n, d)) for rng in rngs])
    else:
        population = np.array(initial_population, dtype=float)
        if population.shape != (t, n, d):
            raise ValueError(f"initial population must have shape ({t}, {n}, {d})")

    def disturb(population):
        return np.stack([apply_noise(p, noise, rng) for p, rng in zip(population, rngs)])

    def evaluate(population):
        avg_f, dev = control_stats_batch(population.reshape(t * n, d))
        return avg_f.reshape(t, n), dev.reshape(t, n)

    rows = config.max_iterations + 1
    injected = np.array([noise.hits(it) for it in range(rows)], dtype=bool)
    best_f, best_dev = np.empty((rows, t)), np.empty((rows, t))

    def record(it: int) -> None:
        best = np.arange(t), np.argmax(avg_f - dev, axis=1)
        best_f[it], best_dev[it] = avg_f[best], dev[best]

    if injected[0]:
        population = disturb(population)
    avg_f, dev = evaluate(population)
    record(0)
    keys = n * (n - 1)
    for iteration in range(1, rows):
        sweep = np.stack([rng.random(keys + n * d) for rng in rngs])
        picks = np.argsort(sweep[:, :keys].reshape(t, n, n - 1), axis=-1)[..., :3]
        draws = sweep[:, keys:].reshape(t, n, d)
        mutant = de_mutate(population, config.differential_weight, picks)
        trial = de_crossover(population, mutant, config.crossover_rate, draws)
        changed = (draws <= config.crossover_rate).any(axis=-1)
        if changed.any():
            t_avg_f, t_dev = control_stats_batch(trial[changed])
            won = t_avg_f - t_dev > avg_f[changed] - dev[changed]
            better = np.zeros_like(changed)
            better[changed] = won
            population[better] = trial[better]
            avg_f[better] = t_avg_f[won]
            dev[better] = t_dev[won]
        if injected[iteration]:
            population = disturb(population)
            avg_f, dev = evaluate(population)
        record(iteration)
    return FeedbackRun(best_f, best_dev, injected, population)
