"""Reference routes the tests hold the package against.

The drivers reduce a ladder to its Bloch map as a product of rotations
(`circuit.ladder_linear`).  The unitary route here composes the ladder's
2x2 unitaries instead and recovers each branch gate from their product, so
the two agree only if composing rotations and composing unitaries agree.
A gate mixture is held as (weights (k,), angles (k,), axes (k, 3)).
`mc_stats_one_draw` is the Monte Carlo oracle as one draw of all samples,
which the block-by-block `oracle.mc_stats` must match bit for bit, and
`control_stats_one_call` is the control kernel as one call over all rows,
which the block-by-block `evolve.control_stats_batch` must match bit for
bit, and `noise_stats_one_draw` is `evolve.noise_stats` with all noise drawn
at once.  `control_stats_kraus` reads the channel off Kraus operators
instead of the Choi matrix, an independent route that agrees to roundoff,
and `three_qubit_avg_fidelity` is the closed form of F for the channel of
an 8x8 unitary, which the Choi kernel `evolve.channel_from_unitary` must
match.
`ball_action` feeds points of the Bloch ball to a map of pure states as
mixtures of two antipodal pure states.
`feedback_one_trial` is one seed's `evolve.run_feedback`, member by member,
and `ladders_array_draws` is `oracle.sample_ladders`, in the random-stream
orders the README documents.
The control routes build their own su(8) generators, `_GENERATORS`, and
never read the package's copy.
"""

import itertools

import numpy as np

from unot.circuit import mixture_linear, weights_from_preps
from unot.evolve import apply_noise, gell_mann_basis
from unot.fidelity import affine_stats_batch
from unot.oracle import McEstimate, sample_bloch
from unot.rotation import PAULI, rotation_batch, unitary_batch

_UNITARY_TOL = 1e-9

_GENERATORS = gell_mann_basis(8)
# Row j holds the real and imaginary parts of flattened generator j in turn.
_INTERLEAVED = _GENERATORS.view(float).reshape(63, 128)


def _check_unitary(u) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    if np.max(np.abs(u @ u.conj().T - np.eye(2))) > _UNITARY_TOL:
        raise ValueError("matrix is not unitary within tolerance")
    return u


def rotation_from_unitary(u) -> np.ndarray:
    """Bloch rotation R_ij = Tr(sigma_i u sigma_j u^dag) / 2 of any 2x2 unitary.

    Insensitive to the global phase of `u`.
    """
    u = _check_unitary(u)
    r = np.empty((3, 3))
    for i in range(3):
        left = PAULI[i] @ u
        for j in range(3):
            r[i, j] = 0.5 * np.trace(left @ PAULI[j] @ u.conj().T).real
    return r


def gate_from_unitary(u) -> tuple[float, np.ndarray]:
    """Recover (angle, axis) from a 2x2 unitary, ignoring global phase.

    The unitary is first rescaled to determinant one; the remaining sign
    ambiguity (+/- V give the same rotation) is resolved toward a
    nonnegative sine of the half angle, so the angle lies in [0, 2 pi].
    """
    u = _check_unitary(u)
    v = u / np.sqrt(np.linalg.det(u))
    cos_half = 0.5 * (v[0, 0] + v[1, 1]).real
    sin_n = 0.5 * np.array(
        [
            -(v[0, 1] + v[1, 0]).imag,
            (v[1, 0] - v[0, 1]).real,
            -(v[0, 0] - v[1, 1]).imag,
        ]
    )
    sin_half = np.linalg.norm(sin_n)
    if sin_half < 1e-15:
        # Identity up to phase, to the resolution of the entries of `u`: the
        # rotation this drops moves R by less than 2e-15.
        return 0.0, np.array([0.0, 0.0, 1.0])
    return 2.0 * np.arctan2(sin_half, cos_half), sin_n / sin_half


def stochastic_map_from_circuit(preps, angles, axes):
    """Reduce one ladder to its gate mixture (weights, angles, axes).

    Branch gates are recovered from the composed 2x2 unitaries W_k, not by
    combining axis-angle parameters of the factors.
    """
    composed = []
    w = np.eye(2, dtype=complex)
    for u in unitary_batch(angles, axes):
        w = u @ w
        composed.append(gate_from_unitary(w))
    return (
        weights_from_preps(preps),
        np.array([angle for angle, _ in composed]),
        np.array([axis for _, axis in composed]),
    )


def optimal_mixture():
    """The best approximate universal flip as a gate mixture: pi flips about
    x, y and z at weight 1/3 each, Bloch action a -> -a / 3."""
    return np.full(3, 1.0 / 3.0), np.full(3, np.pi), np.eye(3)


def mixture_map(weights, angles, axes) -> np.ndarray:
    """Bloch map (3, 3) of one gate mixture, a one-row `mixture_linear` call."""
    rotations = rotation_batch(angles, axes)
    return mixture_linear(np.asarray(weights, dtype=float)[None], rotations[None])[0]


def linear_stats(linear) -> tuple[float, float]:
    """(F, Delta) of one unital channel a -> linear a, a one-row kernel call."""
    avg_f, dev = affine_stats_batch(np.asarray(linear, dtype=float)[None], np.zeros((1, 3)))
    return float(avg_f[0]), float(dev[0])


def ball_action(act, points) -> np.ndarray:
    """Output Bloch vectors (m, 3) of ball points (m, 3), or of one (3,),
    under `act`, a map of pure states such as `oracle.bloch_map_from_unitary`
    returns: a point r n goes in as the mixture (1 + r) / 2 of n and
    (1 - r) / 2 of -n, with n = z at the centre."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.linalg.norm(points, axis=1, keepdims=True)
    n = np.where(r > 0.0, points / np.where(r > 0.0, r, 1.0), [0.0, 0.0, 1.0])
    return 0.5 * (1.0 + r) * act(n) + 0.5 * (1.0 - r) * act(-n)


def bloch_map_from_affine(linear, shift):
    """Bloch action a -> linear a + shift of an affine channel, for `mc_stats`."""
    linear = np.asarray(linear, dtype=float)
    shift = np.asarray(shift, dtype=float)
    return lambda a: a @ linear.T + shift


def three_qubit_avg_fidelity(u) -> float:
    """Average flip fidelity of an 8x8 unitary on system + two fresh ancillas.

    The system qubit is the most significant bit and the ancillas start in
    |00>.  In closed form F = 2/3 - (1/6) sum_m |u[m, 0] + u[m + 4, 4]|^2,
    bounded by [0, 2/3].  The whole matrix is checked for unitarity, NaN
    entries outside columns 0 and 4 included.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got shape {u.shape}")
    if not np.all(np.abs(u @ u.conj().T - np.eye(8)) <= _UNITARY_TOL):
        raise ValueError("matrix is not unitary within tolerance")
    overlap = u[0:4, 0] + u[4:8, 4]
    return 2.0 / 3.0 - float(np.sum(np.abs(overlap) ** 2)) / 6.0


def ladders_array_draws(rng, qubit_count, count):
    """(preps, angles, axes) of `count` ladders, as three array draws: the
    (count, qubit_count - 1) preparations uniform in [0, 1), the
    (count, qubit_count) angles uniform in [0, 2 pi), and the
    (count, qubit_count, 3) Gaussian triples of the axes, normalized."""
    preps = rng.uniform(0.0, 1.0, (count, qubit_count - 1))
    angles = rng.uniform(0.0, 2.0 * np.pi, (count, qubit_count))
    triples = rng.standard_normal((count, qubit_count, 3))
    return preps, angles, triples / np.linalg.norm(triples, axis=2, keepdims=True)


def mc_stats_one_draw(bloch_map, rng, n_samples):
    """`oracle.mc_stats` with all n Bloch vectors drawn and mapped at once."""
    n = int(n_samples)
    if n < 2:
        raise ValueError("need at least two samples")
    a = sample_bloch(rng, n)
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


def control_stats_one_call(pop):
    """(F, Delta) of each row of `pop`, all rows in one call.

    Columns 0 and 4 of U(p), laid out as x[(k, s), a] = <s a| U |k 0 0>, give
    the Choi matrix C = x x^dag, C[(k, s), (l, t)] = <s| E(|k><l|) |t>.  The
    Pauli-transfer matrix R_ij = Tr(sigma_i E(sigma_j)) / 2 (sigma_0 = I) is
    a fixed 16x16 map of C, applied as one real product to C's interleaved
    real and imaginary parts; the channel is M = R[1:, 1:], c = R[1:, 0].
    A lone row goes through as a pair, as in the package: numpy hands a
    one-row product to BLAS gemv, which sums in another order than gemm.
    """
    n = len(pop)
    if n == 1:
        avg_f, dev = control_stats_one_call(np.concatenate([pop, pop]))
        return avg_f[:1], dev[:1]
    h = (pop @ _INTERLEAVED).view(complex).reshape(n, 8, 8)
    vals, vecs = np.linalg.eigh(h)
    phases = np.exp(-1.0j * vals)
    cols = vecs @ (phases[:, :, None] * vecs[:, [0, 4], :].conj().swapaxes(1, 2))
    x = cols.swapaxes(1, 2).reshape(n, 4, 4)
    choi = x @ x.conj().swapaxes(1, 2)
    sigma = [np.eye(2), *PAULI]
    transfer = np.zeros((4, 4, 2, 2, 2, 2), dtype=complex)
    for i, j, k, s, l, t in itertools.product(range(4), range(4), *[range(2)] * 4):
        transfer[i, j, k, s, l, t] = 0.5 * sigma[i][t, s] * sigma[j][k, l]
    transfer = transfer.reshape(16, 16).T
    real = np.empty((32, 16))
    real[0::2], real[1::2] = transfer.real, -transfer.imag
    r = (choi.reshape(n, 16).view(float) @ real).reshape(n, 4, 4)
    return affine_stats_batch(r[:, 1:, 1:], r[:, 1:, 0])


def control_stats_kraus(pop):
    """(F, Delta) of each row of `pop` by Kraus operators and five einsums.

    Kraus operator m takes rows (m, m + 4) and columns (0, 4) of U(p), an
    independent route to the channel.
    """
    h = np.tensordot(pop, _GENERATORS, axes=([1], [0]))
    vals, vecs = np.linalg.eigh(h)
    phases = np.exp(-1.0j * vals)
    us = np.einsum("nij,nj,nkj->nik", vecs, phases, vecs.conj())
    rows = np.arange(4)[:, None] + 4 * np.arange(2)[None, :]
    cols = np.array([0, 4])
    kraus = us[:, rows[None, :, :, None], cols[None, None, None, :]]
    kraus = kraus.reshape(us.shape[0], 4, 2, 2)
    sigma = np.stack(PAULI)
    sandwich = np.einsum("nmab,jbc,nmdc->njad", kraus, sigma, kraus.conj())
    linear = 0.5 * np.einsum("iab,njba->nij", sigma, sandwich).real
    residue = np.einsum("nmab,nmcb->nac", kraus, kraus.conj())
    shift = 0.5 * np.einsum("iab,nba->ni", sigma, residue).real
    return affine_stats_batch(linear, shift)


def noise_stats_one_draw(controls, noise, rng, count):
    """`evolve.noise_stats` as one tiled (count, d) population, disturbed in
    one draw and evaluated in one call."""
    pop = apply_noise(np.tile(controls, (count, 1)), noise, rng)
    return control_stats_one_call(pop)


def feedback_one_trial(config, noise, seed):
    """One seed's feedback run as a plain per-member loop: the best member's
    (F, Delta) after each iteration, shapes (iterations + 1,), and the final
    (n, d) population.

    Its generator draws the initial population, then per sweep one
    `random(n (n - 1) + n d)` split into the (n, n - 1) donor keys and the
    (n, d) crossover draws, and after a sweep the noise scheduled for that
    iteration.  Member i's donors are the first three places of its keys'
    ranking, those >= i shifted up by one; a trial is built from the
    pre-sweep population, evaluated only if it took a mutant component, and
    replaces member i only if its fitness is strictly higher.
    """
    rng = np.random.default_rng(seed)
    n, d = config.population_size, 63
    population = rng.uniform(-np.pi, np.pi, (n, d))

    def disturb(population):
        return population + noise.strength * rng.uniform(-np.pi, np.pi, (n, d))

    def evaluate(population):
        stats = [control_stats_one_call(member[None]) for member in population]
        return np.array([f[0] for f, _ in stats]), np.array([dv[0] for _, dv in stats])

    best_f, best_dev = [], []

    def record():
        best = np.argmax(avg_f - dev)
        best_f.append(avg_f[best])
        best_dev.append(dev[best])

    if noise.hits(0):
        population = disturb(population)
    avg_f, dev = evaluate(population)
    record()
    for iteration in range(1, config.max_iterations + 1):
        sweep = rng.random(n * (n - 1) + n * d)
        keys = sweep[: n * (n - 1)].reshape(n, n - 1)
        draws = sweep[n * (n - 1) :].reshape(n, d)
        before = population.copy()
        for i in range(n):
            a, b, c = (k + (k >= i) for k in np.argsort(keys[i])[:3])
            mutant = before[a] + config.differential_weight * (before[b] - before[c])
            take = draws[i] <= config.crossover_rate
            if not take.any():
                continue
            trial = np.where(take, mutant, before[i])
            t_f, t_dev = control_stats_one_call(trial[None])
            if t_f[0] - t_dev[0] > avg_f[i] - dev[i]:
                population[i], avg_f[i], dev[i] = trial, t_f[0], t_dev[0]
        if noise.hits(iteration):
            population = disturb(population)
            avg_f, dev = evaluate(population)
        record()
    return np.array(best_f), np.array(best_dev), population
