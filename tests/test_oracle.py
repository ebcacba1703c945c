"""Tests for the seeded Monte Carlo oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import (
    bloch_map_from_affine,
    ladders_array_draws,
    mc_stats_one_draw,
    mixture_map,
    optimal_mixture,
    three_qubit_avg_fidelity,
)

from unot.circuit import full_unitary, optimal_three_qubit_circuit
from unot.fidelity import affine_stats_batch, one_qubit_stats_batch
from unot.oracle import (
    _BLOCK_ROWS,
    RNG_ALGORITHM,
    McEstimate,
    bloch_map_from_unitary,
    mc_stats,
    sample_bloch,
    sample_gates,
    sample_ladders,
    sample_unitary,
    spawn_seeds,
)
from unot.rotation import rotation_batch

_ZERO_SHIFT = np.zeros(3)


def test_rng_algorithm_label():
    assert RNG_ALGORITHM == "numpy-pcg64/de-v2/arrays-v1"


def test_sampler_is_reproducible():
    # The same seed gives the same draws and leaves the same generator state.
    a, b = np.random.default_rng(99), np.random.default_rng(99)
    assert np.array_equal(sample_bloch(a, 16), sample_bloch(b, 16))
    assert np.array_equal(sample_unitary(a, 4), sample_unitary(b, 4))
    assert a.bit_generator.state == b.bit_generator.state


def test_split_children_are_deterministic_and_distinct():
    first = spawn_seeds(5, 4)
    second = spawn_seeds(5, 4)
    assert first == second
    assert len(set(first)) == 4
    # The children every row file since numpy-pcg64/de-v2 was seeded from.
    assert first == [
        15658875773272509128,
        6924645418555453511,
        1725439304048894018,
        13230002727910310950,
    ]
    parent_draw = np.random.default_rng(5).uniform(0.0, 1.0, 3)
    child_draw = np.random.default_rng(first[0]).uniform(0.0, 1.0, 3)
    assert not np.allclose(parent_draw, child_draw)


def test_bloch_samples_sit_on_the_sphere():
    points = sample_bloch(np.random.default_rng(3), 2000)
    norms = np.linalg.norm(points, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert np.max(np.abs(points.mean(axis=0))) < 0.05


def test_haar_unitaries_are_unitary():
    rng = np.random.default_rng(4)
    for dim in (2, 4, 8):
        u = sample_unitary(rng, dim)
        assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < 1e-12


def test_haar_spectrum_has_no_phase_preference():
    rng = np.random.default_rng(14)
    phases = []
    for _ in range(300):
        phases.extend(np.angle(np.linalg.eigvals(sample_unitary(rng, 4))))
    assert abs(np.mean(np.cos(phases))) < 0.05
    assert abs(np.mean(np.sin(phases))) < 0.05


def test_sample_gate_ranges():
    angles, axes = sample_gates(np.random.default_rng(6), 50)
    assert np.all((angles >= 0.0) & (angles < 2.0 * np.pi))
    assert np.max(np.abs(np.linalg.norm(axes, axis=1) - 1.0)) < 1e-12


def test_sample_ladder_circuit_shapes():
    preps, angles, axes = sample_ladders(np.random.default_rng(7), 4, 1)
    assert (preps.shape, angles.shape, axes.shape) == ((1, 3), (1, 4), (1, 4, 3))
    assert np.all((preps >= 0.0) & (preps <= 1.0))


def test_sample_gates_draw_arrays_in_the_documented_order():
    # Gates are one-qubit ladders: all angles, then all axes.
    rng, reference = np.random.default_rng(21), np.random.default_rng(21)
    angles, axes = sample_gates(rng, 50)
    _, expected_angles, expected_axes = ladders_array_draws(reference, 1, 50)
    assert np.array_equal(angles, expected_angles[:, 0])
    assert np.array_equal(axes, expected_axes[:, 0])
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("qubit_count", [1, 2, 3, 4])
def test_sample_ladders_draw_arrays_in_the_documented_order(qubit_count):
    rng, reference = np.random.default_rng(13), np.random.default_rng(13)
    drawn = sample_ladders(rng, qubit_count, 40)
    assert drawn[0].shape == (40, qubit_count - 1)
    for got, expected in zip(drawn, ladders_array_draws(reference, qubit_count, 40)):
        assert np.array_equal(got, expected)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_batch_draws_reject_bad_counts():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_gates(rng, 0)
    with pytest.raises(ValueError):
        sample_ladders(rng, 0, 3)
    with pytest.raises(ValueError):
        sample_ladders(rng, 2, 0)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_mc_estimate_fields():
    est = McEstimate(0.5, 0.01, 100)
    assert est.value == 0.5
    with pytest.raises(ValueError):
        McEstimate(0.5, -0.01, 100)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            McEstimate(bad, 0.01, 100)
        with pytest.raises(ValueError, match="finite"):
            McEstimate(0.5, bad, 100)


def test_identity_channel_statistics_vanish():
    ident = bloch_map_from_affine(np.eye(3), _ZERO_SHIFT)
    f, d = mc_stats(ident, np.random.default_rng(21), 5000)
    assert abs(f.value) < 1e-15
    assert abs(d.value) < 1e-15


def test_mc_agrees_with_closed_form_for_a_gate():
    angle = np.pi / 2.0
    rotation = rotation_batch(angle, [1.0, 0.0, 0.0])
    exact_f, exact_d = one_qubit_stats_batch(angle)
    bloch_map = bloch_map_from_affine(rotation, _ZERO_SHIFT)
    f, d = mc_stats(bloch_map, np.random.default_rng(22), 40000)
    assert abs(f.value - exact_f) < 5.0 * f.std_error
    assert abs(f.value - exact_f) < 0.01
    assert abs(d.value - exact_d) < 0.01


def test_optimal_map_oracle_is_flat():
    bloch_map = bloch_map_from_affine(mixture_map(*optimal_mixture()), _ZERO_SHIFT)
    f, d = mc_stats(bloch_map, np.random.default_rng(23), 20000)
    assert abs(f.value - 2.0 / 3.0) < 1e-12
    assert d.value < 1e-12
    assert f.std_error < 1e-12


def test_three_qubit_unitary_oracle_matches_closed_form():
    for child in map(np.random.default_rng, spawn_seeds(24, 5)):
        u = sample_unitary(child, 8)
        closed = three_qubit_avg_fidelity(u)
        f, _ = mc_stats(bloch_map_from_unitary(u), child, 30000)
        assert abs(f.value - closed) < 5.0 * f.std_error


def test_three_qubit_oracle_on_the_optimal_circuit():
    u = full_unitary(*optimal_three_qubit_circuit())
    bloch_map = bloch_map_from_unitary(u)
    f, d = mc_stats(bloch_map, np.random.default_rng(25), 30000)
    assert abs(f.value - 2.0 / 3.0) < 1e-12
    assert d.value < 1e-12


def test_mc_standard_error_shrinks_with_samples():
    rotation = rotation_batch(2.0, [0.0, 1.0, 0.0])
    bloch_map = bloch_map_from_affine(rotation, _ZERO_SHIFT)
    f_small, _ = mc_stats(bloch_map, np.random.default_rng(26), 2000)
    f_large, _ = mc_stats(bloch_map, np.random.default_rng(26), 32000)
    assert f_large.std_error < f_small.std_error
    assert f_small.n_samples == 2000


def test_spawn_seeds_rejects_a_seed_that_is_not_an_integer():
    # A float seed must not be truncated to the seeds of its integer part.
    for bad in (1.9, 1.0, "1"):
        with pytest.raises(TypeError):
            spawn_seeds(bad, 2)
    assert spawn_seeds(np.uint64(5), 4) == spawn_seeds(5, 4)


def test_sample_bloch_rejects_a_count_that_is_not_an_integer():
    rng = np.random.default_rng(0)
    for bad in (2.5, 2.0):
        with pytest.raises(TypeError):
            sample_bloch(rng, bad)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
    assert sample_bloch(rng, np.int64(2)).shape == (2, 3)


def test_mc_stats_rejects_a_sample_count_that_is_not_an_integer():
    ident = bloch_map_from_affine(np.eye(3), _ZERO_SHIFT)
    with pytest.raises(TypeError):
        mc_stats(ident, np.random.default_rng(0), 1000.7)
    f, _ = mc_stats(ident, np.random.default_rng(0), np.int64(1000))
    assert f.n_samples == 1000


def test_seed_must_be_unsigned():
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            spawn_seeds(bad, 2)
    assert spawn_seeds(2**64 - 1, 2) == [14031750673298188677, 15591386231082554480]


def _trig_map(u):
    """Reference Bloch action of a (2^q, 2^q) unitary on system (x) |0...0>:
    the amplitudes (cos(theta/2), exp(i phi) sin(theta/2)) from the polar
    angles, and the full 2x2 marginal from a complex contraction."""
    half = len(u) // 2
    col0, col1 = u[:, 0], u[:, half]

    def act(a):
        a = np.atleast_2d(np.asarray(a, dtype=float))
        theta = np.arccos(np.clip(a[:, 2], -1.0, 1.0))
        phi = np.arctan2(a[:, 1], a[:, 0])
        amp0 = np.cos(0.5 * theta)
        amp1 = np.exp(1.0j * phi) * np.sin(0.5 * theta)
        psi = amp0[:, None] * col0[None, :] + amp1[:, None] * col1[None, :]
        blocks = psi.reshape(-1, 2, half)
        rho = np.einsum("nsm,ntm->nst", blocks, blocks.conj())
        return np.stack(
            [
                2.0 * rho[:, 1, 0].real,
                2.0 * rho[:, 1, 0].imag,
                (rho[:, 0, 0] - rho[:, 1, 1]).real,
            ],
            axis=1,
        )

    return act


def _ring(z, count=16):
    """Unit vectors at height z; the radius is formed without cancellation."""
    phi = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    radius = np.sqrt((1.0 - z) * (1.0 + z))
    return np.stack([radius * np.cos(phi), radius * np.sin(phi), np.full(count, z)], axis=1)


# The optimal circuit and Haar 8x8 unitaries, then the unitaries of random
# ladders of one to four qubits (2x2 to 16x16).
_MAP_UNITARIES = [
    full_unitary(*optimal_three_qubit_circuit()),
    *(sample_unitary(np.random.default_rng(seed), 8) for seed in spawn_seeds(31, 4)),
    *(
        full_unitary(*(a[0] for a in sample_ladders(np.random.default_rng(q), q, 1)))
        for q in (1, 2, 3, 4)
    ),
]


@pytest.mark.parametrize(
    "points",
    [
        pytest.param(sample_bloch(np.random.default_rng(32), 5000), id="drawn"),
        pytest.param(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]), id="poles"),
        pytest.param(_ring(0.0), id="equator"),
        pytest.param(
            np.vstack([_ring(1.0 - 1e-12), _ring(-1.0 + 1e-12)]), id="near-poles"
        ),
    ],
)
def test_three_qubit_map_matches_the_trig_route(points):
    for u in _MAP_UNITARIES:
        direct = bloch_map_from_unitary(u)(points)
        assert direct.shape == points.shape
        assert np.max(np.abs(direct - _trig_map(u)(points))) < 1e-13


def test_three_qubit_map_takes_a_single_vector():
    point = np.array([0.36, -0.48, -0.8])
    for u in _MAP_UNITARIES:
        direct = bloch_map_from_unitary(u)(point)
        assert direct.shape == (1, 3)
        assert np.max(np.abs(direct - _trig_map(u)(point))) < 1e-13


def test_three_qubit_map_rejects_other_shapes():
    # Only square matrices of a power-of-two size from 2 up are unitaries of
    # a system qubit and its ancillas.
    for shape in [(8, 4), (4, 8), (1, 1), (6, 6), (8,)]:
        with pytest.raises(ValueError):
            bloch_map_from_unitary(np.ones(shape))


def test_mc_standard_errors_follow_the_moment_formulas():
    u = sample_unitary(np.random.default_rng(33), 8)
    bloch_map = bloch_map_from_unitary(u)
    n = 20_000
    f_est, d_est = mc_stats(bloch_map, np.random.default_rng(34), n)
    a = sample_bloch(np.random.default_rng(34), n)
    f = 0.5 * (1.0 - np.sum(a * bloch_map(a), axis=1))
    centered = f - f.mean()
    m2 = np.mean(centered**2)
    m4 = np.mean(centered**4)
    std = np.sqrt(m2)
    assert f_est.std_error == pytest.approx(std / np.sqrt(n), rel=1e-12)
    se_std = np.sqrt((m4 - m2 * m2) / n) / (2.0 * std)
    assert d_est.std_error == pytest.approx(se_std, rel=1e-12)


def test_mc_stats_checks_sample_count_and_map_shape():
    ident = bloch_map_from_affine(np.eye(3), _ZERO_SHIFT)
    with pytest.raises(ValueError):
        mc_stats(ident, np.random.default_rng(35), 1)
    # One output row for all inputs would broadcast silently without the check.
    with pytest.raises(ValueError):
        mc_stats(lambda a: a[:1], np.random.default_rng(35), 100)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mc_stats_rejects_non_finite_map_output(bad):
    # Only the last, short block is corrupted: every block is checked.
    def bad_tail(a):
        out = a.copy()
        if len(a) < _BLOCK_ROWS:
            out[-1, 1] = bad
        return out

    with pytest.raises(RuntimeError, match="non-finite"):
        mc_stats(bad_tail, np.random.default_rng(36), _BLOCK_ROWS + 5)


# Sample counts at and around 1 and 4 whole blocks, around two thirds into
# the first block and the third, 7 rows past 2, 3, 8 and 12 blocks, and the
# command line's default.
@pytest.mark.parametrize(
    "n",
    [2, 1000]
    + [k * _BLOCK_ROWS + j for k in (1, 4) for j in (-1, 0, 1)]
    + [k * _BLOCK_ROWS // 3 + j for k in (2, 8) for j in (-1, 0, 1)]
    + [k * _BLOCK_ROWS + 7 for k in (2, 3, 8, 12)]
    + [100_000],
)
@pytest.mark.parametrize("kind", ["three-qubit", "affine"])
def test_blocks_give_the_bits_of_one_draw(kind, n):
    if kind == "three-qubit":
        u = sample_unitary(np.random.default_rng(37), 8)
        bloch_map = bloch_map_from_unitary(u)
    else:
        u = sample_unitary(np.random.default_rng(37), 4)
        bloch_map = bloch_map_from_affine(*_stinespring_channel(u, 0.8))
    streamed, one_draw = np.random.default_rng(38), np.random.default_rng(38)
    assert mc_stats(bloch_map, streamed, n) == mc_stats_one_draw(bloch_map, one_draw, n)
    assert streamed.bit_generator.state == one_draw.bit_generator.state


def test_a_map_call_leaves_earlier_results_unchanged():
    # `circuit-map-equivalence` maps n and then -n with one map, and keeps
    # both results.
    act = bloch_map_from_unitary(sample_unitary(np.random.default_rng(41), 16))
    a = sample_bloch(np.random.default_rng(42), 10)
    first = act(a)
    kept = first.copy()
    second = act(-a)
    assert np.array_equal(first, kept)
    assert not np.array_equal(first, second)


def test_a_larger_block_gives_the_bits_of_a_fresh_map():
    u = sample_unitary(np.random.default_rng(43), 8)
    small = sample_bloch(np.random.default_rng(44), 10)
    large = sample_bloch(np.random.default_rng(45), _BLOCK_ROWS + 7)
    act = bloch_map_from_unitary(u)
    act(small)
    assert np.array_equal(act(large), bloch_map_from_unitary(u)(large))
    assert np.array_equal(act(small), bloch_map_from_unitary(u)(small))


def test_mc_stats_peak_memory_stays_below_64_bytes_per_sample():
    # The one-draw form peaks at about 272 bytes per sample on this map.
    u = sample_unitary(np.random.default_rng(39), 8)
    bloch_map = bloch_map_from_unitary(u)
    n = 200_000
    tracemalloc.start()
    try:
        mc_stats(bloch_map, np.random.default_rng(40), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * n


def _stinespring_channel(u, damping):
    """Affine parts (linear, shift) of the channel of a 4x4 unitary on system (x) |0>, followed by a
    depolarizing shrink of the Bloch ball by `damping`."""
    kraus = [u[[j, 2 + j]][:, [0, 2]] for j in range(2)]
    paulis = [
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[0.0, -1.0j], [1.0j, 0.0]]),
        np.array([[1.0, 0.0], [0.0, -1.0]]),
    ]

    def image(rho):
        out = sum(k @ rho @ k.conj().T for k in kraus)
        return np.array([np.trace(p @ out).real for p in paulis])

    shift = 0.5 * image(np.eye(2))
    linear = np.stack([0.5 * image(p) for p in paulis], axis=1)
    return damping * linear, damping * shift


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32),
    damping=st.floats(0.0, 1.0),
    samples=st.integers(1000, 20_000),
)
def test_affine_closed_form_within_five_sigma_of_the_oracle(seed, damping, samples):
    u = sample_unitary(np.random.default_rng(seed), 4)
    linear, shift = _stinespring_channel(u, damping)
    exact_f, exact_d = affine_stats_batch(linear[None], shift[None])
    bloch_map = bloch_map_from_affine(linear, shift)
    f, d = mc_stats(bloch_map, np.random.default_rng(seed + 1), samples)
    # The floor covers channels with a flat fidelity, whose standard errors are 0.
    assert abs(f.value - exact_f[0]) <= 5.0 * f.std_error + 1e-12
    assert abs(d.value - exact_d[0]) <= 5.0 * d.std_error + 1e-12


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32), samples=st.integers(1000, 20_000))
def test_three_qubit_closed_form_within_five_sigma_of_the_oracle(seed, samples):
    u = sample_unitary(np.random.default_rng(seed), 8)
    bloch_map = bloch_map_from_unitary(u)
    f, _ = mc_stats(bloch_map, np.random.default_rng(seed + 1), samples)
    assert abs(f.value - three_qubit_avg_fidelity(u)) <= 5.0 * f.std_error
