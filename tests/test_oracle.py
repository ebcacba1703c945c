"""Tests for the seeded Monte Carlo oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unot.circuit import optimal_stochastic_map, optimal_three_qubit_circuit, full_unitary
from unot.fidelity import (
    AffineBlochChannel,
    affine_channel_stats,
    one_qubit_stats,
    three_qubit_avg_fidelity,
)
from unot.oracle import (
    RNG_ALGORITHM,
    McEstimate,
    SeededSampler,
    bloch_map_from_affine,
    bloch_map_from_three_qubit_unitary,
    mc_stats,
    sample_bloch,
    sample_gate,
    sample_gates,
    sample_ladder_circuit,
    sample_ladders,
    sample_unitary,
)
from unot.rotation import OneQubitGate, rotation_from_gate, unit_axis


def test_rng_algorithm_label():
    assert RNG_ALGORITHM == "numpy-pcg64/de-v2"


def test_sampler_is_reproducible():
    a = SeededSampler(99).standard_normal((4, 4))
    b = SeededSampler(99).standard_normal((4, 4))
    assert np.array_equal(a, b)


def test_sampler_position_counts_scalar_draws():
    sampler = SeededSampler(1)
    assert sampler.position == 0
    sampler.uniform(0.0, 1.0, 10)
    assert sampler.position == 10
    sampler.standard_normal((2, 3))
    assert sampler.position == 16


def test_split_children_are_deterministic_and_distinct():
    first = [child.seed for child in SeededSampler(5).split(4)]
    second = [child.seed for child in SeededSampler(5).split(4)]
    assert first == second
    assert len(set(first)) == 4
    parent_draw = SeededSampler(5).uniform(0.0, 1.0, 3)
    child_draw = SeededSampler(first[0]).uniform(0.0, 1.0, 3)
    assert not np.allclose(parent_draw, child_draw)


def test_pick_distinct_values():
    sampler = SeededSampler(2)
    for _ in range(100):
        picks = sampler.pick_distinct(9, 3)
        assert len(set(picks.tolist())) == 3
        assert picks.min() >= 0 and picks.max() < 9


def test_pick_distinct_consumes_one_key_per_pool_member():
    sampler = SeededSampler(6)
    picks = sampler.pick_distinct(9, 3, (10,))
    assert picks.shape == (10, 3)
    assert sampler.position == 10 * 9
    sampler.pick_distinct(9, 3)
    assert sampler.position == 10 * 9 + 9
    sampler.pick_distinct(5, 2, (2, 3))
    assert sampler.position == 10 * 9 + 9 + 2 * 3 * 5


def test_pick_distinct_slots_are_uniform():
    rows = 20_000
    picks = SeededSampler(7).pick_distinct(9, 3, (rows,))
    p = 1.0 / 9.0
    band = 5.0 * np.sqrt(rows * p * (1.0 - p))
    for slot in range(3):
        counts = np.bincount(picks[:, slot], minlength=9)
        assert np.all(np.abs(counts - rows * p) <= band)
    assert np.all(np.sort(picks, axis=1)[:, 1:] != np.sort(picks, axis=1)[:, :-1])


def test_bloch_samples_sit_on_the_sphere():
    points = sample_bloch(SeededSampler(3), 2000)
    norms = np.linalg.norm(points, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert np.max(np.abs(points.mean(axis=0))) < 0.05


def test_haar_unitaries_are_unitary():
    sampler = SeededSampler(4)
    for dim in (2, 4, 8):
        u = sample_unitary(sampler, dim)
        assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < 1e-12


def test_haar_spectrum_has_no_phase_preference():
    sampler = SeededSampler(14)
    phases = []
    for _ in range(300):
        phases.extend(np.angle(np.linalg.eigvals(sample_unitary(sampler, 4))))
    assert abs(np.mean(np.cos(phases))) < 0.05
    assert abs(np.mean(np.sin(phases))) < 0.05


def test_sample_gate_ranges():
    sampler = SeededSampler(6)
    for _ in range(50):
        gate = sample_gate(sampler)
        assert 0.0 <= gate.angle < 2.0 * np.pi
        assert abs(np.linalg.norm(gate.axis) - 1.0) < 1e-12


def test_sample_ladder_circuit_shapes():
    sampler = SeededSampler(7)
    circuit = sample_ladder_circuit(sampler, 4)
    assert circuit.qubit_count == 4
    assert len(circuit.gates) == 4
    preps = np.asarray(circuit.prep_params)
    assert np.all((preps >= 0.0) & (preps <= 1.0))


def test_sample_gates_draw_one_gate_at_a_time():
    # The stream of one gate: its angle, then the Gaussian triple of its axis.
    reference = SeededSampler(21)
    expected = []
    for _ in range(50):
        angle = reference.uniform(0.0, 2.0 * np.pi, 1)[0]
        triple = reference.standard_normal((1, 3))
        expected.append((angle, triple[0] / np.linalg.norm(triple, axis=1)[0]))
    sampler = SeededSampler(21)
    angles, axes = sample_gates(sampler, 50)
    assert np.array_equal(angles, [a for a, _ in expected])
    assert np.array_equal(axes, np.array([x for _, x in expected]))
    assert sampler.position == reference.position == 200


def test_sample_gates_equal_single_gate_draws():
    batch, single = SeededSampler(8), SeededSampler(8)
    angles, axes = sample_gates(batch, 300)
    gates = [sample_gate(single) for _ in range(300)]
    assert np.array_equal(angles, [g.angle for g in gates])
    assert np.array_equal(axes, np.array([g.axis for g in gates]))
    assert batch.position == single.position
    assert np.array_equal(batch.random(4), single.random(4))


@pytest.mark.parametrize("qubit_count", [1, 2, 3, 4])
def test_sample_ladders_equal_single_circuit_draws(qubit_count):
    batch, single = SeededSampler(13), SeededSampler(13)
    preps, angles, axes = sample_ladders(batch, qubit_count, 40)
    circuits = [sample_ladder_circuit(single, qubit_count) for _ in range(40)]
    assert preps.shape == (40, qubit_count - 1)
    assert np.array_equal(preps.reshape(40, -1), [c.prep_params for c in circuits])
    assert np.array_equal(angles, [[g.angle for g in c.gates] for c in circuits])
    assert np.array_equal(axes, np.array([[g.axis for g in c.gates] for c in circuits]))
    assert batch.position == single.position


def test_batch_draws_reject_bad_counts():
    sampler = SeededSampler(0)
    with pytest.raises(ValueError):
        sample_gates(sampler, 0)
    with pytest.raises(ValueError):
        sample_ladders(sampler, 0, 3)
    with pytest.raises(ValueError):
        sample_ladders(sampler, 2, 0)
    assert sampler.position == 0


def test_mc_estimate_fields():
    est = McEstimate(0.5, 0.01, 100)
    assert est.value == 0.5
    with pytest.raises(ValueError):
        McEstimate(0.5, -0.01, 100)


def test_identity_channel_statistics_vanish():
    ident = bloch_map_from_affine(AffineBlochChannel(np.eye(3), np.zeros(3)))
    f, d = mc_stats(ident, SeededSampler(21), 5000)
    assert abs(f.value) < 1e-15
    assert abs(d.value) < 1e-15


def test_mc_agrees_with_closed_form_for_a_gate():
    gate = OneQubitGate(np.pi / 2.0, unit_axis(1.0, 0.0, 0.0))
    rotation = rotation_from_gate(gate)
    exact = one_qubit_stats(gate)
    f, d = mc_stats(
        bloch_map_from_affine(AffineBlochChannel(rotation, np.zeros(3))),
        SeededSampler(22),
        40000,
    )
    assert abs(f.value - exact.avg_fidelity) < 5.0 * f.std_error
    assert abs(f.value - exact.avg_fidelity) < 0.01
    assert abs(d.value - exact.deviation) < 0.01


def test_optimal_map_oracle_is_flat():
    linear = optimal_stochastic_map().bloch_linear()
    bloch_map = bloch_map_from_affine(AffineBlochChannel(linear, np.zeros(3)))
    f, d = mc_stats(bloch_map, SeededSampler(23), 20000)
    assert abs(f.value - 2.0 / 3.0) < 1e-12
    assert d.value < 1e-12
    assert f.std_error < 1e-12


def test_three_qubit_unitary_oracle_matches_closed_form():
    sampler = SeededSampler(24)
    for child in sampler.split(5):
        u = sample_unitary(child, 8)
        closed = three_qubit_avg_fidelity(u)
        f, _ = mc_stats(bloch_map_from_three_qubit_unitary(u), child, 30000)
        assert abs(f.value - closed) < 5.0 * f.std_error


def test_three_qubit_oracle_on_the_optimal_circuit():
    u = full_unitary(optimal_three_qubit_circuit())
    f, d = mc_stats(bloch_map_from_three_qubit_unitary(u), SeededSampler(25), 30000)
    assert abs(f.value - 2.0 / 3.0) < 1e-12
    assert d.value < 1e-12


def test_mc_standard_error_shrinks_with_samples():
    gate = OneQubitGate(2.0, unit_axis(0.0, 1.0, 0.0))
    bloch_map = bloch_map_from_affine(AffineBlochChannel(rotation_from_gate(gate), np.zeros(3)))
    f_small, _ = mc_stats(bloch_map, SeededSampler(26), 2000)
    f_large, _ = mc_stats(bloch_map, SeededSampler(26), 32000)
    assert f_large.std_error < f_small.std_error
    assert f_small.n_samples == 2000


def test_seed_must_be_unsigned():
    with pytest.raises(ValueError):
        SeededSampler(-1)


def _trig_map(u):
    """Reference Bloch action of an 8x8 unitary on system (x) |00>: the
    amplitudes (cos(theta/2), exp(i phi) sin(theta/2)) from the polar angles,
    and the full 2x2 marginal from a complex contraction."""
    col0, col4 = u[:, 0], u[:, 4]

    def act(a):
        a = np.atleast_2d(np.asarray(a, dtype=float))
        theta = np.arccos(np.clip(a[:, 2], -1.0, 1.0))
        phi = np.arctan2(a[:, 1], a[:, 0])
        amp0 = np.cos(0.5 * theta)
        amp1 = np.exp(1.0j * phi) * np.sin(0.5 * theta)
        psi = amp0[:, None] * col0[None, :] + amp1[:, None] * col4[None, :]
        blocks = psi.reshape(-1, 2, 4)
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


_MAP_UNITARIES = [
    full_unitary(optimal_three_qubit_circuit()),
    *(sample_unitary(child, 8) for child in SeededSampler(31).split(4)),
]


@pytest.mark.parametrize(
    "points",
    [
        pytest.param(sample_bloch(SeededSampler(32), 5000), id="drawn"),
        pytest.param(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]), id="poles"),
        pytest.param(_ring(0.0), id="equator"),
        pytest.param(
            np.vstack([_ring(1.0 - 1e-12), _ring(-1.0 + 1e-12)]), id="near-poles"
        ),
    ],
)
def test_three_qubit_map_matches_the_trig_route(points):
    for u in _MAP_UNITARIES:
        direct = bloch_map_from_three_qubit_unitary(u)(points)
        assert direct.shape == points.shape
        assert np.max(np.abs(direct - _trig_map(u)(points))) < 1e-13


def test_three_qubit_map_takes_a_single_vector():
    point = np.array([0.36, -0.48, -0.8])
    for u in _MAP_UNITARIES:
        direct = bloch_map_from_three_qubit_unitary(u)(point)
        assert direct.shape == (1, 3)
        assert np.max(np.abs(direct - _trig_map(u)(point))) < 1e-13


def test_three_qubit_map_rejects_other_shapes():
    with pytest.raises(ValueError):
        bloch_map_from_three_qubit_unitary(np.eye(4))


def test_mc_standard_errors_follow_the_moment_formulas():
    u = sample_unitary(SeededSampler(33), 8)
    bloch_map = bloch_map_from_three_qubit_unitary(u)
    n = 20_000
    f_est, d_est = mc_stats(bloch_map, SeededSampler(34), n)
    a = sample_bloch(SeededSampler(34), n)
    f = 0.5 * (1.0 - np.sum(a * bloch_map(a), axis=1))
    centered = f - f.mean()
    m2 = np.mean(centered**2)
    m4 = np.mean(centered**4)
    std = np.sqrt(m2)
    assert f_est.std_error == pytest.approx(std / np.sqrt(n), rel=1e-12)
    se_std = np.sqrt((m4 - m2 * m2) / n) / (2.0 * std)
    assert d_est.std_error == pytest.approx(se_std, rel=1e-12)


def test_mc_stats_checks_sample_count_and_map_shape():
    ident = bloch_map_from_affine(AffineBlochChannel(np.eye(3), np.zeros(3)))
    with pytest.raises(ValueError):
        mc_stats(ident, SeededSampler(35), 1)
    # One output row for all inputs would broadcast silently without the check.
    with pytest.raises(ValueError):
        mc_stats(lambda a: a[:1], SeededSampler(35), 100)


def _stinespring_channel(u, damping):
    """Affine channel of a 4x4 unitary on system (x) |0>, followed by a
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
    return AffineBlochChannel(damping * linear, damping * shift)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32),
    damping=st.floats(0.0, 1.0),
    samples=st.integers(1000, 20_000),
)
def test_affine_closed_form_within_five_sigma_of_the_oracle(seed, damping, samples):
    u = sample_unitary(SeededSampler(seed), 4)
    channel = _stinespring_channel(u, damping)
    exact = affine_channel_stats(channel)
    f, d = mc_stats(bloch_map_from_affine(channel), SeededSampler(seed + 1), samples)
    # The floor covers channels with a flat fidelity, whose standard errors are 0.
    assert abs(f.value - exact.avg_fidelity) <= 5.0 * f.std_error + 1e-12
    assert abs(d.value - exact.deviation) <= 5.0 * d.std_error + 1e-12


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32), samples=st.integers(1000, 20_000))
def test_three_qubit_closed_form_within_five_sigma_of_the_oracle(seed, samples):
    u = sample_unitary(SeededSampler(seed), 8)
    bloch_map = bloch_map_from_three_qubit_unitary(u)
    f, _ = mc_stats(bloch_map, SeededSampler(seed + 1), samples)
    assert abs(f.value - three_qubit_avg_fidelity(u)) <= 5.0 * f.std_error
