"""Tests for average fidelity and fidelity deviation closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from ladder_strategies import ladder_circuits

from unot.circuit import (
    StochasticMap,
    optimal_stochastic_map,
    stochastic_map_from_circuit,
)
from unot.fidelity import (
    DEVIATION_SLOPE,
    MAX_AVG_FIDELITY,
    AffineBlochChannel,
    FidelityStats,
    affine_channel_stats,
    affine_stats_batch,
    one_qubit_stats,
    one_qubit_stats_batch,
    pair_covariance,
    pair_covariance_batch,
    pointwise_fidelity,
    region_membership,
    region_residual,
    stochastic_map_stats,
    three_qubit_avg_fidelity,
)
from unot.oracle import SeededSampler, sample_bloch, sample_gates, sample_unitary
from unot.rotation import OneQubitGate, rotation_from_gate, unit_axis

_X = unit_axis(1.0, 0.0, 0.0)
_Y = unit_axis(0.0, 1.0, 0.0)
_Z = unit_axis(0.0, 0.0, 1.0)

_FLIP_X = OneQubitGate(np.pi, _X)
_FLIP_Y = OneQubitGate(np.pi, _Y)
_FLIP_Z = OneQubitGate(np.pi, _Z)


def test_full_flip_reaches_the_one_qubit_optimum():
    stats = one_qubit_stats(_FLIP_X)
    assert abs(stats.avg_fidelity - 2.0 / 3.0) < 1e-15
    assert abs(stats.deviation - 0.29814239699997197) < 1e-15


def test_avg_fidelity_follows_one_minus_cosine_law():
    for angle in np.linspace(0.0, 2.0 * np.pi, 41):
        stats = one_qubit_stats(OneQubitGate(angle, _Y))
        assert abs(stats.avg_fidelity - (1.0 - np.cos(angle)) / 3.0) < 1e-12
        assert abs(stats.deviation - stats.avg_fidelity * DEVIATION_SLOPE) < 1e-12


def test_pointwise_fidelity_batch_matches_scalar():
    gate = OneQubitGate(1.3, _Z)
    r = rotation_from_gate(gate)
    points = sample_bloch(SeededSampler(9), 50)
    batch = pointwise_fidelity(r, points)
    for a, f in zip(points, batch):
        assert abs(f - (1.0 - a @ r @ a) / 2.0) < 1e-15


def test_second_moment_of_full_flip_quadratic_form():
    # The sphere average of (a . R a)^2 is 7/15 for the pi flip R, and
    # Delta^2 = [<(a . R a)^2> - <a . R a>^2] / 4 with <a . R a> = -1/3.
    channel = AffineBlochChannel(rotation_from_gate(_FLIP_X), np.zeros(3))
    stats = affine_channel_stats(channel)
    assert abs(stats.deviation**2 - (7.0 / 15.0 - 1.0 / 9.0) / 4.0) < 1e-15


def test_second_moment_against_direct_haar_average():
    sampler = SeededSampler(41)
    points = sample_bloch(sampler, 1_000_000)
    r = rotation_from_gate(_FLIP_X)
    quad = np.einsum("ni,ij,nj->n", points, r, points)
    assert abs((quad**2).mean() - 7.0 / 15.0) < 2e-3
    assert abs(quad.mean() + 1.0 / 3.0) < 2e-3


def test_pair_covariance_frozen_values():
    assert abs(pair_covariance(_FLIP_X, _FLIP_Y) - (-2.0 / 45.0)) < 1e-15
    assert abs(pair_covariance(_FLIP_X, _FLIP_X) - 4.0 / 45.0) < 1e-15
    tilted = OneQubitGate(np.pi, unit_axis(1.0, 1.0, 0.0))
    expected = (3.0 * 0.5 - 1.0) * 4.0 / 90.0
    assert abs(pair_covariance(_FLIP_X, tilted) - expected) < 1e-15


def test_covariance_diagonal_is_squared_deviation():
    rng = np.random.default_rng(7)
    for _ in range(50):
        axis = rng.normal(size=3)
        gate = OneQubitGate(rng.uniform(0, 2 * np.pi), axis / np.linalg.norm(axis))
        dev = one_qubit_stats(gate).deviation
        assert abs(pair_covariance(gate, gate) - dev * dev) < 1e-14


@pytest.mark.parametrize("angle", [1.89e-3, 1e-4, 1e-6])
def test_near_identity_gates_keep_full_relative_precision(angle):
    # 1 - cos t by its Taylor series; the next term, t^8 / 40320, is below
    # 1e-16 relative at these angles.
    versine = angle**2 / 2.0 - angle**4 / 24.0 + angle**6 / 720.0
    gate = OneQubitGate(angle, _Z)
    assert abs(one_qubit_stats(gate).avg_fidelity / (versine / 3.0) - 1.0) < 1e-15
    assert abs(pair_covariance(gate, gate) / (versine * versine / 45.0) - 1.0) < 1e-15


def test_batch_closed_forms_equal_single_gate_calls():
    angles, axes = sample_gates(SeededSampler(27), 400)
    gates = [OneQubitGate(a, x) for a, x in zip(angles, axes)]
    f, d = one_qubit_stats_batch(angles)
    single = [one_qubit_stats(g) for g in gates]
    assert np.array_equal(f, [st.avg_fidelity for st in single])
    assert np.array_equal(d, [st.deviation for st in single])
    cov = pair_covariance_batch((angles[::2], axes[::2]), (angles[1::2], axes[1::2]))
    pairs = zip(gates[::2], gates[1::2])
    assert np.array_equal(cov, [pair_covariance(g, h) for g, h in pairs])


def test_two_flip_mixture_frozen_stats():
    smap = StochasticMap(np.array([0.5, 0.5]), (_FLIP_X, _FLIP_Y))
    stats = stochastic_map_stats(smap)
    assert abs(stats.avg_fidelity - 2.0 / 3.0) < 1e-15
    assert abs(stats.deviation - 0.14907119849998599) < 1e-14


def test_optimal_mixture_is_exactly_universal():
    stats = stochastic_map_stats(optimal_stochastic_map())
    assert stats.avg_fidelity == MAX_AVG_FIDELITY
    assert stats.deviation == 0.0


def _pairwise_stats(smap: StochasticMap) -> tuple[float, float]:
    """The paper's pairwise route: F = sum_k w_k F_k and Delta^2 = w . C . w."""
    w = smap.weights
    cov = np.array([[pair_covariance(g, h) for h in smap.gates] for g in smap.gates])
    f_each = np.array([one_qubit_stats(g).avg_fidelity for g in smap.gates])
    return float(w @ f_each), float(w @ cov @ w)


def test_affine_route_agrees_with_mixture_route():
    rng = np.random.default_rng(19)
    for _ in range(30):
        axes = rng.normal(size=(3, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        gates = tuple(
            OneQubitGate(rng.uniform(0, 2 * np.pi), axis) for axis in axes
        )
        w = rng.uniform(0.2, 1.0, 3)
        smap = StochasticMap(w / w.sum(), gates)
        channel = AffineBlochChannel(smap.bloch_linear(), np.zeros(3))
        avg_f, var = _pairwise_stats(smap)
        b = affine_channel_stats(channel)
        assert abs(avg_f - b.avg_fidelity) < 1e-12
        assert abs(np.sqrt(var) - b.deviation) < 1e-12


def test_affine_stats_with_shift_term():
    channel = AffineBlochChannel(np.zeros((3, 3)), np.array([0.0, 0.0, 0.5]))
    stats = affine_channel_stats(channel)
    assert abs(stats.avg_fidelity - 0.5) < 1e-15
    assert abs(stats.deviation - np.sqrt(0.25 / 12.0)) < 1e-15


def test_nan_channel_is_rejected():
    with pytest.raises(ValueError):
        AffineBlochChannel(np.eye(3) * np.nan, np.zeros(3))
    with pytest.raises(RuntimeError):
        affine_stats_batch(np.full((1, 3, 3), np.nan), np.zeros((1, 3)))


def test_affine_batch_rejects_rows_outside_the_stats_range():
    good_linear = -np.eye(3)[None]
    good_shift = np.zeros((1, 3))
    # Tr M = -6 gives F = 3/2; a shift of length 3 gives Delta = sqrt(3)/2.
    too_faithful = np.concatenate([good_linear, -2.0 * np.eye(3)[None]])
    too_spread = np.concatenate([good_shift, [[0.0, 0.0, 3.0]]])
    with pytest.raises(RuntimeError):
        affine_stats_batch(too_faithful, np.zeros((2, 3)))
    with pytest.raises(RuntimeError):
        affine_stats_batch(np.zeros((2, 3, 3)), too_spread)
    with pytest.raises(RuntimeError):
        affine_channel_stats(AffineBlochChannel(np.zeros((3, 3)), [0.0, 0.0, 3.0]))


def test_three_qubit_ceiling_markers():
    assert three_qubit_avg_fidelity(np.eye(8, dtype=complex)) == 0.0
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    u = np.kron(sx, np.eye(4, dtype=complex))
    assert abs(three_qubit_avg_fidelity(u) - 2.0 / 3.0) < 1e-15


def test_generic_two_qubit_channels_obey_floor_and_ceiling_only():
    """Tracing a Haar 4x4 unitary over one ancilla qubit gives channels
    that respect the deviation floor and the 2/3 fidelity ceiling, but a
    sizable fraction exceeds the unitary-mixture line.  That line is a
    property of stochastic maps, which is why region checks apply to
    ladder reductions rather than to arbitrary channels."""
    from unot.rotation import PAULI

    sig = np.stack(PAULI)
    sampler = SeededSampler(777)
    above_line = 0
    for _ in range(300):
        u = sample_unitary(sampler, 4)
        kraus = np.transpose(u.reshape(2, 2, 2, 2)[:, :, :, 0], (1, 0, 2))
        sandwich = np.einsum("mab,jbc,mdc->jad", kraus, sig, kraus.conj())
        linear = 0.5 * np.einsum("iab,jba->ij", sig, sandwich).real
        resid = np.einsum("mab,mcb->ac", kraus, kraus.conj())
        shift = 0.5 * np.einsum("iab,ba->i", sig, resid).real
        stats = affine_channel_stats(AffineBlochChannel(linear, shift))
        assert stats.avg_fidelity <= 2.0 / 3.0 + 1e-9
        assert stats.deviation >= 0.5 * stats.avg_fidelity * DEVIATION_SLOPE - 1e-9
        if stats.deviation > stats.avg_fidelity * DEVIATION_SLOPE + 1e-9:
            above_line += 1
    assert above_line > 0


def test_stats_validation_rejects_out_of_range():
    with pytest.raises(ValueError):
        FidelityStats(-0.1, 0.0)
    with pytest.raises(ValueError):
        FidelityStats(0.5, -0.1)


def test_region_membership_by_qubit_count():
    line_point = FidelityStats(0.4, 0.4 * DEVIATION_SLOPE)
    assert region_membership(line_point, 1)
    off_line = FidelityStats(0.4, 0.1)
    assert not region_membership(off_line, 1)
    assert region_membership(FidelityStats(0.4, 0.3 * DEVIATION_SLOPE), 2)
    assert not region_membership(FidelityStats(0.4, 0.0), 2)
    assert region_membership(FidelityStats(0.4, 0.0), 3)
    assert not region_membership(FidelityStats(0.8, 0.1), 3)
    for qubit_count, inside in (
        (1, (0.4, 0.4 * DEVIATION_SLOPE)),
        (2, (0.4, 0.3 * DEVIATION_SLOPE)),
        (3, (0.4, 0.0)),
        (4, (0.4, 0.2 * DEVIATION_SLOPE)),
    ):
        assert region_residual(*inside, qubit_count) == 0.0
    assert abs(region_residual(0.4, 0.1, 1) - (0.4 * DEVIATION_SLOPE - 0.1)) < 1e-15
    assert abs(region_residual(0.4, 0.0, 2) - 0.2 * DEVIATION_SLOPE) < 1e-15
    assert abs(region_residual(0.8, 0.1, 3) - (0.8 - 2.0 / 3.0)) < 1e-15
    with pytest.raises(ValueError):
        region_residual(0.4, 0.4 * DEVIATION_SLOPE, 0)


def _row_region_residual(f: float, d: float, qubit_count: int) -> float:
    # The per-row rule the array form replaced, kept as its reference.
    upper = f * DEVIATION_SLOPE
    out = max(0.0, -f, f - MAX_AVG_FIDELITY)
    if qubit_count == 1:
        return max(out, abs(d - upper))
    if qubit_count == 2:
        return max(out, 0.5 * upper - d, d - upper)
    return max(out, -d, d - upper)


def _assert_bitwise_row_rule(f, d, counts):
    got = region_residual(f, d, counts)
    rows = zip(f.tolist(), d.tolist(), np.broadcast_to(counts, f.shape).tolist())
    want = np.array([_row_region_residual(*row) for row in rows])
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_array_region_rule_is_bitwise_the_row_rule():
    rng = np.random.default_rng(11)
    n = 20_000
    f = rng.uniform(-0.1, 0.8, n)
    # Half the points anywhere, half scattered around the band F/(2 sqrt 5)..F/sqrt 5.
    d = np.where(
        rng.random(n) < 0.5,
        rng.uniform(-0.1, 0.6, n),
        f * DEVIATION_SLOPE * rng.uniform(0.3, 1.2, n),
    )
    f[:4], d[:4] = [0.0, -0.0, 0.0, MAX_AVG_FIDELITY], [0.0, -0.0, -0.0, 0.0]
    for qubit_count in (1, 2, 3, 4):
        _assert_bitwise_row_rule(f, d, qubit_count)
    _assert_bitwise_row_rule(f, d, rng.integers(1, 5, n))
    # The boundary points of test_region_membership_by_qubit_count.
    s = DEVIATION_SLOPE
    f, d, counts = np.array(
        [
            (0.4, 0.4 * s, 1),
            (0.4, 0.1, 1),
            (0.4, 0.3 * s, 2),
            (0.4, 0.0, 2),
            (0.4, 0.0, 3),
            (0.8, 0.1, 3),
            (0.4, 0.2 * s, 4),
        ]
    ).T
    _assert_bitwise_row_rule(f, d, counts.astype(int))


def test_array_region_rule_rejects_any_count_below_one():
    with pytest.raises(ValueError):
        region_residual(np.full(3, 0.4), np.zeros(3), np.array([1, 0, 3]))


@settings(deadline=None)
@given(circuit=ladder_circuits())
def test_covariance_and_moment_routes_agree(circuit):
    smap = stochastic_map_from_circuit(circuit)
    avg_f, var = _pairwise_stats(smap)
    channel = AffineBlochChannel(smap.bloch_linear(), np.zeros(3))
    by_moments = affine_channel_stats(channel)
    assert abs(avg_f - by_moments.avg_fidelity) < 1e-12
    # Delta^2, not Delta: the square root amplifies rounding near Delta = 0.
    assert abs(var - by_moments.deviation**2) < 1e-12
