"""Tests for average fidelity and fidelity deviation closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from ladder_strategies import ladder_circuits
from references import (
    linear_stats,
    mixture_map,
    optimal_mixture,
    stochastic_map_from_circuit,
    three_qubit_avg_fidelity,
)

from unot.fidelity import (
    DEVIATION_SLOPE,
    MAX_AVG_FIDELITY,
    REGION_TOL,
    affine_stats_batch,
    one_qubit_stats_batch,
    pair_covariance_batch,
    region_residual,
)
from unot.oracle import sample_bloch, sample_gates, sample_unitary
from unot.rotation import PAULI, rotation_batch

_X, _Y, _Z = np.eye(3)

# Gates as (angle, axis) pairs.
_FLIP_X = (np.pi, _X)
_FLIP_Y = (np.pi, _Y)


def _one_qubit_stats(angle):
    # The one-row call of the batch, as floats.
    avg_f, dev = one_qubit_stats_batch(np.array([angle]))
    return float(avg_f[0]), float(dev[0])


def _affine_stats(linear, shift):
    # The one-row call of the batch, as floats.
    avg_f, dev = affine_stats_batch(np.asarray(linear)[None], np.asarray(shift)[None])
    return float(avg_f[0]), float(dev[0])


def test_full_flip_reaches_the_one_qubit_optimum():
    avg_f, dev = _one_qubit_stats(np.pi)
    assert abs(avg_f - 2.0 / 3.0) < 1e-15
    assert abs(dev - 0.29814239699997197) < 1e-15


def test_avg_fidelity_follows_one_minus_cosine_law():
    for angle in np.linspace(0.0, 2.0 * np.pi, 41):
        avg_f, dev = _one_qubit_stats(angle)
        assert abs(avg_f - (1.0 - np.cos(angle)) / 3.0) < 1e-12
        assert abs(dev - avg_f * DEVIATION_SLOPE) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_one_qubit_stats_reject_a_non_finite_angle(bad):
    with pytest.raises(ValueError):
        one_qubit_stats_batch(np.array([0.5, bad]))
    with pytest.raises(ValueError):
        one_qubit_stats_batch(bad)


def test_second_moment_of_full_flip_quadratic_form():
    # The sphere average of (a . R a)^2 is 7/15 for the pi flip R, and
    # Delta^2 = [<(a . R a)^2> - <a . R a>^2] / 4 with <a . R a> = -1/3.
    _, dev = linear_stats(rotation_batch(*_FLIP_X))
    assert abs(dev**2 - (7.0 / 15.0 - 1.0 / 9.0) / 4.0) < 1e-15


def test_second_moment_against_direct_haar_average():
    rng = np.random.default_rng(41)
    points = sample_bloch(rng, 1_000_000)
    r = rotation_batch(np.pi, _X)
    quad = np.einsum("ni,ij,nj->n", points, r, points)
    assert abs((quad**2).mean() - 7.0 / 15.0) < 2e-3
    assert abs(quad.mean() + 1.0 / 3.0) < 2e-3


def test_pair_covariance_frozen_values():
    assert abs(pair_covariance_batch(_FLIP_X, _FLIP_Y) - (-2.0 / 45.0)) < 1e-15
    assert abs(pair_covariance_batch(_FLIP_X, _FLIP_X) - 4.0 / 45.0) < 1e-15
    tilted = (np.pi, np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
    expected = (3.0 * 0.5 - 1.0) * 4.0 / 90.0
    assert abs(pair_covariance_batch(_FLIP_X, tilted) - expected) < 1e-15


def test_covariance_diagonal_is_squared_deviation():
    rng = np.random.default_rng(7)
    for _ in range(50):
        axis = rng.normal(size=3)
        gate = (rng.uniform(0, 2 * np.pi), axis / np.linalg.norm(axis))
        _, dev = _one_qubit_stats(gate[0])
        assert abs(pair_covariance_batch(gate, gate) - dev * dev) < 1e-14


@pytest.mark.parametrize("angle", [1.89e-3, 1e-4, 1e-6])
def test_near_identity_gates_keep_full_relative_precision(angle):
    # 1 - cos t by its Taylor series; the next term, t^8 / 40320, is below
    # 1e-16 relative at these angles.
    versine = angle**2 / 2.0 - angle**4 / 24.0 + angle**6 / 720.0
    gate = (angle, _Z)
    assert abs(_one_qubit_stats(angle)[0] / (versine / 3.0) - 1.0) < 1e-15
    assert abs(pair_covariance_batch(gate, gate) / (versine * versine / 45.0) - 1.0) < 1e-15


def test_batch_closed_forms_equal_single_gate_calls():
    angles, axes = sample_gates(np.random.default_rng(27), 400)
    gates = list(zip(angles, axes))
    f, d = one_qubit_stats_batch(angles)
    single = [_one_qubit_stats(a) for a in angles]
    assert np.array_equal(f, [avg_f for avg_f, _ in single])
    assert np.array_equal(d, [dev for _, dev in single])
    cov = pair_covariance_batch((angles[::2], axes[::2]), (angles[1::2], axes[1::2]))
    pairs = zip(gates[::2], gates[1::2])
    assert np.array_equal(cov, [pair_covariance_batch(g, h) for g, h in pairs])


def test_two_flip_mixture_frozen_stats():
    weights = np.array([0.5, 0.5])
    angles, axes = np.array([_FLIP_X[0], _FLIP_Y[0]]), np.array([_X, _Y])
    avg_f, dev = linear_stats(mixture_map(weights, angles, axes))
    assert abs(avg_f - 2.0 / 3.0) < 1e-15
    assert abs(dev - 0.14907119849998599) < 1e-14


def test_optimal_mixture_is_exactly_universal():
    avg_f, dev = linear_stats(mixture_map(*optimal_mixture()))
    assert avg_f == MAX_AVG_FIDELITY
    assert dev == 0.0


def _pairwise_stats(weights, angles, axes) -> tuple[float, float]:
    """The paper's pairwise route: F = sum_k w_k F_k and Delta^2 = w . C . w."""
    gates = list(zip(angles, axes))
    cov = np.array([[pair_covariance_batch(g, h) for h in gates] for g in gates])
    f_each = np.array([_one_qubit_stats(angle)[0] for angle in angles])
    return float(weights @ f_each), float(weights @ cov @ weights)


def test_affine_route_agrees_with_mixture_route():
    rng = np.random.default_rng(19)
    for _ in range(30):
        axes = rng.normal(size=(3, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        angles = np.array([rng.uniform(0, 2 * np.pi) for _ in axes])
        w = rng.uniform(0.2, 1.0, 3)
        mixture = (w / w.sum(), angles, axes)
        avg_f, var = _pairwise_stats(*mixture)
        b_f, b_d = linear_stats(mixture_map(*mixture))
        assert abs(avg_f - b_f) < 1e-12
        assert abs(np.sqrt(var) - b_d) < 1e-12


def test_affine_stats_with_shift_term():
    avg_f, dev = _affine_stats(np.zeros((3, 3)), np.array([0.0, 0.0, 0.5]))
    assert abs(avg_f - 0.5) < 1e-15
    assert abs(dev - np.sqrt(0.25 / 12.0)) < 1e-15


def test_nan_channel_is_rejected():
    with pytest.raises(RuntimeError):
        _affine_stats(np.eye(3) * np.nan, np.zeros(3))
    with pytest.raises(RuntimeError):
        affine_stats_batch(np.full((1, 3, 3), np.nan), np.zeros((1, 3)))
    with pytest.raises(RuntimeError):
        _affine_stats(np.zeros((3, 3)), [0.0, np.inf, 0.0])


@pytest.mark.parametrize(
    "linear, shift",
    [
        pytest.param((2, 3, 3), (2, 2), id="short-shift"),
        pytest.param((2, 3, 3), (1, 3), id="fewer-shifts"),
        pytest.param((2, 3, 3), (2, 3, 1), id="deep-shift"),
        pytest.param((3, 3), (3,), id="one-unbatched-channel"),
        pytest.param((2, 2, 2), (2, 2), id="qubit-sized-linear"),
        pytest.param((2, 3, 4), (2, 3), id="rectangular-linear"),
    ],
)
def test_affine_batch_rejects_misshapen_channels(linear, shift):
    # A (n, 2) shift would otherwise broadcast into a silently wrong Delta.
    with pytest.raises(ValueError):
        affine_stats_batch(np.zeros(linear), np.zeros(shift))


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
        _affine_stats(np.zeros((3, 3)), [0.0, 0.0, 3.0])


def test_three_qubit_unitarity_check_rejects_nan():
    u = np.eye(8, dtype=complex)
    u[3, 5] = np.nan
    with pytest.raises(ValueError, match="not unitary"):
        three_qubit_avg_fidelity(u)


def test_generic_two_qubit_channels_obey_floor_and_ceiling_only():
    """Tracing a Haar 4x4 unitary over one ancilla qubit gives channels
    that respect the deviation floor and the 2/3 fidelity ceiling, but a
    sizable fraction exceeds the unitary-mixture line.  That line is a
    property of stochastic maps, which is why region checks apply to
    ladder reductions rather than to arbitrary channels."""
    sig = np.stack(PAULI)
    rng = np.random.default_rng(777)
    above_line = 0
    for _ in range(300):
        u = sample_unitary(rng, 4)
        kraus = np.transpose(u.reshape(2, 2, 2, 2)[:, :, :, 0], (1, 0, 2))
        sandwich = np.einsum("mab,jbc,mdc->jad", kraus, sig, kraus.conj())
        linear = 0.5 * np.einsum("iab,jba->ij", sig, sandwich).real
        resid = np.einsum("mab,mcb->ac", kraus, kraus.conj())
        shift = 0.5 * np.einsum("iab,ba->i", sig, resid).real
        avg_f, dev = _affine_stats(linear, shift)
        assert avg_f <= 2.0 / 3.0 + 1e-9
        assert dev >= 0.5 * avg_f * DEVIATION_SLOPE - 1e-9
        if dev > avg_f * DEVIATION_SLOPE + 1e-9:
            above_line += 1
    assert above_line > 0


def test_stats_validation_rejects_out_of_range():
    # Tr M = 6 gives F = -1/2 and Tr M = -6 gives F = 3/2.
    with pytest.raises(RuntimeError):
        _affine_stats(2.0 * np.eye(3), np.zeros(3))
    with pytest.raises(RuntimeError):
        _affine_stats(-2.0 * np.eye(3), np.zeros(3))
    # Just inside the range passes: F = 0 for the identity.
    assert _affine_stats(np.eye(3), np.zeros(3)) == (0.0, 0.0)


def test_region_membership_by_qubit_count():
    def inside(f, d, qubit_count):
        return region_residual(f, d, qubit_count) <= REGION_TOL

    assert inside(0.4, 0.4 * DEVIATION_SLOPE, 1)
    assert not inside(0.4, 0.1, 1)
    assert inside(0.4, 0.3 * DEVIATION_SLOPE, 2)
    assert not inside(0.4, 0.0, 2)
    assert inside(0.4, 0.0, 3)
    assert not inside(0.8, 0.1, 3)
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
    mixture = stochastic_map_from_circuit(*circuit)
    avg_f, var = _pairwise_stats(*mixture)
    moment_f, moment_d = linear_stats(mixture_map(*mixture))
    assert abs(avg_f - moment_f) < 1e-12
    # Delta^2, not Delta: the square root amplifies rounding near Delta = 0.
    assert abs(var - moment_d**2) < 1e-12
