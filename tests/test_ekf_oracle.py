"""The dwell math on Python floats against the numpy reference forms kept in
``ekf_oracle``: the measurement function and its Jacobian to 1e-12, one
measurement update to 1e-9, and whole episodes on the acceptance seeds with
identical gate decisions and ``lost_at``."""

import numpy as np
import pytest

import ekf_oracle as oracle
from cogradar.config import default_scenario
from cogradar.experiment import seeded_run
from cogradar.policy import BandwidthScalingPolicy, FixedPolicy
from cogradar.radar import measurement_noise_var, observe, observe_jacobian
from cogradar.tracker import update
from cogradar.trajectory import generate_trajectory
from test_acceptance import EVAL_SEED, N_EVAL_RUNS
from test_radar import random_states

RADAR_POSITIONS = ((0.0, 0.0, 0.0), (20_000.0, -12_000.0, 0.0))


def _assert_close(actual, expected, rtol):
    """Within ``rtol`` of the largest entry of its row: some entries are a
    difference of larger terms (H[1, :3], off-diagonal P)."""
    expected = np.atleast_2d(expected)
    scale = np.abs(expected).max(axis=-1, keepdims=True)
    worst = (np.abs(np.atleast_2d(actual) - expected) / scale).max()
    assert worst <= rtol, f"relative difference {worst:.3g} > {rtol:g}"


@pytest.mark.parametrize("position", RADAR_POSITIONS)
def test_observe_matches_oracle(position):
    for state in random_states(200, seed=11):
        state[:3] += position
        want = oracle.observe(state, np.array(position))
        np.testing.assert_allclose(observe(state, position), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("position", RADAR_POSITIONS)
def test_observe_jacobian_matches_oracle(position):
    for state in random_states(200, seed=12):
        state[:3] += position
        want = oracle.observe_jacobian(state, np.array(position))
        _assert_close(observe_jacobian(state, position), want, 1e-12)


def test_update_matches_oracle():
    rng = np.random.default_rng(13)
    radar = default_scenario().radar
    for state in random_states(200, seed=14):
        A = rng.standard_normal((6, 6)) * np.array([300.0] * 3 + [30.0] * 3)
        P = A @ A.T + np.diag([1.0] * 3 + [0.1] * 3)
        H = oracle.observe_jacobian(state, np.zeros(3))
        r = measurement_noise_var(rng.uniform(0.5e6, 10e6), rng.uniform(1.0, 1e4), radar)
        nu = np.sqrt(r + np.diag(H @ P @ H.T)) * rng.standard_normal(4)
        x, P_new = update(state, P, r, H, nu)
        x_want, P_want = oracle.update(state, P, r, H, nu)
        _assert_close(x.reshape(2, 3), x_want.reshape(2, 3), 1e-9)  # position; velocity
        _assert_close(P_new, P_want, 1e-9)


@pytest.fixture(scope="module")
def hard_trajectory():
    scenario = default_scenario()
    return generate_trajectory(scenario.trajectory, seed=scenario.episode.seed)


@pytest.mark.parametrize(
    "bandwidth", [1e6, 5e6, 1e7, None], ids=["fixed:1e6", "fixed:5e6", "fixed:1e7", "scaling"]
)
def test_run_episode_matches_oracle_loop(hard_trajectory, bandwidth):
    """``evaluate --seed 1000`` run by run: the same gate decision on every
    dwell, the same ``lost_at``, range errors within 1e-9 m."""
    sc = default_scenario()
    if bandwidth is None:
        policy = BandwidthScalingPolicy(sc.radar.min_bw, sc.radar.max_bw)
    else:
        policy = FixedPolicy(bandwidth, sc.radar.min_bw, sc.radar.max_bw)
    args = (hard_trajectory, policy, sc.radar, sc.process, sc.episode)
    for i in range(N_EVAL_RUNS):
        result = seeded_run(i, EVAL_SEED, *args)
        correlated, range_errors, lost_at = oracle.run_episode(
            *args, np.random.default_rng(EVAL_SEED + i)
        )
        assert result.lost_at == lost_at, f"run {i}"
        assert result.records.correlated.tolist() == correlated, f"run {i}"
        np.testing.assert_allclose(
            result.records.range_error_true, range_errors, rtol=0.0, atol=1e-9
        )
