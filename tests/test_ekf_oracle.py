"""The dwell math on Python floats against the numpy reference forms kept in
``ekf_oracle``: the measurement function and its Jacobian to 1e-12, one
measurement update to 1e-9, and whole episodes on the acceptance seeds with
identical gate decisions and ``lost_at``.

The scalar episodes are in turn the oracle of the lockstep lanes: the frozen
roster (fixed 1, 5 and 10 MHz, scaling and both golden Q-tables) runs as the
lanes of one call, and each lane's records must be its scalar run's byte for
byte, all nine ``RECORD_DTYPE`` fields, with the same ``lost_at``.

Training replays through the oracle's ndarray Q-learning rules: the same
states, actions, range errors and losses give byte-equal Q-values."""

import os
from collections import deque

import numpy as np
import pytest

import ekf_oracle as oracle
from cogradar.config import default_scenario
from cogradar.experiment import campaign_truth, evaluate, seeded_run
from cogradar.policy import (
    BandwidthScalingPolicy,
    Discretizer,
    FixedPolicy,
    QLearningPolicy,
    QTable,
    reward,
)
from cogradar.radar import measurement_noise_var, observe, observe_jacobian
from cogradar.tracker import update
from cogradar.trajectory import generate_trajectory
from test_acceptance import EVAL_SEED, N_EVAL_RUNS
from test_radar import random_states

RADAR_POSITIONS = ((0.0, 0.0, 0.0), (20_000.0, -12_000.0, 0.0))
ROSTER = ("fixed:1e6", "fixed:5e6", "fixed:1e7", "scaling", "qlearn", "qlearn-lookahead")
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


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


@pytest.fixture(scope="module")
def hard_truth(hard_trajectory):
    scenario = default_scenario()
    return campaign_truth(hard_trajectory, scenario.radar, scenario.episode)


def _frozen(name, radar):
    if name == "scaling":
        return BandwidthScalingPolicy(radar.min_bw, radar.max_bw)
    if name.startswith("fixed:"):
        return FixedPolicy(float(name[6:]), radar.min_bw, radar.max_bw)
    path = os.path.join(GOLDEN_DIR, "q" if name == "qlearn" else "ql", "qtable.json")
    return QLearningPolicy(QTable.load(path), epsilon=0.0)


@pytest.fixture(scope="module")
def roster_lanes(hard_truth):
    """Every policy below evaluated in one lockstep call: {name: (policy, runs)}."""
    sc = default_scenario()
    policies = [_frozen(name, sc.radar) for name in ROSTER]
    scores = evaluate(hard_truth, policies, sc.process, sc.episode.miss_limit,
                      n_runs=N_EVAL_RUNS, base_seed=EVAL_SEED)
    return {name: (policy, runs) for name, policy, (runs, _) in zip(ROSTER, policies, scores)}


@pytest.mark.parametrize("name", ROSTER)
def test_run_episode_matches_oracle_loop(hard_trajectory, hard_truth, roster_lanes, name):
    """``evaluate --seed 1000`` run by run.  Against the oracle loop: the same
    gate decision on every dwell, the same ``lost_at``, range errors within
    1e-9 m.  The run's lockstep lane, from one call for all six policies,
    has the scalar run's records byte for byte, every field."""
    sc = default_scenario()
    policy, lanes = roster_lanes[name]
    assert len(lanes) == N_EVAL_RUNS
    for i, lane in enumerate(lanes):
        result = seeded_run(i, EVAL_SEED, hard_truth, policy, sc.process, sc.episode.miss_limit)
        correlated, range_errors, lost_at = oracle.run_episode(
            hard_trajectory, policy, sc.radar, sc.process, sc.episode,
            np.random.default_rng(EVAL_SEED + i)
        )
        assert result.lost_at == (lost_at,) == lane.lost_at, f"run {i}"
        assert result.records.correlated.tolist() == correlated, f"run {i}"
        assert lane.records.tobytes() == result.records.tobytes(), f"run {i}"
        np.testing.assert_allclose(
            result.records.range_error_true, range_errors, rtol=0.0, atol=1e-9
        )


@pytest.mark.parametrize("lookahead", [False, True], ids=["L1", "L5"])
def test_training_matches_oracle_rules(hard_truth, lookahead):
    """Eight epsilon-greedy episodes through ``seeded_run(learning=True)``,
    then each run's recorded states, actions, range errors and ``lost_at``
    replayed through the oracle's ndarray rules on a copy of the starting
    table: the Q-values must be byte-equal.  Lost runs, whose last dwell
    backs up -C, are among them."""
    sc = default_scenario()
    edges = Discretizer.load(os.path.join(GOLDEN_DIR, "cal", "edges.json"))
    table = sc.new_table(edges, lookahead=lookahead)
    replay = QTable(table.values.copy(), table.discretizer, table.actions, table.hyperparams)
    policy = QLearningPolicy(table)
    runs = [seeded_run(i, 0, hard_truth, policy, sc.process, sc.episode.miss_limit,
                       learning=True) for i in range(8)]
    assert any(not run.successful for run in runs)
    C, L = table.hyperparams.C, table.hyperparams.L
    assert L == (5 if lookahead else 1)
    for run in runs:
        pairs: deque = deque(maxlen=L)
        records = run.records
        for k, (s, a, error) in enumerate(zip(records.state_index.tolist(),
                                              records.action_index.tolist(),
                                              records.range_error_true.tolist())):
            if pairs:
                lost = k + 1 == run.lost_at[0]
                oracle.lookahead_update(replay, pairs, reward(error, lost, C), s)
            pairs.appendleft((s, a))
    assert np.count_nonzero(table.values) > 50
    assert table.values.tobytes() == replay.values.tobytes()
