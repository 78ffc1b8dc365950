"""The shared kernels of the dwell against the calls they replace, byte for
byte: ``tracker.kalman_gain`` and its eigenvalues against ``np.linalg.solve``
and ``eigvalsh``, and the campaign's ``radar.TruthSide``, noise table
included, against what a measurement computes per call.  Both kernels (the
scalar loop and the lockstep lanes) read these, so a difference here would
move every output.  Also the lanes' geometry against the scalar
``observe``, ``observe_jacobian`` and range error."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from cogradar import experiment, lockstep, tracker
from cogradar.config import default_scenario
from cogradar.experiment import seeded_run, train_qlearning
from cogradar.policy import BandwidthScalingPolicy, Discretizer, QLearningPolicy
from cogradar.radar import (
    RadarConfig,
    TruthSide,
    measure,
    measurement_noise_var,
    observe,
    observe_jacobian,
    snr_at_range,
)
from cogradar.tracker import DegenerateInnovationError, kalman_gain, update
from cogradar.trajectory import Phase, TruthPoint, generate_trajectory
from test_ekf_oracle import GOLDEN_DIR, RADAR_POSITIONS
from test_radar import random_states


def random_gain_inputs(rng, m):
    """m symmetric positive definite S (4x4) spread over orders of magnitude,
    and m P H' (6x4)."""
    A = rng.standard_normal((m, 4, 4)) * 10.0 ** rng.uniform(-3, 4, (m, 1, 4))
    S = A @ A.transpose(0, 2, 1) + np.eye(4) * 1e-3
    return 0.5 * (S + S.transpose(0, 2, 1)), rng.standard_normal((m, 6, 4)) * 1e3


def test_gain_matches_linalg():
    """The gain, and the eigenvalues its condition check reads, are
    ``np.linalg``'s bits, for one S and for a stack as the lanes pass it."""
    S, PHt = random_gain_inputs(np.random.default_rng(21), 300)
    for one_S, one_PHt in zip(S, PHt):
        assert (tracker._umath_linalg.eigvalsh_lo(one_S).tobytes()
                == np.linalg.eigvalsh(one_S).tobytes())
        K = kalman_gain(one_S, one_PHt)
        assert K.tobytes() == np.linalg.solve(one_S, one_PHt.T).T.tobytes()
    assert tracker._umath_linalg.eigvalsh_lo(S).tobytes() == np.linalg.eigvalsh(S).tobytes()
    K = kalman_gain(S, PHt)
    want = np.linalg.solve(S, PHt.transpose(0, 2, 1)).transpose(0, 2, 1)
    assert K.shape == (300, 6, 4) and K.tobytes() == want.tobytes()


def test_nan_eigenvalue_is_degenerate(monkeypatch):
    """LAPACK's gufunc returns NaN where the np.linalg wrapper raised; both
    kernels must count such an S as degenerate."""
    monkeypatch.setattr(tracker, "_umath_linalg", SimpleNamespace(
        eigvalsh_lo=lambda S: np.full(S.shape[:-1], np.nan), solve=tracker._umath_linalg.solve))
    H = np.hstack([np.eye(4), np.zeros((4, 2))])
    x, P, r, nu = np.zeros(6), np.eye(6), np.ones(4), np.zeros(4)
    with pytest.raises(DegenerateInnovationError):
        update(x, P, r, H, nu)
    with pytest.raises(DegenerateInnovationError):
        lockstep._lane_update(x[None], P[None], r[None], H[None], nu[None])


def test_singular_innovation_raises_before_the_solve():
    """S = diag(0, 1, 1, 1) is exactly singular: both kernels raise on its
    eigenvalues, without the warning a solve on it would give, also when it
    is the second lane of a stack."""
    H = np.hstack([np.eye(4), np.zeros((4, 2))])
    x, P, r, nu = np.zeros(6), np.diag([-1.0, 0, 0, 0, 0, 0]), np.ones(4), np.zeros(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInnovationError):
            update(x, P, r, H, nu)
        with pytest.raises(DegenerateInnovationError):
            lockstep._lane_update(*(np.stack(pair) for pair in
                                    ((x, x), (np.eye(6), P), (r, r), (H, H), (nu, nu))))


@pytest.mark.parametrize("position", RADAR_POSITIONS)
def test_lane_geometry_matches_scalar(position):
    """``lockstep._lane_observe`` on a stack of one and of many states: each
    row's h and H are the scalar ``observe`` and ``observe_jacobian`` bytes,
    and ``_lane_range`` is the scalar loop's range to the radar."""
    states = random_states(200, seed=31)
    states[:, :3] += position
    radar = np.asarray(position, dtype=float)
    for stack in [states[i : i + 1] for i in range(len(states))] + [states]:
        h, H = lockstep._lane_observe(stack, radar)
        distance = lockstep._lane_range(stack, radar)[2]
        assert h.shape == (len(stack), 4) and H.shape == (len(stack), 4, 6)
        for j, state in enumerate(stack):
            assert h[j].tobytes() == observe(state, position).tobytes(), j
            assert H[j].tobytes() == observe_jacobian(state, position).tobytes(), j
            assert distance[j, 0] == experiment._distance(state[:3].tolist(), position), j


def test_products_match_the_lanes():
    """The scalar ``predict``, ``range_variance`` and ``update``, whose
    products go through ``np.dot``, against the lanes' stacked ``@``: byte
    for byte on 200 random (x, P, H, r, nu), as 200 one-lane stacks and as
    one 200-lane stack."""
    rng = np.random.default_rng(33)
    scenario = default_scenario()
    x = random_states(200, seed=34)
    A = rng.standard_normal((200, 6, 6)) * np.array([300.0] * 3 + [30.0] * 3)
    P = A @ A.transpose(0, 2, 1) + np.diag([1.0] * 3 + [0.1] * 3)
    H = np.array([observe_jacobian(state, (0.0, 0.0, 0.0)) for state in x])
    r = np.array([measurement_noise_var(rng.uniform(0.5e6, 10e6), rng.uniform(1.0, 1e4),
                                        scenario.radar) for _ in x])
    nu = np.sqrt(r) * rng.standard_normal((200, 4)) * 3.0
    phases = list(Phase)
    for stack in [slice(j, j + 1) for j in range(len(x))] + [slice(None)]:
        lanes = [array[stack] for array in (x, P, r, H, nu)]
        phase = phases[(stack.start or 0) % 3]
        x_pred, P_pred = lockstep._lane_predict(*lanes[:2], scenario.process, phase)
        variance = lockstep._lane_range_variance(lanes[3], lanes[1])
        x_post, P_post = lockstep._lane_update(*lanes)
        for j, one in enumerate(zip(*lanes)):
            want = (*tracker.predict(*one[:2], scenario.process, phase),
                    tracker.range_variance(one[3], one[1]), *update(*one))
            got = x_pred[j], P_pred[j], variance[j], x_post[j], P_post[j]
            for name, a, b in zip(("x-", "P-", "pred_var", "x+", "P+"), got, want):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (name, stack, j)


def test_lane_at_radar_raises_before_dividing():
    """A lane at the radar fails with ``observe_jacobian``'s message and no
    division-by-zero warning, also as the second lane of a stack."""
    radar = np.array(RADAR_POSITIONS[1])
    states = random_states(2, seed=32)
    states[1, :3] = radar
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="target at radar"):
            lockstep._lane_observe(states, radar)


@pytest.fixture(scope="module")
def hard():
    scenario = default_scenario()
    return scenario, generate_trajectory(scenario.trajectory, seed=scenario.episode.seed)


def test_truth_side_matches_per_call(hard):
    """Every row's z_true, SNR and true range, and every action's r and
    sqrt(r) in the shared table, equal what ``measure`` computed per call
    before the truth side was shared; the true range is also the scalar
    loop's old distance.  The table gains one column per new bandwidth, in
    any order of first use, and what ``measure`` returns is its row."""
    scenario, trajectory = hard
    radar = scenario.radar
    rows = trajectory[: scenario.episode.n_transmissions + 1]
    truth = TruthSide(rows, radar)
    assert truth.failure is None and len(truth) == len(truth.z_true) == len(rows)
    bandwidths = scenario.actions.bandwidths
    measure(truth, 3, bandwidths[2], np.random.default_rng(0))  # scalar first use
    columns = truth.columns([*bandwidths[::-1], bandwidths[0]])  # the lanes' first use
    assert truth.table.shape == (2, len(rows), len(bandwidths), 4)
    assert sorted(columns[:-1]) == list(range(len(bandwidths)))
    assert columns[-1] == columns[-2] and truth.column[bandwidths[2]] == 0
    for k, point in enumerate(rows):
        z_true = observe(np.concatenate([point.position, point.velocity]), radar.position)
        snr = snr_at_range(float(z_true[0]), radar)
        assert truth.z_true[k].tobytes() == z_true.tobytes()
        assert truth.snr[k] == snr and truth.phases[k] is point.phase
        assert truth.range[k] == experiment._distance(point.position.tolist(), radar.position)
        for bandwidth in bandwidths:
            r = measurement_noise_var(bandwidth, snr, radar)
            got_r, got_root = truth.table[:, k, truth.column[bandwidth]]
            assert got_r.tobytes() == r.tobytes()
            assert got_root.tobytes() == np.sqrt(r).tobytes()
            _, measured_r = measure(truth, k, bandwidth, np.random.default_rng(k))
            assert measured_r.tobytes() == r.tobytes()


def test_truth_failure_is_raised_at_its_row():
    """Rows stop at the first truth that fails; measuring that row raises its
    error, and the rows before it measure as usual."""
    radar = RadarConfig()
    points = [TruthPoint(0.0, np.asarray(position, float), np.zeros(3), Phase.BOOST)
              for position in ([1000.0, 0.0, 500.0], radar.position, [2000.0, 0.0, 0.0])]
    truth = TruthSide(points, radar)
    assert len(truth) == 3 and len(truth.z_true) == 1
    measure(truth, 0, 1e6, np.random.default_rng(0))
    with pytest.raises(ValueError, match="target at radar"):
        measure(truth, 1, 1e6, np.random.default_rng(0))


def test_campaign_truth_side_changes_no_bit(hard):
    """``train_qlearning`` hands one truth side to every episode; the table
    equals the one trained run by run with a fresh truth side per episode,
    and a frozen run replays alike on a shared truth side, whose table an
    earlier run filled, and on a fresh one."""
    sc, trajectory = hard
    rows = trajectory[: sc.episode.n_transmissions + 1]
    edges = Discretizer.load(f"{GOLDEN_DIR}/cal/edges.json")
    shared = sc.new_table(edges, lookahead=True)
    train_qlearning(trajectory, shared, sc.radar, sc.process, sc.episode, n_runs=4,
                    base_seed=9)
    alone = sc.new_table(edges, lookahead=True)
    policy = QLearningPolicy(alone)
    for i in range(4):
        seeded_run(i, 9, TruthSide(rows, sc.radar), policy, sc.radar, sc.process,
                   sc.episode, learning=True)
    assert shared.values.tobytes() == alone.values.tobytes()
    truth = TruthSide(rows, sc.radar)
    scaling = BandwidthScalingPolicy(sc.radar.min_bw, sc.radar.max_bw)
    seeded_run(0, 50, truth, scaling, sc.radar, sc.process, sc.episode)
    assert len(truth.column) > 1
    a, b = (seeded_run(3, 50, side, scaling, sc.radar, sc.process, sc.episode)
            for side in (truth, TruthSide(rows, sc.radar)))
    assert a.records.tobytes() == b.records.tobytes() and a.lost_at == b.lost_at
