"""The shared kernels of the dwell against the calls they replace, byte for
byte: ``tracker.kalman_gain`` and its eigenvalues against ``np.linalg.solve``
and ``eigvalsh``, and the campaign's ``radar.TruthSide`` against what a
measurement computes per call.  Both kernels (the scalar loop and the lockstep lanes) read these,
so a difference here would move every output."""

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
    snr_at_range,
)
from cogradar.tracker import DegenerateInnovationError, kalman_gain, update
from cogradar.trajectory import Phase, TruthPoint, generate_trajectory
from test_ekf_oracle import GOLDEN_DIR


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


@pytest.fixture(scope="module")
def hard():
    scenario = default_scenario()
    return scenario, generate_trajectory(scenario.trajectory, seed=scenario.episode.seed)


def test_truth_side_matches_per_call(hard):
    """Every row's z_true, SNR and true range, and every action's r and
    sqrt(r), equal what ``measure`` computed per call before the truth side
    was shared; the true range is also the scalar loop's old distance."""
    scenario, trajectory = hard
    radar = scenario.radar
    rows = trajectory[: scenario.episode.n_transmissions + 1]
    truth = TruthSide(rows, radar)
    assert truth.failure is None and len(truth) == len(truth.z_true) == len(rows)
    for k, point in enumerate(rows):
        z_true = observe(np.concatenate([point.position, point.velocity]), radar.position)
        snr = snr_at_range(float(z_true[0]), radar)
        assert truth.z_true[k].tobytes() == z_true.tobytes()
        assert truth.snr[k] == snr and truth.phases[k] is point.phase
        assert truth.range[k] == experiment._distance(point.position.tolist(), radar.position)
        for bandwidth in scenario.actions.bandwidths:
            r = measurement_noise_var(bandwidth, snr, radar)
            got_r, got_root = truth.noise(bandwidth)
            assert got_r[k].tobytes() == r.tobytes()
            assert got_root[k].tobytes() == np.sqrt(r).tobytes()


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
    equals the one trained run by run on the plain trajectory, each episode
    building its own, and a frozen run replays alike either way."""
    sc, trajectory = hard
    edges = Discretizer.load(f"{GOLDEN_DIR}/cal/edges.json")
    shared = sc.new_table(edges, lookahead=True)
    train_qlearning(trajectory, shared, sc.radar, sc.process, sc.episode, n_runs=4,
                    base_seed=9)
    alone = sc.new_table(edges, lookahead=True)
    policy = QLearningPolicy(alone)
    for i in range(4):
        seeded_run(i, 9, trajectory, policy, sc.radar, sc.process, sc.episode,
                   learning=True)
    assert shared.values.tobytes() == alone.values.tobytes()
    truth = TruthSide(trajectory[: sc.episode.n_transmissions + 1], sc.radar)
    scaling = BandwidthScalingPolicy(sc.radar.min_bw, sc.radar.max_bw)
    a, b = (seeded_run(3, 50, side, scaling, sc.radar, sc.process, sc.episode)
            for side in (trajectory, truth))
    assert a.records.tobytes() == b.records.tobytes() and a.lost_at == b.lost_at
