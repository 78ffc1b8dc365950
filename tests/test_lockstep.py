"""The lockstep lanes against the scalar loop, their oracle.

The pooled samples of a lockstep ``calibrate`` against ``seeded_run``: the
same gate decisions, losses and measurement variances, prediction variances
within 1e-9 relative and range errors within 1e-9 m.  The frozen roster's
lanes are checked run by run in ``test_ekf_oracle.py``, beside the oracle
loop, so each scalar run is made once.

The benchmark counts dwells by wrapping ``experiment.run_episode`` and summing
``len(result.records)`` over its returns, so every command must return each
dwell it runs from that function, and ``successful`` must be a bool.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from cogradar import experiment, lockstep
from cogradar.cli import cli_main
from cogradar.config import default_scenario
from cogradar.experiment import (
    calibrate_discretizer,
    evaluate,
    run_episode,
    seeded_run,
    seeded_runs,
)
from cogradar.policy import (
    BandwidthScalingPolicy,
    Discretizer,
    FixedPolicy,
    PolicyContext,
    QLearningPolicy,
    QTable,
    bandwidth_scaling_step,
)
from cogradar.tracker import DegenerateInnovationError, update
from cogradar.trajectory import generate_trajectory

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
Q_TABLES = {name: os.path.join(GOLDEN_DIR, name, "qtable.json") for name in ("q", "ql")}
ROSTER = ("fixed:1e6", "fixed:5e6", "fixed:1e7", "scaling", "qlearn", "qlearn-lookahead")


def build(spec, radar):
    """The frozen policy of a --policy item; Q-tables default to the golden ones."""
    name, _, param = spec.partition(":")
    if name == "fixed":
        return FixedPolicy(float(param), radar.min_bw, radar.max_bw)
    if name == "scaling":
        return BandwidthScalingPolicy(radar.min_bw, radar.max_bw)
    path = param or Q_TABLES["q" if name == "qlearn" else "ql"]
    return QLearningPolicy(QTable.load(path), epsilon=0.0)


@pytest.fixture(scope="module")
def scenario():
    return default_scenario()


@pytest.fixture(scope="module")
def hard_trajectory(scenario):
    return generate_trajectory(scenario.trajectory, seed=scenario.episode.seed)


def assert_same_run(lane, scalar, label):
    assert lane.lost_at == scalar.lost_at, label
    for field in ("correlated", "state_index", "action_index", "bandwidth"):
        assert lane.records[field].tolist() == scalar.records[field].tolist(), (label, field)
    np.testing.assert_allclose(lane.records.range_error_true,
                               scalar.records.range_error_true, rtol=0.0, atol=1e-9)


def test_calibrate_pools_the_scalar_samples(scenario, hard_trajectory):
    """Calibration's cycled fixed bandwidths as lanes pool what the scalar
    runs pool, so the edges agree."""
    sc, n_runs, base_seed = scenario, 100, 500
    policies = [FixedPolicy(bw, sc.radar.min_bw, sc.radar.max_bw) for bw in sc.actions.bandwidths]
    scalar = [seeded_run(i, base_seed, hard_trajectory, policies[i % len(policies)],
                         sc.radar, sc.process, sc.episode) for i in range(n_runs)]
    lanes = seeded_runs([policies[i % len(policies)] for i in range(n_runs)], range(n_runs),
                        base_seed, hard_trajectory, sc.radar, sc.process, sc.episode)
    for i, (lane, run) in enumerate(zip(lanes, scalar)):
        assert_same_run(lane, run, f"calibrate run {i}")
    pooled = np.concatenate([run.records for run in scalar])
    lane_pooled = np.concatenate([lane.records for lane in lanes])
    assert lane_pooled["meas_var"].tolist() == pooled["meas_var"].tolist()
    np.testing.assert_allclose(lane_pooled["pred_var"], pooled["pred_var"], rtol=1e-9, atol=0.0)
    edges = calibrate_discretizer(hard_trajectory, sc.radar, sc.process, sc.episode,
                                  n_runs=n_runs, base_seed=base_seed, actions=sc.actions)
    want = Discretizer.from_samples(pooled["pred_var"], pooled["meas_var"])
    np.testing.assert_allclose(edges.pred_var_edges, want.pred_var_edges, rtol=1e-9)
    np.testing.assert_allclose(edges.meas_var_edges, want.meas_var_edges, rtol=1e-9)


class TestRuns:
    def test_lanes_are_their_records_back_to_back(self, scenario, hard_trajectory):
        sc = scenario
        policies = [FixedPolicy(bw, sc.radar.min_bw, sc.radar.max_bw) for bw in (1e6, 1e7)]
        runs = run_episode(hard_trajectory, policies * 3, sc.radar, sc.process, sc.episode,
                           [7, 7, 8, 8, 9, 9])
        assert len(runs) == 6
        assert np.array_equal(np.concatenate([lane.records for lane in runs]), runs.records)
        assert runs.ends.tolist() == np.cumsum([len(lane.records) for lane in runs]).tolist()
        assert runs[-1].lost_at == runs.lost_at[5]
        assert runs.successful is all(lane.successful for lane in runs)
        with pytest.raises(IndexError):
            runs[6]

    def test_lanes_are_frozen(self, scenario, hard_trajectory):
        sc = scenario
        args = (hard_trajectory, sc.radar, sc.process, sc.episode)
        exploring = QLearningPolicy(QTable.load(Q_TABLES["q"]))
        assert not exploring.lockstep
        with pytest.raises(ValueError, match="draw nothing"):
            run_episode(args[0], [exploring] * 2, *args[1:], [0, 1])
        with pytest.raises(ValueError, match="cannot learn"):
            run_episode(args[0], [FixedPolicy(1e6)] * 2, *args[1:], [0, 1], learning=True)
        with pytest.raises(ValueError, match="one seed per lane"):
            run_episode(args[0], [FixedPolicy(1e6)] * 2, *args[1:], [0])

    def test_exploring_policy_is_rejected(self, scenario, hard_trajectory, monkeypatch):
        """An epsilon > 0 table draws from the rng, so it cannot be a lane: its
        evaluation fails before any dwell, and no run is to blame."""
        sc = scenario
        policy = QLearningPolicy(QTable.load(Q_TABLES["q"]), epsilon=0.5)

        def no_dwell(*args, **kwargs):
            raise AssertionError("an exploring policy reached run_episode")

        monkeypatch.setattr(experiment, "run_episode", no_dwell)
        for n_runs in (1, 3):
            with pytest.raises(ValueError, match="draw nothing") as raised:
                evaluate(hard_trajectory, [FixedPolicy(1e6), policy], sc.radar, sc.process,
                         sc.episode, n_runs=n_runs, base_seed=4)
            assert not str(raised.value).startswith("run ")


def test_choose_lanes_is_choose_lane_by_lane():
    """Each policy's ``choose_lanes`` against its scalar ``choose``: Q-table
    contexts on the bin edges and between them, scaling from every bandwidth
    it reaches with every streak and gate outcome."""
    rng = np.random.default_rng(3)
    edges = Discretizer(tuple(np.geomspace(1.0, 1e4, 9)), tuple(np.geomspace(0.1, 1e3, 7)))
    pred_var = np.r_[edges.pred_var_edges, rng.uniform(0.5, 2e4, 40)]
    meas_var = np.r_[edges.meas_var_edges, rng.uniform(0.05, 2e3, 42)]
    table = QTable(rng.standard_normal((80, 6)), edges)
    greedy = QLearningPolicy(table, epsilon=0.0)
    m = len(pred_var)
    bandwidth, _, state, action = greedy.choose_lanes(
        pred_var, meas_var, np.ones(m, bool), np.zeros(m), np.zeros(m, int))
    for j in range(m):
        ctx = PolicyContext(pred_var[j], meas_var[j], True)
        assert greedy.choose(ctx, rng) == bandwidth[j]
        assert (greedy.last_state, greedy.last_action) == (state[j], action[j])

    scaling = BandwidthScalingPolicy(0.5e6, 10e6)
    grid = [(bw, streak, hit) for bw in (0.5e6, 0.625e6, 1e6, 5e6, 8e6, 10e6)
            for streak in range(5) for hit in (False, True)]
    bw, streak, hit = (np.array(column) for column in zip(*grid))
    new_bw, new_streak, _, _ = scaling.choose_lanes(None, None, hit, bw, streak)
    want = [bandwidth_scaling_step(b, h, st, 0.5e6, 10e6) for b, st, h in grid]
    assert list(zip(new_bw.tolist(), new_streak.tolist())) == want


@pytest.mark.parametrize("range_var, prior_var, degenerate", [
    (1.0000001e12, 0.0, True),  # condition number just above 1e12
    (0.9999999e12, 0.0, False),  # just below
    (1.0, -2.0, True),  # S = diag(-1, 1, 1, 1): well conditioned, but indefinite
], ids=["above", "below", "indefinite"])
def test_condition_check_on_both_paths(range_var, prior_var, degenerate):
    """S = diag(r) + P's top-left 4x4 block, through the scalar ``update``
    and one lane of the lockstep update: degenerate above a condition number
    of 1e12, or when S is not positive definite."""
    H = np.hstack([np.eye(4), np.zeros((4, 2))])
    P = np.diag([prior_var, 0.0, 0.0, 0.0, 0.0, 0.0])
    r = np.array([range_var, 1.0, 1.0, 1.0])
    x, nu = np.zeros(6), np.zeros(4)
    lanes = (x[None], P[None], r[None], H[None], nu[None])
    if degenerate:
        with pytest.raises(DegenerateInnovationError):
            update(x, P, r, H, nu)
        with pytest.raises(DegenerateInnovationError):
            lockstep._lane_update(*lanes)
    else:
        update(x, P, r, H, nu)
        lockstep._lane_update(*lanes)


# ---------------------------------------------------------------------------
# The benchmark's dwell count
# ---------------------------------------------------------------------------

FAST = ["--transmissions", "40"]
GOLDEN_ROSTER = ",".join(ROSTER[:4] + (f"qlearn:{Q_TABLES['q']}",
                                       f"qlearn-lookahead:{Q_TABLES['ql']}"))


def scalar_dwells(argv, scenario, trajectory):
    """The dwells the scalar ``seeded_run`` runs for one command, run by run."""
    sc, radar = scenario, scenario.radar
    option = dict(zip(argv[1::2], argv[2::2]))
    episode = replace(sc.episode, n_transmissions=int(
        option.get("--transmissions", sc.episode.n_transmissions)))
    n_runs, seed = int(option["--runs"]), int(option["--seed"])
    args = (trajectory,)

    def runs(policy_at, n, base):
        return sum(len(seeded_run(i, base, *args, policy_at(i), radar, sc.process,
                                  episode).records) for i in range(n))

    def calibration(n, base):
        fixed = [FixedPolicy(bw, radar.min_bw, radar.max_bw) for bw in sc.actions.bandwidths]
        return runs(lambda i: fixed[i % len(fixed)], n, base)

    if argv[0] == "calibrate":
        return calibration(n_runs, seed)
    if argv[0] in ("evaluate", "compare"):
        policies = [build(name, radar) for name in option["--policy"].split(",")]
        return sum(runs(lambda i: policy, n_runs, seed) for policy in policies)
    total = 0  # train
    if "--edges" in option:
        discretizer = Discretizer.load(option["--edges"])
    else:
        total += calibration(100, seed + 1_000_000)
        discretizer = calibrate_discretizer(trajectory, radar, sc.process, episode, n_runs=100,
                                            base_seed=seed + 1_000_000, actions=sc.actions)
    learner = QLearningPolicy(sc.new_table(discretizer, lookahead=False))
    return total + sum(
        len(seeded_run(i, seed, *args, learner, radar, sc.process, episode, learning=True).records)
        for i in range(n_runs))


@pytest.mark.parametrize("argv, lockstep_calls", [
    (["evaluate", "--policy", "fixed:1e6", "--runs", "6", "--seed", "1000"], 1),
    (["compare", "--policy", GOLDEN_ROSTER, "--runs", "6", "--seed", "1000"], 1),
    (["calibrate", "--runs", "12", "--seed", "500"], 1),
    (["train", "--edges", os.path.join(GOLDEN_DIR, "cal", "edges.json"),
      "--runs", "8", "--seed", "0", *FAST], 0),
    (["train", "--runs", "3", "--seed", "0", *FAST], 1),
], ids=["evaluate", "compare", "calibrate", "train", "train-calibrating"])
def test_run_episode_returns_every_dwell(tmp_path, monkeypatch, scenario, hard_trajectory,
                                         argv, lockstep_calls):
    """Summed over the returns of ``experiment.run_episode``, as the
    benchmark's hook sums them, the records count the dwells of the scalar
    runs; lockstep commands make one call per campaign."""
    returns = []
    run_episode = experiment.run_episode

    def hooked(*args, **kwargs):
        result = run_episode(*args, **kwargs)
        returns.append((len(result.records), result.successful,
                        isinstance(result, experiment.Runs)))
        return result

    monkeypatch.setattr(experiment, "run_episode", hooked)
    assert cli_main([*argv, "--out", str(tmp_path)]) == 0
    monkeypatch.undo()
    assert all(type(successful) is bool for _, successful, _ in returns)
    assert sum(lockstep for _, _, lockstep in returns) == lockstep_calls
    assert sum(dwells for dwells, _, _ in returns) == scalar_dwells(argv, scenario, hard_trajectory)

