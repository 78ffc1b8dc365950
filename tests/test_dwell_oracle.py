"""The scalar dwell against ``dwell_oracle``, the forms it had before its
interpreter work was trimmed: byte for byte, function by function on random
inputs, and whole runs, tables trained by both learners and frozen
policies, with equal records and equal Q-values.  Both sides make the same
library calls and the same floating-point operations (see
``dwell_oracle``), so no bit may differ."""

import numpy as np
import pytest

import dwell_oracle as oracle
from cogradar.config import default_scenario
from cogradar.experiment import campaign_truth, seeded_run
from cogradar.policy import BandwidthScalingPolicy, Discretizer, FixedPolicy, QLearningPolicy
from cogradar.radar import measurement_noise_var, observe, observe_jacobian
from cogradar.tracker import gate, innovation, predict, update
from cogradar.trajectory import Phase, generate_trajectory
from test_ekf_oracle import GOLDEN_DIR, RADAR_POSITIONS
from test_radar import random_states


@pytest.fixture(scope="module")
def hard():
    scenario = default_scenario()
    trajectory = generate_trajectory(scenario.trajectory, seed=scenario.episode.seed)
    return scenario, campaign_truth(trajectory, scenario.radar, scenario.episode)


def random_dwells(n, seed, position):
    """n priors (x, P) around ``position``, with a Jacobian, noise variances
    and a measurement for each."""
    rng = np.random.default_rng(seed)
    radar = default_scenario().radar
    states = random_states(n, seed=seed)
    states[:, :3] += position
    for x in states:
        A = rng.standard_normal((6, 6)) * np.array([300.0] * 3 + [30.0] * 3)
        P = A @ A.T + np.diag([1.0] * 3 + [0.1] * 3)
        r = measurement_noise_var(rng.uniform(0.5e6, 10e6), rng.uniform(1.0, 1e4), radar)
        z = observe(x, position) + np.sqrt(r) * rng.standard_normal(4) * 3.0
        yield x, P, r, observe_jacobian(x, position), z


@pytest.mark.parametrize("position", RADAR_POSITIONS)
def test_forms_match_the_reference(position):
    """Each trimmed function returns the reference's bytes."""
    process = default_scenario().process
    phases = list(Phase)
    hits = 0
    for j, (x, P, r, H, z) in enumerate(random_dwells(200, 51, position)):
        for got, want in zip(predict(x, P, process, phases[j % 3]),
                             oracle.predict(x, P, process, phases[j % 3])):
            assert got.tobytes() == want.tobytes(), j
        assert (observe_jacobian(x, position).tobytes()
                == oracle.observe_jacobian(x, position).tobytes()), j
        nu = innovation(x, z, position)
        assert nu.tobytes() == oracle.innovation(x, z, position).tobytes(), j
        got, want = gate(nu, r), oracle.gate(nu, r)
        assert (got.correlated, got.range_window, got.range_innovation) == (
            want.correlated, want.range_window, want.range_innovation), j
        hits += got.correlated
        for got, want in zip(update(x, P, r, H, nu), oracle.update(x, P, r, H, nu)):
            assert got.tobytes() == want.tobytes(), j
    assert 0 < hits < 200  # both gate outcomes


def test_choose_matches_the_reference(hard):
    """The Q-learning choice on bin edges and bandwidths read once: the same
    state, action and bandwidth, exploring draws included."""
    scenario, _ = hard
    table = scenario.new_table(Discretizer.load(f"{GOLDEN_DIR}/cal/edges.json"))
    table.values[:] = np.random.default_rng(52).standard_normal(table.values.shape)
    lean, reference = QLearningPolicy(table), oracle.QLearningPolicyOracle(table)
    rng_lean, rng_reference = np.random.default_rng(53), np.random.default_rng(53)
    for pred_var, meas_var in 10.0 ** np.random.default_rng(54).uniform(-2, 5, (2000, 2)):
        assert (lean.choose(pred_var, meas_var, True, 1e6, 0, rng_lean)
                == reference.choose(pred_var, meas_var, True, 1e6, 0, rng_reference))


@pytest.mark.parametrize("lookahead", [False, True], ids=["qlearn", "lookahead"])
def test_training_matches_the_reference_loop(hard, lookahead):
    """Twelve epsilon-greedy episodes of each learner through ``seeded_run``
    and through the reference loop, each on its own copy of a fresh table:
    every run's records and ``lost_at`` are equal, and so are the trained
    tables, lost runs' final -C backups included."""
    scenario, truth = hard
    edges = Discretizer.load(f"{GOLDEN_DIR}/cal/edges.json")
    lean = QLearningPolicy(scenario.new_table(edges, lookahead=lookahead))
    reference = oracle.QLearningPolicyOracle(scenario.new_table(edges, lookahead=lookahead))
    models = (scenario.radar, scenario.process, scenario.episode)
    lost = 0
    for i in range(12):
        got = seeded_run(i, 0, truth, lean, scenario.process, scenario.episode.miss_limit,
                         learning=True)
        want = oracle.run_episode(truth, reference, *models, np.random.default_rng(i),
                                  learning=True)
        assert got.lost_at == want.lost_at, i
        assert got.records.dtype == want.records.dtype, i
        assert got.records.tobytes() == want.records.tobytes(), i
        lost += not got.successful
    assert lost and lean.table.hyperparams.L == (5 if lookahead else 1)
    assert np.count_nonzero(lean.table.values) > 50
    assert lean.table.values.tobytes() == reference.table.values.tobytes()


def test_frozen_runs_match_the_reference_loop(hard):
    """Frozen runs of the two non-tabular policies: equal records."""
    scenario, truth = hard
    radar = scenario.radar
    models = (radar, scenario.process, scenario.episode)
    for policy in (BandwidthScalingPolicy(radar.min_bw, radar.max_bw),
                   FixedPolicy(1e6, radar.min_bw, radar.max_bw)):
        for i in range(4):
            got = seeded_run(i, 1000, truth, policy, scenario.process, scenario.episode.miss_limit)
            want = oracle.run_episode(truth, policy, *models, np.random.default_rng(1000 + i))
            assert got.lost_at == want.lost_at, i
            assert got.records.tobytes() == want.records.tobytes(), i
