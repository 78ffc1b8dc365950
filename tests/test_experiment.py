import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cogradar import experiment, lockstep
from cogradar.experiment import (
    RECORD_DTYPE,
    EpisodeConfig,
    RunResult,
    calibrate_discretizer,
    evaluate,
    mean_windowed_mse,
    overall_windowed_mse,
    run_episode,
    save_histogram_csv,
    save_metrics_csv,
    save_run_csv,
    seeded_runs,
    success_histogram,
    train_qlearning,
    windowed_min,
)
from cogradar.policy import (
    ActionSet,
    BandwidthScalingPolicy,
    Discretizer,
    FixedPolicy,
    Hyperparams,
    QLearningPolicy,
    QTable,
    reward,
)
from cogradar.radar import RadarConfig
from cogradar.tracker import DegenerateInnovationError, GateResult, ProcessModel
from cogradar.trajectory import Phase, TruthPoint

QUIET_SIGMA = {Phase.BOOST: 1e-3, Phase.MID_COURSE: 1e-3, Phase.TERMINAL: 1e-3}


def stationary_trajectory(n, position=(18_000.0, -9_000.0, 6_000.0), dt=0.5):
    position = np.asarray(position, float)
    return [
        TruthPoint(
            t=i * dt,
            position=position,
            velocity=np.zeros(3),
            phase=Phase.MID_COURSE,
        )
        for i in range(n)
    ]


def linear_trajectory(n, position, velocity, dt=0.5):
    position = np.asarray(position, float)
    velocity = np.asarray(velocity, float)
    return [
        TruthPoint(
            t=i * dt,
            position=position + velocity * (i * dt),
            velocity=velocity,
            phase=Phase.MID_COURSE,
        )
        for i in range(n)
    ]


def teleport_trajectory(n, start=(10_000.0, 0.0, 5_000.0), offset=(0.0, 8_000.0, 0.0)):
    """First sample at start, every later sample displaced by offset: the
    initialized track can never correlate again."""
    start = np.asarray(start, float)
    rest = start + np.asarray(offset, float)
    points = [
        TruthPoint(t=0.0, position=start, velocity=np.zeros(3), phase=Phase.MID_COURSE)
    ]
    for i in range(1, n):
        points.append(
            TruthPoint(
                t=i * 0.5, position=rest, velocity=np.zeros(3), phase=Phase.MID_COURSE
            )
        )
    return points


def quiet_radar():
    """Noise low enough (range and angle) that the gate never misses.

    Angle noise must shrink with the range noise: cross-range error leaks
    into predicted range at second order (sigma_az^2 * r / 2), which would
    swamp a millimetric gate window at the default 2 mrad.
    """
    return RadarConfig(
        position=(0.0, 0.0, 0.0),
        snr_ref=1.0e9,
        range_ref=22_000.0,
        angle_noise_std=1.0e-4,
    )


def moderate_radar():
    return RadarConfig(position=(0.0, 0.0, 0.0), snr_ref=150.0, range_ref=22_000.0)


def quiet_process(dt=0.5):
    return ProcessModel(dt=dt, accel_noise_std=QUIET_SIGMA)


def fake_run(errors, lost=False):
    records = np.zeros(len(errors), dtype=RECORD_DTYPE).view(np.recarray)
    records.bandwidth = 1e6
    records.range_error_true = errors
    records.range_window = 1.0
    records.correlated = True
    records.state_index = -1
    records.action_index = -1
    records.pred_var = 1.0
    records.meas_var = 1.0
    return RunResult(records=records, lost_at=len(records) if lost else None)


def same_run(one, two):
    return one.lost_at == two.lost_at and np.array_equal(one.records, two.records)


def wide_edges():
    return Discretizer(
        pred_var_edges=tuple(np.geomspace(1e-2, 1e4, 9)),
        meas_var_edges=tuple(np.geomspace(1e-2, 1e4, 7)),
    )


class TestWindowedMin:
    def test_hand_example(self):
        assert windowed_min([5.0, 1.0, 9.0, 2.0], 3) == pytest.approx([1.0, 1.0])

    def test_window_one_is_identity(self):
        series = [3.0, 7.0, 2.0]
        assert windowed_min(series, 1) == pytest.approx(series)

    def test_constant_series(self):
        assert windowed_min([4.0] * 10, 3) == pytest.approx([4.0] * 8)

    def test_length(self):
        assert len(windowed_min(np.arange(160.0), 3)) == 158

    def test_short_series_empty(self):
        assert windowed_min([1.0, 2.0], 3).size == 0

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            windowed_min([1.0], 0)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        series = rng.random(50)
        for window in (1, 2, 3, 7):
            brute = [
                min(series[i : i + window]) for i in range(len(series) - window + 1)
            ]
            assert windowed_min(series, window) == pytest.approx(brute)


class TestMeanWindowedMse:
    def test_single_run_equals_own_series(self):
        run = fake_run([3.0, 1.0, 2.0, 5.0])
        expected = windowed_min(np.array([3.0, 1.0, 2.0, 5.0]) ** 2, 3)
        assert mean_windowed_mse([run]) == pytest.approx(expected)

    def test_zero_error_run(self):
        assert mean_windowed_mse([fake_run([0.0] * 10)]) == pytest.approx([0.0] * 8)

    def test_two_constant_runs_average(self):
        runs = [fake_run([2.0] * 6), fake_run([4.0] * 6)]
        expected = (4.0 + 16.0) / 2.0
        assert mean_windowed_mse(runs) == pytest.approx([expected] * 4)

    def test_alive_counting_after_loss(self):
        # second run dies early: later steps average over the survivor only
        runs = [fake_run([2.0] * 8), fake_run([4.0] * 5, lost=True)]
        out = mean_windowed_mse(runs)
        assert len(out) == 6
        assert out[:3] == pytest.approx([(4.0 + 16.0) / 2.0] * 3)
        assert out[3:] == pytest.approx([4.0] * 3)

    def test_overall_scalar(self):
        runs = [fake_run([2.0] * 6), fake_run([4.0] * 6)]
        assert overall_windowed_mse(runs) == pytest.approx(10.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_windowed_mse([])


class TestSuccessHistogram:
    def test_all_successful(self):
        runs = [fake_run([1.0] * 160) for _ in range(10)]
        counts = success_histogram(runs, n_transmissions=160)
        assert len(counts) == 9
        assert sum(counts) == 0

    def test_lost_at_twelve(self):
        runs = [fake_run([1.0] * 12, lost=True)]
        counts = success_histogram(runs, n_transmissions=160)
        assert counts[0] == 1
        assert sum(counts) == 1

    def test_counts_conserved(self):
        runs = [
            fake_run([1.0] * 12, lost=True),
            fake_run([1.0] * 77, lost=True),
            fake_run([1.0] * 160),
            fake_run([1.0] * 160, lost=True),
        ]
        counts = success_histogram(runs, n_transmissions=160)
        assert sum(counts) + sum(run.successful for run in runs) == 4
        assert counts[77 // 20] >= 1
        assert counts[-1] == 1  # loss on the final transmission


class TestRunEpisode:
    def test_stationary_quiet_scenario_is_successful(self):
        trajectory = stationary_trajectory(161)
        episode = EpisodeConfig(n_transmissions=160)
        result = run_episode(
            trajectory,
            FixedPolicy(1e6),
            quiet_radar(),
            quiet_process(),
            episode,
            np.random.default_rng(0),
        )
        assert result.successful
        assert result.lost_at is None
        assert len(result.records) == 160
        assert all(rec.correlated for rec in result.records)
        assert all(rec.bandwidth == 1e6 for rec in result.records)

    def test_linear_target_converges_with_moderate_noise(self):
        trajectory = linear_trajectory(
            161, position=(20_000.0, 5_000.0, 8_000.0), velocity=(-60.0, 20.0, -10.0)
        )
        result = run_episode(
            trajectory,
            FixedPolicy(1e6),
            moderate_radar(),
            quiet_process(),
            EpisodeConfig(),
            np.random.default_rng(3),
        )
        assert result.successful
        # after convergence the range error settles well under the early one
        early = np.mean([r.range_error_true for r in result.records[:5]])
        late = np.mean([r.range_error_true for r in result.records[-40:]])
        assert late < early

    def test_offset_start_loses_at_miss_limit(self):
        trajectory = teleport_trajectory(161)
        result = run_episode(
            trajectory,
            FixedPolicy(0.5e6),
            quiet_radar(),
            quiet_process(),
            EpisodeConfig(miss_limit=5),
            np.random.default_rng(1),
        )
        assert not result.successful
        assert result.lost_at == 5
        assert len(result.records) == 5
        assert not any(rec.correlated for rec in result.records)

    def test_deterministic_given_seed(self):
        trajectory = stationary_trajectory(161)
        args = (trajectory, FixedPolicy(2.5e6), moderate_radar(), quiet_process())
        one = run_episode(*args, EpisodeConfig(), np.random.default_rng(7))
        two = run_episode(*args, EpisodeConfig(), np.random.default_rng(7))
        assert same_run(one, two)

    def test_causality_prefix_replay(self):
        trajectory = stationary_trajectory(161)
        table = QTable.zeros(wide_edges(), hyperparams=Hyperparams(epsilon=0.3))
        for policy_factory in (
            lambda: FixedPolicy(1e6),
            lambda: BandwidthScalingPolicy(),
            lambda: QLearningPolicy(
                dataclasses.replace(table, values=table.values.copy())
            ),
        ):
            full = run_episode(
                trajectory,
                policy_factory(),
                moderate_radar(),
                quiet_process(),
                EpisodeConfig(n_transmissions=160),
                np.random.default_rng(5),
            )
            prefix = run_episode(
                trajectory,
                policy_factory(),
                moderate_radar(),
                quiet_process(),
                EpisodeConfig(n_transmissions=60),
                np.random.default_rng(5),
            )
            assert np.array_equal(full.records[:60], prefix.records)

    def test_policy_context_fields_flow(self):
        trajectory = stationary_trajectory(161)
        result = run_episode(
            trajectory,
            FixedPolicy(1e6),
            moderate_radar(),
            quiet_process(),
            EpisodeConfig(),
            np.random.default_rng(2),
        )
        # meas_var recorded at step k becomes the context of step k+1; all
        # transmissions here share one bandwidth so R_rr is range-driven
        assert all(rec.pred_var > 0.0 for rec in result.records)
        assert all(rec.meas_var > 0.0 for rec in result.records)

    def test_initial_bandwidth_override(self):
        trajectory = stationary_trajectory(161)
        episode = EpisodeConfig(initial_bandwidth=7.5e6)
        result = run_episode(
            trajectory,
            FixedPolicy(1e6),
            quiet_radar(),
            quiet_process(),
            episode,
            np.random.default_rng(0),
        )
        # the override affects only the initiation dwell, not the loop
        assert all(rec.bandwidth == 1e6 for rec in result.records)

    def test_trajectory_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            run_episode(
                stationary_trajectory(100),
                FixedPolicy(1e6),
                quiet_radar(),
                quiet_process(),
                EpisodeConfig(n_transmissions=160),
                np.random.default_rng(0),
            )

    def test_nontabular_records_have_no_indices(self):
        result = run_episode(
            stationary_trajectory(21),
            BandwidthScalingPolicy(),
            moderate_radar(),
            quiet_process(),
            EpisodeConfig(n_transmissions=20),
            np.random.default_rng(0),
        )
        assert all(rec.state_index == -1 for rec in result.records)

    def test_tabular_records_have_indices(self):
        result = run_episode(
            stationary_trajectory(21),
            QLearningPolicy(QTable.zeros(wide_edges()), epsilon=0.0),
            moderate_radar(),
            quiet_process(),
            EpisodeConfig(n_transmissions=20),
            np.random.default_rng(0),
        )
        assert all(0 <= rec.state_index < 80 for rec in result.records)
        assert all(0 <= rec.action_index < 6 for rec in result.records)


def run_scripted(hits, miss_limit=5):
    """Run an episode whose gate answers from ``hits`` in order: True is a
    hit, False a miss.  Everything else in the loop runs for real."""
    answers = iter(hits)

    def scripted_gate(nu, r):
        return GateResult(
            correlated=next(answers), range_window=1.0, range_innovation=float(nu[0])
        )

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "gate", scripted_gate)
        return run_episode(
            stationary_trajectory(len(hits) + 1),
            FixedPolicy(1e6),
            quiet_radar(),
            quiet_process(),
            EpisodeConfig(n_transmissions=len(hits), miss_limit=miss_limit),
            np.random.default_rng(0),
        )


class TestMissCounter:
    """Track loss is declared at ``miss_limit`` consecutive gate misses."""

    def test_miss_increments(self):
        result = run_scripted([False] * 4)
        assert result.successful
        assert len(result.records) == 4
        assert not result.records.correlated.any()

    def test_hit_resets(self):
        result = run_scripted([False] * 4 + [True] + [False] * 4)
        assert result.successful
        assert len(result.records) == 9
        lost = run_scripted([False] * 4 + [True] + [False] * 5 + [True])
        assert lost.lost_at == 10

    def test_fifth_consecutive_miss_loses(self):
        result = run_scripted([True] * 3 + [False] * 5 + [True] * 5)
        assert result.lost_at == 8
        assert len(result.records) == 8

    def test_five_misses_from_fresh(self):
        result = run_scripted([False] * 10)
        assert result.lost_at == 5
        assert len(result.records) == 5

    def test_custom_miss_limit(self):
        result = run_scripted([True] * 3 + [False] * 3 + [True] * 5, miss_limit=3)
        assert result.lost_at == 6
        assert len(result.records) == 6
        assert run_scripted([False] * 10, miss_limit=3).lost_at == 3

    def test_alternating_never_loses(self):
        result = run_scripted([i % 2 == 0 for i in range(200)])
        assert result.successful
        assert len(result.records) == 200

    @given(st.lists(st.booleans(), min_size=1, max_size=60))
    def test_loss_matches_reference_scan(self, hits):
        """Oracle: replay the hit/miss sequence with a plain counter."""
        expected_lost = None
        run = 0
        for i, hit in enumerate(hits):
            run = 0 if hit else run + 1
            if run >= 5:
                expected_lost = i + 1
                break
        result = run_scripted(hits)
        assert result.lost_at == expected_lost
        n = len(hits) if expected_lost is None else expected_lost
        assert len(result.records) == n
        assert result.records.correlated.tolist() == hits[:n]


class TestTrainQlearning:
    def test_zero_runs_leaves_table_unchanged(self):
        table = QTable.zeros(wide_edges())
        before = table.values.copy()
        out = train_qlearning(
            stationary_trajectory(161),
            table,
            moderate_radar(),
            quiet_process(),
            EpisodeConfig(),
            n_runs=0,
            base_seed=0,
        )
        assert out is table
        assert np.array_equal(table.values, before)

    def test_training_touches_table_within_bounds(self):
        table = QTable.zeros(wide_edges(), hyperparams=Hyperparams(epsilon=0.2, L=1))
        train_qlearning(
            stationary_trajectory(161),
            table,
            moderate_radar(),
            quiet_process(),
            EpisodeConfig(),
            n_runs=10,
            base_seed=42,
        )
        assert np.count_nonzero(table.values) > 0
        assert np.all(table.values <= 0.0)
        assert np.all(table.values >= -20.0)

    def test_training_deterministic(self):
        def train_once():
            table = QTable.zeros(wide_edges(), hyperparams=Hyperparams(epsilon=0.2, L=5))
            train_qlearning(
                stationary_trajectory(161),
                table,
                moderate_radar(),
                quiet_process(),
                EpisodeConfig(),
                n_runs=5,
                base_seed=7,
            )
            return table.values

        assert np.array_equal(train_once(), train_once())


class TestEvaluate:
    def test_aggregates_all_runs(self):
        [(results, per_step)] = evaluate(
            stationary_trajectory(161),
            [FixedPolicy(1e6)],
            moderate_radar(),
            quiet_process(),
            EpisodeConfig(),
            n_runs=8,
            base_seed=0,
        )
        assert len(results) == 8
        assert per_step == pytest.approx(mean_windowed_mse(results))

    def test_single_run_report_matches_run(self):
        [(results, per_step)] = evaluate(
            stationary_trajectory(161),
            [FixedPolicy(1e6)],
            moderate_radar(),
            quiet_process(),
            EpisodeConfig(),
            n_runs=1,
            base_seed=3,
        )
        assert per_step == pytest.approx(
            windowed_min(results[0].squared_errors(), 3)
        )

    def test_never_mutates_qtable(self):
        table = QTable.zeros(wide_edges())
        table.values[:] = -np.random.default_rng(0).random((80, 6))
        before = table.values.copy()
        evaluate(
            stationary_trajectory(161),
            [QLearningPolicy(table, epsilon=0.0)],
            moderate_radar(),
            quiet_process(),
            EpisodeConfig(),
            n_runs=4,
            base_seed=0,
        )
        assert np.array_equal(table.values, before)

    def test_deterministic_across_invocations(self):
        def once():
            [score] = evaluate(
                stationary_trajectory(161),
                [BandwidthScalingPolicy()],
                moderate_radar(),
                quiet_process(),
                EpisodeConfig(),
                n_runs=5,
                base_seed=9,
            )
            return score

        first_results, first_per_step = once()
        second_results, second_per_step = once()
        assert all(map(same_run, first_results, second_results))
        assert first_per_step == pytest.approx(second_per_step, abs=0.0)


class TestSeededRuns:
    def test_replay_cannot_hide_a_lane_failure(self, monkeypatch):
        """When only the many-lane call fails, the one-lane replay runs every
        lane to the end and then that call's error is raised, not the
        replayed results."""
        error = DegenerateInnovationError("lanes only")
        lane_update = lockstep._lane_update

        def failing_lane_update(x, *args):
            if len(x) > 1:  # a one-lane call never fails
                raise error
            return lane_update(x, *args)

        replayed = []
        run_episode = experiment.run_episode

        def recorded(*args, **kwargs):
            replayed.append(run_episode(*args, **kwargs))  # a failed call appends nothing
            return replayed[-1]

        monkeypatch.setattr(lockstep, "_lane_update", failing_lane_update)
        monkeypatch.setattr(experiment, "run_episode", recorded)
        with pytest.raises(DegenerateInnovationError) as raised:
            seeded_runs([FixedPolicy(1e6)] * 3, range(3), 0, stationary_trajectory(41),
                        moderate_radar(), quiet_process(), EpisodeConfig(n_transmissions=40))
        assert raised.value is error
        assert [run.successful for run in replayed] == [True] * 3


class TestCalibrateDiscretizer:
    def test_produces_valid_discretizer(self):
        d = calibrate_discretizer(
            stationary_trajectory(161),
            moderate_radar(),
            quiet_process(),
            EpisodeConfig(),
            n_runs=12,
            base_seed=0,
            actions=ActionSet(),
        )
        assert len(d.pred_var_edges) == 9
        assert len(d.meas_var_edges) == 7

    def test_deterministic(self):
        args = (
            stationary_trajectory(161),
            moderate_radar(),
            quiet_process(),
            EpisodeConfig(),
        )
        kwargs = dict(n_runs=6, base_seed=0, actions=ActionSet())
        assert calibrate_discretizer(*args, **kwargs) == calibrate_discretizer(
            *args, **kwargs
        )


class TestCsvExport:
    def make_result(self):
        return run_episode(
            stationary_trajectory(41),
            FixedPolicy(1e6),
            moderate_radar(),
            quiet_process(),
            EpisodeConfig(n_transmissions=40),
            np.random.default_rng(4),
        )

    def test_run_csv_round_trips_floats(self, tmp_path):
        result = self.make_result()
        path = tmp_path / "run.csv"
        save_run_csv(result, 2.0, str(path))
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(result.records)
        for step, (row, rec) in enumerate(zip(rows, result.records)):
            assert int(row["step"]) == step
            assert float(row["bandwidth_hz"]) == rec.bandwidth
            assert float(row["range_error_m"]) == rec.range_error_true
            assert float(row["innovation_m"]) == rec.range_innovation
            assert float(row["window_m"]) == rec.range_window
            assert int(row["correlated"]) == int(rec.correlated)
            assert float(row["reward"]) == reward(rec.range_error_true, False, 2.0)
            assert row["state"] == ""
            assert row["action"] == ""

    def test_run_csv_header(self, tmp_path):
        path = tmp_path / "run.csv"
        save_run_csv(self.make_result(), 2.0, str(path))
        first = path.read_text().splitlines()[0]
        assert first == (
            "step,bandwidth_hz,range_error_m,innovation_m,window_m,"
            "correlated,reward,state,action"
        )

    def test_byte_identical_rewrites(self, tmp_path):
        result = self.make_result()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_run_csv(result, 2.0, str(a))
        save_run_csv(result, 2.0, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_loss_reward_is_minus_C(self, tmp_path):
        """Only the loss row, the last, reads -C; C is the writer's argument."""
        result = run_scripted([True] * 3 + [False] * 5 + [True] * 5)
        for C in (2.0, 0.5):
            path = tmp_path / "run.csv"
            save_run_csv(result, C, str(path))
            with open(path) as handle:
                rewards = [float(row["reward"]) for row in csv.DictReader(handle)]
            assert len(rewards) == 8
            assert rewards[-1] == -C
            assert all(r > -C for r in rewards[:-1])

    def test_metrics_csv(self, tmp_path):
        [(_, per_step)] = evaluate(
            stationary_trajectory(161),
            [FixedPolicy(1e6)],
            moderate_radar(),
            quiet_process(),
            EpisodeConfig(),
            n_runs=3,
            base_seed=0,
        )
        path = tmp_path / "metrics.csv"
        save_metrics_csv(per_step, str(path))
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(per_step)
        for i, row in enumerate(rows):
            assert int(row["step"]) == i
            assert float(row["mean_windowed_min_mse"]) == per_step[i]

    def test_histogram_csv_final_row_labeled(self, tmp_path):
        runs = [fake_run([1.0] * 12, lost=True), fake_run([1.0] * 160)]
        path = tmp_path / "hist.csv"
        save_histogram_csv(runs, 160, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert lines[1] == "0,20,1"
        assert lines[-1] == "full_track,,1"
        assert len(lines) == 2 + len(success_histogram(runs, 160))

    def test_no_stray_tmp_files(self, tmp_path):
        path = tmp_path / "run.csv"
        save_run_csv(self.make_result(), 2.0, str(path))
        save_run_csv(self.make_result(), 2.0, str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]


class TestConfigValidation:
    def test_episode_config_rejects(self):
        with pytest.raises(ValueError):
            EpisodeConfig(n_transmissions=0)
        with pytest.raises(ValueError):
            EpisodeConfig(miss_limit=0)
        with pytest.raises(ValueError):
            EpisodeConfig(initial_bandwidth=0.0)

    def test_episode_config_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            EpisodeConfig(seed=-1)

    def test_run_result_invariant(self):
        with pytest.raises(ValueError):
            RunResult(records=fake_run([]).records, lost_at=3)
