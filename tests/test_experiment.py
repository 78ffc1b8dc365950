import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cogradar import experiment, lockstep
from cogradar.config import default_scenario
from cogradar.experiment import (
    MSE_WINDOW,
    RECORD_DTYPE,
    EpisodeConfig,
    calibrate_discretizer,
    campaign_truth,
    evaluate,
    mean_windowed_mse,
    overall_windowed_mse,
    run_episode,
    save_histogram_csv,
    save_metrics_csv,
    save_run_csv,
    seeded_run,
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
from cogradar.radar import RadarConfig, TruthSide
from cogradar.records import Runs
from cogradar.tracker import DegenerateInnovationError, GateResult, ProcessModel, update
from cogradar.trajectory import Phase, TruthPoint, generate_trajectory
import scoring_oracle
from scoring_oracle import pack

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
    return Runs(records, ends=np.array([len(records)]), lost_at=(len(records) if lost else None,))


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
        assert mean_windowed_mse(pack([run])) == pytest.approx(expected)

    def test_zero_error_run(self):
        assert mean_windowed_mse(pack([fake_run([0.0] * 10)])) == pytest.approx([0.0] * 8)

    def test_two_constant_runs_average(self):
        runs = [fake_run([2.0] * 6), fake_run([4.0] * 6)]
        expected = (4.0 + 16.0) / 2.0
        assert mean_windowed_mse(pack(runs)) == pytest.approx([expected] * 4)

    def test_alive_counting_after_loss(self):
        # second run dies early: later steps average over the survivor only
        runs = [fake_run([2.0] * 8), fake_run([4.0] * 5, lost=True)]
        out = mean_windowed_mse(pack(runs))
        assert len(out) == 6
        assert out[:3] == pytest.approx([(4.0 + 16.0) / 2.0] * 3)
        assert out[3:] == pytest.approx([4.0] * 3)

    def test_overall_scalar(self):
        runs = [fake_run([2.0] * 6), fake_run([4.0] * 6)]
        assert overall_windowed_mse(pack(runs)) == pytest.approx(10.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_windowed_mse(pack([]))


class TestBlockScoring:
    """The block scoring against the per-run oracle in ``scoring_oracle``:
    equal ``per_step`` bytes and an equal overall mean, or the same error."""

    @staticmethod
    def runs(lengths, seed):
        rng = np.random.default_rng(seed)
        return [fake_run(rng.lognormal(0.0, 2.0, n), lost=n < 160) for n in lengths]

    def assert_scores_match(self, results):
        got, want = mean_windowed_mse(pack(results)), scoring_oracle.mean_windowed_mse(results)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert overall_windowed_mse(pack(results)) == scoring_oracle.overall_windowed_mse(results)

    @pytest.mark.parametrize("seed", range(4))
    def test_ragged_lanes(self, seed):
        """Lanes lost at different dwells, among full tracks, in any order."""
        lengths = np.random.default_rng(seed).integers(3, 161, 40)
        lengths[::3] = 160
        self.assert_scores_match(self.runs(lengths.tolist(), seed))

    def test_lanes_shorter_than_the_window(self):
        lengths = [0, 160, 1, 2, 3, 5, 2, 0, 77, 1]
        assert min(lengths) < MSE_WINDOW
        self.assert_scores_match(self.runs(lengths, 5))
        self.assert_scores_match(self.runs([2, 40, 1], 6))  # the longest lane in the middle

    def test_every_lane_too_short(self):
        results = self.runs([0, 2, 1, 2], 7)
        got, want = mean_windowed_mse(pack(results)), scoring_oracle.mean_windowed_mse(results)
        assert got.size == want.size == 0 and got.dtype == want.dtype
        for score in (overall_windowed_mse, scoring_oracle.overall_windowed_mse):
            packed = pack(results) if score is overall_windowed_mse else results
            with pytest.raises(ValueError, match="no full windows to aggregate"):
                score(packed)

    def test_campaign_blocks(self):
        """A lockstep campaign's blocks, lost lanes among them, scored whole
        and run by run."""
        sc = default_scenario()
        truth = campaign_truth(generate_trajectory(sc.trajectory, seed=sc.episode.seed),
                               sc.radar, sc.episode)
        policies = [FixedPolicy(5e6), BandwidthScalingPolicy(), FixedPolicy(1e6)]
        scores = evaluate(truth, policies, sc.process, sc.episode.miss_limit, n_runs=12,
                          base_seed=100)
        assert any(not runs.successful for runs, _ in scores)
        for runs, per_step in scores:
            assert per_step.tobytes() == scoring_oracle.mean_windowed_mse(list(runs)).tobytes()
            self.assert_scores_match(list(runs))


class TestSuccessHistogram:
    def test_all_successful(self):
        runs = [fake_run([1.0] * 160) for _ in range(10)]
        counts = success_histogram(pack(runs), n_transmissions=160)
        assert len(counts) == 9
        assert sum(counts) == 0

    def test_lost_at_twelve(self):
        runs = [fake_run([1.0] * 12, lost=True)]
        counts = success_histogram(pack(runs), n_transmissions=160)
        assert counts[0] == 1
        assert sum(counts) == 1

    def test_counts_conserved(self):
        runs = [
            fake_run([1.0] * 12, lost=True),
            fake_run([1.0] * 77, lost=True),
            fake_run([1.0] * 160),
            fake_run([1.0] * 160, lost=True),
        ]
        counts = success_histogram(pack(runs), n_transmissions=160)
        assert sum(counts) + sum(run.successful for run in runs) == 4
        assert counts[77 // 20] >= 1
        assert counts[-1] == 1  # loss on the final transmission


class TestRunEpisode:
    def test_stationary_quiet_scenario_is_successful(self):
        trajectory = stationary_trajectory(161)
        result = run_episode(
            TruthSide(trajectory, quiet_radar()),
            FixedPolicy(1e6),
            quiet_process(),
            5,
            np.random.default_rng(0),
        )
        assert result.successful
        assert result.lost_at == (None,)
        assert len(result.records) == 160
        assert all(rec.correlated for rec in result.records)
        assert all(rec.bandwidth == 1e6 for rec in result.records)

    def test_linear_target_converges_with_moderate_noise(self):
        trajectory = linear_trajectory(
            161, position=(20_000.0, 5_000.0, 8_000.0), velocity=(-60.0, 20.0, -10.0)
        )
        result = run_episode(
            TruthSide(trajectory, moderate_radar()),
            FixedPolicy(1e6),
            quiet_process(),
            5,
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
            TruthSide(trajectory, quiet_radar()),
            FixedPolicy(0.5e6),
            quiet_process(),
            5,
            np.random.default_rng(1),
        )
        assert not result.successful
        assert result.lost_at == (5,)
        assert len(result.records) == 5
        assert not any(rec.correlated for rec in result.records)

    def test_deterministic_given_seed(self):
        truth = TruthSide(stationary_trajectory(161), moderate_radar())
        args = (truth, FixedPolicy(2.5e6), quiet_process(), 5)
        one = run_episode(*args, np.random.default_rng(7))
        two = run_episode(*args, np.random.default_rng(7))
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
                TruthSide(trajectory, moderate_radar()),
                policy_factory(),
                quiet_process(),
                5,
                np.random.default_rng(5),
            )
            prefix = run_episode(
                campaign_truth(trajectory, moderate_radar(), EpisodeConfig(n_transmissions=60)),
                policy_factory(),
                quiet_process(),
                5,
                np.random.default_rng(5),
            )
            assert np.array_equal(full.records[:60], prefix.records)

    def test_policy_context_fields_flow(self):
        trajectory = stationary_trajectory(161)
        result = run_episode(
            TruthSide(trajectory, moderate_radar()),
            FixedPolicy(1e6),
            quiet_process(),
            5,
            np.random.default_rng(2),
        )
        # meas_var recorded at step k becomes the context of step k+1; all
        # transmissions here share one bandwidth so R_rr is range-driven
        assert all(rec.pred_var > 0.0 for rec in result.records)
        assert all(rec.meas_var > 0.0 for rec in result.records)

    def test_trajectory_too_short_rejected(self):
        """The campaign's truth refuses a trajectory too short for its dwells,
        naming no run; the episode runs as many dwells as its truth has."""
        message = r"^trajectory too short: need n_transmissions \+ 1 = 161 samples, have 100$"
        with pytest.raises(ValueError, match=message):
            campaign_truth(stationary_trajectory(100), quiet_radar(),
                           EpisodeConfig(n_transmissions=160))
        truth = campaign_truth(stationary_trajectory(100), quiet_radar(),
                               EpisodeConfig(n_transmissions=99))
        assert len(truth) == 100
        result = run_episode(truth, FixedPolicy(1e6), quiet_process(), 5,
                             np.random.default_rng(0))
        assert len(result.records) == 99

    def test_nontabular_records_have_no_indices(self):
        result = run_episode(
            TruthSide(stationary_trajectory(21), moderate_radar()),
            BandwidthScalingPolicy(),
            quiet_process(),
            5,
            np.random.default_rng(0),
        )
        assert all(rec.state_index == -1 for rec in result.records)

    def test_tabular_records_have_indices(self):
        result = run_episode(
            TruthSide(stationary_trajectory(21), moderate_radar()),
            QLearningPolicy(QTable.zeros(wide_edges()), epsilon=0.0),
            quiet_process(),
            5,
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
            TruthSide(stationary_trajectory(len(hits) + 1), quiet_radar()),
            FixedPolicy(1e6),
            quiet_process(),
            miss_limit,
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
        assert lost.lost_at == (10,)

    def test_fifth_consecutive_miss_loses(self):
        result = run_scripted([True] * 3 + [False] * 5 + [True] * 5)
        assert result.lost_at == (8,)
        assert len(result.records) == 8

    def test_five_misses_from_fresh(self):
        result = run_scripted([False] * 10)
        assert result.lost_at == (5,)
        assert len(result.records) == 5

    def test_custom_miss_limit(self):
        result = run_scripted([True] * 3 + [False] * 3 + [True] * 5, miss_limit=3)
        assert result.lost_at == (6,)
        assert len(result.records) == 6
        assert run_scripted([False] * 10, miss_limit=3).lost_at == (3,)

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
        assert result.lost_at == (expected_lost,)
        n = len(hits) if expected_lost is None else expected_lost
        assert len(result.records) == n
        assert result.records.correlated.tolist() == hits[:n]


class TestTrainQlearning:
    def test_zero_runs_leaves_table_unchanged(self):
        table = QTable.zeros(wide_edges())
        before = table.values.copy()
        out = train_qlearning(
            TruthSide(stationary_trajectory(161), moderate_radar()),
            table,
            quiet_process(),
            5,
            n_runs=0,
            base_seed=0,
        )
        assert out is table
        assert np.array_equal(table.values, before)

    def test_training_touches_table_within_bounds(self):
        table = QTable.zeros(wide_edges(), hyperparams=Hyperparams(epsilon=0.2, L=1))
        train_qlearning(
            TruthSide(stationary_trajectory(161), moderate_radar()),
            table,
            quiet_process(),
            5,
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
                TruthSide(stationary_trajectory(161), moderate_radar()),
                table,
                quiet_process(),
                5,
                n_runs=5,
                base_seed=7,
            )
            return table.values

        assert np.array_equal(train_once(), train_once())


class TestEvaluate:
    def test_aggregates_all_runs(self):
        [(results, per_step)] = evaluate(
            TruthSide(stationary_trajectory(161), moderate_radar()),
            [FixedPolicy(1e6)],
            quiet_process(),
            5,
            n_runs=8,
            base_seed=0,
        )
        assert len(results) == 8
        assert per_step == pytest.approx(mean_windowed_mse(results))

    @pytest.mark.parametrize("n_transmissions", [1, 2])
    def test_fewer_dwells_than_one_window_run_nothing(self, monkeypatch, n_transmissions):
        """Fewer transmissions than ``MSE_WINDOW`` fill no window, so evaluate
        refuses them, naming the field and the window, before any run."""
        def fail(*args, **kwargs):
            raise AssertionError("no episode should run")

        monkeypatch.setattr(experiment, "run_episode", fail)
        message = f"^n_transmissions must be >= {MSE_WINDOW}, one MSE window, to evaluate$"
        with pytest.raises(ValueError, match=message):
            evaluate(campaign_truth(stationary_trajectory(161), moderate_radar(),
                                    EpisodeConfig(n_transmissions=n_transmissions)),
                     [FixedPolicy(1e6)], quiet_process(), 5, n_runs=1, base_seed=0)

    def test_single_run_report_matches_run(self):
        [(results, per_step)] = evaluate(
            TruthSide(stationary_trajectory(161), moderate_radar()),
            [FixedPolicy(1e6)],
            quiet_process(),
            5,
            n_runs=1,
            base_seed=3,
        )
        assert per_step == pytest.approx(
            windowed_min(results[0].records.range_error_true**2, 3)
        )

    def test_never_mutates_qtable(self):
        table = QTable.zeros(wide_edges())
        table.values[:] = -np.random.default_rng(0).random((80, 6))
        before = table.values.copy()
        evaluate(
            TruthSide(stationary_trajectory(161), moderate_radar()),
            [QLearningPolicy(table, epsilon=0.0)],
            quiet_process(),
            5,
            n_runs=4,
            base_seed=0,
        )
        assert np.array_equal(table.values, before)

    def test_deterministic_across_invocations(self):
        def once():
            [score] = evaluate(
                TruthSide(stationary_trajectory(161), moderate_radar()),
                [BandwidthScalingPolicy()],
                quiet_process(),
                5,
                n_runs=5,
                base_seed=9,
            )
            return score

        first_results, first_per_step = once()
        second_results, second_per_step = once()
        assert all(map(same_run, first_results, second_results))
        assert first_per_step == pytest.approx(second_per_step, abs=0.0)


class TestLastPosterior:
    """The posterior of a run's last dwell has no next predict to check it;
    each kernel checks it once the run ends, and the error names the run."""

    N = 10

    def campaign(self):
        return TruthSide(stationary_trajectory(self.N + 1), quiet_radar()), quiet_process(), 5

    @pytest.fixture
    def nan_last_update(self, monkeypatch):
        """The scalar loop's update, with a NaN posterior mean on dwell N."""
        calls = []

        def last_is_nan(*args):
            calls.append(None)
            x, P = update(*args)
            return (np.full(6, np.nan) if len(calls) == self.N else x), P

        monkeypatch.setattr(experiment, "update", last_is_nan)
        return calls

    def test_scalar_run(self, nan_last_update):
        truth, process, miss_limit = self.campaign()
        with pytest.raises(ValueError, match=r"^run 3 \(seed 103\): non-finite track state$"):
            seeded_run(3, 100, truth, FixedPolicy(1e6), process, miss_limit)
        assert len(nan_last_update) == self.N  # a hit on every dwell

    def test_scalar_training_run(self, nan_last_update):
        """A learner's reward rejects the NaN range error first."""
        truth, process, miss_limit = self.campaign()
        table = QTable.zeros(wide_edges(), hyperparams=Hyperparams(L=5))
        with pytest.raises(ValueError, match=r"^run 3 \(seed 103\): range_error must be "
                                             r"finite, got nan$"):
            seeded_run(3, 100, truth, QLearningPolicy(table), process, miss_limit,
                       learning=True)
        assert np.count_nonzero(np.isfinite(table.values)) == table.values.size

    @pytest.mark.parametrize("lost", [False, True], ids=["tracking", "lost"])
    def test_lanes(self, monkeypatch, lost):
        """Lane by lane: the run of seed 102 turns NaN on its last dwell, or
        on dwell 4 where it is made to lose its track."""
        truth, process, miss_limit = self.campaign()
        last = 4 if lost else self.N - 1
        dwell = lockstep.Lockstep._dwell

        def nan_dwell(self, lanes, k, parts):
            lanes = dwell(self, lanes, k, parts)
            if k == last:
                bad = [self.seeds[i] == 102 for i in lanes.ids.tolist()]
                lanes.x[bad] = np.nan
                if lost:
                    lanes.misses[bad] = miss_limit
            return lanes

        monkeypatch.setattr(lockstep.Lockstep, "_dwell", nan_dwell)
        with pytest.raises(ValueError, match=r"^run 2 \(seed 102\): non-finite track state$"):
            seeded_runs([FixedPolicy(1e6)] * 4, range(4), 100, truth, process, miss_limit)


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
            seeded_runs([FixedPolicy(1e6)] * 3, range(3), 0,
                        TruthSide(stationary_trajectory(41), moderate_radar()), quiet_process(), 5)
        assert raised.value is error
        assert [run.successful for run in replayed] == [True] * 3

    def test_replay_bisects_to_the_failed_lane(self, monkeypatch):
        """When the last of 64 lanes fails, the replay halves the lanes down
        to it: eight calls in all, not one per lane, naming that run."""
        class FailingPolicy(BandwidthScalingPolicy):  # fixed lanes make no choice
            def choose_lanes(self, *args):
                raise ValueError("failed lane")

        calls = []
        run_episode = experiment.run_episode

        def counted(*args, **kwargs):
            calls.append(len(args[1]))
            return run_episode(*args, **kwargs)

        monkeypatch.setattr(experiment, "run_episode", counted)
        with pytest.raises(ValueError, match=r"^run 63 \(seed 163\): failed lane$"):
            seeded_runs([FixedPolicy(1e6)] * 63 + [FailingPolicy()], range(64), 100,
                        TruthSide(stationary_trajectory(11), moderate_radar()), quiet_process(), 5)
        assert len(calls) <= 8

    def test_one_truth_side_per_campaign(self, monkeypatch):
        """Every lockstep call of a failing 64-lane campaign, bisection and
        replay included, reads the one ``TruthSide`` that ``campaign_truth``
        built for it and builds none, and its noise table then holds one
        column per bandwidth the lanes used."""
        class FailingPolicy(BandwidthScalingPolicy):  # fixed lanes make no choice
            def choose_lanes(self, *args):
                raise ValueError("failed lane")

        built, read = [], set()

        class Counted(TruthSide):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        run_episode = experiment.run_episode

        def recorded(truth, *args, **kwargs):
            read.add(id(truth))
            return run_episode(truth, *args, **kwargs)

        monkeypatch.setattr(experiment, "TruthSide", Counted)
        monkeypatch.setattr(experiment, "run_episode", recorded)
        policies = [FixedPolicy(1e6), BandwidthScalingPolicy()] * 31 + [FailingPolicy()] * 2
        episode = EpisodeConfig(n_transmissions=40)
        truth = campaign_truth(stationary_trajectory(41), moderate_radar(), episode)
        with pytest.raises(ValueError, match=r"^run 62 \(seed 162\): failed lane$"):
            seeded_runs(policies, range(64), 100, truth, quiet_process(), 5)
        assert built == [truth] and read == {id(truth)}
        truth = campaign_truth(teleport_trajectory(41), quiet_radar(), episode)
        runs = seeded_runs(policies[:4], range(4), 100, truth, quiet_process(), 5)
        assert built[1:] == [truth]
        used = set(runs.records.bandwidth.tolist()) | {1e6, 10e6}  # initiation included
        assert len(used) > 2 and sorted(truth.column) == sorted(used)
        assert truth.table.shape == (2, 41, len(used), 4)


class TestCalibrateDiscretizer:
    def test_produces_valid_discretizer(self):
        d = calibrate_discretizer(
            TruthSide(stationary_trajectory(161), moderate_radar()),
            quiet_process(),
            5,
            n_runs=12,
            base_seed=0,
            actions=ActionSet(),
        )
        assert len(d.pred_var_edges) == 9
        assert len(d.meas_var_edges) == 7

    def test_deterministic(self):
        def calibrate():
            truth = TruthSide(stationary_trajectory(161), moderate_radar())
            return calibrate_discretizer(truth, quiet_process(), 5, n_runs=6, base_seed=0,
                                         actions=ActionSet())

        assert calibrate() == calibrate()


class TestCsvExport:
    def make_result(self):
        return run_episode(
            TruthSide(stationary_trajectory(41), moderate_radar()),
            FixedPolicy(1e6),
            quiet_process(),
            5,
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
            TruthSide(stationary_trajectory(161), moderate_radar()),
            [FixedPolicy(1e6)],
            quiet_process(),
            5,
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
        save_histogram_csv(pack(runs), 160, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        assert lines[1] == "0,20,1"
        assert lines[-1] == "full_track,,1"
        assert len(lines) == 2 + len(success_histogram(pack(runs), 160))

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

    def test_episode_config_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            EpisodeConfig(seed=-1)

    def test_run_result_invariant(self):
        with pytest.raises(ValueError):
            Runs(fake_run([]).records, ends=np.array([0]), lost_at=(3,))
        with pytest.raises(ValueError, match="lost_at must equal the number of records"):
            Runs(fake_run([0.0] * 5).records, ends=np.array([2, 5]), lost_at=(None, 5))
