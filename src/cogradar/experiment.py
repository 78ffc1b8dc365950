"""Closed-loop episodes, training and evaluation campaigns, and metrics.

One episode walks a trajectory one transmission per sample: predict, let the
policy pick a bandwidth, measure, gate on the predicted residual, update on a
hit (a miss keeps the prediction), score.  The first sample initializes the
track (velocity unknown, large covariance) and the remaining samples form the
decision loop.  Episodes stop early when the gate misses ``miss_limit`` times
in a row.

Reproducibility contract: every random draw flows from the episode rng, and
campaigns seed run i with base_seed + i, so any run can be replayed alone.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fileio import atomic_write_text
from .policy import (
    ActionSet,
    FixedPolicy,
    Discretizer,
    Policy,
    PolicyContext,
    QLearningPolicy,
    QTable,
    reward,
)
from .radar import RadarConfig, measure, observe_jacobian
from .tracker import (
    ProcessModel,
    TrackStatus,
    gate,
    initialize_track,
    innovation,
    predict,
    step_status,
    update,
)
from .trajectory import TruthPoint

DEFAULT_N_TRANSMISSIONS = 160
DEFAULT_MSE_WINDOW = 3
DEFAULT_HISTOGRAM_BIN_WIDTH = 20
DEFAULT_TRAIN_RUNS = 200
DEFAULT_EVAL_RUNS = 100

RUN_CSV_HEADER = [
    "step",
    "bandwidth_hz",
    "range_error_m",
    "innovation_m",
    "window_m",
    "correlated",
    "reward",
    "state",
    "action",
]
METRICS_CSV_HEADER = ["step", "mean_windowed_min_mse"]
HISTOGRAM_CSV_HEADER = ["bin_lo", "bin_hi", "count"]
FULL_TRACK_LABEL = "full_track"


@dataclass(frozen=True)
class EpisodeConfig:
    """Per-episode protocol: how many dwells, when a track counts as lost.

    ``initial_bandwidth`` None defers the track-initiation waveform to the
    policy.
    """

    n_transmissions: int = DEFAULT_N_TRANSMISSIONS
    miss_limit: int = 5
    seed: int = 0
    initial_bandwidth: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_transmissions <= 0:
            raise ValueError("n_transmissions must be > 0")
        if self.miss_limit < 1:
            raise ValueError("miss_limit must be >= 1")
        if self.initial_bandwidth is not None and self.initial_bandwidth <= 0.0:
            raise ValueError("initial_bandwidth must be > 0")


@dataclass(frozen=True)
class StepRecord:
    """Everything observable about one transmission."""

    step: int
    bandwidth: float  # Hz
    range_error_true: float  # m, |estimated - true| range
    range_innovation: float  # m
    range_window: float  # m
    correlated: bool
    reward: float
    state_index: Optional[int]  # None for non-tabular policies
    action_index: Optional[int]
    pred_var: float  # m^2, range-projected prior variance
    meas_var: float  # m^2, R_rr of this transmission


@dataclass(frozen=True)
class RunResult:
    records: tuple[StepRecord, ...]
    lost_at: Optional[int]

    def __post_init__(self) -> None:
        if self.lost_at is not None and self.lost_at != len(self.records):
            raise ValueError("lost_at must equal the number of records")

    @property
    def successful(self) -> bool:
        return self.lost_at is None

    def squared_errors(self) -> np.ndarray:
        return np.array([rec.range_error_true for rec in self.records]) ** 2


@dataclass(frozen=True)
class SuccessHistogram:
    """Counts of beams-before-loss; full tracks get a dedicated final bin."""

    bin_width: int
    bin_lows: tuple[int, ...]
    counts: tuple[int, ...]
    full_track_count: int
    n_runs: int

    def __post_init__(self) -> None:
        if sum(self.counts) + self.full_track_count != self.n_runs:
            raise ValueError("histogram counts must sum to the number of runs")


@dataclass(frozen=True)
class MetricsReport:
    mean_windowed_min_mse: np.ndarray  # m^2 per step
    histogram: SuccessHistogram
    n_runs: int

    @property
    def full_track_count(self) -> int:
        return self.histogram.full_track_count


# ---------------------------------------------------------------------------
# Episode loop
# ---------------------------------------------------------------------------


def run_episode(
    trajectory: Sequence[TruthPoint],
    policy: Policy,
    radar: RadarConfig,
    process: ProcessModel,
    episode: EpisodeConfig,
    rng: Optional[np.random.Generator] = None,
    learning: bool = False,
) -> RunResult:
    """Run one tracking episode; returns a record per transmission.

    Sample 0 initializes the track; samples 1..n_transmissions are the
    decision loop.  The policy sees only quantities computable before its
    transmission: the range-projected prior variance, the previous waveform's
    range noise variance, and the previous gate outcome.
    """
    if len(trajectory) < episode.n_transmissions + 1:
        raise ValueError(
            "trajectory too short: need n_transmissions + 1 = "
            f"{episode.n_transmissions + 1} samples, have {len(trajectory)}"
        )
    if rng is None:
        rng = np.random.default_rng(episode.seed)
    policy.reset()

    init_bw = (
        episode.initial_bandwidth
        if episode.initial_bandwidth is not None
        else policy.initial_bandwidth()
    )
    z0 = measure(trajectory[0], init_bw, radar, rng)
    track = initialize_track(z0, radar)
    status = TrackStatus()
    last_meas_var = float(z0.noise_cov[0, 0])
    last_correlated = True
    streak = 1  # the initiation transmission counts as correlated

    records: list[StepRecord] = []
    radar_position = radar.position_array
    for k in range(episode.n_transmissions):
        truth = trajectory[k + 1]
        prior = predict(track, process, truth.phase)
        H = observe_jacobian(prior.x_hat, radar_position)
        pred_var = float((H @ prior.P @ H.T)[0, 0])
        ctx = PolicyContext(
            predicted_range_variance=pred_var,
            last_measurement_range_variance=last_meas_var,
            last_correlated=last_correlated,
            correlated_streak=streak,
            step=k,
        )
        bandwidth = policy.choose(ctx, rng)
        z = measure(truth, bandwidth, radar, rng)
        nu = innovation(prior, z, radar_position)
        decision = gate(nu, z)
        if decision.correlated:
            track = update(prior, z, H, nu)
            streak += 1
        else:
            track = prior
            streak = 0
        status = step_status(status, decision.correlated, episode.miss_limit)

        est_range = float(np.linalg.norm(track.position - radar_position))
        true_range = float(np.linalg.norm(truth.position - radar_position))
        range_error = abs(est_range - true_range)
        r = reward(range_error, status.lost, policy.reward_clip)
        if learning:
            policy.learn(r)

        records.append(
            StepRecord(
                step=k,
                bandwidth=bandwidth,
                range_error_true=range_error,
                range_innovation=decision.range_innovation,
                range_window=decision.range_window,
                correlated=decision.correlated,
                reward=r,
                state_index=policy.last_state,
                action_index=policy.last_action,
                pred_var=pred_var,
                meas_var=float(z.noise_cov[0, 0]),
            )
        )
        last_meas_var = float(z.noise_cov[0, 0])
        last_correlated = decision.correlated
        if status.lost:
            break

    return RunResult(records=tuple(records), lost_at=status.lost_at_step)


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


def train_qlearning(
    trajectory: Sequence[TruthPoint],
    table: QTable,
    radar: RadarConfig,
    process: ProcessModel,
    episode: EpisodeConfig,
    n_runs: int = DEFAULT_TRAIN_RUNS,
    base_seed: int = 0,
) -> QTable:
    """Update the table over n_runs epsilon-greedy episodes, seeded
    base_seed + run index."""
    if n_runs < 0:
        raise ValueError("n_runs must be >= 0")
    policy = QLearningPolicy(table)
    for i in range(n_runs):
        rng = np.random.default_rng(base_seed + i)
        run_episode(trajectory, policy, radar, process, episode, rng, learning=True)
    return table


def evaluate(
    trajectory: Sequence[TruthPoint],
    policy: Policy,
    radar: RadarConfig,
    process: ProcessModel,
    episode: EpisodeConfig,
    n_runs: int = DEFAULT_EVAL_RUNS,
    base_seed: int = 0,
    window: int = DEFAULT_MSE_WINDOW,
    bin_width: int = DEFAULT_HISTOGRAM_BIN_WIDTH,
) -> tuple[tuple[RunResult, ...], MetricsReport]:
    """Run n_runs frozen episodes and aggregate the tracking metrics."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    results = tuple(
        run_episode(
            trajectory,
            policy,
            radar,
            process,
            episode,
            np.random.default_rng(base_seed + i),
            learning=False,
        )
        for i in range(n_runs)
    )
    report = MetricsReport(
        mean_windowed_min_mse=mean_windowed_mse(results, window),
        histogram=success_histogram(results, bin_width, episode.n_transmissions),
        n_runs=n_runs,
    )
    return results, report


def calibrate_discretizer(
    trajectory: Sequence[TruthPoint],
    radar: RadarConfig,
    process: ProcessModel,
    episode: EpisodeConfig,
    n_runs: int = 100,
    base_seed: int = 0,
    actions: Optional[ActionSet] = None,
) -> Discretizer:
    """Pilot campaign for bin edges: fixed-bandwidth episodes cycling through
    the action menu, pooling the variances the policies will later see."""
    actions = actions if actions is not None else ActionSet()
    pred_vars: list[float] = []
    meas_vars: list[float] = []
    for i in range(n_runs):
        policy = FixedPolicy(actions[i % len(actions)], radar.min_bw, radar.max_bw)
        rng = np.random.default_rng(base_seed + i)
        result = run_episode(
            trajectory, policy, radar, process, episode, rng, learning=False
        )
        pred_vars.extend(rec.pred_var for rec in result.records)
        meas_vars.extend(rec.meas_var for rec in result.records)
    return Discretizer.from_samples(pred_vars, meas_vars)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def windowed_min(series: Sequence[float], window: int = DEFAULT_MSE_WINDOW) -> np.ndarray:
    """Minimum over each full window of ``window`` consecutive values."""
    if window < 1:
        raise ValueError("window must be >= 1")
    arr = np.asarray(series, dtype=float)
    if arr.size < window:
        return np.empty(0)
    return np.lib.stride_tricks.sliding_window_view(arr, window).min(axis=1)


def mean_windowed_mse(
    results: Sequence[RunResult], window: int = DEFAULT_MSE_WINDOW
) -> np.ndarray:
    """Per-step mean of the windowed-min squared range error, averaging only
    over runs still alive at each step."""
    if len(results) == 0:
        raise ValueError("need at least one run")
    series = [windowed_min(result.squared_errors(), window) for result in results]
    max_len = max(len(s) for s in series)
    if max_len == 0:
        return np.empty(0)
    total = np.zeros(max_len)
    alive = np.zeros(max_len, dtype=int)
    for s in series:
        total[: len(s)] += s
        alive[: len(s)] += 1
    return total / alive


def overall_windowed_mse(
    results: Sequence[RunResult], window: int = DEFAULT_MSE_WINDOW
) -> float:
    """Scalar summary: mean over every windowed-min value of every run."""
    pooled = np.concatenate(
        [windowed_min(result.squared_errors(), window) for result in results]
    )
    if pooled.size == 0:
        raise ValueError("no full windows to aggregate")
    return float(pooled.mean())


def success_histogram(
    results: Sequence[RunResult],
    bin_width: int = DEFAULT_HISTOGRAM_BIN_WIDTH,
    n_transmissions: Optional[int] = None,
) -> SuccessHistogram:
    """Histogram of beams-before-loss with a dedicated full-track bin."""
    if bin_width < 1:
        raise ValueError("bin_width must be >= 1")
    lost_steps = [r.lost_at for r in results if r.lost_at is not None]
    if n_transmissions is None:
        n_transmissions = max(
            [len(r.records) for r in results] + lost_steps + [bin_width]
        )
    n_bins = n_transmissions // bin_width + 1
    counts = [0] * n_bins
    for lost_at in lost_steps:
        counts[min(lost_at // bin_width, n_bins - 1)] += 1
    return SuccessHistogram(
        bin_width=bin_width,
        bin_lows=tuple(i * bin_width for i in range(n_bins)),
        counts=tuple(counts),
        full_track_count=sum(1 for r in results if r.successful),
        n_runs=len(results),
    )


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    """Shortest representation that round-trips a float exactly."""
    return f"{value:.17g}"


def save_run_csv(result: RunResult, path: str) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(RUN_CSV_HEADER)
    for rec in result.records:
        writer.writerow(
            [
                rec.step,
                _fmt(rec.bandwidth),
                _fmt(rec.range_error_true),
                _fmt(rec.range_innovation),
                _fmt(rec.range_window),
                int(rec.correlated),
                _fmt(rec.reward),
                "" if rec.state_index is None else rec.state_index,
                "" if rec.action_index is None else rec.action_index,
            ]
        )
    atomic_write_text(path, buffer.getvalue())


def save_metrics_csv(report: MetricsReport, path: str) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(METRICS_CSV_HEADER)
    for step, value in enumerate(report.mean_windowed_min_mse):
        writer.writerow([step, _fmt(value)])
    atomic_write_text(path, buffer.getvalue())


def save_histogram_csv(histogram: SuccessHistogram, path: str) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(HISTOGRAM_CSV_HEADER)
    for lo, count in zip(histogram.bin_lows, histogram.counts):
        writer.writerow([lo, lo + histogram.bin_width, count])
    writer.writerow([FULL_TRACK_LABEL, "", histogram.full_track_count])
    atomic_write_text(path, buffer.getvalue())
