"""Closed-loop episodes, training and evaluation campaigns, and metrics.

One episode walks a trajectory one transmission per sample: predict, let the
policy pick a bandwidth, measure, gate on the predicted residual, update on a
hit (a miss keeps the prediction), score.  The first sample initializes the
track (velocity unknown, large covariance) and the remaining samples form the
decision loop.  Episodes stop early when the gate misses ``miss_limit`` times
in a row.

Every frozen run, one lane or many, is a lane of one lockstep ``run_episode``
call (the kernel is in ``lockstep``); the scalar loop here runs training and
is the tests' oracle.  ``seeded_runs`` replays a failed call lane by lane, so
the error names its run.

Reproducibility contract: every random draw flows from the episode rng, and
run i of a campaign draws from ``default_rng(base_seed + i)``, so any run
replays alone.  A frozen run draws four normals per transmission and nothing
else, so lane j of a lockstep call replays as that run of the scalar loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .fileio import require_float, require_int, write_csv
from .lockstep import Lockstep, require_frozen
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
from .radar import RadarConfig, TruthSide, measure, observe_jacobian
from .records import RECORD_DTYPE, RunResult, Runs
from .tracker import (
    ProcessModel,
    gate,
    initialize_track,
    innovation,
    predict,
    update,
)
from .trajectory import TruthPoint

DEFAULT_N_TRANSMISSIONS = 160
MSE_WINDOW = 3  # dwells per windowed-min
HISTOGRAM_BIN_WIDTH = 20  # dwells per beams-before-loss bin

RUN_CSV_HEADER = [
    "step",
    "bandwidth_hz",
    "range_error_m",
    "innovation_m",
    "window_m",
    "correlated",
    "reward",  # what a learner clipping at the scenario's C receives
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
        for name in ("n_transmissions", "miss_limit", "seed"):
            require_int(name, getattr(self, name))
        if self.n_transmissions <= 0:
            raise ValueError("n_transmissions must be > 0")
        if self.miss_limit < 1:
            raise ValueError("miss_limit must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.initial_bandwidth is not None:
            require_float("initial_bandwidth", self.initial_bandwidth)
            if self.initial_bandwidth <= 0.0:
                raise ValueError("initial_bandwidth must be > 0")


# ---------------------------------------------------------------------------
# Episode loop
# ---------------------------------------------------------------------------


def _distance(a: Sequence[float], b: Sequence[float]) -> float:
    dx, dy, dz = a[0] - b[0], a[1] - b[1], a[2] - b[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def run_episode(
    trajectory: Union[Sequence[TruthPoint], TruthSide],
    policy: Union[Policy, Sequence[Policy]],
    radar: RadarConfig,
    process: ProcessModel,
    episode: EpisodeConfig,
    rng: Union[np.random.Generator, Sequence[int]],
    learning: bool = False,
) -> Union[RunResult, Runs]:
    """Run one tracking episode; returns a record per transmission.

    Sample 0 initializes the track; samples 1..n_transmissions are the
    decision loop.  The policy sees only quantities computable before its
    transmission: the range-projected prior variance, the previous waveform's
    range noise variance, and the previous gate outcome.  When
    ``learning``, the policy learns from each dwell's range error and loss.
    A campaign passes its trajectory's ``TruthSide`` for ``radar``, built once.

    Lockstep, the path of every frozen run: given a sequence of frozen
    policies and of seeds, lane j runs ``policy[j]`` on ``default_rng(rng[j])``
    and the lanes step together; returns their ``Runs``.  A failed lane raises
    the scalar loop's error for its run, without the run's index or seed.
    """
    if len(trajectory) < episode.n_transmissions + 1:
        raise ValueError(
            "trajectory too short: need n_transmissions + 1 = "
            f"{episode.n_transmissions + 1} samples, have {len(trajectory)}"
        )
    truth = (trajectory if isinstance(trajectory, TruthSide)
             else TruthSide(trajectory[: episode.n_transmissions + 1], radar))
    if not isinstance(policy, Policy):
        if learning:
            raise ValueError("lockstep lanes are frozen: they cannot learn")
        return Lockstep(truth, policy, radar, process, episode, rng).run()
    policy.reset()

    init_bw = (policy.initial_bandwidth() if episode.initial_bandwidth is None
               else episode.initial_bandwidth)
    z, r = measure(truth, 0, init_bw, rng)
    x, P = initialize_track(z, radar)
    last_meas_var = float(r[0])
    last_correlated = True
    misses = 0  # consecutive gate misses
    lost_at = None

    records = np.zeros(episode.n_transmissions, dtype=RECORD_DTYPE)
    radar_position = radar.position
    for k in range(episode.n_transmissions):
        x, P = predict(x, P, process, truth.phases[k + 1])
        H = observe_jacobian(x, radar_position)
        pred_var = float(H[0] @ P @ H[0])
        ctx = PolicyContext(
            predicted_range_variance=pred_var,
            last_measurement_range_variance=last_meas_var,
            last_correlated=last_correlated,
        )
        bandwidth = policy.choose(ctx, rng)
        z, r = measure(truth, k + 1, bandwidth, rng)
        nu = innovation(x, z, radar_position)
        decision = gate(nu, r)
        if decision.correlated:
            x, P = update(x, P, r, H, nu)
            misses = 0
        else:  # a miss keeps the prediction
            misses += 1
        lost = misses >= episode.miss_limit

        range_error = abs(_distance(x[:3].tolist(), radar_position) - truth.range[k + 1])
        if learning:
            policy.learn(range_error, lost)

        last_meas_var = float(r[0])
        last_correlated = decision.correlated
        records[k] = (bandwidth, range_error, decision.range_innovation,
                      decision.range_window, decision.correlated,
                      -1 if policy.last_state is None else policy.last_state,
                      -1 if policy.last_action is None else policy.last_action,
                      pred_var, last_meas_var)
        if lost:
            lost_at = k + 1
            break

    return RunResult(records=records[: k + 1].view(np.recarray), lost_at=lost_at)


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


def _run_named(i: int, seed: int, *args, **kwargs) -> Union[RunResult, Runs]:
    """``run_episode(*args, **kwargs)`` for run i on seed; a ValueError is
    re-raised with ``run i (seed s): `` in front, so the run can be replayed."""
    try:
        return run_episode(*args, **kwargs)
    except ValueError as exc:
        raise type(exc)(f"run {i} (seed {seed}): {exc}") from exc


def seeded_run(i: int, base_seed: int, *args, **kwargs) -> RunResult:
    """Run i of a campaign: ``run_episode(*args, **kwargs)`` drawing from
    ``default_rng(base_seed + i)``; a ValueError names the run and its seed."""
    seed = base_seed + i
    return _run_named(i, seed, *args, rng=np.random.default_rng(seed), **kwargs)


def seeded_runs(
    policies: Sequence[Policy],
    runs: Sequence[int],
    base_seed: int,
    trajectory: Sequence[TruthPoint],
    radar: RadarConfig,
    process: ProcessModel,
    episode: EpisodeConfig,
) -> Runs:
    """Lane j is run ``runs[j]`` of the frozen ``policies[j]``; all lanes
    step together in one lockstep ``run_episode`` call.  A policy that draws
    from the rng fails before any dwell, naming no run.  A failed call
    replays its lanes one by one as one-lane calls, so the error names the
    first failed run in lane order; should every lane pass, the call's own
    error is raised: there are no replayed results to fall back on."""
    require_frozen(policies)
    seeds = [base_seed + i for i in runs]
    try:
        return run_episode(trajectory, policies, radar, process, episode, seeds)
    except ValueError:
        for policy, i, seed in zip(policies, runs, seeds):
            _run_named(i, seed, trajectory, [policy], radar, process, episode, [seed])
        raise


def train_qlearning(
    trajectory: Sequence[TruthPoint],
    table: QTable,
    radar: RadarConfig,
    process: ProcessModel,
    episode: EpisodeConfig,
    n_runs: int,
    base_seed: int,
) -> QTable:
    """Update the table over n_runs epsilon-greedy episodes."""
    if n_runs < 0:
        raise ValueError("n_runs must be >= 0")
    policy = QLearningPolicy(table)
    truth = TruthSide(trajectory[: episode.n_transmissions + 1], radar)
    for i in range(n_runs):
        seeded_run(i, base_seed, truth, policy, radar, process, episode, learning=True)
    return table


def evaluate(
    trajectory: Sequence[TruthPoint],
    policies: Sequence[Policy],
    radar: RadarConfig,
    process: ProcessModel,
    episode: EpisodeConfig,
    n_runs: int,
    base_seed: int,
) -> list[tuple[tuple[RunResult, ...], np.ndarray]]:
    """Run n_runs frozen episodes of every policy on the same seeds; returns,
    per policy, its runs and their per-step mean windowed-min MSE."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    lanes = [policy for policy in policies for _ in range(n_runs)]
    results = tuple(seeded_runs(lanes, list(range(n_runs)) * len(policies), base_seed,
                                trajectory, radar, process, episode))
    per_policy = [results[j : j + n_runs] for j in range(0, len(results), n_runs)]
    return [(runs, mean_windowed_mse(runs)) for runs in per_policy]


def calibrate_discretizer(
    trajectory: Sequence[TruthPoint],
    radar: RadarConfig,
    process: ProcessModel,
    episode: EpisodeConfig,
    n_runs: int,
    base_seed: int,
    actions: ActionSet,
) -> Discretizer:
    """Pilot campaign for bin edges: fixed-bandwidth episodes cycling through
    the action menu, pooling the variances the policies will later see."""
    if n_runs < 0:
        raise ValueError("n_runs must be >= 0")
    policies = [FixedPolicy(bw, radar.min_bw, radar.max_bw)
                for bw in actions.bandwidths[:n_runs]]
    samples = seeded_runs([policies[i % len(policies)] for i in range(n_runs)],
                          range(n_runs), base_seed, trajectory, radar, process,
                          episode).records
    return Discretizer.from_samples(samples["pred_var"], samples["meas_var"])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def windowed_min(series: Sequence[float], window: int) -> np.ndarray:
    """Minimum over each full window of ``window`` consecutive values."""
    if window < 1:
        raise ValueError("window must be >= 1")
    arr = np.asarray(series, dtype=float)
    if arr.size < window:
        return np.empty(0)
    return np.lib.stride_tricks.sliding_window_view(arr, window).min(axis=1)


def mean_windowed_mse(results: Sequence[RunResult]) -> np.ndarray:
    """Per-step mean of the windowed-min squared range error, averaging only
    over runs still alive at each step."""
    if len(results) == 0:
        raise ValueError("need at least one run")
    series = [windowed_min(result.squared_errors(), MSE_WINDOW) for result in results]
    max_len = max(len(s) for s in series)
    if max_len == 0:
        return np.empty(0)
    total = np.zeros(max_len)
    alive = np.zeros(max_len, dtype=int)
    for s in series:
        total[: len(s)] += s
        alive[: len(s)] += 1
    return total / alive


def overall_windowed_mse(results: Sequence[RunResult]) -> float:
    """Scalar summary: mean over every windowed-min value of every run."""
    pooled = np.concatenate(
        [windowed_min(result.squared_errors(), MSE_WINDOW) for result in results]
    )
    if pooled.size == 0:
        raise ValueError("no full windows to aggregate")
    return float(pooled.mean())


def success_histogram(results: Sequence[RunResult], n_transmissions: int) -> list[int]:
    """Lost runs per bin of beams-before-loss, ``HISTOGRAM_BIN_WIDTH`` dwells
    wide; a loss on the final transmission counts in the last bin."""
    n_bins = n_transmissions // HISTOGRAM_BIN_WIDTH + 1
    counts = [0] * n_bins
    for result in results:
        if result.lost_at is not None:
            counts[min(result.lost_at // HISTOGRAM_BIN_WIDTH, n_bins - 1)] += 1
    return counts


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def save_run_csv(result: RunResult, C: float, path: str) -> None:
    rows = []
    for step, row in enumerate(result.records.tolist()):
        bw, err, innov, window, correlated, state, action = row[:7]
        rows.append([step, bw, err, innov, window, int(correlated),
                     reward(err, step + 1 == result.lost_at, C),
                     "" if state < 0 else state, "" if action < 0 else action])
    write_csv(path, RUN_CSV_HEADER, rows)


def save_metrics_csv(per_step: np.ndarray, path: str) -> None:
    write_csv(path, METRICS_CSV_HEADER, enumerate(per_step))


def save_histogram_csv(
    results: Sequence[RunResult], n_transmissions: int, path: str
) -> None:
    """The loss histogram, then the full tracks in a final labelled row."""
    counts = success_histogram(results, n_transmissions)
    rows = [[i * HISTOGRAM_BIN_WIDTH, (i + 1) * HISTOGRAM_BIN_WIDTH, count]
            for i, count in enumerate(counts)]
    rows.append([FULL_TRACK_LABEL, "", sum(result.successful for result in results)])
    write_csv(path, HISTOGRAM_CSV_HEADER, rows)
