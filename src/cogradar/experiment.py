"""Closed-loop episodes, training and evaluation campaigns, and metrics.

One episode walks a trajectory one transmission per sample: predict, let the
policy pick a bandwidth, measure, gate on the predicted residual, update on a
hit (a miss keeps the prediction), score.  The first sample initializes the
track (velocity unknown, large covariance) and the remaining samples form the
dwell loop.  Episodes stop early when the gate misses ``miss_limit`` times
in a row.

Every frozen run, one lane or many, is a lane of one lockstep ``run_episode``
call (the kernel is in ``lockstep``); the scalar loop here runs training and
is the tests' oracle.  The two loops carry the same per-run choice state,
the previous bandwidth and the streak of gate hits, through the same
``choose`` contract.  ``seeded_runs`` bisects a failed call down to its first
failed lane, so the error names its run.

Reproducibility contract: every random draw flows from the episode rng, and
run i of a campaign draws from ``default_rng(base_seed + i)``, so any run
replays alone.  A frozen run draws four normals per transmission and nothing
else, so lane j of a lockstep call replays as that run of the scalar loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .fileio import require_int, write_csv
from .lockstep import Lockstep, require_frozen
from .policy import (
    ActionSet,
    FixedPolicy,
    Discretizer,
    Policy,
    QLearningPolicy,
    QTable,
    reward,
)
from .radar import RadarConfig, TruthSide, measure, observe_jacobian
from .records import RECORD_DTYPE, Runs
from .tracker import (
    ProcessModel,
    gate,
    initialize_track,
    innovation,
    predict,
    range_variance,
    require_finite,
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
    """Per-episode protocol: how many dwells, when a track counts as lost."""

    n_transmissions: int = DEFAULT_N_TRANSMISSIONS
    miss_limit: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_transmissions", "miss_limit", "seed"):
            require_int(name, getattr(self, name))
        if self.n_transmissions <= 0:
            raise ValueError("n_transmissions must be > 0")
        if self.miss_limit < 1:
            raise ValueError("miss_limit must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


# ---------------------------------------------------------------------------
# Episode loop
# ---------------------------------------------------------------------------


def _distance(a: Sequence[float], b: Sequence[float]) -> float:
    dx, dy, dz = a[0] - b[0], a[1] - b[1], a[2] - b[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def run_episode(
    truth: TruthSide,
    policy: Union[Policy, Sequence[Policy]],
    process: ProcessModel,
    miss_limit: int,
    rng: Union[np.random.Generator, Sequence[int]],
    learning: bool = False,
) -> Runs:
    """Run one tracking episode on a campaign's truth side and its radar;
    returns its record per transmission as a one-lane ``Runs``.

    Truth row 0 initializes the track at the policy's initial bandwidth; the
    other ``len(truth) - 1`` rows are the dwell loop.  The policy sees only
    quantities computable before its transmission: the range-projected prior
    variance, the previous waveform's range noise variance, the previous gate
    outcome, and the previous bandwidth and streak of gate hits, which the
    loop carries.  When ``learning``, the policy learns from each dwell's
    range error and loss.  A command builds its truth once, with
    ``campaign_truth``, and passes it to every call.

    Lockstep, the path of every frozen run: given a sequence of frozen
    policies and of seeds, lane j runs ``policy[j]`` on ``default_rng(rng[j])``
    and the lanes step together; returns their ``Runs``.  A failed lane raises
    the scalar loop's error for its run, without the run's index or seed.
    """
    if not isinstance(policy, Policy):
        if learning:
            raise ValueError("lockstep lanes are frozen: they cannot learn")
        return Lockstep(truth, policy, process, miss_limit, rng).run()
    policy.reset()

    bandwidth = policy.initial_bandwidth()  # as a lane's, before the first choice
    z, r = measure(truth, 0, bandwidth, rng)
    x, P = initialize_track(z, truth.config)
    meas_var = r.item(0)
    correlated = True
    streak = misses = 0  # gate hits counted by the policy, consecutive gate misses
    lost_at = None

    rows = []  # RECORD_DTYPE tuples, packed once the run ends
    radar_position = truth.config.position
    phases, true_range, choose, learn = truth.phases, truth.range, policy.choose, policy.learn
    for k in range(1, len(truth)):
        x, P = predict(x, P, process, phases[k])
        H = observe_jacobian(x, radar_position)
        pred_var = range_variance(H, P)
        if pred_var <= 0.0:
            raise ValueError("predicted_range_variance must be > 0")
        if meas_var <= 0.0:
            raise ValueError("last_measurement_range_variance must be > 0")
        bandwidth, streak, state, action = choose(
            pred_var, meas_var, correlated, bandwidth, streak, rng)
        z, r = measure(truth, k, bandwidth, rng)
        nu = innovation(x, z, radar_position)
        correlated, window, nu_range = gate(nu, r)
        if correlated:
            x, P = update(x, P, r, H, nu)
            misses = 0
        else:  # a miss keeps the prediction
            misses += 1
        lost = misses >= miss_limit

        range_error = abs(_distance(x.tolist(), radar_position) - true_range[k])
        if learning:
            learn(range_error, lost)

        meas_var = r.item(0)
        rows.append((bandwidth, range_error, nu_range, window, correlated, state, action,
                     pred_var, meas_var))
        if lost:
            lost_at = k
            break
    require_finite(x, P)  # the last posterior, which no predict checks

    records = np.fromiter(rows, RECORD_DTYPE, len(rows)).view(np.recarray)
    return Runs(records, ends=np.array([len(records)]), lost_at=(lost_at,))


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


def campaign_truth(trajectory: Sequence[TruthPoint], radar: RadarConfig,
                   episode: EpisodeConfig) -> TruthSide:
    """The truth side every run of a command reads: the trajectory's first
    ``n_transmissions + 1`` rows, seen by ``radar``; a shorter trajectory
    fails here, before any run."""
    n = episode.n_transmissions
    if len(trajectory) < n + 1:
        raise ValueError(f"trajectory too short: need n_transmissions + 1 = {n + 1} samples, "
                         f"have {len(trajectory)}")
    return TruthSide(trajectory[: n + 1], radar)


def _run_named(i: int, seed: int, *args, **kwargs) -> Runs:
    """``run_episode(*args, **kwargs)`` for run i on seed; a ValueError is
    re-raised with ``run i (seed s): `` in front, so the run can be replayed."""
    try:
        return run_episode(*args, **kwargs)
    except ValueError as exc:
        raise type(exc)(f"run {i} (seed {seed}): {exc}") from exc


def seeded_run(i: int, base_seed: int, *args, **kwargs) -> Runs:
    """Run i of a campaign: ``run_episode(*args, **kwargs)`` drawing from
    ``default_rng(base_seed + i)``; a ValueError names the run and its seed."""
    seed = base_seed + i
    return _run_named(i, seed, *args, rng=np.random.default_rng(seed), **kwargs)


def seeded_runs(
    policies: Sequence[Policy],
    runs: Sequence[int],
    base_seed: int,
    truth: TruthSide,
    process: ProcessModel,
    miss_limit: int,
) -> Runs:
    """Lane j is run ``runs[j]`` of the frozen ``policies[j]``; all lanes
    step together in one lockstep ``run_episode`` call.  A policy that draws
    from the rng fails before any dwell, naming no run.  A failed call is
    bisected with lockstep calls on the first half of its lanes, down to the
    first failed lane in lane order, which replays alone so that the error
    names its run; should that replay pass, the call's own error is raised:
    there are no replayed results to fall back on."""
    require_frozen(policies)
    seeds = [base_seed + i for i in runs]
    try:
        return run_episode(truth, policies, process, miss_limit, seeds)
    except ValueError:
        lo, hi = 0, len(seeds)  # the first failed lane is in [lo, hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                run_episode(truth, policies[lo:mid], process, miss_limit, seeds[lo:mid])
            except ValueError:
                hi = mid
            else:
                lo = mid
        _run_named(runs[lo], seeds[lo], truth, policies[lo:hi], process, miss_limit, seeds[lo:hi])
        raise


def train_qlearning(
    truth: TruthSide,
    table: QTable,
    process: ProcessModel,
    miss_limit: int,
    n_runs: int,
    base_seed: int,
) -> QTable:
    """Update the table over n_runs epsilon-greedy episodes."""
    if n_runs < 0:
        raise ValueError("n_runs must be >= 0")
    policy = QLearningPolicy(table)
    for i in range(n_runs):
        seeded_run(i, base_seed, truth, policy, process, miss_limit, learning=True)
    return table


def evaluate(
    truth: TruthSide,
    policies: Sequence[Policy],
    process: ProcessModel,
    miss_limit: int,
    n_runs: int,
    base_seed: int,
) -> list[tuple[Runs, np.ndarray]]:
    """Run n_runs frozen episodes of every policy on the same seeds; returns,
    per policy, its block of lanes and their per-step mean windowed-min MSE."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    if len(truth) - 1 < MSE_WINDOW:
        raise ValueError(f"n_transmissions must be >= {MSE_WINDOW}, one MSE window, to evaluate")
    lanes = [policy for policy in policies for _ in range(n_runs)]
    runs = seeded_runs(lanes, list(range(n_runs)) * len(policies), base_seed,
                       truth, process, miss_limit)
    blocks = [runs.block(j, j + n_runs) for j in range(0, len(runs), n_runs)]
    return [(block, mean_windowed_mse(block)) for block in blocks]


def calibrate_discretizer(
    truth: TruthSide,
    process: ProcessModel,
    miss_limit: int,
    n_runs: int,
    base_seed: int,
    actions: ActionSet,
) -> Discretizer:
    """Pilot campaign for bin edges: fixed-bandwidth episodes cycling through
    the action menu, pooling the variances the policies will later see."""
    if n_runs < 0:
        raise ValueError("n_runs must be >= 0")
    radar = truth.config
    policies = [FixedPolicy(bw, radar.min_bw, radar.max_bw)
                for bw in actions.bandwidths[:n_runs]]
    samples = seeded_runs([policies[i % len(policies)] for i in range(n_runs)],
                          range(n_runs), base_seed, truth, process, miss_limit).records
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


def _lane_windows(runs: Runs) -> tuple[np.ndarray, np.ndarray]:
    """Every lane's windowed-min squared range errors from one sliding window
    over the block's records: (lanes, most windows) arrays of the values and
    of which are full windows inside their lane, lane j in row j."""
    windows = windowed_min(runs.records.range_error_true**2, MSE_WINDOW)
    lengths = np.diff(runs.ends, prepend=0)
    starts = runs.ends - lengths
    counts = lengths - (MSE_WINDOW - 1)
    steps = np.arange(max(counts.max(initial=0), 0))
    return windows.take(starts[:, None] + steps, mode="clip"), steps < counts[:, None]


def mean_windowed_mse(runs: Runs) -> np.ndarray:
    """Per-step mean of the windowed-min squared range error, averaging only
    over runs still alive at each step."""
    if len(runs) == 0:
        raise ValueError("need at least one run")
    series, full = _lane_windows(runs)
    # a column sum of the zero-filled rows adds the lanes one by one, in lane order
    return np.where(full, series, 0.0).sum(axis=0) / full.sum(axis=0)


def overall_windowed_mse(runs: Runs) -> float:
    """Scalar summary: mean over every windowed-min value of every run."""
    series, full = _lane_windows(runs)
    pooled = series[full]  # row by row: lane order, as one array of every lane's windows
    if pooled.size == 0:
        raise ValueError("no full windows to aggregate")
    return float(pooled.mean())


def success_histogram(runs: Runs, n_transmissions: int) -> list[int]:
    """Lost runs per bin of beams-before-loss, ``HISTOGRAM_BIN_WIDTH`` dwells
    wide; a loss on the final transmission counts in the last bin."""
    n_bins = n_transmissions // HISTOGRAM_BIN_WIDTH + 1
    counts = [0] * n_bins
    for lost_at in runs.lost_at:
        if lost_at is not None:
            counts[min(lost_at // HISTOGRAM_BIN_WIDTH, n_bins - 1)] += 1
    return counts


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def save_run_csv(run: Runs, C: float, path: str) -> None:
    """One row per transmission of the one lane of ``run``, with the reward a
    learner clipping at C would receive."""
    [lost_at] = run.lost_at
    rows = []
    for step, row in enumerate(run.records.tolist()):
        bw, err, innov, window, correlated, state, action = row[:7]
        rows.append([step, bw, err, innov, window, int(correlated),
                     reward(err, step + 1 == lost_at, C),
                     "" if state < 0 else state, "" if action < 0 else action])
    write_csv(path, RUN_CSV_HEADER, rows)


def save_metrics_csv(per_step: np.ndarray, path: str) -> None:
    write_csv(path, METRICS_CSV_HEADER, enumerate(per_step))


def save_histogram_csv(runs: Runs, n_transmissions: int, path: str) -> None:
    """The loss histogram, then the full tracks in a final labelled row."""
    counts = success_histogram(runs, n_transmissions)
    rows = [[i * HISTOGRAM_BIN_WIDTH, (i + 1) * HISTOGRAM_BIN_WIDTH, count]
            for i, count in enumerate(counts)]
    rows.append([FULL_TRACK_LABEL, "", runs.lost_at.count(None)])
    write_csv(path, HISTOGRAM_CSV_HEADER, rows)
