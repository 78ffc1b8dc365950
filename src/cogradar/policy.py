"""Waveform-selection policies behind one decision interface.

Four policies choose the transmit bandwidth each dwell: a fixed bandwidth,
a heuristic that halves on a miss and doubles after five consecutive hits,
tabular Q-learning over a discretized (prediction variance, measurement
variance) state, and an L-step lookahead variant that propagates each reward
to the last L state-action pairs.

Every policy chooses from the same feedback (the predicted range variance,
the previous waveform's range variance and the previous gate outcome) plus
the previous bandwidth and streak of gate hits, which the caller carries:
``choose`` for one run on floats, ``choose_lanes`` for frozen lanes on
arrays (a fixed lane needs no choice).  A learner's buffer of state-action
pairs is its only per-run state.

The Q-learning convention: the reward observed at transmission t updates the
previous pair, Q[s_{t-1}, a_{t-1}] += alpha * (r_t + gamma * max Q[s_t, :]
- Q[s_{t-1}, a_{t-1}]), so the very first transmission of an episode performs
no update.  The lookahead variant applies the same rule to the last L pairs,
newest first, against the evolving table.
"""

from __future__ import annotations

import bisect
import math
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional, Sequence

import numpy as np

from .fileio import read_json, require_float, require_int, require_list, write_json
from .radar import DEFAULT_MAX_BW, DEFAULT_MIN_BW

DEFAULT_ACTIONS_HZ = (0.5e6, 1.0e6, 2.5e6, 5.0e6, 7.5e6, 10.0e6)
N_PRED_VAR_EDGES = 9  # 10 prediction-variance bins
N_MEAS_VAR_EDGES = 7  # 8 measurement-variance bins

@dataclass(frozen=True)
class Hyperparams:
    """Learning rate, discount, exploration rate, reward clip C and lookahead
    depth L (1 backs each reward up to the previous pair only)."""

    alpha: float = 0.1
    gamma: float = 0.9
    epsilon: float = 0.2
    C: float = 2.0
    L: int = 1

    def __post_init__(self) -> None:
        for name in ("alpha", "gamma", "epsilon", "C"):
            require_float(name, getattr(self, name))
        require_int("L", self.L)
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if self.C <= 0.0:
            raise ValueError("C must be > 0")
        if self.L < 1:
            raise ValueError("L must be >= 1")


_QTABLE_JSON_KEYS = (
    *(f.name for f in fields(Hyperparams)),
    "actions_hz",
    "pred_var_edges",
    "meas_var_edges",
    "values",
)


@dataclass(frozen=True)
class ActionSet:
    """Ordered menu of transmit bandwidths."""

    bandwidths: tuple[float, ...] = DEFAULT_ACTIONS_HZ

    def __post_init__(self) -> None:
        require_list("actions_hz", self.bandwidths)
        for i, bandwidth in enumerate(self.bandwidths):
            require_float(f"actions_hz[{i}]", bandwidth)
        object.__setattr__(self, "bandwidths", tuple(float(b) for b in self.bandwidths))
        if len(self.bandwidths) < 2:
            raise ValueError("need at least two actions")
        if any(b <= 0.0 for b in self.bandwidths):
            raise ValueError("bandwidths must be > 0")
        if any(np.diff(self.bandwidths) <= 0.0):
            raise ValueError("bandwidths must be strictly increasing")

    def __len__(self) -> int:
        return len(self.bandwidths)

    def __getitem__(self, index: int) -> float:
        return self.bandwidths[index]


def _percentiles(samples: np.ndarray, percents: Sequence[float]) -> list[float]:
    """``np.percentile(samples, percents)`` of a float array with at least
    two values, bit for bit: numpy's default (linear) method, operation for
    operation, on the order statistics of a partitioned copy.  numpy 2.x's
    ``np.percentile`` goes through ``np.unique``, which imports ``numpy.ma``
    on first use; this imports nothing."""
    n = samples.size
    virtual = [(n - 1) * (p / 100) for p in percents]
    lower = [math.floor(v) for v in virtual]
    upper = [min(i + 1, n - 1) for i in lower]  # numpy's clip, for p = 100
    ordered = np.partition(samples, sorted({n - 1, *lower, *upper}), axis=None)
    if math.isnan(ordered[-1]):  # NaN sorts last, and numpy then returns NaN
        return [math.nan] * len(percents)
    values = []
    for v, i, j in zip(virtual, lower, upper):
        a, b, gamma = float(ordered[i]), float(ordered[j]), v - i
        # numpy's _lerp: from the nearer end, so gamma = 1 gives b exactly
        values.append(b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma)
    return values


@dataclass(frozen=True)
class Discretizer:
    """Maps the two variances a policy chooses from to one of 80 states.

    Bins are half-open [lo, hi): a value equal to an edge lands in the higher
    bin; values below the first edge go to bin 0 and above the last edge to
    the final bin, so every positive variance has a state.
    """

    pred_var_edges: tuple[float, ...]  # 9 ascending thresholds, m^2
    meas_var_edges: tuple[float, ...]  # 7 ascending thresholds, m^2

    def __post_init__(self) -> None:
        for name, edges, expected in (
            ("pred_var_edges", self.pred_var_edges, N_PRED_VAR_EDGES),
            ("meas_var_edges", self.meas_var_edges, N_MEAS_VAR_EDGES),
        ):
            require_list(name, edges)
            for i, edge in enumerate(edges):
                require_float(f"{name}[{i}]", edge)
            edges = tuple(float(e) for e in edges)
            object.__setattr__(self, name, edges)
            if len(edges) != expected:
                raise ValueError(f"{name} must have {expected} thresholds")
            if any(np.diff(edges) <= 0.0):
                raise ValueError(f"{name} must be strictly ascending")
            if edges[0] <= 0.0:
                raise ValueError(f"{name} must be positive")

    @property
    def n_pred_bins(self) -> int:
        return len(self.pred_var_edges) + 1

    @property
    def n_meas_bins(self) -> int:
        return len(self.meas_var_edges) + 1

    @property
    def n_states(self) -> int:
        return self.n_pred_bins * self.n_meas_bins

    def pred_bin(self, variance: float) -> int:
        return bisect.bisect_right(self.pred_var_edges, variance)

    def meas_bin(self, variance: float) -> int:
        return bisect.bisect_right(self.meas_var_edges, variance)

    def state_index(self, pred_var: float, meas_var: float) -> int:
        return self.pred_bin(pred_var) * self.n_meas_bins + self.meas_bin(meas_var)

    @classmethod
    def from_samples(
        cls, pred_vars: Sequence[float], meas_vars: Sequence[float]
    ) -> "Discretizer":
        """Log-spaced edges between the 1st and 99th sample percentiles,
        numpy's default (linear) percentiles computed by ``_percentiles``
        rather than ``np.percentile``, so that calibrating imports no
        ``numpy.ma``."""
        def edges(variance, samples, n_edges):
            samples = np.asarray(samples, dtype=float)
            if samples.size < 2:
                raise ValueError("need at least two calibration samples")
            lo, hi = _percentiles(samples, (1.0, 99.0))
            if not 0.0 < lo < hi:
                raise ValueError("calibration samples must spread over positives")
            spaced = np.geomspace(lo, hi, n_edges)
            if (np.diff(spaced) <= 0.0).any():  # lo and hi only ulps apart
                raise ValueError(
                    f"calibration samples of {variance} spread too little for {n_edges} "
                    f"ascending edges: 1st and 99th percentiles {lo!r} and {hi!r}")
            return tuple(spaced)

        return cls(
            pred_var_edges=edges("pred_var", pred_vars, N_PRED_VAR_EDGES),
            meas_var_edges=edges("meas_var", meas_vars, N_MEAS_VAR_EDGES),
        )

    def to_json_dict(self) -> dict:
        return {
            "pred_var_edges": list(self.pred_var_edges),
            "meas_var_edges": list(self.meas_var_edges),
        }

    def save(self, path: str) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path: str) -> "Discretizer":
        doc = read_json(path, ("pred_var_edges", "meas_var_edges"), "edges")
        return cls(doc["pred_var_edges"], doc["meas_var_edges"])


# ---------------------------------------------------------------------------
# Q-table
# ---------------------------------------------------------------------------


@dataclass
class QTable:
    """Tabular action values plus everything needed to reuse them later."""

    values: np.ndarray  # (n_states, n_actions)
    discretizer: Discretizer
    actions: ActionSet = field(default_factory=ActionSet)
    hyperparams: Hyperparams = field(default_factory=Hyperparams)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.discretizer.n_states, len(self.actions))
        if self.values.shape != expected:
            raise ValueError(f"values must have shape {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    @classmethod
    def zeros(
        cls,
        discretizer: Discretizer,
        actions: ActionSet = ActionSet(),
        hyperparams: Hyperparams = Hyperparams(),
    ) -> "QTable":
        values = np.zeros((discretizer.n_states, len(actions)))
        return cls(values, discretizer, actions, hyperparams)

    def to_json_dict(self) -> dict:
        return {
            **asdict(self.hyperparams),
            "actions_hz": list(self.actions.bandwidths),
            "pred_var_edges": list(self.discretizer.pred_var_edges),
            "meas_var_edges": list(self.discretizer.meas_var_edges),
            "values": self.values.tolist(),
        }

    def save(self, path: str) -> None:
        """Atomic write: the file appears complete or not at all."""
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path: str) -> "QTable":
        doc = read_json(path, _QTABLE_JSON_KEYS, "Q-table")
        values = np.asarray(doc["values"], dtype=object)
        if values.ndim != 2:
            raise ValueError("values must be a 2-D array")
        cells = values.ravel().tolist()
        # require_float in bulk: exact types exclude bools; only a failed
        # check walks the cells, to name the first bad one
        if not ({float, int}.issuperset(map(type, cells)) and all(map(math.isfinite, cells))):
            for (i, j), value in np.ndenumerate(values):
                require_float(f"values[{i}][{j}]", value)
        return cls(
            values=values,
            discretizer=Discretizer(doc["pred_var_edges"], doc["meas_var_edges"]),
            actions=ActionSet(bandwidths=doc["actions_hz"]),
            hyperparams=Hyperparams(**{f.name: doc[f.name] for f in fields(Hyperparams)}),
        )

    @property
    def value_bound(self) -> float:
        """|Q| never exceeds C/(1-gamma) once rewards are clipped to [-C, 0]."""
        return self.hyperparams.C / (1.0 - self.hyperparams.gamma)


# ---------------------------------------------------------------------------
# Learning rules
# ---------------------------------------------------------------------------


def reward(range_error: float, lost: bool, C: float) -> float:
    """Negative range error in km, clipped at C; loss is always worst (-C)."""
    if range_error < 0.0:
        raise ValueError("range_error must be >= 0")
    if not math.isfinite(range_error):
        raise ValueError(f"range_error must be finite, got {range_error}")
    if lost:
        return -C
    return -min(range_error / 1000.0, C)


def q_update(table: QTable, s_prev: int, a_prev: int, r: float, s_now: int,
             bootstrap: Optional[float] = None) -> QTable:
    """One temporal-difference backup on Python floats; mutates and returns
    the table.  ``bootstrap``, when given, is max Q[s_now, :] as it stands."""
    values, hyper = table.values, table.hyperparams
    if bootstrap is None:
        bootstrap = max(values[s_now].tolist())
    td_target = r + hyper.gamma * bootstrap
    q = values.item(s_prev, a_prev)
    values[s_prev, a_prev] = q + hyper.alpha * (td_target - q)
    return table


def lookahead_update(
    table: QTable, pairs: Sequence[tuple[int, int]], r: float, s_now: int
) -> QTable:
    """Back up the same reward to every (state, action) pair, given newest
    first.

    Each sub-update bootstraps from the table as it stands, so earlier
    sub-updates feed later ones: max Q[s_now, :] is read once, and again
    after each pair in state s_now, the only updates that can move it.
    """
    if len(pairs) == 0:
        raise ValueError("empty pair list")
    row = table.values[s_now]
    bootstrap = max(row.tolist())
    for s_prev, a_prev in pairs:
        q_update(table, s_prev, a_prev, r, s_now, bootstrap)
        if s_prev == s_now:
            bootstrap = max(row.tolist())
    return table


def select_action(
    table: QTable, s: int, epsilon: float, rng: np.random.Generator
) -> int:
    """Epsilon-greedy over Q[s, :]; greedy ties break to the lowest index."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(len(table.actions)))
    row = table.values[s].tolist()
    return row.index(max(row))


def bandwidth_scaling_step(
    prev_bw: float,
    correlated: bool,
    correlated_streak: int,
    min_bw: float = DEFAULT_MIN_BW,
    max_bw: float = DEFAULT_MAX_BW,
) -> tuple[float, int]:
    """One step of the halve-on-miss / double-after-5-hits heuristic.

    Returns the new bandwidth and streak.  The streak resets after a doubling
    so another five consecutive hits are needed before the next one.
    """
    if not min_bw <= prev_bw <= max_bw:
        raise ValueError("prev_bw out of [min_bw, max_bw]")
    if not correlated:
        return max(prev_bw / 2.0, min_bw), 0
    streak = correlated_streak + 1
    if streak >= 5:
        return min(2.0 * prev_bw, max_bw), 0
    return prev_bw, streak


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


class Policy(ABC):
    """Per-dwell bandwidth selection; the caller carries each run's decision
    state, so one policy serves every run and every lane."""

    # whether the choice draws nothing from the rng, so frozen lanes of the
    # policy can run in lockstep
    lockstep = False

    def reset(self) -> None:
        """Clear per-episode learner state; the default has none."""

    @abstractmethod
    def initial_bandwidth(self) -> float:
        """Bandwidth of the track-initiation transmission, and the previous
        bandwidth of a run's first choice."""

    @abstractmethod
    def choose(
        self,
        pred_var: float,
        meas_var: float,
        correlated: bool,
        bandwidth: float,
        streak: int,
        rng: np.random.Generator,
    ) -> tuple[float, int, int, int]:
        """Pick the bandwidth for the next transmission.

        Takes the range-projected prior variance (H P- H')_rr, R_rr of the
        previous transmission's waveform, the previous gate outcome, the
        previous bandwidth and the streak of gate hits.  Returns the
        bandwidth, the new streak, and the state and action indices (-1 for
        non-tabular policies).
        """

    def learn(self, range_error: float, lost: bool) -> None:
        """Learn from the last choice's range error and loss; a no-op here."""

    def choose_lanes(
        self,
        pred_var: np.ndarray,
        meas_var: np.ndarray,
        correlated: np.ndarray,
        bandwidth: np.ndarray,
        streak: np.ndarray,
    ) -> tuple:
        """``choose`` for many frozen lanes of this policy at once.

        Takes ``choose``'s inputs but the rng as per-lane arrays, and returns
        its four outputs, each an array or one value for every lane.  Fixed
        lanes need none: their choice never changes, so the lockstep kernel
        keeps their bandwidth and streak without a call.
        """
        raise NotImplementedError


class FixedPolicy(Policy):
    """Always transmits the same bandwidth."""

    lockstep = True

    def __init__(
        self,
        bandwidth: float,
        min_bw: float = DEFAULT_MIN_BW,
        max_bw: float = DEFAULT_MAX_BW,
    ) -> None:
        if not min_bw <= bandwidth <= max_bw:
            raise ValueError("bandwidth out of [min_bw, max_bw]")
        self.bandwidth = float(bandwidth)

    def initial_bandwidth(self) -> float:
        return self.bandwidth

    def choose(self, pred_var, meas_var, correlated, bandwidth, streak, rng):
        return self.bandwidth, streak, -1, -1


class BandwidthScalingPolicy(Policy):
    """Start wide, halve on every miss, double after five straight hits."""

    lockstep = True

    def __init__(
        self, min_bw: float = DEFAULT_MIN_BW, max_bw: float = DEFAULT_MAX_BW
    ) -> None:
        if not 0.0 < min_bw <= max_bw:
            raise ValueError("need 0 < min_bw <= max_bw")
        self.min_bw = float(min_bw)
        self.max_bw = float(max_bw)
        self._steps = np.array([0.5, 1.0, 2.0])  # bandwidth scale on a miss, a hit, a doubling

    def initial_bandwidth(self) -> float:
        return self.max_bw

    def choose(self, pred_var, meas_var, correlated, bandwidth, streak, rng):
        return (*bandwidth_scaling_step(bandwidth, correlated, streak,
                                        self.min_bw, self.max_bw), -1, -1)

    def choose_lanes(self, pred_var, meas_var, correlated, bandwidth, streak):
        """``choose``'s values for bandwidths in [min_bw, max_bw], as every
        lane's is: a scale of 1/2, 1 or 2 (exact), then both bounds."""
        streak = (streak + 1) * correlated  # 0 on a miss
        doubled = streak >= 5  # on hits only
        scale = self._steps.take(np.add(correlated, doubled, dtype=np.intp))
        bandwidth = np.minimum(np.maximum(bandwidth * scale, self.min_bw), self.max_bw)
        return bandwidth, np.where(doubled, 0, streak), -1, -1


class QLearningPolicy(Policy):
    """Tabular Q-learning; a table with lookahead depth L > 1 backs each
    reward up to that many previous state-action pairs."""

    def __init__(self, table: QTable, epsilon: Optional[float] = None) -> None:
        self.table = table
        if epsilon is None:
            self.epsilon = table.hyperparams.epsilon
        else:  # an override, checked as a hyperparameter
            self.epsilon = replace(table.hyperparams, epsilon=float(epsilon)).epsilon
        # bin edges and bandwidths, built once: tuples for choose, arrays for the lanes
        d = table.discretizer
        self._edges = d.pred_var_edges, d.meas_var_edges, d.n_meas_bins
        self._bandwidths = table.actions.bandwidths
        self._lane_edges = np.asarray(d.pred_var_edges), np.asarray(d.meas_var_edges)
        self._lane_bandwidths = np.asarray(table.actions.bandwidths)
        # last L (state, action) pairs, newest first
        self._pairs: deque[tuple[int, int]] = deque(maxlen=table.hyperparams.L)
        self._pending: Optional[tuple[int, int]] = None

    def reset(self) -> None:
        self._pairs.clear()
        self._pending = None

    def initial_bandwidth(self) -> float:
        return self.table.actions[len(self.table.actions) - 1]

    def choose(self, pred_var, meas_var, correlated, bandwidth, streak, rng):
        pred_edges, meas_edges, n_meas_bins = self._edges  # Discretizer.state_index
        s = (bisect.bisect_right(pred_edges, pred_var) * n_meas_bins
             + bisect.bisect_right(meas_edges, meas_var))
        a = select_action(self.table, s, self.epsilon, rng)
        self._pending = (s, a)
        return self._bandwidths[a], streak, s, a

    @property
    def lockstep(self) -> bool:
        """Greedy only: an exploring choice draws from the rng."""
        return self.epsilon == 0.0

    def choose_lanes(self, pred_var, meas_var, correlated, bandwidth, streak):
        pred_edges, meas_edges = self._lane_edges
        s = (pred_edges.searchsorted(pred_var, side="right") * self.table.discretizer.n_meas_bins
             + meas_edges.searchsorted(meas_var, side="right"))
        a = self.table.values.argmax(axis=1).take(s)  # ties break to the lowest index
        return self._lane_bandwidths[a], streak, s, a

    def learn(self, range_error: float, lost: bool) -> None:
        """The last choice's reward, clipped at the table's C, backs up the
        buffered pairs with a bootstrap from the state that choice acted on."""
        if self._pending is None:
            raise ValueError("learn called before choose")
        s_now, _ = self._pending
        if self._pairs:
            r = reward(range_error, lost, self.table.hyperparams.C)
            lookahead_update(self.table, self._pairs, r, s_now)
        # appendleft on a full deque drops the oldest pair from the right
        self._pairs.appendleft(self._pending)
        self._pending = None
