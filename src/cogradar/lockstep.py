"""Frozen runs in lockstep: the kernel behind ``experiment.run_episode`` given
a sequence of policies, which every frozen run takes, one lane or many.

A lane is one (policy, run) pair: lane j runs a frozen policy on the noise of
``default_rng(seed_j)``.  A frozen run draws four normals per transmission
and nothing else, so each lane draws its whole block of normals up front.
The truth side of every dwell (true measurement, true range, SNR and each
bandwidth's noise variances) is the scalar loop's ``TruthSide``.  The
estimate side of every lane is stepped together over a leading lane axis,
operation for operation as the scalar loop computes it, so each lane's
records are its scalar run's.  Lanes drop out as they lose the track.

A lane that fails one of the scalar loop's checks stops the call at once
with that check's plain error.  The lane that trips it is the first in dwell
order, not always the first run in lane order, so the error names no run:
``experiment.seeded_runs`` bisects the lanes for that.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .policy import Policy
from .radar import RadarConfig, TruthSide
from .records import RECORD_DTYPE, Runs
from .tracker import _EYE6, ProcessModel, initialize_track, kalman_gain, wrap_angle

if TYPE_CHECKING:  # experiment imports this module
    from .experiment import EpisodeConfig

_DIAG4 = np.arange(4)


def _check(bad: np.ndarray, message: str) -> None:
    if bad.any():
        raise ValueError(message)


def require_frozen(policies: Sequence[Policy]) -> None:
    """A lane can run a policy only if the policy draws nothing."""
    if not all(policy.lockstep for policy in policies):
        raise ValueError("lockstep lanes need frozen policies that draw nothing")


class _Lanes(SimpleNamespace):
    """Per-lane arrays of the active lanes, ordered by policy and then by
    lane; ``ids`` holds the lane indices."""

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, keep: np.ndarray) -> "_Lanes":
        return _Lanes(**{name: values[keep] for name, values in vars(self).items()})


def _lane_range(x: np.ndarray, radar_position: Sequence[float]) -> tuple:
    """Offset from the radar (three arrays) and range of each state row,
    in the order of operations of the scalar ``radar._geometry``."""
    dx, dy, dz = (x[:, i] - radar_position[i] for i in range(3))
    return dx, dy, dz, np.sqrt(dx * dx + dy * dy + dz * dz)


def _lane_observe(x: np.ndarray, geometry: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``observe`` (m, 4) and ``observe_jacobian`` (m, 4, 6) at each state
    row, bit for bit the scalar forms: the same elementwise operations in the
    same order, and atan2 and asin from ``math`` lane by lane."""
    dx, dy, dz, r = geometry
    vx, vy, vz = x[:, 3], x[:, 4], x[:, 5]
    r2 = r * r
    r3 = r2 * r
    rho_sq = dx * dx + dy * dy
    rho = np.sqrt(rho_sq)
    dv = dx * vx + dy * vy + dz * vz
    h = np.empty((len(r), 4))
    h[:, 0] = r
    h[:, 1] = dv / r
    h[:, 2] = [math.atan2(b, a) for a, b in zip(dx.tolist(), dy.tolist())]
    h[:, 3] = [math.asin(s) for s in (dz / r).tolist()]
    H = np.zeros((len(r), 4, 6))
    for i, (d, v) in enumerate(((dx, vx), (dy, vy), (dz, vz))):
        H[:, 0, i] = H[:, 1, 3 + i] = d / r
        H[:, 1, i] = v / r - dv * d / r3
    H[:, 2, 0] = -dy / rho_sq
    H[:, 2, 1] = dx / rho_sq
    H[:, 3, 0] = -dz * dx / (r2 * rho)
    H[:, 3, 1] = -dz * dy / (r2 * rho)
    H[:, 3, 2] = rho / r2
    return h, H


def _lane_update(
    x: np.ndarray, P: np.ndarray, r: np.ndarray, H: np.ndarray, nu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``tracker.update`` over lanes, product for product, so each lane's
    posterior is the scalar one; a degenerate S in any lane raises
    ``DegenerateInnovationError``, as ``update`` does."""
    PHt = P @ H.transpose(0, 2, 1)
    S = H @ PHt
    S = 0.5 * (S + S.transpose(0, 2, 1))
    S[:, _DIAG4, _DIAG4] += r
    K = kalman_gain(S, PHt)
    I_KH = _EYE6 - K @ H
    P = I_KH @ P @ I_KH.transpose(0, 2, 1) + (K * r[:, None, :]) @ K.transpose(0, 2, 1)
    x = x + (K @ nu[:, :, None])[:, :, 0]
    return x, 0.5 * (P + P.transpose(0, 2, 1))


class Lockstep:
    """Lane j runs the frozen ``policies[j]`` on ``default_rng(seeds[j])``;
    ``run`` steps every lane together and returns their ``Runs``."""

    def __init__(
        self,
        truth: TruthSide,
        policies: Sequence[Policy],
        radar: RadarConfig,
        process: ProcessModel,
        episode: EpisodeConfig,
        seeds: Sequence[int],
    ) -> None:
        if len(policies) != len(seeds):
            raise ValueError("need one seed per lane")
        self.policies = list(dict.fromkeys(policies))  # distinct, in lane order
        require_frozen(self.policies)
        self.truth, self.radar, self.process = truth, radar, process
        self.episode, self.seeds = episode, seeds
        self.initial = [policy.initial_bandwidth() if episode.initial_bandwidth is None
                        else episode.initial_bandwidth for policy in self.policies]

        n = episode.n_transmissions
        rows: dict = {}  # one noise block per distinct seed
        for seed in seeds:
            rows.setdefault(seed, len(rows))
        self.noise = np.array(
            [np.random.default_rng(seed).standard_normal((n + 1, 4)) for seed in rows]
        )
        group = {policy: g for g, policy in enumerate(self.policies)}
        groups = np.array([group[policy] for policy in policies], dtype=int)
        self.start = _Lanes(
            ids=np.arange(len(policies)),
            noise_row=np.array([rows[seed] for seed in seeds], dtype=int),
            group=groups,
            bandwidth=np.array([p.initial_bandwidth() for p in self.policies])[groups],
        ).take(sorted(range(len(groups)), key=groups.__getitem__))  # by policy

    def run(self) -> Runs:
        n = self.episode.n_transmissions
        records = np.zeros((len(self.seeds), n), dtype=RECORD_DTYPE)
        lost_at = np.zeros(len(self.seeds), dtype=int)  # 0: a full track
        lanes = self._initiate(self.start) if len(self.start) else self.start
        for k in range(n if len(lanes) else 0):  # a call with no lanes runs no dwell
            lanes = self._dwell(lanes, k)
            column = records[:, k]
            for name in RECORD_DTYPE.names:
                column[name][lanes.ids] = getattr(lanes, name)
            lost = lanes.misses >= self.episode.miss_limit
            if lost.any():
                lost_at[lanes.ids[lost]] = k + 1
                lanes = lanes.take(~lost)
                if not len(lanes):
                    break
        lengths = np.where(lost_at > 0, lost_at, n)
        ends = np.cumsum(lengths)
        rows = records.reshape(-1)  # lane j's rows start at j * n
        for lane, (end, length) in enumerate(zip(ends.tolist(), lengths.tolist())):
            rows[end - length : end] = rows[lane * n : lane * n + length]  # in place
        return Runs(records=rows[: lengths.sum()].view(np.recarray), ends=ends,
                    lost_at=tuple(int(k) if k else None for k in lost_at))

    def _measure(self, k: int, bandwidth: np.ndarray, noise_row: np.ndarray):
        """``measure`` of truth row k at each lane's bandwidth: z and r."""
        truth = self.truth
        if k == len(truth.z_true):  # every lane that gets here fails
            raise truth.failure
        distinct = sorted(set(bandwidth.tolist()))
        pick = np.searchsorted(distinct, bandwidth)
        r, root = (np.array([rows[k] for rows in column])[pick]
                   for column in zip(*(truth.noise(bw) for bw in distinct)))
        z = truth.z_true[k] + root * self.noise[noise_row, k]
        _check(z[:, 0] <= 0.0, "measured range must be > 0")
        _check(~((-np.pi / 2.0 < z[:, 3]) & (z[:, 3] < np.pi / 2.0)),
               "elevation out of (-pi/2, pi/2)")
        return z, r

    def _initiate(self, lanes: _Lanes) -> _Lanes:
        """Track initiation on truth row 0."""
        z, r = self._measure(0, np.take(self.initial, lanes.group), lanes.noise_row)
        tracks = [initialize_track(row, self.radar) for row in z]
        m = len(lanes)
        return _Lanes(
            **vars(lanes),
            x=np.array([x for x, _ in tracks]),
            P=np.array([P for _, P in tracks]),
            meas_var=r[:, 0],
            correlated=np.ones(m, dtype=bool),
            streak=np.zeros(m, dtype=int),
            misses=np.zeros(m, dtype=int),
        )

    def _choose(self, lanes: _Lanes, pred_var: np.ndarray) -> tuple:
        """Every policy's ``choose_lanes`` on its own lanes, which are a
        slice: the active lanes stay ordered by policy."""
        m = len(lanes)
        chosen = (np.empty(m), np.empty(m, dtype=int), np.empty(m, dtype=int),
                  np.empty(m, dtype=int))
        ends = np.searchsorted(lanes.group, np.arange(1, len(self.policies) + 1))
        start = 0
        for policy, end in zip(self.policies, ends.tolist()):
            part = slice(start, end)
            values = policy.choose_lanes(pred_var[part], lanes.meas_var[part],
                                         lanes.correlated[part], lanes.bandwidth[part],
                                         lanes.streak[part])
            for array, value in zip(chosen, values):
                array[part] = value
            start = end
        return chosen

    def _dwell(self, lanes: _Lanes, k: int) -> _Lanes:
        """Decision dwell k of the active lanes, on truth row k + 1: the lanes'
        new state, whose fields named as in ``RECORD_DTYPE`` are the dwell's
        record.  The checks are the scalar loop's, in its order."""
        x, P = lanes.x, lanes.P
        _check(~(np.isfinite(x).all(axis=1) & np.isfinite(P).all(axis=(1, 2))),
               "non-finite track state")
        row = k + 1
        F = self.process.F
        x = (F @ x[:, :, None])[:, :, 0]
        P = F @ P @ F.T + self.process.Q[self.truth.phases[row]]
        P = 0.5 * (P + P.transpose(0, 2, 1))
        position = self.radar.position
        geometry = _lane_range(x, position)
        _check(geometry[-1] == 0.0, "target at radar")
        h, H = _lane_observe(x, geometry)
        h0 = H[:, 0]
        pred_var = ((h0[:, None, :] @ P) @ h0[:, :, None])[:, 0, 0]
        _check(pred_var <= 0.0, "predicted_range_variance must be > 0")
        _check(lanes.meas_var <= 0.0, "last_measurement_range_variance must be > 0")
        bandwidth, streak, state, action = self._choose(lanes, pred_var)
        z, r = self._measure(row, bandwidth, lanes.noise_row)
        nu = z - h
        nu[:, 2:] = wrap_angle(nu[:, 2:])
        window = 1.96 * np.sqrt(r[:, 0])
        correlated = np.abs(nu[:, 0]) <= 3.0 * window
        hits = np.flatnonzero(correlated)
        if hits.size:
            x[hits], P[hits] = _lane_update(x[hits], P[hits], r[hits], H[hits], nu[hits])
        return _Lanes(
            ids=lanes.ids,
            noise_row=lanes.noise_row,
            group=lanes.group,
            x=x,
            P=P,
            streak=streak,
            misses=np.where(correlated, 0, lanes.misses + 1),
            bandwidth=bandwidth,
            range_error_true=np.abs(_lane_range(x, position)[-1] - self.truth.range[row]),
            range_innovation=nu[:, 0],
            range_window=window,
            correlated=correlated,
            state_index=state,
            action_index=action,
            pred_var=pred_var,
            meas_var=r[:, 0],
        )
