"""Frozen runs in lockstep: the kernel behind ``experiment.run_episode`` given
a sequence of policies, which every frozen run takes, one lane or many.

A lane is one (policy, run) pair: lane j runs a frozen policy on the noise of
``default_rng(seed_j)``.  A frozen run draws four normals per transmission
and nothing else, so each lane draws its whole block of normals up front.
The truth side of every dwell (true measurement, true range, SNR and each
bandwidth's noise variances) is the campaign's ``TruthSide``, which the
scalar loop reads too: one noise table serves both.  The estimate side of
every lane is stepped together over a leading lane axis, operation for
operation as the scalar loop computes it, so each lane's records are its
scalar run's.  Lanes drop out as they lose the track.

A lane that fails one of the scalar loop's checks stops the call at once
with that check's plain error.  The lane that trips it is the first in dwell
order, not always the first run in lane order, so the error names no run:
``experiment.seeded_runs`` bisects the lanes for that.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .policy import FixedPolicy, Policy
from .radar import TruthSide
from .records import RECORD_DTYPE, Runs
from .tracker import (_EYE6, GATE_SIGMAS, GATE_WINDOWS, ProcessModel, initialize_track,
                      kalman_gain, require_finite, wrap_angle)
from .trajectory import Phase

_AZIMUTH_SIGNS = np.array([-1.0, 1.0])
# The checks count flags with np.count_nonzero: cheaper than .any()/.all(), though on numpy 2
# it pays a dispatcher and a Python wrapper; require_finite searches its masks' bytes instead.


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


def _lane_range(x: np.ndarray, radar_position: np.ndarray) -> tuple:
    """Offset d (m, 3) of each state row from the radar, then dx^2 + dy^2 and
    the range as (m, 1) columns, in the order of operations of the scalar
    ``radar._geometry``."""
    d = x[:, :3] - radar_position
    sq = d * d
    rho_sq = sq[:, :1] + sq[:, 1:2]
    return d, rho_sq, np.sqrt(rho_sq + sq[:, 2:])


def _lane_observe(x: np.ndarray, radar_position: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``observe`` (m, 4) and ``observe_jacobian`` (m, 4, 6) at each state
    row, bit for bit the scalar forms: the same elementwise operations in the
    same order on whole blocks, and atan2 and asin from ``math`` lane by lane.
    A row at the radar raises as ``observe_jacobian`` does."""
    d, rho_sq, r = _lane_range(x, radar_position)
    if np.count_nonzero(r == 0.0):
        raise ValueError("target at radar")
    v = x[:, 3:]
    dv = d * v
    dv = (dv[:, :1] + dv[:, 1:2]) + dv[:, 2:]
    r2 = r * r
    rho = np.sqrt(rho_sq)
    u = d / r
    h = np.empty((len(x), 4))
    h[:, :1] = r
    h[:, 1:2] = dv / r
    dx, dy, _ = d.T.tolist()
    h[:, 2] = list(map(math.atan2, dy, dx))
    h[:, 3] = list(map(math.asin, u[:, 2].tolist()))
    H = np.zeros((len(x), 4, 6))
    H[:, 0, :3] = H[:, 1, 3:] = u
    H[:, 1, :3] = v / r - dv * d / (r2 * r)
    H[:, 2, :2] = d[:, 1::-1] * _AZIMUTH_SIGNS / rho_sq  # -dy, dx
    H[:, 3, :2] = -d[:, 2:] * d[:, :2] / (r2 * rho)
    H[:, 3, 2:3] = rho / r2
    return h, H


def _lane_predict(x: np.ndarray, P: np.ndarray, model: ProcessModel, phase: Phase) -> tuple:
    """``tracker.predict`` over lanes, product for product, less its check.
    Both kernels take F' as the contiguous copy ``model.F_T``, which
    broadcasts faster than the transposed view ``F.T``.  That the two
    layouts give the same bits, as the package did before it took the copy,
    is BLAS behaviour, not a guarantee: it held for OpenBLAS 0.3.31 on one
    x86-64 Xeon, and ``tests/dwell_oracle.predict``, which keeps ``F.T``,
    and the trained-table digests check it on each machine they run on."""
    F = model.F
    P = F @ P @ model.F_T + model.Q[phase]
    return (F @ x[:, :, None])[:, :, 0], 0.5 * (P + P.transpose(0, 2, 1))


def _lane_range_variance(H: np.ndarray, P: np.ndarray) -> np.ndarray:
    """``tracker.range_variance`` over lanes, product for product."""
    h0 = H[:, 0]
    return ((h0[:, None, :] @ P) @ h0[:, :, None])[:, 0, 0]


def _lane_update(
    x: np.ndarray, P: np.ndarray, r: np.ndarray, H: np.ndarray, nu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``tracker.update`` over lanes, product for product, so each lane's
    posterior is the scalar one; a degenerate S in any lane raises
    ``DegenerateInnovationError``, as ``update`` does."""
    PHt = P @ H.transpose(0, 2, 1)
    S = H @ PHt
    S = 0.5 * (S + S.transpose(0, 2, 1))
    S.reshape(-1, 16)[:, ::5] += r  # a view of the diagonals: S = H P H' + diag(r)
    K = kalman_gain(S, PHt)
    I_KH = _EYE6 - K @ H
    P = I_KH @ P @ I_KH.transpose(0, 2, 1) + (K * r[:, None, :]) @ K.transpose(0, 2, 1)
    # K is a transposed view, and K @ nu stays on it: unlike the products of
    # matrices, a contiguous copy here moves output bits, since numpy's
    # matrix-vector kernels for the two layouts sum in different orders
    x = x + (K @ nu[:, :, None])[:, :, 0]
    return x, 0.5 * (P + P.transpose(0, 2, 1))


class Lockstep:
    """Lane j runs the frozen ``policies[j]`` on ``default_rng(seeds[j])``;
    ``run`` steps every lane together and returns their ``Runs``."""

    def __init__(
        self,
        truth: TruthSide,
        policies: Sequence[Policy],
        process: ProcessModel,
        miss_limit: int,
        seeds: Sequence[int],
    ) -> None:
        if len(policies) != len(seeds):
            raise ValueError("need one seed per lane")
        self.policies = list(dict.fromkeys(policies))  # distinct, in lane order
        require_frozen(self.policies)
        self.truth, self.process, self.miss_limit, self.seeds = truth, process, miss_limit, seeds
        self.position = truth.config.position_array
        n = len(truth) - 1
        blocks: dict = {}  # one noise block per distinct seed
        for seed in seeds:
            blocks.setdefault(seed, len(blocks))
        self.noise = np.empty((n + 1, len(blocks), 4))  # by dwell: noise[k] is row k's
        for seed, block in blocks.items():
            self.noise[:, block] = np.random.default_rng(seed).standard_normal((n + 1, 4))
        group = {policy: g for g, policy in enumerate(self.policies)}
        groups = np.array([group[policy] for policy in policies], dtype=int)
        self.start = _Lanes(
            ids=np.arange(len(policies)),
            noise_block=np.array([blocks[seed] for seed in seeds], dtype=int),
            group=groups,
            bandwidth=np.array([p.initial_bandwidth() for p in self.policies])[groups],
        ).take(sorted(range(len(groups)), key=groups.__getitem__))  # by policy

    def run(self) -> Runs:
        n = len(self.truth) - 1
        records = np.zeros((len(self.seeds), n), dtype=RECORD_DTYPE)
        lost_at = np.zeros(len(self.seeds), dtype=int)  # 0: a full track
        lanes = self._initiate(self.start) if len(self.start) else self.start
        parts, at = self._layout(lanes)
        for k in range(n if len(lanes) else 0):  # a call with no lanes runs no dwell
            lanes = self._dwell(lanes, k, parts)
            column = records[:, k]
            for name in RECORD_DTYPE.names:
                column[name][at] = getattr(lanes, name)
            lost = lanes.misses >= self.miss_limit
            if np.count_nonzero(lost):
                require_finite(lanes.x[lost], lanes.P[lost])  # their last posteriors
                lost_at[lanes.ids[lost]] = k + 1
                lanes = lanes.take(~lost)
                if not len(lanes):
                    break
                parts, at = self._layout(lanes)
        if len(lanes):  # the last posteriors of the lanes that kept their track
            require_finite(lanes.x, lanes.P)
        lengths = np.where(lost_at > 0, lost_at, n)
        ends = np.cumsum(lengths)
        rows = records.reshape(-1)  # lane j's rows start at j * n
        for lane, (end, length) in enumerate(zip(ends.tolist(), lengths.tolist())):
            rows[end - length : end] = rows[lane * n : lane * n + length]  # in place
        return Runs(records=rows[: lengths.sum()].view(np.recarray), ends=ends,
                    lost_at=tuple(int(k) if k else None for k in lost_at))

    def _layout(self, lanes: _Lanes) -> tuple[list, slice | np.ndarray]:
        """What a set of active lanes keeps until a lane drops out: the slice
        of the lanes of each policy whose choice can change, as (policy,
        slice) for every such policy with active lanes, and where the lanes'
        records go in a dwell's column, a slice while they are every lane in
        lane order."""
        ends = np.searchsorted(lanes.group, np.arange(1, len(self.policies) + 1)).tolist()
        parts = [(policy, slice(start, end))
                 for policy, start, end in zip(self.policies, [0, *ends], ends)
                 if end > start and not isinstance(policy, FixedPolicy)]
        in_order = np.array_equal(lanes.ids, np.arange(len(self.seeds)))
        return parts, slice(None) if in_order else lanes.ids

    def _measure(self, k: int, bandwidth: np.ndarray, noise_block: np.ndarray):
        """``measure`` of truth row k at each lane's bandwidth: z and r."""
        truth = self.truth
        if k == len(truth.z_true):  # every lane that gets here fails
            raise truth.failure
        columns = truth.columns(bandwidth)  # may grow the table
        r, root = truth.table[:, k].take(columns, axis=1)
        z = truth.z_true[k] + root * self.noise[k].take(noise_block, axis=0)
        if np.count_nonzero(z[:, 0] <= 0.0):
            raise ValueError("measured range must be > 0")
        if np.count_nonzero(np.abs(z[:, 3]) < np.pi / 2.0) < len(z):
            raise ValueError("elevation out of (-pi/2, pi/2)")
        return z, r

    def _initiate(self, lanes: _Lanes) -> _Lanes:
        """Track initiation on truth row 0, at each policy's initial bandwidth."""
        z, r = self._measure(0, lanes.bandwidth, lanes.noise_block)
        x, P = initialize_track(z, self.truth.config)
        m = len(lanes)
        return _Lanes(
            **vars(lanes),
            x=x,
            P=P,
            meas_var=r[:, 0],
            correlated=np.ones(m, dtype=bool),
            streak=np.zeros(m, dtype=int),
            misses=np.zeros(m, dtype=int),
            state_index=np.full(m, -1),  # a fixed lane's, at every dwell
            action_index=np.full(m, -1),
        )

    def _choose(self, lanes: _Lanes, pred_var: np.ndarray, parts: list) -> tuple:
        """The lanes' bandwidth, streak, state and action for the next dwell:
        a fixed lane keeps all four, state and action -1 from initiation on,
        and every other policy's ``choose_lanes`` fills its own slice of
        copies.  With fixed lanes only, nothing is allocated."""
        chosen = lanes.bandwidth, lanes.streak, lanes.state_index, lanes.action_index
        if not parts:
            return chosen
        chosen = tuple(array.copy() for array in chosen)
        for policy, part in parts:
            values = policy.choose_lanes(pred_var[part], lanes.meas_var[part],
                                         lanes.correlated[part], lanes.bandwidth[part],
                                         lanes.streak[part])
            for array, value in zip(chosen, values):
                array[part] = value
        return chosen

    def _dwell(self, lanes: _Lanes, k: int, parts: list) -> _Lanes:
        """Decision dwell k of the active lanes, on truth row k + 1: the lanes'
        new state, whose fields named as in ``RECORD_DTYPE`` are the dwell's
        record.  The checks are the scalar loop's, in its order."""
        x, P = lanes.x, lanes.P
        require_finite(x, P)
        row = k + 1
        x, P = _lane_predict(x, P, self.process, self.truth.phases[row])
        h, H = _lane_observe(x, self.position)
        pred_var = _lane_range_variance(H, P)
        if np.count_nonzero(pred_var <= 0.0):
            raise ValueError("predicted_range_variance must be > 0")
        if np.count_nonzero(lanes.meas_var <= 0.0):
            raise ValueError("last_measurement_range_variance must be > 0")
        bandwidth, streak, state, action = self._choose(lanes, pred_var, parts)
        z, r = self._measure(row, bandwidth, lanes.noise_block)
        nu = z - h
        nu[:, 2:] = wrap_angle(nu[:, 2:])
        window = GATE_SIGMAS * np.sqrt(r[:, 0])
        correlated = np.abs(nu[:, 0]) <= GATE_WINDOWS * window
        n_hits = np.count_nonzero(correlated)
        if n_hits == len(correlated):
            x, P = _lane_update(x, P, r, H, nu)
        elif n_hits:
            hits = np.flatnonzero(correlated)
            x[hits], P[hits] = _lane_update(x[hits], P[hits], r[hits], H[hits], nu[hits])
        distance = _lane_range(x, self.position)[2][:, 0]
        return _Lanes(
            ids=lanes.ids,
            noise_block=lanes.noise_block,
            group=lanes.group,
            x=x,
            P=P,
            streak=streak,
            misses=np.where(correlated, 0, lanes.misses + 1),
            bandwidth=bandwidth,
            range_error_true=np.abs(distance - self.truth.range[row]),
            range_innovation=nu[:, 0],
            range_window=window,
            correlated=correlated,
            state_index=state,
            action_index=action,
            pred_var=pred_var,
            meas_var=r[:, 0],
        )
