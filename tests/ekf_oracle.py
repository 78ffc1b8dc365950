"""Reference EKF math: the numpy forms of ``observe``, ``observe_jacobian``
and ``update`` that the package computed before its dwell moved to Python
floats, plus a dwell loop built from them.

The faster forms in ``cogradar.radar`` and ``cogradar.tracker`` must agree
with these to rounding: ``np.linalg.norm`` and ``d @ v`` go through BLAS
and ``np.arctan2``/``np.arcsin`` through numpy's own kernels, so the last
bits may differ, never a gate decision.

Also the ndarray forms of the Q-learning rules, ``q_update`` and
``lookahead_update``, from before the learner moved to Python floats.  They
make the same IEEE operations in the same order, so a table trained by the
package must equal, byte for byte, the same updates replayed through these.
"""

from __future__ import annotations

import numpy as np

from cogradar.radar import measurement_noise_var, snr_at_range
from cogradar.tracker import (
    _MAX_CONDITION,
    DegenerateInnovationError,
    initialize_track,
    predict,
    wrap_angle,
)


def observe(state: np.ndarray, radar_position: np.ndarray) -> np.ndarray:
    """Noise-free measurement (range, range rate, azimuth, elevation).

    ``state`` is the 6-vector [position; velocity].
    """
    state = np.asarray(state, dtype=float)
    d = state[:3] - np.asarray(radar_position, dtype=float)
    v = state[3:6]
    rng = np.linalg.norm(d)
    if rng == 0.0:
        raise ValueError("target at radar")
    return np.array(
        [
            rng,
            float(d @ v) / rng,
            np.arctan2(d[1], d[0]),
            np.arcsin(d[2] / rng),
        ]
    )


def observe_jacobian(state: np.ndarray, radar_position: np.ndarray) -> np.ndarray:
    """Analytic 4x6 Jacobian of :func:`observe` at ``state``."""
    state = np.asarray(state, dtype=float)
    d = state[:3] - np.asarray(radar_position, dtype=float)
    v = state[3:6]
    r = np.linalg.norm(d)
    if r == 0.0:
        raise ValueError("target at radar")
    rho_sq = d[0] ** 2 + d[1] ** 2
    rho = np.sqrt(rho_sq)

    H = np.zeros((4, 6))
    H[0, :3] = d / r
    H[1, :3] = v / r - (d @ v) * d / r**3
    H[1, 3:] = d / r
    H[2, 0] = -d[1] / rho_sq
    H[2, 1] = d[0] / rho_sq
    H[3, 0] = -d[2] * d[0] / (r**2 * rho)
    H[3, 1] = -d[2] * d[1] / (r**2 * rho)
    H[3, 2] = rho / r**2
    return H


def update(
    x: np.ndarray, P: np.ndarray, r: np.ndarray, H: np.ndarray, nu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Joseph-form EKF measurement update of the prior ``(x, P)`` with noise
    variances ``r``; the Jacobian ``H`` and residual ``nu`` are taken at the
    predicted state."""
    R = np.diag(r)
    S = H @ P @ H.T + R
    S = 0.5 * (S + S.T)
    if np.linalg.cond(S) > _MAX_CONDITION:
        raise DegenerateInnovationError("degenerate innovation covariance")
    # K = P H' S^-1, via solve on the symmetric S
    K = np.linalg.solve(S, H @ P).T

    I_KH = np.eye(6) - K @ H
    P = I_KH @ P @ I_KH.T + K @ R @ K.T
    return x + K @ nu, 0.5 * (P + P.T)


def q_update(table, s_prev, a_prev, r, s_now):
    """One temporal-difference backup on the array; mutates the table."""
    td_target = r + table.hyperparams.gamma * table.values[s_now].max()
    table.values[s_prev, a_prev] += table.hyperparams.alpha * (
        td_target - table.values[s_prev, a_prev]
    )


def lookahead_update(table, pairs, r, s_now):
    """The same reward backed up to every pair, newest first, each against
    the table as the previous sub-update left it."""
    for s_prev, a_prev in pairs:
        q_update(table, s_prev, a_prev, r, s_now)


def measure(truth, bandwidth, radar, rng):
    """``cogradar.radar.measure`` on the reference ``observe``: the same
    four normal draws per transmission."""
    z_true = observe(np.concatenate([truth.position, truth.velocity]),
                     radar.position_array)
    r = measurement_noise_var(bandwidth, snr_at_range(float(z_true[0]), radar), radar)
    return z_true + np.sqrt(r) * rng.standard_normal(4), r


def run_episode(trajectory, policy, radar, process, episode, rng):
    """The dwell loop of ``run_episode`` on the reference math, for a policy
    that draws nothing from ``rng`` and never learns.

    Returns the per-dwell gate decisions, the per-dwell |estimated - true|
    range errors and ``lost_at`` (None for a full track).
    """
    policy.reset()
    bandwidth, streak = policy.initial_bandwidth(), 0
    z, r = measure(trajectory[0], bandwidth, radar, rng)
    x, P = initialize_track(z, radar)
    last_meas_var, last_correlated, misses = float(r[0]), True, 0
    position = radar.position_array
    correlated, range_errors = [], []
    for k in range(episode.n_transmissions):
        truth = trajectory[k + 1]
        x, P = predict(x, P, process, truth.phase)
        H = observe_jacobian(x, position)
        bandwidth, streak, _, _ = policy.choose(float((H @ P @ H.T)[0, 0]), last_meas_var,
                                                last_correlated, bandwidth, streak, rng)
        z, r = measure(truth, bandwidth, radar, rng)
        nu = z - observe(x, position)
        nu[2], nu[3] = wrap_angle(nu[2]), wrap_angle(nu[3])
        last_correlated = bool(abs(nu[0]) <= 3.0 * (1.96 * np.sqrt(r[0])))  # the gate
        if last_correlated:
            x, P = update(x, P, r, H, nu)
            misses = 0
        else:
            misses += 1
        last_meas_var = float(r[0])
        correlated.append(last_correlated)
        range_errors.append(abs(float(np.linalg.norm(x[:3] - position))
                                - float(np.linalg.norm(truth.position - position))))
        if misses >= episode.miss_limit:
            return correlated, range_errors, k + 1
    return correlated, range_errors, None
