"""Reference scalar dwell: ``predict``, ``innovation``, ``gate``, ``update``,
``observe_jacobian``, ``QLearningPolicy.choose`` and the ``run_episode``
loop as the package computed them before the dwell was trimmed of
interpreter work.

The package must equal these byte for byte.  The trimmed forms reach the
same library routines with the same operands: ``np.dot`` and ``@`` on 2-D
and 1-D float64 arrays both call cblas ``dgemm``/``dgemv``/``ddot``; the
angle wrap on Python floats and on numpy scalars are both ``fmod`` with the
same sign fix; and the residual, S's symmetrization and the four additions
to its diagonal are the same IEEE operations on Python floats as on numpy
arrays.  One operand differs in layout: the package's ``predict`` takes F'
as the contiguous ``model.F_T`` and ``predict`` here the view ``F.T``; that
the two give the same bits is BLAS behaviour, which the byte tests against
this module check wherever they run.

``kalman_gain`` is the gain as it was before an S could be certified by a
shifted Cholesky factor: every S, one or a stack, is decided by its
eigenvalues.  The package must raise where it raises, with
the same error, and return the same K bytes where it returns.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

from cogradar.experiment import _distance
from cogradar.policy import QLearningPolicy, select_action
from cogradar.radar import _geometry, measure, observe
from cogradar.records import RECORD_DTYPE, RunResult
from cogradar.tracker import (
    _EYE6,
    _MAX_CONDITION,
    DegenerateInnovationError,
    GateResult,
    initialize_track,
    wrap_angle,
)


def predict(x, P, model, phase):
    """Time update of the mean ``x`` (6,) and covariance ``P`` (6, 6):
    x = F x, P = F P F' + Q(phase), symmetrized."""
    if not (np.isfinite(x).all() and np.isfinite(P).all()):
        raise ValueError("non-finite track state")
    F = model.F
    P = F @ P @ F.T + model.Q[phase]
    return F @ x, 0.5 * (P + P.T)


def innovation(x, z, radar_position):
    """Measurement residual at the predicted state, angles wrapped to (-pi, pi]."""
    nu = z - observe(x, radar_position)
    nu[2] = wrap_angle(nu[2])
    nu[3] = wrap_angle(nu[3])
    return nu


def gate(nu, r):
    """Range-only correlation test on the predicted residual."""
    window = 1.96 * math.sqrt(r[0])
    nu_range = float(nu[0])
    return GateResult(
        correlated=bool(abs(nu_range) <= 3.0 * window),
        range_window=float(window),
        range_innovation=nu_range,
    )


def kalman_gain(S: np.ndarray, PHt: np.ndarray) -> np.ndarray:
    """K = P H' S^-1 for one 4x4 S and its P H', or a stack, from the LAPACK
    gufuncs behind ``np.linalg``'s ``eigvalsh`` and ``solve``: the same bits
    at a third of the cost.  The eigenvalues come first, so a degenerate S
    raises before the solve, which would warn on a singular one."""
    lam = _umath_linalg.eigvalsh_lo(S)  # ascending; NaN if not converged
    # every S must be positive definite with a 2-norm condition number
    # <= 1e12; a NaN eigenvalue fails the first test
    for low, high in lam.reshape(-1, 4)[:, ::3].tolist():
        if not low > 0.0 or high / low > _MAX_CONDITION:
            raise DegenerateInnovationError("degenerate innovation covariance")
    return _umath_linalg.solve(S, PHt.swapaxes(-1, -2)).swapaxes(-1, -2)


def update(x, P, r, H, nu):
    """Joseph-form EKF measurement update of the prior ``(x, P)``."""
    PHt = P @ H.T
    S = H @ PHt
    S = 0.5 * (S + S.T)
    S.flat[::5] += r  # the diagonal of the 4x4 S: S = H P H' + diag(r)
    K = kalman_gain(S, PHt)

    I_KH = _EYE6 - K @ H
    P = I_KH @ P @ I_KH.T + (K * r) @ K.T  # K R K' with R = diag(r)
    return x + K @ nu, 0.5 * (P + P.T)


def observe_jacobian(state, radar_position):
    """Analytic 4x6 Jacobian of ``observe`` at ``state``."""
    dx, dy, dz, vx, vy, vz, r = _geometry(state, radar_position)
    r2 = r * r
    r3 = r2 * r
    rho_sq = dx * dx + dy * dy
    rho = math.sqrt(rho_sq)
    dv = dx * vx + dy * vy + dz * vz
    return np.array([
        [dx / r, dy / r, dz / r, 0.0, 0.0, 0.0],
        [vx / r - dv * dx / r3, vy / r - dv * dy / r3, vz / r - dv * dz / r3,
         dx / r, dy / r, dz / r],
        [-dy / rho_sq, dx / rho_sq, 0.0, 0.0, 0.0, 0.0],
        [-dz * dx / (r2 * rho), -dz * dy / (r2 * rho), rho / r2, 0.0, 0.0, 0.0],
    ])


class QLearningPolicyOracle(QLearningPolicy):
    """``QLearningPolicy`` whose choice looks the state up through the
    discretizer and the bandwidth through the action set on every call."""

    def choose(self, pred_var, meas_var, correlated, bandwidth, streak, rng):
        s = self.table.discretizer.state_index(pred_var, meas_var)
        a = select_action(self.table, s, self.epsilon, rng)
        self._pending = (s, a)
        return self.table.actions[a], streak, s, a


def run_episode(truth, policy, radar, process, episode, rng, learning=False):
    """The scalar ``run_episode`` loop on the forms above, one structured
    record row written per dwell."""
    policy.reset()

    bandwidth = policy.initial_bandwidth()
    z, r = measure(truth, 0, bandwidth, rng)
    x, P = initialize_track(z, radar)
    meas_var = float(r[0])
    correlated = True
    streak = misses = 0
    lost_at = None

    records = np.zeros(episode.n_transmissions, dtype=RECORD_DTYPE)
    radar_position = radar.position
    for k in range(episode.n_transmissions):
        x, P = predict(x, P, process, truth.phases[k + 1])
        H = observe_jacobian(x, radar_position)
        pred_var = float(H[0] @ P @ H[0])
        if pred_var <= 0.0:
            raise ValueError("predicted_range_variance must be > 0")
        if meas_var <= 0.0:
            raise ValueError("last_measurement_range_variance must be > 0")
        bandwidth, streak, state, action = policy.choose(
            pred_var, meas_var, correlated, bandwidth, streak, rng)
        z, r = measure(truth, k + 1, bandwidth, rng)
        nu = innovation(x, z, radar_position)
        decision = gate(nu, r)
        correlated = decision.correlated
        if correlated:
            x, P = update(x, P, r, H, nu)
            misses = 0
        else:
            misses += 1
        lost = misses >= episode.miss_limit

        range_error = abs(_distance(x[:3].tolist(), radar_position) - truth.range[k + 1])
        if learning:
            policy.learn(range_error, lost)

        meas_var = float(r[0])
        records[k] = (bandwidth, range_error, decision.range_innovation,
                      decision.range_window, correlated, state, action,
                      pred_var, meas_var)
        if lost:
            lost_at = k + 1
            break

    return RunResult(records=records[: k + 1].view(np.recarray), lost_at=lost_at)
