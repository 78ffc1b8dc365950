"""Extended Kalman Filter track maintenance.

Constant-velocity motion model with phase-dependent white-noise-acceleration
process noise, a range-only gate on the predicted residual, and Joseph-form
measurement updates for the transmissions that pass it.  A track is a plain
pair of arrays, the mean x (6,) [position; velocity] and the covariance
P (6, 6).  All operations are pure: each returns new arrays, so parallel
episodes never share state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from numpy.linalg import _umath_linalg

from .fileio import require_float
from .radar import RadarConfig, observe
from .trajectory import Phase

_MAX_CONDITION = 1e12
_EYE6 = np.eye(6)
_EYE6.flags.writeable = False
INIT_POSITION_STD = 1_000.0  # m, per axis, of a track started from one measurement
INIT_VELOCITY_STD = 500.0  # m/s, per axis


class DegenerateInnovationError(ValueError):
    """Raised when the innovation covariance is numerically singular."""


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return np.pi - (np.pi - angle) % (2.0 * np.pi)


@dataclass(frozen=True)
class ProcessModel:
    """Constant-velocity transition plus per-phase acceleration noise.

    ``F`` and ``Q[phase]``, the discrete white-noise-acceleration covariance
    for one step, are built once and read-only.  They are plain attributes,
    not fields, so equality and repr see only ``dt`` and ``accel_noise_std``.
    """

    dt: float
    accel_noise_std: Mapping[Phase, float]

    def __post_init__(self) -> None:
        require_float("dt", self.dt)
        if self.dt <= 0.0:
            raise ValueError("dt must be > 0")
        dt = self.dt
        F = np.eye(6)
        F[:3, 3:] = dt * np.eye(3)
        Q = {}
        for phase in Phase:
            if phase not in self.accel_noise_std:
                raise ValueError(f"missing accel_noise_std for {phase.value}")
            std = self.accel_noise_std[phase]
            require_float(f"accel_noise_std.{phase.value}", std)
            if std < 0.0:
                raise ValueError("accel_noise_std must be >= 0")
            var = std**2
            q = Q[phase] = np.zeros((6, 6))
            q[:3, :3] = var * dt**4 / 4.0 * np.eye(3)
            q[:3, 3:] = var * dt**3 / 2.0 * np.eye(3)
            q[3:, :3] = var * dt**3 / 2.0 * np.eye(3)
            q[3:, 3:] = var * dt**2 * np.eye(3)
        for matrix in (F, *Q.values()):
            matrix.flags.writeable = False
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "Q", Q)


@dataclass(frozen=True)
class GateResult:
    correlated: bool
    range_window: float  # m, 95% CI half-width from the range noise entry
    range_innovation: float  # m

    def __post_init__(self) -> None:
        if self.range_window <= 0.0:
            raise ValueError("range_window must be > 0")


def predict(
    x: np.ndarray, P: np.ndarray, model: ProcessModel, phase: Phase
) -> tuple[np.ndarray, np.ndarray]:
    """Time update of the mean ``x`` (6,) and covariance ``P`` (6, 6):
    x = F x, P = F P F' + Q(phase), symmetrized."""
    if not (np.isfinite(x).all() and np.isfinite(P).all()):
        raise ValueError("non-finite track state")
    F = model.F
    P = F @ P @ F.T + model.Q[phase]
    return F @ x, 0.5 * (P + P.T)


def innovation(x: np.ndarray, z: np.ndarray, radar_position: np.ndarray) -> np.ndarray:
    """Measurement residual at the predicted state, angles wrapped to (-pi, pi]."""
    nu = z - observe(x, radar_position)
    nu[2] = wrap_angle(nu[2])
    nu[3] = wrap_angle(nu[3])
    return nu


def gate(nu: np.ndarray, r: np.ndarray) -> GateResult:
    """Range-only correlation test on the predicted residual.

    The window is the 95% CI half-width of the range measurement noise r[0];
    the transmission correlates when the range innovation stays within three
    windows on either side.
    """
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


def update(
    x: np.ndarray, P: np.ndarray, r: np.ndarray, H: np.ndarray, nu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Joseph-form EKF measurement update of the prior ``(x, P)`` with noise
    variances ``r``; the Jacobian ``H`` and residual ``nu`` are taken at the
    predicted state."""
    PHt = P @ H.T
    S = H @ PHt
    S = 0.5 * (S + S.T)
    S.flat[::5] += r  # the diagonal of the 4x4 S: S = H P H' + diag(r)
    K = kalman_gain(S, PHt)

    I_KH = _EYE6 - K @ H
    P = I_KH @ P @ I_KH.T + (K * r) @ K.T  # K R K' with R = diag(r)
    return x + K @ nu, 0.5 * (P + P.T)


def initialize_track(z: np.ndarray, radar: RadarConfig) -> tuple[np.ndarray, np.ndarray]:
    """Start a track from one measurement: invert geometry, zero velocity."""
    range_m, _, azimuth, elevation = z
    direction = np.array(
        [
            np.cos(elevation) * np.cos(azimuth),
            np.cos(elevation) * np.sin(azimuth),
            np.sin(elevation),
        ]
    )
    position = radar.position_array + range_m * direction
    P = np.diag([INIT_POSITION_STD**2] * 3 + [INIT_VELOCITY_STD**2] * 3)
    return np.concatenate([position, np.zeros(3)]), P
