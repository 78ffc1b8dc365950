"""Extended Kalman Filter track maintenance.

Constant-velocity motion model with phase-dependent white-noise-acceleration
process noise, a range-only gate on the predicted residual, and Joseph-form
measurement updates for the transmissions that pass it.  All operations are
pure: each returns a new value, so parallel episodes never share state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .radar import RadarConfig, observe
from .trajectory import Phase

_MAX_CONDITION = 1e12
INIT_POSITION_STD = 1_000.0  # m, per axis, of a track started from one measurement
INIT_VELOCITY_STD = 500.0  # m/s, per axis


class DegenerateInnovationError(ValueError):
    """Raised when the innovation covariance is numerically singular."""


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return np.pi - (np.pi - angle) % (2.0 * np.pi)


@dataclass(frozen=True)
class TrackState:
    """Filter estimate: mean and covariance."""

    x_hat: np.ndarray  # (6,) [position; velocity]
    P: np.ndarray  # (6, 6)

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_hat", np.asarray(self.x_hat, dtype=float))
        object.__setattr__(self, "P", np.asarray(self.P, dtype=float))
        if self.x_hat.shape != (6,):
            raise ValueError("x_hat must be a 6-vector")
        if self.P.shape != (6, 6):
            raise ValueError("P must be 6x6")

    @property
    def position(self) -> np.ndarray:
        return self.x_hat[:3]

    @property
    def velocity(self) -> np.ndarray:
        return self.x_hat[3:]


@dataclass(frozen=True)
class ProcessModel:
    """Constant-velocity transition plus per-phase acceleration noise."""

    dt: float
    accel_noise_std: Mapping[Phase, float]

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError("dt must be > 0")
        for phase in Phase:
            if phase not in self.accel_noise_std:
                raise ValueError(f"missing accel_noise_std for {phase.value}")
            if self.accel_noise_std[phase] < 0.0:
                raise ValueError("accel_noise_std must be >= 0")

    def transition_matrix(self) -> np.ndarray:
        F = np.eye(6)
        F[:3, 3:] = self.dt * np.eye(3)
        return F

    def process_noise(self, phase: Phase) -> np.ndarray:
        """Discrete white-noise-acceleration covariance for one step."""
        var = self.accel_noise_std[phase] ** 2
        dt = self.dt
        Q = np.zeros((6, 6))
        Q[:3, :3] = var * dt**4 / 4.0 * np.eye(3)
        Q[:3, 3:] = var * dt**3 / 2.0 * np.eye(3)
        Q[3:, :3] = var * dt**3 / 2.0 * np.eye(3)
        Q[3:, 3:] = var * dt**2 * np.eye(3)
        return Q


@dataclass(frozen=True)
class GateResult:
    correlated: bool
    range_window: float  # m, 95% CI half-width from the range noise entry
    range_innovation: float  # m

    def __post_init__(self) -> None:
        if self.range_window <= 0.0:
            raise ValueError("range_window must be > 0")


def predict(track: TrackState, model: ProcessModel, phase: Phase) -> TrackState:
    """Time update: x = F x, P = F P F' + Q(phase), symmetrized."""
    if not (np.all(np.isfinite(track.x_hat)) and np.all(np.isfinite(track.P))):
        raise ValueError("non-finite track state")
    F = model.transition_matrix()
    x = F @ track.x_hat
    P = F @ track.P @ F.T + model.process_noise(phase)
    P = 0.5 * (P + P.T)
    return TrackState(x_hat=x, P=P)


def innovation(
    track: TrackState, z: np.ndarray, radar_position: np.ndarray
) -> np.ndarray:
    """Measurement residual at the predicted state, angles wrapped to (-pi, pi]."""
    nu = z - observe(track.x_hat, radar_position)
    nu[2] = wrap_angle(nu[2])
    nu[3] = wrap_angle(nu[3])
    return nu


def gate(nu: np.ndarray, r: np.ndarray) -> GateResult:
    """Range-only correlation test on the predicted residual.

    The window is the 95% CI half-width of the range measurement noise r[0];
    the transmission correlates when the range innovation stays within three
    windows on either side.
    """
    window = 1.96 * np.sqrt(r[0])
    nu_range = float(nu[0])
    return GateResult(
        correlated=bool(abs(nu_range) <= 3.0 * window),
        range_window=float(window),
        range_innovation=nu_range,
    )


def update(
    track: TrackState, r: np.ndarray, H: np.ndarray, nu: np.ndarray
) -> TrackState:
    """Joseph-form EKF measurement update with noise variances ``r``; the
    Jacobian ``H`` and residual ``nu`` are taken at the predicted state."""
    R = np.diag(r)
    S = H @ track.P @ H.T + R
    S = 0.5 * (S + S.T)
    if np.linalg.cond(S) > _MAX_CONDITION:
        raise DegenerateInnovationError("degenerate innovation covariance")
    # K = P H' S^-1, via solve on the symmetric S
    K = np.linalg.solve(S, H @ track.P).T

    x = track.x_hat + K @ nu
    I_KH = np.eye(6) - K @ H
    P = I_KH @ track.P @ I_KH.T + K @ R @ K.T
    P = 0.5 * (P + P.T)
    return TrackState(x_hat=x, P=P)


def initialize_track(z: np.ndarray, radar: RadarConfig) -> TrackState:
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
    x_hat = np.concatenate([position, np.zeros(3)])
    P = np.diag([INIT_POSITION_STD**2] * 3 + [INIT_VELOCITY_STD**2] * 3)
    return TrackState(x_hat=x_hat, P=P)
