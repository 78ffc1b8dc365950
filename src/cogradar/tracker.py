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
# kalman_gain certifies a stack of at least this many S instead of taking
# its eigenvalues: the break-even lane count on a 2-core Xeon (numpy 2.4.6,
# OpenBLAS 0.3.31), where a one-S call took 10 us by eigenvalues, 25 certified.
_CERTIFY_MIN_LANES = 12
_CERTIFY_SHIFT = 1e-11  # mu = 1e-11 tr(S), 10x inside the condition bound
_NORMAL_MIN = np.finfo(float).tiny  # the smallest normal double, 2^-1022
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

    ``F``, its transpose ``F_T`` as a contiguous copy, and ``Q[phase]``, the
    discrete white-noise-acceleration covariance for one step, are built once
    and read-only.  They are plain attributes, not fields, so equality and
    repr see only ``dt`` and ``accel_noise_std``.
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
        F_T = np.ascontiguousarray(F.T)
        for matrix in (F, F_T, *Q.values()):
            matrix.flags.writeable = False
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "F_T", F_T)
        object.__setattr__(self, "Q", Q)


@dataclass(frozen=True, slots=True)
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
    require_finite(x, P)
    F = model.F
    P = np.dot(np.dot(F, P), F.T) + model.Q[phase]
    return np.dot(F, x), 0.5 * (P + P.T)


def require_finite(x: np.ndarray, P: np.ndarray) -> None:
    """Raise unless every entry of a track, or of a stack of tracks, is finite."""
    if (np.count_nonzero(np.isfinite(x)) < x.size
            or np.count_nonzero(np.isfinite(P)) < P.size):
        raise ValueError("non-finite track state")


def range_variance(H: np.ndarray, P: np.ndarray) -> float:
    """(H P H')_rr: the covariance ``P`` projected on the range row of ``H``."""
    h = H[0]
    return float(np.dot(np.dot(h, P), h))


def innovation(x: np.ndarray, z: np.ndarray, radar_position: np.ndarray) -> np.ndarray:
    """Measurement residual at the predicted state, angles wrapped to (-pi, pi]."""
    nu = z - observe(x, radar_position)
    _, _, azimuth, elevation = nu.tolist()  # Python floats wrap faster
    nu[2] = wrap_angle(azimuth)
    nu[3] = wrap_angle(elevation)
    return nu


def gate(nu: np.ndarray, r: np.ndarray) -> GateResult:
    """Range-only correlation test on the predicted residual.

    The window is the 95% CI half-width of the range measurement noise r[0];
    the transmission correlates when the range innovation stays within three
    windows on either side.
    """
    window = 1.96 * math.sqrt(r[0])
    nu_range = nu.item(0)
    return GateResult(abs(nu_range) <= 3.0 * window, window, nu_range)


def kalman_gain(S: np.ndarray, PHt: np.ndarray) -> np.ndarray:
    """K = P H' S^-1 for one 4x4 S and its P H', or a stack, from the LAPACK
    gufuncs behind ``np.linalg``'s ``eigvalsh`` and ``solve``: the same bits
    at a third of the cost.  Every S must be positive definite with a 2-norm
    condition number <= 1e12, checked before the solve, which would warn on
    a singular S.

    A stack of at least ``_CERTIFY_MIN_LANES`` (12) S is first certified
    whole by ``_certified``: one Cholesky factor per S, shifted by
    1e-11 tr(S).  A certified S has cond2 < 1.0003e11, so its eigenvalue
    test would pass (the rounding argument is in CHANGES.md, "Certified
    innovation covariances").  A stack with any lane uncertified, and every
    smaller stack, is tested by its eigenvalues: each rejection is theirs,
    with the same message, in the same order."""
    if not (S.ndim == 3 and len(S) >= _CERTIFY_MIN_LANES and _certified(S)):
        lam = _umath_linalg.eigvalsh_lo(S)  # ascending; NaN if not converged
        # a NaN eigenvalue fails the first test
        for low, high in lam.reshape(-1, 4)[:, ::3].tolist():
            if not low > 0.0 or high / low > _MAX_CONDITION:
                raise DegenerateInnovationError("degenerate innovation covariance")
    return _umath_linalg.solve(S, PHt.swapaxes(-1, -2)).swapaxes(-1, -2)


def _certified(S: np.ndarray) -> bool:
    """True when every S[j] - mu_j I, mu_j = 1e-11 tr(S[j]) a normal double,
    has a Cholesky factor with a positive last pivot.  numpy NaN-fills a
    factor that LAPACK rejects, and a NaN pivot that OpenBLAS passes on
    reaches the last one, so one test on L[:, 3, 3] covers every pivot."""
    with np.errstate(all="ignore"):  # a rejected factor flags invalid; inf - inf too
        shift = _CERTIFY_SHIFT * S.trace(axis1=1, axis2=2)
        A = S.copy()
        A.reshape(-1, 16)[:, ::5] -= shift[:, None]
        L = _umath_linalg.cholesky_lo(A)
    return np.count_nonzero((shift >= _NORMAL_MIN) & (L[:, 3, 3] > 0.0)) == len(S)


def update(
    x: np.ndarray, P: np.ndarray, r: np.ndarray, H: np.ndarray, nu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Joseph-form EKF measurement update of the prior ``(x, P)`` with noise
    variances ``r``; the Jacobian ``H`` and residual ``nu`` are taken at the
    predicted state."""
    PHt = np.dot(P, H.T)
    S = np.dot(H, PHt)
    S = 0.5 * (S + S.T)
    S.reshape(16)[::5] += r  # a view of the diagonal: S = H P H' + diag(r)
    K = kalman_gain(S, PHt)

    I_KH = _EYE6 - np.dot(K, H)
    P = np.dot(np.dot(I_KH, P), I_KH.T) + np.dot(K * r, K.T)  # K R K' with R = diag(r)
    return x + np.dot(K, nu), 0.5 * (P + P.T)


def initialize_track(z: np.ndarray, radar: RadarConfig) -> tuple[np.ndarray, np.ndarray]:
    """Start a track from one measurement (4,), or a stack of tracks from a
    stack of them (m, 4): invert geometry, zero velocity."""
    range_m, _, azimuth, elevation = z.T
    cos_elevation = np.cos(elevation)
    direction = np.stack([cos_elevation * np.cos(azimuth), cos_elevation * np.sin(azimuth),
                          np.sin(elevation)], axis=-1)
    position = radar.position_array + range_m[..., None] * direction
    P = np.diag([INIT_POSITION_STD**2] * 3 + [INIT_VELOCITY_STD**2] * 3)
    return (np.concatenate([position, np.zeros_like(position)], axis=-1),
            np.broadcast_to(P, z.shape[:-1] + P.shape).copy())
