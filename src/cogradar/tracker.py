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
import sys
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .fileio import named_power, require_float
# observe, unused here, stays for perfbench/hooks.py, which wraps tracker.observe by name
from .radar import RadarConfig, _observe, observe
from .trajectory import Phase

_MAX_CONDITION = 1e12
# kalman_gain certifies a stack of at least this many S instead of taking
# its eigenvalues: the break-even lane count on a 2-core Xeon (numpy 2.4.6,
# OpenBLAS 0.3.31), where a one-S call took 10 us by eigenvalues, 25 certified.
_CERTIFY_MIN_LANES = 12
_CERTIFY_SHIFT = 1e-11  # mu = 1e-11 tr(S), 10x inside the condition bound
_NORMAL_MIN = sys.float_info.min  # the smallest normal double, 2^-1022
_EYE6 = np.eye(6)
_EYE6.flags.writeable = False
_HALF = np.array(0.5)  # a 0-d array multiplies faster than the float 0.5
INIT_POSITION_STD = 1_000.0  # m, per axis, of a track started from one measurement
INIT_VELOCITY_STD = 500.0  # m/s, per axis
GATE_SIGMAS = 1.96  # the range window: a 95% CI half-width, in range noise sigmas
GATE_WINDOWS = 3.0  # the gate's half-width, in range windows


class DegenerateInnovationError(ValueError):
    """Raised when the innovation covariance is numerically singular."""


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return math.pi - (math.pi - angle) % (2.0 * math.pi)


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
        dt4, dt3, dt2 = (named_power("dt", dt, n) for n in (4, 3, 2))
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
            var = named_power(f"accel_noise_std.{phase.value}", std, 2)
            q = Q[phase] = np.zeros((6, 6))
            q[:3, :3] = var * dt4 / 4.0 * np.eye(3)
            q[:3, 3:] = q[3:, :3] = var * dt3 / 2.0 * np.eye(3)
            q[3:, 3:] = var * dt2 * np.eye(3)
        F_T = np.ascontiguousarray(F.T)
        for matrix in (F, F_T, *Q.values()):
            matrix.flags.writeable = False
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "F_T", F_T)
        object.__setattr__(self, "Q", Q)


class GateResult(NamedTuple):
    correlated: bool
    range_window: float  # m, 95% CI half-width from the range noise entry
    range_innovation: float  # m


def predict(
    x: np.ndarray, P: np.ndarray, model: ProcessModel, phase: Phase
) -> tuple[np.ndarray, np.ndarray]:
    """Time update of the mean ``x`` (6,) and covariance ``P`` (6, 6):
    x = F x, P = F P F' + Q(phase), symmetrized."""
    require_finite(x, P)
    return model.F.dot(x), _symmetric_sum(model.F.dot(P).dot(model.F_T), model.Q[phase])


def _symmetric_sum(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """0.5 (C + C') for C = A + B, summed into A, a fresh product: C + C.T
    would add C- and F-ordered arrays, off numpy's contiguous loop."""
    A += B
    C = A + A.T.copy()
    C *= _HALF
    return C


def require_finite(x: np.ndarray, P: np.ndarray) -> None:
    """Raise unless every entry of a track, or of a stack of tracks, is finite."""
    if 0 in np.isfinite(x).tobytes() or 0 in np.isfinite(P).tobytes():  # a C byte search
        raise ValueError("non-finite track state")


def range_variance(H: np.ndarray, P: np.ndarray) -> float:
    """(H P H')_rr: the covariance ``P`` projected on the range row of ``H``."""
    h = H[0]
    return float(h.dot(P).dot(h))


def innovation(x: np.ndarray, z: np.ndarray, radar_position: np.ndarray) -> np.ndarray:
    """Measurement residual at the predicted state, angles wrapped to (-pi, pi]."""
    range_m, rate, azimuth, elevation = z.tolist()  # no h array; floats wrap faster
    h_range, h_rate, h_azimuth, h_elevation = _observe(x, radar_position)
    return np.array([range_m - h_range, rate - h_rate, wrap_angle(azimuth - h_azimuth),
                     wrap_angle(elevation - h_elevation)])


def gate(nu: np.ndarray, r: np.ndarray) -> GateResult:
    """Range-only correlation test on the predicted residual: the transmission
    correlates when its range innovation is at most ``GATE_WINDOWS`` windows,
    each ``GATE_SIGMAS`` sigmas of the range measurement noise r[0]."""
    window = GATE_SIGMAS * math.sqrt(r.item(0))
    if window <= 0.0:
        raise ValueError("range_window must be > 0")
    nu_range = nu.item(0)
    return GateResult(abs(nu_range) <= GATE_WINDOWS * window, window, nu_range)


def kalman_gain(S: np.ndarray, PHt: np.ndarray) -> np.ndarray:
    """K = P H' S^-1 for a stack of 4x4 S and their P H', from the LAPACK
    gufuncs behind ``np.linalg``'s ``eigvalsh`` and ``solve``: the same bits
    at a third of the cost.  Every S must be positive definite with a 2-norm
    condition number <= 1e12, checked before the solve, which would warn on
    a singular S.

    S is first certified by a Cholesky factor of S - mu I, mu = 1e-11 tr(S):
    a stack of at least ``_CERTIFY_MIN_LANES`` (12) S whole by ``_certified``,
    a lone S on the 16 floats the scalar ``update`` forms by
    ``_certified_one``, and solved there by the same call (``PHt.T`` is the
    view ``swapaxes`` makes).  A certified S has cond2 < 1.0003e11, so its
    eigenvalue test would pass (the rounding argument is in CHANGES.md,
    "Certified innovation covariances").  Any other S is tested by its
    eigenvalues in ``_gain``: each rejection is theirs, with the same
    message, in the same order."""
    return _gain(S, PHt, len(S) >= _CERTIFY_MIN_LANES and _certified(S))


def _gain(S: np.ndarray, PHt: np.ndarray, certified: bool) -> np.ndarray:
    """The solve of one S or a stack; S not ``certified`` first meets its eigenvalues."""
    if not certified:
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


def _certified_one(S: list[float]) -> bool:
    """``_certified`` for one S, given row by row as 16 floats of which it
    reads the lower triangle, as ``cholesky_lo`` does: True when
    mu = 1e-11 tr(S) is a normal double and every pivot of the Cholesky
    factor of S - mu I is > 0.  A NaN fails these tests, and a non-finite
    entry of the factor makes a later pivot NaN or -inf, so a certified
    factor is finite with a positive diagonal."""
    s00, _, _, _, s10, s11, _, _, s20, s21, s22, _, s30, s31, s32, s33 = S
    shift = _CERTIFY_SHIFT * (s00 + s11 + s22 + s33)
    if not shift >= _NORMAL_MIN:
        return False
    pivot = s00 - shift
    if not pivot > 0.0:
        return False
    l00 = math.sqrt(pivot)
    l10, l20, l30 = s10 / l00, s20 / l00, s30 / l00
    pivot = (s11 - shift) - l10 * l10
    if not pivot > 0.0:
        return False
    l11 = math.sqrt(pivot)
    l21, l31 = (s21 - l20 * l10) / l11, (s31 - l30 * l10) / l11
    pivot = (s22 - shift) - l20 * l20 - l21 * l21
    if not pivot > 0.0:
        return False
    l32 = (s32 - l30 * l20 - l31 * l21) / math.sqrt(pivot)
    return (s33 - shift) - l30 * l30 - l31 * l31 - l32 * l32 > 0.0


def update(
    x: np.ndarray, P: np.ndarray, r: np.ndarray, H: np.ndarray, nu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Joseph-form EKF measurement update of the prior ``(x, P)``:
    P = (I - K H) P (I - K H)' + K R K', R = diag(r) the noise variances;
    the Jacobian ``H`` and residual ``nu`` are taken at the predicted state."""
    PHt = P.dot(H.T)
    # S = (H P H' + (H P H')')/2 + diag(r), entry for entry on Python floats
    (s00, s01, s02, s03, s10, s11, s12, s13,
     s20, s21, s22, s23, s30, s31, s32, s33) = H.dot(PHt).ravel().tolist()
    r0, r1, r2, r3 = r.tolist()
    s01, s02, s03 = 0.5 * (s01 + s10), 0.5 * (s02 + s20), 0.5 * (s03 + s30)
    s12, s13, s23 = 0.5 * (s12 + s21), 0.5 * (s13 + s31), 0.5 * (s23 + s32)
    floats = [0.5 * (s00 + s00) + r0, s01, s02, s03,
              s01, 0.5 * (s11 + s11) + r1, s12, s13,
              s02, s12, 0.5 * (s22 + s22) + r2, s23,
              s03, s13, s23, 0.5 * (s33 + s33) + r3]
    S = np.fromiter(floats, float, 16).reshape(4, 4)
    K = _umath_linalg.solve(S, PHt.T).T if _certified_one(floats) else _gain(S, PHt, False)

    I_KH = _EYE6 - K.dot(H)
    return x + K.dot(nu), _symmetric_sum(I_KH.dot(P).dot(I_KH.T), (K * r).dot(K.T))


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
