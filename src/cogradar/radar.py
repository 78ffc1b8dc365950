"""Radar observation model: nonlinear measurement function, its Jacobian,
and the waveform-dependent measurement noise.

The transmit waveform enters the simulation only through the measurement
covariance: range accuracy follows the matched-filter scaling
sigma_range = c / (2 b sqrt(2 SNR)), so higher bandwidth means a tighter
range measurement.  Angle accuracy is an antenna property and does not
depend on the waveform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .fileio import require_float, require_point
from .trajectory import TruthPoint

SPEED_OF_LIGHT = 299_792_458.0  # m/s
DEFAULT_MIN_BW = 0.5e6  # Hz
DEFAULT_MAX_BW = 10.0e6  # Hz


@dataclass(frozen=True)
class RadarConfig:
    position: tuple[float, float, float] = (20_000.0, -12_000.0, 0.0)
    carrier_freq: float = 10.0e9  # Hz
    pulse_duration: float = 1.0e-4  # s
    snr_ref: float = 300.0  # SNR at range_ref
    range_ref: float = 25_000.0  # m
    angle_noise_std: float = 2.0e-3  # rad, azimuth and elevation
    min_bw: float = DEFAULT_MIN_BW  # Hz
    max_bw: float = DEFAULT_MAX_BW  # Hz

    def __post_init__(self) -> None:
        require_point("position", self.position)
        for f in fields(self):
            if f.name != "position":  # every other field is a float
                require_float(f.name, getattr(self, f.name))
        for name in ("carrier_freq", "pulse_duration", "snr_ref", "range_ref",
                     "angle_noise_std"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if not 0.0 < self.min_bw <= self.max_bw:
            raise ValueError("need 0 < min_bw <= max_bw")

    @property
    def position_array(self) -> np.ndarray:
        return np.asarray(self.position, dtype=float)


def _geometry(state: np.ndarray, radar_position: tuple | np.ndarray) -> tuple[float, ...]:
    """Offset d = position - radar, velocity v and range |d| as floats."""
    x, y, z, vx, vy, vz = np.asarray(state, dtype=float).tolist()
    px, py, pz = radar_position
    dx, dy, dz = x - px, y - py, z - pz
    rng = math.sqrt(dx * dx + dy * dy + dz * dz)
    if rng == 0.0:
        raise ValueError("target at radar")
    return dx, dy, dz, vx, vy, vz, rng


def _observe(state: np.ndarray, radar_position: tuple | np.ndarray) -> tuple[float, ...]:
    """:func:`observe`'s four values as Python floats."""
    dx, dy, dz, vx, vy, vz, rng = _geometry(state, radar_position)
    return (rng, (dx * vx + dy * vy + dz * vz) / rng,
            math.atan2(dy, dx), math.asin(dz / rng))


def observe(state: np.ndarray, radar_position: tuple | np.ndarray) -> np.ndarray:
    """Noise-free measurement (range, range rate, azimuth, elevation).

    ``state`` is the 6-vector [position; velocity].
    """
    return np.array(_observe(state, radar_position))


def observe_jacobian(state: np.ndarray, radar_position: tuple | np.ndarray) -> np.ndarray:
    """Analytic 4x6 Jacobian of :func:`observe` at ``state``."""
    dx, dy, dz, vx, vy, vz, r = _geometry(state, radar_position)
    r2 = r * r
    r3 = r2 * r
    rho_sq = dx * dx + dy * dy
    rho = math.sqrt(rho_sq)
    dv = dx * vx + dy * vy + dz * vz
    ux, uy, uz = dx / r, dy / r, dz / r
    r2_rho = r2 * rho
    return np.array([  # one flat list converts faster than nested rows
        ux, uy, uz, 0.0, 0.0, 0.0,
        vx / r - dv * dx / r3, vy / r - dv * dy / r3, vz / r - dv * dz / r3, ux, uy, uz,
        -dy / rho_sq, dx / rho_sq, 0.0, 0.0, 0.0, 0.0,
        -dz * dx / r2_rho, -dz * dy / r2_rho, rho / r2, 0.0, 0.0, 0.0,
    ]).reshape(4, 6)


def snr_at_range(range_m: float, config: RadarConfig) -> float:
    """Fourth-power radar-equation SNR relative to the reference point."""
    if range_m <= 0.0:
        raise ValueError("range must be > 0")
    return config.snr_ref * (config.range_ref / range_m) ** 4


def measurement_noise_var(
    bandwidth: float, snr: float, config: RadarConfig
) -> np.ndarray:
    """Diagonal of the measurement covariance R(theta) for one transmission.

    sigma_range      = c / (2 b   sqrt(2 SNR))
    sigma_range_rate = c / (2 f_c tau sqrt(2 SNR))
    sigma_az = sigma_el = angle_noise_std
    """
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be > 0")
    if snr <= 0.0:
        raise ValueError("snr must be > 0")
    return _noise_var(bandwidth, *_noise_parts([snr], config))[0]


def _squares(values: np.ndarray) -> list[float]:
    """Each value squared as a Python float power, libm's pow(x, 2.0), which
    does not always round as x * x (or ``np.square``) does."""
    return [value**2 for value in values.tolist()]


def _noise_parts(snr: Sequence[float], config: RadarConfig) -> tuple:
    """What ``_noise_var`` needs of each row but the bandwidth: sqrt(2 SNR),
    the range-rate variance and the angle variance."""
    root = np.sqrt(2.0 * np.asarray(snr, dtype=float))
    sigma_rate = SPEED_OF_LIGHT / (2.0 * config.carrier_freq * config.pulse_duration * root)
    return root, _squares(sigma_rate), config.angle_noise_std**2


def _noise_var(bandwidth: float, root: np.ndarray, rate_var: list[float],
               angle_var: float) -> np.ndarray:
    """``measurement_noise_var``'s four variances of every row, (rows, 4),
    unchecked, from the rows' ``_noise_parts``."""
    r = np.empty((len(root), 4))
    r[:, 0] = _squares(SPEED_OF_LIGHT / (2.0 * bandwidth * root))
    r[:, 1] = rate_var
    r[:, 2:] = angle_var
    return r


class TruthSide:
    """What every transmission on ``trajectory`` computes before it draws,
    once per command, for both kernels: per truth row the noise-free
    measurement ``z_true``, the SNR and the true ``range``, and ``table``,
    (2, rows, bandwidths, 4), where ``table[0, k, column[b]]`` holds the
    noise variances r of row k at bandwidth b and ``table[1, k, column[b]]``
    their square roots; ``columns`` adds a bandwidth's column on first use.
    The rows stop before the first whose truth fails (target at radar);
    ``failure`` holds that error, which measuring the row raises."""

    def __init__(self, trajectory: Sequence[TruthPoint], config: RadarConfig) -> None:
        self.config = config
        self.phases = [point.phase for point in trajectory]
        self.z_true: list[np.ndarray] = []
        self.snr: list[float] = []
        self.range: list[float] = []  # |truth - radar| = z_true[0]
        self.failure: Optional[ValueError] = None
        for point in trajectory:
            try:
                z = observe(np.concatenate([point.position, point.velocity]), config.position)
                snr = snr_at_range(float(z[0]), config)
                if snr <= 0.0:  # measurement_noise_var's check, made per row
                    raise ValueError("snr must be > 0")
            except ValueError as exc:
                self.failure = exc
                break
            self.z_true.append(z)
            self.snr.append(snr)
            self.range.append(float(z[0]))
        self._parts = _noise_parts(self.snr, config)
        self.table = np.empty((2, len(self.z_true), 0, 4))
        self.column: dict[float, int] = {}
        # the known bandwidths sorted, then NaN, which no bandwidth equals,
        # and beside them their columns
        self._known = np.array([np.nan])
        self._known_columns = np.zeros(1, dtype=np.intp)

    def __len__(self) -> int:
        return len(self.phases)

    def columns(self, bandwidths: np.ndarray) -> np.ndarray:
        """The ``table`` column of each bandwidth, as an int array, adding
        those not yet in it in order of first use: a new bandwidth's block is
        one array of its rows' variances."""
        at = self._known.searchsorted(bandwidths)  # NaN sorts last
        if np.count_nonzero(self._known.take(at) == bandwidths) == len(bandwidths):
            return self._known_columns.take(at)
        bandwidths = np.asarray(bandwidths, dtype=float).tolist()
        for new in [b for b in dict.fromkeys(bandwidths) if b not in self.column]:
            if self.snr and new <= 0.0:  # measurement_noise_var's check
                raise ValueError("bandwidth must be > 0")
            r = _noise_var(new, *self._parts)
            block = np.stack([r, np.sqrt(r)])[:, :, None]
            self.table = np.concatenate([self.table, block], axis=2)
            self.column[new] = len(self.column)
        known = sorted(self.column)
        self._known = np.array([*known, np.nan])
        self._known_columns = np.array([*map(self.column.__getitem__, known), 0], dtype=np.intp)
        return np.fromiter(map(self.column.__getitem__, bandwidths), np.intp, len(bandwidths))


def measure(
    truth: TruthSide, k: int, bandwidth: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate one transmission on truth row k: z_true plus Gaussian noise
    from R(theta).

    Returns the measured (range, range rate, azimuth, elevation) vector and
    the four noise variances it was drawn with.
    """
    if k >= len(truth.z_true):
        raise truth.failure
    column = truth.column.get(bandwidth)
    if column is None:
        [column] = truth.columns([bandwidth])
    r = truth.table[0, k, column]  # two basic indexes: unpacking would cost more
    z = truth.z_true[k] + truth.table[1, k, column] * rng.standard_normal(4)
    range_m, _, _, elevation = z.tolist()  # Python floats compare faster
    if range_m <= 0.0:
        raise ValueError("measured range must be > 0")
    if not -np.pi / 2.0 < elevation < np.pi / 2.0:
        raise ValueError("elevation out of (-pi/2, pi/2)")
    return z, r
