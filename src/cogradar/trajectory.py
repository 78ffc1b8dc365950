"""Synthetic three-phase ballistic trajectories used as ground truth.

A flat-Earth, constant-gravity, 3-DOF point mass is integrated with fixed-step
RK4.  The boost phase applies constant thrust along the velocity vector, the
mid-course phase is essentially exo-atmospheric coasting, and the terminal
phase (below the re-entry altitude, descending) adds random lateral maneuver
acceleration.  Everything is deterministic for a fixed (config, seed).

The state is integrated on Python floats with the operations, in their order,
of the numpy 3-vector form kept in ``tests/trajectory_oracle.py``, so the
points are that form's bytes.  Two steps stay in numpy because ``math`` does
not reproduce their last bit: the speed is the square root of the BLAS dot
product, as ``np.linalg.norm`` takes it, and the air density uses ``np.exp``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .fileio import require_float, require_point, write_csv


class DegenerateTrajectoryError(ValueError):
    """Raised when a configuration cannot produce a flying trajectory."""


class Phase(enum.Enum):
    BOOST = "boost"
    MID_COURSE = "mid_course"
    TERMINAL = "terminal"


@dataclass(frozen=True)
class TrajectoryConfig:
    """Physical parameters for the synthetic ballistic target.

    ``drag_coeff_times_area_over_mass`` is the lumped Cd*A/m (m^2/kg); air
    density follows rho(h) = sea_level_density * exp(-h / scale_height).
    ``launch_speed`` is the initial speed along the launch direction; with
    zero launch speed the boost thrust vector starts along that direction.
    """

    launch_position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    launch_elevation_angle: float = 1.2217  # rad, ~70 deg
    launch_azimuth: float = 0.70  # rad, ~40 deg
    launch_speed: float = 60.0  # m/s
    thrust_accel: float = 42.0  # m/s^2, boost phase only
    boost_duration: float = 12.0  # s
    drag_coeff_times_area_over_mass: float = 2.0e-5  # m^2/kg
    atmosphere_scale_height: float = 8500.0  # m
    sea_level_density: float = 1.225  # kg/m^3
    gravity: float = 9.81  # m/s^2
    dt: float = 0.5  # s
    terminal_maneuver_accel_std: float = 25.0  # m/s^2, lateral, terminal only
    reentry_altitude: float = 7_000.0  # m, Terminal begins below this on descent

    def __post_init__(self) -> None:
        require_point("launch_position", self.launch_position)
        for f in fields(self):
            if f.name != "launch_position":  # every other field is a float
                require_float(f.name, getattr(self, f.name))
        for name in ("dt", "boost_duration", "atmosphere_scale_height", "gravity",
                     "reentry_altitude"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        for name in (
            "launch_speed",
            "thrust_accel",
            "drag_coeff_times_area_over_mass",
            "sea_level_density",
            "terminal_maneuver_accel_std",
        ):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class TruthPoint:
    """Ground-truth target kinematics at one time step."""

    t: float
    position: np.ndarray  # (3,) m
    velocity: np.ndarray  # (3,) m/s
    phase: Phase

    @property
    def altitude(self) -> float:
        return float(self.position[2])

    @property
    def speed(self) -> float:
        return float(np.linalg.norm(self.velocity))


_MAX_STEPS = 200_000
Vec3 = tuple[float, float, float]


def _launch_direction(config: TrajectoryConfig) -> np.ndarray:
    el, az = config.launch_elevation_angle, config.launch_azimuth
    return np.array(
        [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)]
    )


def _air_density(altitude: float, config: TrajectoryConfig) -> float:
    return float(config.sea_level_density * np.exp(
        -max(altitude, 0.0) / config.atmosphere_scale_height
    ))


def _norm(vector: Vec3) -> float:
    """|vector| as ``np.linalg.norm`` takes it: the square root of the BLAS
    dot product, whose last bit can differ from a sum of squares in floats."""
    array = np.array(vector)
    return math.sqrt(array.dot(array))


def _cross(a: Vec3, b: Vec3) -> Vec3:
    """``np.cross`` of two 3-vectors, component by component as it computes them."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _axpy(x: Vec3, h: float, k: Vec3) -> Vec3:
    """x + h * k."""
    return (x[0] + h * k[0], x[1] + h * k[1], x[2] + h * k[2])


def _acceleration(
    position: Vec3,
    velocity: Vec3,
    config: TrajectoryConfig,
    thrusting: bool,
    thrust_direction: Vec3,
    maneuver_accel: Vec3,
) -> Vec3:
    ax, ay, az = 0.0, 0.0, -config.gravity
    vx, vy, vz = velocity
    speed = _norm(velocity)
    if config.drag_coeff_times_area_over_mass > 0.0 and speed > 0.0:
        rho = _air_density(position[2], config)
        drag_mag = 0.5 * rho * config.drag_coeff_times_area_over_mass * speed
        ax, ay, az = ax - drag_mag * vx, ay - drag_mag * vy, az - drag_mag * vz
    if thrusting:
        dx, dy, dz = (vx / speed, vy / speed, vz / speed) if speed > 1e-9 else thrust_direction
        thrust = config.thrust_accel
        ax, ay, az = ax + thrust * dx, ay + thrust * dy, az + thrust * dz
    mx, my, mz = maneuver_accel
    return ax + mx, ay + my, az + mz


def _rk4_step(
    position: Vec3,
    velocity: Vec3,
    dt: float,
    config: TrajectoryConfig,
    thrusting: bool,
    thrust_direction: Vec3,
    maneuver_accel: Vec3,
) -> tuple[Vec3, Vec3]:
    def accel(p, v):
        return _acceleration(p, v, config, thrusting, thrust_direction, maneuver_accel)

    half = 0.5 * dt
    k1p, k1v = velocity, accel(position, velocity)
    k2p = _axpy(velocity, half, k1v)
    k2v = accel(_axpy(position, half, k1p), k2p)
    k3p = _axpy(velocity, half, k2v)
    k3v = accel(_axpy(position, half, k2p), k3p)
    k4p = _axpy(velocity, dt, k3v)
    k4v = accel(_axpy(position, dt, k3p), k4p)
    sixth = dt / 6.0

    def combine(x, k1, k2, k3, k4):
        return tuple(x_i + sixth * (a + 2.0 * b + 2.0 * c + d)
                     for x_i, a, b, c, d in zip(x, k1, k2, k3, k4))

    return combine(position, k1p, k2p, k3p, k4p), combine(velocity, k1v, k2v, k3v, k4v)


def _lateral_basis(velocity: Vec3) -> tuple[Vec3, Vec3]:
    """Two unit vectors spanning the plane perpendicular to ``velocity``."""
    speed = _norm(velocity)
    if speed < 1e-9:
        return (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
    v_hat = tuple(c / speed for c in velocity)
    ref = (1.0, 0.0, 0.0) if abs(v_hat[2]) > 0.99 else (0.0, 0.0, 1.0)
    u1 = _cross(v_hat, ref)
    norm = _norm(u1)
    u1 = tuple(c / norm for c in u1)
    return u1, _cross(v_hat, u1)


def generate_trajectory(config: TrajectoryConfig, seed: int) -> list[TruthPoint]:
    """Integrate a three-phase ballistic trajectory until impact: one point
    per dt from t = 0 to the first point at altitude <= 0.

    ``seed`` seeds the terminal-phase maneuver noise, so identical (config,
    seed) pairs give bit-identical trajectories.  Raises
    ``DegenerateTrajectoryError`` if the configuration never leaves the
    ground, and ValueError if the state becomes non-finite.
    """
    rng = np.random.default_rng(seed)
    direction = tuple(_launch_direction(config).tolist())
    position = tuple(float(c) for c in config.launch_position)
    velocity = tuple(config.launch_speed * c for c in direction)

    climb_rate = velocity[2]
    thrust_vertical = config.thrust_accel * direction[2]
    if climb_rate <= 0.0 and thrust_vertical - config.gravity <= 0.0:
        raise DegenerateTrajectoryError("degenerate trajectory")

    points = [TruthPoint(0.0, np.array(position), np.array(velocity), Phase.BOOST)]
    crossed_reentry = False
    terminal = False
    step = 0
    while True:
        step += 1
        if step > _MAX_STEPS:
            raise ValueError("trajectory failed to terminate")
        t_start = (step - 1) * config.dt
        t_end = step * config.dt
        thrusting = t_start < config.boost_duration
        phase_start = points[-1].phase
        maneuver = (0.0, 0.0, 0.0)
        if phase_start is Phase.TERMINAL and config.terminal_maneuver_accel_std > 0.0:
            u1, u2 = _lateral_basis(velocity)
            n1, n2 = rng.standard_normal(2).tolist()
            std = config.terminal_maneuver_accel_std
            maneuver = tuple(std * (n1 * a + n2 * b) for a, b in zip(u1, u2))
        position, velocity = _rk4_step(
            position, velocity, config.dt, config, thrusting, direction, maneuver
        )
        if not all(map(math.isfinite, position + velocity)):
            raise ValueError("non-finite state during integration")

        altitude = position[2]
        if altitude >= config.reentry_altitude:
            crossed_reentry = True
        if crossed_reentry and altitude < config.reentry_altitude:
            terminal = True
        if terminal:
            phase = Phase.TERMINAL
        elif t_end < config.boost_duration:
            phase = Phase.BOOST
        else:
            phase = Phase.MID_COURSE
        points.append(TruthPoint(t_end, np.array(position), np.array(velocity), phase))
        if altitude <= 0.0:
            break
    return points


CSV_HEADER = ["t", "px", "py", "pz", "vx", "vy", "vz", "phase"]


def save_trajectory_csv(trajectory: Sequence[TruthPoint], path) -> None:
    """Write one row per step, with CRLF line ends."""
    rows = ([p.t, *p.position, *p.velocity, p.phase.value] for p in trajectory)
    write_csv(path, CSV_HEADER, rows, lineterminator="\r\n")
