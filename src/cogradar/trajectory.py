"""Synthetic three-phase ballistic trajectories used as ground truth.

A flat-Earth, constant-gravity, 3-DOF point mass is integrated with fixed-step
RK4.  The boost phase applies constant thrust along the velocity vector, the
mid-course phase is essentially exo-atmospheric coasting, and the terminal
phase (below the re-entry altitude, descending) adds random lateral maneuver
acceleration.  Everything is deterministic for a fixed (config, seed).
"""

from __future__ import annotations

import enum
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


def _launch_direction(config: TrajectoryConfig) -> np.ndarray:
    el, az = config.launch_elevation_angle, config.launch_azimuth
    return np.array(
        [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)]
    )


def _air_density(altitude: float, config: TrajectoryConfig) -> float:
    return config.sea_level_density * np.exp(
        -max(altitude, 0.0) / config.atmosphere_scale_height
    )


def _acceleration(
    position: np.ndarray,
    velocity: np.ndarray,
    config: TrajectoryConfig,
    thrusting: bool,
    thrust_direction: np.ndarray,
    maneuver_accel: np.ndarray,
) -> np.ndarray:
    accel = np.array([0.0, 0.0, -config.gravity])
    speed = np.linalg.norm(velocity)
    if config.drag_coeff_times_area_over_mass > 0.0 and speed > 0.0:
        rho = _air_density(float(position[2]), config)
        drag_mag = 0.5 * rho * config.drag_coeff_times_area_over_mass * speed
        accel = accel - drag_mag * velocity
    if thrusting:
        direction = velocity / speed if speed > 1e-9 else thrust_direction
        accel = accel + config.thrust_accel * direction
    return accel + maneuver_accel


def _rk4_step(
    position: np.ndarray,
    velocity: np.ndarray,
    dt: float,
    config: TrajectoryConfig,
    thrusting: bool,
    thrust_direction: np.ndarray,
    maneuver_accel: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    def deriv(p, v):
        return v, _acceleration(p, v, config, thrusting, thrust_direction, maneuver_accel)

    k1p, k1v = deriv(position, velocity)
    k2p, k2v = deriv(position + 0.5 * dt * k1p, velocity + 0.5 * dt * k1v)
    k3p, k3v = deriv(position + 0.5 * dt * k2p, velocity + 0.5 * dt * k2v)
    k4p, k4v = deriv(position + dt * k3p, velocity + dt * k3v)
    new_p = position + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    new_v = velocity + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return new_p, new_v


def _lateral_basis(velocity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors spanning the plane perpendicular to ``velocity``."""
    speed = np.linalg.norm(velocity)
    if speed < 1e-9:
        return np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    v_hat = velocity / speed
    ref = np.array([0.0, 0.0, 1.0])
    if abs(v_hat[2]) > 0.99:
        ref = np.array([1.0, 0.0, 0.0])
    u1 = np.cross(v_hat, ref)
    u1 /= np.linalg.norm(u1)
    u2 = np.cross(v_hat, u1)
    return u1, u2


def generate_trajectory(config: TrajectoryConfig, seed: int) -> list[TruthPoint]:
    """Integrate a three-phase ballistic trajectory until impact: one point
    per dt from t = 0 to the first point at altitude <= 0.

    ``seed`` seeds the terminal-phase maneuver noise, so identical (config,
    seed) pairs give bit-identical trajectories.  Raises
    ``DegenerateTrajectoryError`` if the configuration never leaves the
    ground, and ValueError if the state becomes non-finite.
    """
    rng = np.random.default_rng(seed)
    direction = _launch_direction(config)
    position = np.asarray(config.launch_position, dtype=float).copy()
    velocity = config.launch_speed * direction

    climb_rate = velocity[2]
    thrust_vertical = config.thrust_accel * direction[2]
    if climb_rate <= 0.0 and thrust_vertical - config.gravity <= 0.0:
        raise DegenerateTrajectoryError("degenerate trajectory")

    points = [TruthPoint(0.0, position.copy(), velocity.copy(), Phase.BOOST)]
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
        maneuver = np.zeros(3)
        if phase_start is Phase.TERMINAL and config.terminal_maneuver_accel_std > 0.0:
            u1, u2 = _lateral_basis(velocity)
            n1, n2 = rng.standard_normal(2)
            maneuver = config.terminal_maneuver_accel_std * (n1 * u1 + n2 * u2)
        position, velocity = _rk4_step(
            position, velocity, config.dt, config, thrusting, direction, maneuver
        )
        if not (np.all(np.isfinite(position)) and np.all(np.isfinite(velocity))):
            raise ValueError("non-finite state during integration")

        altitude = float(position[2])
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
        points.append(TruthPoint(t_end, position.copy(), velocity.copy(), phase))
        if altitude <= 0.0:
            break
    return points


CSV_HEADER = ["t", "px", "py", "pz", "vx", "vy", "vz", "phase"]


def save_trajectory_csv(trajectory: Sequence[TruthPoint], path) -> None:
    """Write one row per step, with CRLF line ends."""
    rows = ([p.t, *p.position, *p.velocity, p.phase.value] for p in trajectory)
    write_csv(path, CSV_HEADER, rows, lineterminator="\r\n")
