"""Reference trajectory integration: the numpy 3-vector RK4 that
``cogradar.trajectory`` ran before it moved to Python floats.

``generate_trajectory`` must equal this byte for byte: the float form makes
the same IEEE operations in the same order, and keeps the two numpy calls
whose bits ``math`` does not reproduce, the BLAS dot product under
``np.linalg.norm`` and ``np.exp``.
"""

from __future__ import annotations

import numpy as np

from cogradar.trajectory import (
    DegenerateTrajectoryError,
    Phase,
    TrajectoryConfig,
    TruthPoint,
)

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

