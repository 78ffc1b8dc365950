import math
import os
from dataclasses import replace

import numpy as np
import pytest

import trajectory_oracle as oracle
from cogradar import trajectory
from cogradar.config import default_scenario
from cogradar.trajectory import (
    DegenerateTrajectoryError,
    Phase,
    TrajectoryConfig,
    generate_trajectory,
    save_trajectory_csv,
)
from trajectory_readers import load_trajectory_csv, phase_boundaries


def ballistic_oracle(p0, v0, g, t):
    """Closed-form drag-free ballistic state at time t."""
    p0, v0 = np.asarray(p0, float), np.asarray(v0, float)
    accel = np.array([0.0, 0.0, -g])
    return p0 + v0 * t + 0.5 * accel * t * t, v0 + accel * t


def gravity_only_config(**overrides):
    base = dict(
        launch_elevation_angle=np.pi / 4,
        launch_azimuth=0.0,
        launch_speed=np.sqrt(2.0) * 100.0,  # velocity (100, 0, 100)
        thrust_accel=0.0,
        boost_duration=1e-6,
        drag_coeff_times_area_over_mass=0.0,
        terminal_maneuver_accel_std=0.0,
        reentry_altitude=100.0,
        dt=0.1,
    )
    base.update(overrides)
    return TrajectoryConfig(**base)


def altitudes(traj):
    return np.array([p.altitude for p in traj])


class TestGenerate:
    def test_degenerate_no_motion(self):
        cfg = TrajectoryConfig(thrust_accel=0.0, launch_speed=0.0)
        with pytest.raises(DegenerateTrajectoryError, match="degenerate trajectory"):
            generate_trajectory(cfg, seed=0)

    def test_degenerate_thrust_below_gravity(self):
        # vertical thrust component 9 * sin(70 deg) ~ 8.5 < g
        cfg = TrajectoryConfig(thrust_accel=9.0, launch_speed=0.0)
        with pytest.raises(DegenerateTrajectoryError):
            generate_trajectory(cfg, seed=0)

    def test_parabola_matches_closed_form(self):
        cfg = gravity_only_config()
        traj = generate_trajectory(cfg, seed=0)
        v0 = traj[0].velocity
        assert v0 == pytest.approx([100.0, 0.0, 100.0], abs=1e-9)

        # apex within one dt of the closed-form time 100 / 9.81
        t_apex_true = 100.0 / cfg.gravity
        i_apex = int(np.argmax(altitudes(traj)))
        assert abs(traj[i_apex].t - t_apex_true) <= cfg.dt

        # RK4 is exact for constant acceleration; whole path matches
        for p in traj:
            pos, vel = ballistic_oracle(traj[0].position, v0, cfg.gravity, p.t)
            np.testing.assert_allclose(p.position, pos, rtol=0, atol=1e-6)
            np.testing.assert_allclose(p.velocity, vel, rtol=0, atol=1e-9)

    def test_deterministic_for_fixed_seed(self):
        cfg = TrajectoryConfig()
        a = generate_trajectory(cfg, seed=7)
        b = generate_trajectory(cfg, seed=7)
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert pa.t == pb.t and pa.phase is pb.phase
            assert np.array_equal(pa.position, pb.position)
            assert np.array_equal(pa.velocity, pb.velocity)

    def test_seed_affects_terminal_phase_only(self):
        cfg = TrajectoryConfig()
        a = generate_trajectory(cfg, seed=7)
        b = generate_trajectory(cfg, seed=8)
        _, t_term = phase_boundaries(a)
        diverged = False
        for pa, pb in zip(a, b):
            same = np.array_equal(pa.position, pb.position)
            if pa.t <= t_term:
                assert same, f"pre-terminal divergence at t={pa.t}"
            diverged = diverged or not same
        assert diverged

    def test_altitude_profile(self):
        traj = generate_trajectory(TrajectoryConfig(), seed=3)
        alt = altitudes(traj)
        assert alt[-1] <= 0.0
        assert np.all(alt[1:-1] > 0.0)

    def test_position_continuity(self):
        cfg = TrajectoryConfig()
        traj = generate_trajectory(cfg, seed=5)
        for prev, cur in zip(traj, traj[1:]):
            jump = np.linalg.norm(cur.position - prev.position)
            assert jump <= (prev.speed + cur.speed) * cfg.dt + 1e-9

    def test_boost_speed_strictly_increasing(self):
        traj = generate_trajectory(TrajectoryConfig(), seed=1)
        boost = [p for p in traj if p.phase is Phase.BOOST]
        speeds = np.array([p.speed for p in boost])
        assert np.all(np.diff(speeds) > 0.0)

    def test_energy_non_increasing_after_boost(self):
        cfg = TrajectoryConfig(terminal_maneuver_accel_std=0.0)
        traj = generate_trajectory(cfg, seed=2)
        post = [p for p in traj if p.phase is not Phase.BOOST]
        energy = np.array(
            [0.5 * p.speed**2 + cfg.gravity * p.altitude for p in post]
        )
        rel_step = np.diff(energy) / np.abs(energy[:-1])
        assert np.all(rel_step <= 1e-6)

    def test_energy_conserved_without_drag(self):
        cfg = gravity_only_config()
        traj = generate_trajectory(cfg, seed=2)
        energy = np.array(
            [0.5 * p.speed**2 + cfg.gravity * p.altitude for p in traj]
        )
        rel_step = np.abs(np.diff(energy)) / np.abs(energy[:-1])
        assert np.all(rel_step <= 1e-8)

    def test_phase_ordering(self):
        traj = generate_trajectory(TrajectoryConfig(), seed=11)
        order = {Phase.BOOST: 0, Phase.MID_COURSE: 1, Phase.TERMINAL: 2}
        codes = [order[p.phase] for p in traj]
        assert codes == sorted(codes)
        assert set(codes) == {0, 1, 2}


_DEFAULT = default_scenario().trajectory
ORACLE_CASES = {
    "default-seed0": (_DEFAULT, 0),
    "default-seed7": (_DEFAULT, 7),
    "default-seed1000": (_DEFAULT, 1000),
    "no-drag": (replace(_DEFAULT, drag_coeff_times_area_over_mass=0.0), 5),
    "no-maneuver": (replace(_DEFAULT, terminal_maneuver_accel_std=0.0), 5),
    "launch-speed-0": (replace(_DEFAULT, launch_speed=0.0), 5),
    "near-vertical": (replace(_DEFAULT, launch_elevation_angle=1.5707), 5),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_matches_numpy_oracle(case):
    """The float RK4 against the numpy 3-vector RK4 it replaced, in
    ``trajectory_oracle``: every point's time, phase, position and velocity
    byte for byte."""
    config, seed = ORACLE_CASES[case]
    got = generate_trajectory(config, seed)
    want = oracle.generate_trajectory(config, seed)
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert a.t == b.t and a.phase is b.phase, k
        assert a.position.dtype == a.velocity.dtype == np.float64, k
        assert a.position.tobytes() == b.position.tobytes(), k
        assert a.velocity.tobytes() == b.velocity.tobytes(), k
    if case == "launch-speed-0":  # the first thrust step takes the launch direction
        assert not want[0].velocity.any()
    if case == "near-vertical":  # the lateral basis switches its reference vector
        unit_vz = [abs(p.velocity[2]) / p.speed for p in want if p.phase is Phase.TERMINAL]
        assert max(unit_vz[:-1]) > 0.99


def test_air_density_matches_numpy_oracle():
    """The density against ``trajectory_oracle``'s byte for byte, at
    altitudes where ``np.exp`` and ``math.exp`` round their argument apart,
    so the drag term cannot absorb an exp that moved the last bit."""
    altitudes = np.random.default_rng(61).uniform(0.0, 60_000.0, 2000).tolist()
    scale = _DEFAULT.atmosphere_scale_height
    apart = [h for h in altitudes if math.exp(-h / scale) != float(np.exp(-h / scale))]
    assert len(apart) > 20
    for altitude in apart + [-5.0, 0.0]:  # below sea level clamps to 0
        got = trajectory._air_density(altitude, _DEFAULT)
        want = oracle._air_density(altitude, _DEFAULT)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), altitude


@pytest.mark.parametrize("near_vertical", [False, True], ids=["random", "near-vertical"])
def test_lateral_basis_matches_numpy_oracle(near_vertical):
    """The float lateral basis against ``trajectory_oracle``'s byte for byte,
    on velocities whose u1 norm a sum of squares in floats would round apart
    from the BLAS dot product under ``np.linalg.norm``."""
    rng = np.random.default_rng(62 + near_vertical)
    n = 5000
    if near_vertical:  # |v_hat[2]| > 0.99: the reference vector switches to x
        up = rng.uniform(0.9901, 1.0, n) * rng.choice([-1.0, 1.0], n)
        azimuth = rng.uniform(0.0, 2.0 * np.pi, n)
        lateral = np.sqrt(1.0 - up * up)
        directions = np.stack([lateral * np.cos(azimuth), lateral * np.sin(azimuth), up], 1)
    else:
        directions = rng.standard_normal((n, 3))
    velocities = directions * rng.lognormal(0.0, 3.0, (n, 1))
    apart = 0
    for velocity in [*velocities, np.zeros(3)]:
        got = trajectory._lateral_basis(tuple(velocity.tolist()))
        want = oracle._lateral_basis(velocity)
        for a, b in zip(got, want):
            assert np.array(a).tobytes() == b.tobytes(), velocity
        speed = np.linalg.norm(velocity)
        if speed > 0.0:
            ref = [1.0, 0.0, 0.0] if near_vertical else [0.0, 0.0, 1.0]
            u1 = np.cross(velocity / speed, ref)
            x, y, z = u1.tolist()
            apart += math.sqrt(x * x + y * y + z * z) != np.linalg.norm(u1)
    assert apart >= (5 if near_vertical else 100)


class TestPhaseBoundaries:
    def test_boost_end_by_construction(self):
        cfg = TrajectoryConfig(boost_duration=30.0, thrust_accel=40.0)
        traj = generate_trajectory(cfg, seed=0)
        t_boost_end, _ = phase_boundaries(traj)
        assert t_boost_end == pytest.approx(30.0, abs=cfg.dt / 2)

    def test_default_boost_end(self):
        cfg = TrajectoryConfig()
        traj = generate_trajectory(cfg, seed=0)
        t_boost_end, _ = phase_boundaries(traj)
        assert t_boost_end == pytest.approx(cfg.boost_duration, abs=cfg.dt / 2)

    def test_terminal_start_is_first_descending_crossing(self):
        cfg = TrajectoryConfig()
        traj = generate_trajectory(cfg, seed=4)
        _, t_term = phase_boundaries(traj)
        alt = altitudes(traj)
        crossing = None
        above = False
        for i in range(1, len(traj)):
            above = above or alt[i - 1] >= cfg.reentry_altitude
            if above and alt[i - 1] >= cfg.reentry_altitude > alt[i]:
                crossing = traj[i].t
                break
        assert crossing is not None
        assert t_term == crossing

    def test_apex_below_reentry_altitude_errors(self):
        cfg = gravity_only_config(reentry_altitude=1e6)
        traj = generate_trajectory(cfg, seed=0)
        with pytest.raises(ValueError, match="terminal"):
            phase_boundaries(traj)

    def test_empty_trajectory_errors(self):
        with pytest.raises(ValueError):
            phase_boundaries([])


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        traj = generate_trajectory(TrajectoryConfig(), seed=9)
        path = tmp_path / "traj.csv"
        save_trajectory_csv(traj, path)
        loaded = load_trajectory_csv(path)
        assert len(loaded) == len(traj)
        for a, b in zip(traj, loaded):
            assert a.t == b.t and a.phase is b.phase
            assert np.array_equal(a.position, b.position)
            assert np.array_equal(a.velocity, b.velocity)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        # write-then-rename: if the rename fails, the old file stays whole
        # and no temporary file is left behind
        path = tmp_path / "traj.csv"
        path.write_text("previous\n")

        def fail(*args):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            save_trajectory_csv(generate_trajectory(TrajectoryConfig(), seed=9), path)
        assert path.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["traj.csv"]

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_trajectory_csv(path)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0},
            {"boost_duration": -1.0},
            {"atmosphere_scale_height": 0.0},
            {"gravity": -9.81},
            {"thrust_accel": -5.0},
            {"reentry_altitude": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrajectoryConfig(**kwargs)
