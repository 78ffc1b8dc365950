import numpy as np
import pytest

from cogradar.radar import (
    SPEED_OF_LIGHT,
    RadarConfig,
    TruthSide,
    measure,
    measurement_noise_var,
    observe,
    observe_jacobian,
    snr_at_range,
)
from cogradar.trajectory import Phase, TruthPoint


def fd_jacobian(state, radar_position, step=1e-3):
    """Central-difference Jacobian oracle for observe."""
    state = np.asarray(state, float)
    J = np.zeros((4, 6))
    for j in range(6):
        hi, lo = state.copy(), state.copy()
        hi[j] += step
        lo[j] -= step
        J[:, j] = (observe(hi, radar_position) - observe(lo, radar_position)) / (
            2.0 * step
        )
    return J


def random_states(n, seed):
    """States kept well away from the radar and the zenith singularity."""
    rng = np.random.default_rng(seed)
    states = np.empty((n, 6))
    for i in range(n):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        direction[2] = abs(direction[2])
        states[i, :3] = direction * rng.uniform(5e3, 50e3)
        states[i, 3:] = rng.uniform(-500.0, 500.0, size=3)
        # keep off the z axis so azimuth stays well conditioned
        if np.hypot(states[i, 0], states[i, 1]) < 1e3:
            states[i, 0] += 2e3
    return states


ORIGIN = np.zeros(3)


class TestObserve:
    def test_on_axis_geometry(self):
        z = observe([10_000.0, 0.0, 0.0, -300.0, 0.0, 0.0], ORIGIN)
        assert z == pytest.approx([10_000.0, -300.0, 0.0, 0.0])

    def test_near_vertical_elevation(self):
        z = observe([1.0, 0.0, 5000.0, 0.0, 0.0, 0.0], ORIGIN)
        assert z[0] == pytest.approx(np.sqrt(25_000_001.0))
        assert z[3] == pytest.approx(np.arcsin(5000.0 / np.sqrt(25_000_001.0)))
        assert z[3] == pytest.approx(1.5706, abs=5e-5)

    def test_rotation_about_z(self):
        state = np.array([8000.0, 3000.0, 2000.0, 100.0, -50.0, 10.0])
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        rotated = np.concatenate([rot @ state[:3], rot @ state[3:]])
        z0, z1 = observe(state, ORIGIN), observe(rotated, ORIGIN)
        assert z1[0] == pytest.approx(z0[0])
        assert z1[1] == pytest.approx(z0[1])
        assert z1[3] == pytest.approx(z0[3])
        assert z1[2] == pytest.approx(z0[2] + np.pi / 2.0)

    def test_range_rate_sign(self):
        closing = observe([10_000.0, 0.0, 1000.0, -200.0, 0.0, 0.0], ORIGIN)
        opening = observe([10_000.0, 0.0, 1000.0, 200.0, 0.0, 0.0], ORIGIN)
        assert closing[1] < 0.0 < opening[1]

    def test_radar_offset(self):
        radar = np.array([500.0, -500.0, 10.0])
        state = np.array([10_500.0, -500.0, 10.0, 0.0, 0.0, 0.0])
        z = observe(state, radar)
        assert z[0] == pytest.approx(10_000.0)
        assert z[2] == pytest.approx(0.0)
        assert z[3] == pytest.approx(0.0)

    def test_zero_range_rejected(self):
        with pytest.raises(ValueError, match="target at radar"):
            observe(np.zeros(6), ORIGIN)


class TestObserveJacobian:
    def test_range_rows_trivial(self):
        H = observe_jacobian([10_000.0, 0.0, 0.0, -300.0, 0.0, 0.0], ORIGIN)
        assert H[0, :3] == pytest.approx([1.0, 0.0, 0.0])
        assert H[0, 3:] == pytest.approx([0.0, 0.0, 0.0])

    def test_angle_rows_velocity_independent(self):
        H = observe_jacobian(random_states(1, seed=3)[0], ORIGIN)
        assert H[2, 3:] == pytest.approx([0.0, 0.0, 0.0])
        assert H[3, 3:] == pytest.approx([0.0, 0.0, 0.0])

    def test_matches_finite_differences(self):
        # central differences, step 1e-3, relative error < 1e-5
        for state in random_states(100, seed=42):
            H = observe_jacobian(state, ORIGIN)
            J = fd_jacobian(state, ORIGIN)
            scale = max(np.abs(J).max(), 1.0)
            assert np.abs(H - J).max() / scale < 1e-5

    def test_offset_radar_matches_finite_differences(self):
        radar = np.array([20_000.0, -12_000.0, 0.0])
        for state in random_states(20, seed=7):
            state[:3] += radar
            H = observe_jacobian(state, radar)
            J = fd_jacobian(state, radar)
            scale = max(np.abs(J).max(), 1.0)
            assert np.abs(H - J).max() / scale < 1e-5

    def test_zero_range_rejected(self):
        with pytest.raises(ValueError):
            observe_jacobian(np.zeros(6), ORIGIN)


class TestSnrAtRange:
    def test_reference_point(self):
        cfg = RadarConfig(snr_ref=160.0, range_ref=10_000.0)
        assert snr_at_range(10_000.0, cfg) == pytest.approx(160.0)

    def test_double_range(self):
        # 160 / 2**4
        cfg = RadarConfig(snr_ref=160.0, range_ref=10_000.0)
        assert snr_at_range(20_000.0, cfg) == pytest.approx(10.0)

    def test_linear_in_snr_ref(self):
        lo = RadarConfig(snr_ref=100.0, range_ref=10_000.0)
        hi = RadarConfig(snr_ref=200.0, range_ref=10_000.0)
        for r in (3e3, 8e3, 25e3):
            assert snr_at_range(r, hi) == pytest.approx(2.0 * snr_at_range(r, lo))

    def test_nonpositive_range_rejected(self):
        with pytest.raises(ValueError):
            snr_at_range(0.0, RadarConfig())


class TestMeasurementNoiseCov:
    def test_direct_formula(self):
        # sigma_range = c / (2e6 * sqrt(200)) ~ 10.6 m
        cfg = RadarConfig()
        R = measurement_noise_var(1.0e6, 100.0, cfg)
        sigma_range = SPEED_OF_LIGHT / (2.0e6 * np.sqrt(200.0))
        assert np.sqrt(R[0]) == pytest.approx(sigma_range)
        assert sigma_range == pytest.approx(10.6, abs=0.02)
        sigma_rate = SPEED_OF_LIGHT / (
            2.0 * cfg.carrier_freq * cfg.pulse_duration * np.sqrt(200.0)
        )
        assert np.sqrt(R[1]) == pytest.approx(sigma_rate)
        assert np.sqrt(R[2]) == pytest.approx(cfg.angle_noise_std)
        assert np.sqrt(R[3]) == pytest.approx(cfg.angle_noise_std)

    def test_double_bandwidth_halves_sigma_range(self):
        cfg = RadarConfig()
        R1 = measurement_noise_var(2.0e6, 50.0, cfg)
        R2 = measurement_noise_var(4.0e6, 50.0, cfg)
        assert np.sqrt(R2[0]) == pytest.approx(0.5 * np.sqrt(R1[0]))
        assert R2[2] == pytest.approx(R1[2])

    def test_quadruple_snr_halves_sigmas(self):
        cfg = RadarConfig()
        R1 = measurement_noise_var(1.0e6, 25.0, cfg)
        R2 = measurement_noise_var(1.0e6, 100.0, cfg)
        assert np.sqrt(R2[0]) == pytest.approx(0.5 * np.sqrt(R1[0]))
        assert np.sqrt(R2[1]) == pytest.approx(0.5 * np.sqrt(R1[1]))

    def test_diagonal_spd(self):
        cfg = RadarConfig()
        for b in np.linspace(cfg.min_bw, cfg.max_bw, 7):
            for snr in (1.0, 30.0, 1e4):
                R = measurement_noise_var(b, snr, cfg)
                assert R.shape == (4,)  # the diagonal of R(theta)
                assert np.all(R > 0.0)

    def test_sigma_range_strictly_decreasing_in_bandwidth(self):
        cfg = RadarConfig()
        grid = np.linspace(cfg.min_bw, cfg.max_bw, 50)
        sigmas = [
            np.sqrt(measurement_noise_var(b, 40.0, cfg)[0])
            for b in grid
        ]
        assert np.all(np.diff(sigmas) < 0.0)


def truth_point(position, velocity, t=0.0):
    return TruthPoint(
        t=t,
        position=np.asarray(position, float),
        velocity=np.asarray(velocity, float),
        phase=Phase.MID_COURSE,
    )


class TestMeasure:
    def test_determinism(self):
        truth = truth_point([8000.0, -3000.0, 4000.0], [100.0, 50.0, -200.0])
        cfg = RadarConfig()
        z1, _ = measure(TruthSide([truth], cfg), 0, 5.0e6, np.random.default_rng(11))
        z2, _ = measure(TruthSide([truth], cfg), 0, 5.0e6, np.random.default_rng(11))
        assert z1 == pytest.approx(z2, abs=0.0)

    def test_high_snr_limit(self):
        truth = truth_point([8000.0, -3000.0, 4000.0], [100.0, 50.0, -200.0])
        cfg = RadarConfig(snr_ref=1e18, angle_noise_std=1e-12)
        z, _ = measure(TruthSide([truth], cfg), 0, 10.0e6, np.random.default_rng(0))
        state = np.concatenate([truth.position, truth.velocity])
        assert z == pytest.approx(observe(state, cfg.position_array), abs=1e-3)

    def test_sample_std_matches_sigma_range(self):
        # 10 000 draws, sample std within 5% of sigma_range
        truth = truth_point([15_000.0, -7000.0, 6000.0], [0.0, 0.0, -100.0])
        cfg = RadarConfig()
        bw = 1.0e6
        state = np.concatenate([truth.position, truth.velocity])
        true_range = observe(state, cfg.position_array)[0]
        sigma = np.sqrt(
            measurement_noise_var(bw, snr_at_range(true_range, cfg), cfg)[0]
        )
        rng = np.random.default_rng(123)
        side = TruthSide([truth], cfg)
        errors = np.array(
            [measure(side, 0, bw, rng)[0][0] - true_range for _ in range(10_000)]
        )
        assert abs(errors.std(ddof=1) - sigma) / sigma < 0.05
        assert abs(errors.mean()) < 5.0 * sigma / np.sqrt(10_000.0)

    def test_returns_variances_of_bandwidth(self):
        truth = truth_point([8000.0, 0.0, 4000.0], [0.0, 0.0, 0.0])
        cfg = RadarConfig()
        _, r = measure(TruthSide([truth], cfg), 0, 2.5e6, np.random.default_rng(5))
        true_range = np.linalg.norm(truth.position - cfg.position_array)
        snr = snr_at_range(float(true_range), cfg)
        assert np.array_equal(r, measurement_noise_var(2.5e6, snr, cfg))


class TestValidation:
    def test_waveform_rejects_nonpositive(self):
        truth = truth_point([8000.0, 0.0, 4000.0], [0.0, 0.0, 0.0])
        for bandwidth in (0.0, -1e6):
            with pytest.raises(ValueError, match="bandwidth"):
                measurement_noise_var(bandwidth, 100.0, RadarConfig())
            with pytest.raises(ValueError, match="bandwidth"):
                measure(TruthSide([truth], RadarConfig()), 0, bandwidth,
                        np.random.default_rng(0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(snr_ref=0.0),
            dict(range_ref=-1.0),
            dict(min_bw=0.0),
            dict(min_bw=2e6, max_bw=1e6),
            dict(angle_noise_std=0.0),
        ],
    )
    def test_radar_config_rejects(self, kwargs):
        with pytest.raises(ValueError):
            RadarConfig(**kwargs)

    def test_measurement_rejects_bad_elevation(self):
        # straight above the radar the true elevation is pi/2; the first
        # elevation draw of default_rng(0) is positive and pushes it past
        cfg = RadarConfig()
        truth = truth_point(cfg.position_array + [0.0, 0.0, 5000.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"elevation out of \(-pi/2, pi/2\)"):
            measure(TruthSide([truth], cfg), 0, 1.0e6, np.random.default_rng(0))

    def test_measurement_rejects_nonpositive_range(self):
        # at SNR ~ 4e-7 sigma_range is ~3e5 m, and the first range draw of
        # default_rng(5) is -0.80: the measured range of a target 1 km out
        # comes out negative
        cfg = RadarConfig(snr_ref=1e-12)
        truth = truth_point(cfg.position_array + [1000.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="measured range must be > 0"):
            measure(TruthSide([truth], cfg), 0, 1.0e6, np.random.default_rng(5))
