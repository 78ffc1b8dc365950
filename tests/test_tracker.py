import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogradar.radar import (
    RadarConfig,
    TruthSide,
    measure,
    measurement_noise_var,
    observe,
    observe_jacobian,
    snr_at_range,
)
from cogradar.tracker import (
    DegenerateInnovationError,
    GateResult,
    ProcessModel,
    gate,
    initialize_track,
    innovation,
    predict,
    require_finite,
    update,
    wrap_angle,
)
from cogradar.trajectory import Phase, TruthPoint

UNIFORM_SIGMA = {Phase.BOOST: 1.0, Phase.MID_COURSE: 1.0, Phase.TERMINAL: 1.0}


def make_model(sigma=1.0, dt=0.5):
    return ProcessModel(dt=dt, accel_noise_std={p: sigma for p in Phase})


def make_measurement(z, noise_cov):
    """A measured vector and the variances on the diagonal of ``noise_cov``,
    as ``measure`` returns them."""
    return np.asarray(z, float), np.diag(np.asarray(noise_cov, float))


def ekf_update(x, P, measurement, radar):
    """The episode loop's hit path: residual and Jacobian at the prior, then
    the update.  Returns the posterior ``(x, P)`` and the residual."""
    z, r = measurement
    radar_position = radar.position_array
    nu = innovation(x, z, radar_position)
    H = observe_jacobian(x, radar_position)
    return update(x, P, r, H, nu), nu


def scalar_posterior_var(prior_var, noise_var):
    """1-D Kalman oracle: information form posterior variance."""
    return 1.0 / (1.0 / prior_var + 1.0 / noise_var)


class TestWrapAngle:
    @pytest.mark.parametrize(
        "angle,expected",
        [
            (0.0, 0.0),
            (np.pi, np.pi),
            (-np.pi, np.pi),
            (3.0 * np.pi / 2.0, -np.pi / 2.0),
            (-3.0 * np.pi / 2.0, np.pi / 2.0),
            (2.0 * np.pi, 0.0),
        ],
    )
    def test_values(self, angle, expected):
        assert wrap_angle(angle) == pytest.approx(expected)

    @given(st.floats(-50.0, 50.0))
    def test_range_and_equivalence(self, angle):
        w = wrap_angle(angle)
        assert -np.pi < w <= np.pi
        assert np.cos(w) == pytest.approx(np.cos(angle), abs=1e-9)
        assert np.sin(w) == pytest.approx(np.sin(angle), abs=1e-9)


class TestPredict:
    def test_constant_velocity(self):
        x = np.array([0.0, 0.0, 0.0, 10.0, 0.0, 0.0])
        model = make_model(sigma=0.0, dt=1.0)
        out, _ = predict(x, np.zeros((6, 6)), model, Phase.MID_COURSE)
        assert out == pytest.approx([10.0, 0.0, 0.0, 10.0, 0.0, 0.0])

    def test_zero_noise_keeps_zero_covariance(self):
        model = make_model(sigma=0.0, dt=1.0)
        _, P = predict(np.zeros(6), np.zeros((6, 6)), model, Phase.BOOST)
        assert P == pytest.approx(np.zeros((6, 6)))

    def test_identity_covariance_hand_product(self):
        # F I F' with dt = 1: top-left block I + dt^2 I = 2I, cross blocks dt I
        model = make_model(sigma=0.0, dt=1.0)
        _, P = predict(np.zeros(6), np.eye(6), model, Phase.MID_COURSE)
        expected = np.block(
            [[2.0 * np.eye(3), np.eye(3)], [np.eye(3), np.eye(3)]]
        )
        assert P == pytest.approx(expected)

    def test_process_noise_blocks(self):
        dt, sigma = 0.5, 3.0
        model = make_model(sigma=sigma, dt=dt)
        _, P = predict(np.zeros(6), np.zeros((6, 6)), model, Phase.TERMINAL)
        var = sigma**2
        assert P[0, 0] == pytest.approx(var * dt**4 / 4.0)
        assert P[0, 3] == pytest.approx(var * dt**3 / 2.0)
        assert P[3, 3] == pytest.approx(var * dt**2)

    def test_phase_selects_sigma(self):
        model = ProcessModel(
            dt=1.0,
            accel_noise_std={
                Phase.BOOST: 10.0,
                Phase.MID_COURSE: 1.0,
                Phase.TERMINAL: 5.0,
            },
        )
        traces = {
            phase: np.trace(predict(np.zeros(6), np.zeros((6, 6)), model, phase)[1])
            for phase in Phase
        }
        assert traces[Phase.BOOST] > traces[Phase.TERMINAL] > traces[Phase.MID_COURSE]

    def test_nonfinite_rejected(self):
        x = np.array([np.nan, 0.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="non-finite"):
            predict(x, np.eye(6), make_model(), Phase.BOOST)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_each_nonfinite_entry_rejected(self, value):
        """The finiteness check raises on any one non-finite entry of x or P,
        for one track and for a stack of three, and passes finite extremes."""
        for x, P in ((np.zeros(6), np.eye(6)), (np.zeros((3, 6)), np.ones((3, 6, 6)))):
            require_finite(np.full_like(x, np.finfo(float).max), np.full_like(P, 5e-324))
            for i in range(x.size + P.size):
                bad_x, bad_P = x.copy(), P.copy()
                flat = np.concatenate([bad_x.reshape(-1), bad_P.reshape(-1)])
                flat[i] = value
                bad_x.flat, bad_P.flat = flat[:x.size], flat[x.size:]
                with pytest.raises(ValueError, match="^non-finite track state$"):
                    require_finite(bad_x, bad_P)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ProcessModel(dt=0.0, accel_noise_std=UNIFORM_SIGMA)
        with pytest.raises(ValueError, match="terminal"):
            ProcessModel(
                dt=1.0,
                accel_noise_std={Phase.BOOST: 1.0, Phase.MID_COURSE: 1.0},
            )
        with pytest.raises(ValueError):
            ProcessModel(
                dt=1.0,
                accel_noise_std={p: -1.0 for p in Phase},
            )


def transition_matrix(model):
    """Oracle: the constant-velocity transition, built from scratch."""
    F = np.eye(6)
    F[:3, 3:] = model.dt * np.eye(3)
    return F


def process_noise(model, phase):
    """Oracle: discrete white-noise-acceleration covariance for one step."""
    var = model.accel_noise_std[phase] ** 2
    dt = model.dt
    Q = np.zeros((6, 6))
    Q[:3, :3] = var * dt**4 / 4.0 * np.eye(3)
    Q[:3, 3:] = var * dt**3 / 2.0 * np.eye(3)
    Q[3:, :3] = var * dt**3 / 2.0 * np.eye(3)
    Q[3:, 3:] = var * dt**2 * np.eye(3)
    return Q


class TestProcessModelMatrices:
    """F, its contiguous transpose F_T and Q(phase) are built once per model
    and stay fixed."""

    MODEL = ProcessModel(
        dt=0.5,
        accel_noise_std={Phase.BOOST: 12.0, Phase.MID_COURSE: 5.0, Phase.TERMINAL: 22.0},
    )

    def test_match_formulas(self):
        assert np.array_equal(self.MODEL.F, transition_matrix(self.MODEL))
        assert np.array_equal(self.MODEL.F_T, transition_matrix(self.MODEL).T)
        assert self.MODEL.F_T.flags.c_contiguous
        for phase in Phase:
            assert np.array_equal(self.MODEL.Q[phase], process_noise(self.MODEL, phase))

    def test_predict_leaves_them_unchanged(self):
        rng = np.random.default_rng(6)
        x, P = rng.normal(size=6), np.eye(6)
        for phase in Phase:
            x, P = predict(x, P, self.MODEL, phase)
        self.test_match_formulas()

    def test_in_place_writes_refused(self):
        for matrix in (self.MODEL.F, self.MODEL.F_T, *self.MODEL.Q.values()):
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 1.0
        self.test_match_formulas()

    def test_equality_and_repr_see_fields_only(self):
        twin = ProcessModel(dt=0.5, accel_noise_std=dict(self.MODEL.accel_noise_std))
        assert twin == self.MODEL
        assert [f.name for f in dataclasses.fields(ProcessModel)] == ["dt", "accel_noise_std"]
        assert repr(twin) == (
            f"ProcessModel(dt=0.5, accel_noise_std={self.MODEL.accel_noise_std!r})"
        )

    def test_powers_are_float_powers(self):
        """A sweep of 2000 models over dt in [0.01, 2] and 6000 noise
        standard deviations in [0.1, 100]: each Q(phase) has the bytes of the
        oracle, whose std**2 and dt**2, dt**3 and dt**4 are Python-float
        powers, libm's pow.  The sweep reaches values whose pow does not
        round as the product of factors does (on glibc 2.36: 6 standard
        deviations, 2 dt for the square and hundreds for the third and fourth
        powers), so a model built on products fails here on any platform
        whose pow rounds as that one's does."""
        dts = np.geomspace(0.01, 2.0, 2000).tolist()
        stds = np.geomspace(0.1, 100.0, 3 * len(dts)).tolist()
        for i, dt in enumerate(dts):
            model = ProcessModel(dt=dt, accel_noise_std=dict(zip(Phase, stds[3 * i : 3 * i + 3])))
            for phase in Phase:
                assert model.Q[phase].tobytes() == process_noise(model, phase).tobytes(), dt
        assert any(std**2 != std * std for std in stds)
        assert any(dt**2 != dt * dt for dt in dts)
        assert any(dt**3 != dt * dt * dt for dt in dts)
        assert any(dt**4 != (dt * dt) * (dt * dt) for dt in dts)
        assert any(dt**4 != dt * dt * dt * dt for dt in dts)

    @pytest.mark.parametrize(
        "dt, std, field",
        [
            (True, 1.0, "dt"),
            ("0.5", 1.0, "dt"),
            (0.5, float("inf"), "accel_noise_std.boost"),
            (0.5, float("nan"), "accel_noise_std.boost"),
        ],
    )
    def test_non_finite_or_non_numeric_rejected(self, dt, std, field):
        with pytest.raises((TypeError, ValueError), match=field):
            ProcessModel(dt=dt, accel_noise_std={p: std for p in Phase})


class TestUpdateScalarOracle:
    """On-axis geometry with diagonal P and R decouples the 4-D update into
    independent scalar Kalman problems, which have a closed form."""

    R0 = 10_000.0

    def setup_method(self):
        self.radar = RadarConfig(position=(0.0, 0.0, 0.0))
        self.prior = np.array([400.0, 900.0, 1600.0, 2500.0, 3600.0, 4900.0])
        self.R = np.diag([100.0, 4.0, 1e-6, 1e-6])
        self.x = np.array([self.R0, 0.0, 0.0, 0.0, 0.0, 0.0])
        self.P = np.diag(self.prior)
        z = np.array([self.R0 + 25.0, 5.0, 1e-5, -2e-5])
        self.z = make_measurement(z, self.R)

    def test_posterior_variances_match_scalar_formula(self):
        (_, P), _ = ekf_update(self.x, self.P, self.z, self.radar)
        # range measures x position, range rate measures x velocity
        cases = [
            (0, scalar_posterior_var(self.prior[0], self.R[0, 0])),
            (3, scalar_posterior_var(self.prior[3], self.R[1, 1])),
            # azimuth ~ y / R0, elevation ~ z / R0: noise maps through R0^2
            (1, scalar_posterior_var(self.prior[1], self.R0**2 * self.R[2, 2])),
            (2, scalar_posterior_var(self.prior[2], self.R0**2 * self.R[3, 3])),
        ]
        for idx, expected in cases:
            got = P[idx, idx]
            assert abs(got - expected) / expected < 1e-10

    def test_posterior_mean_matches_scalar_gain(self):
        (x, _), nu = ekf_update(self.x, self.P, self.z, self.radar)
        gain_x = self.prior[0] / (self.prior[0] + self.R[0, 0])
        assert abs(
            x[0] - (self.R0 + gain_x * 25.0)
        ) / self.R0 < 1e-10
        gain_vx = self.prior[3] / (self.prior[3] + self.R[1, 1])
        assert x[3] == pytest.approx(gain_vx * 5.0, rel=1e-10)
        assert nu[0] == pytest.approx(25.0)

    def test_decoupled_posterior_stays_nearly_diagonal(self):
        (_, P), _ = ekf_update(self.x, self.P, self.z, self.radar)
        off = P - np.diag(np.diag(P))
        assert np.abs(off).max() < 1e-6 * np.diag(P).max()


class TestUpdate:
    def setup_method(self):
        self.radar = RadarConfig(position=(0.0, 0.0, 0.0))
        self.x = np.array([12_000.0, 5_000.0, 4_000.0, -150.0, 40.0, -80.0])
        self.P = np.diag([500.0**2] * 3 + [100.0**2] * 3)
        self.R = np.diag([25.0, 1.0, 4e-6, 4e-6])

    def test_zero_innovation_keeps_mean_contracts_covariance(self):
        z_pred = observe(self.x, self.radar.position_array)
        z = make_measurement(z_pred, self.R)
        (x, P), nu = ekf_update(self.x, self.P, z, self.radar)
        assert nu == pytest.approx(np.zeros(4), abs=1e-12)
        assert x == pytest.approx(self.x)
        assert np.trace(P) < np.trace(self.P)

    def test_perfect_measurement_limit(self):
        z_true = observe(self.x, self.radar.position_array)
        z_vec = z_true + np.array([40.0, 3.0, 1e-4, -1e-4])
        tiny = np.diag([1e-8, 1e-8, 1e-14, 1e-14])
        (x, _), _ = ekf_update(self.x, self.P, make_measurement(z_vec, tiny), self.radar)
        z_post = observe(x, self.radar.position_array)
        assert abs(z_post[0] - z_vec[0]) / z_vec[0] < 1e-6

    def test_azimuth_innovation_wraps(self):
        x = np.array([-10_000.0, 10.0, 100.0, 0.0, 0.0, 0.0])
        z_pred = observe(x, self.radar.position_array)
        assert z_pred[2] > 3.0  # azimuth near +pi
        z_vec = z_pred.copy()
        z_vec[2] = z_pred[2] - 2.0 * np.pi + 0.02  # same bearing, other branch
        nu = innovation(x, z_vec, self.radar.position_array)
        assert nu[2] == pytest.approx(0.02, abs=1e-9)

    def test_degenerate_innovation_covariance(self):
        badly_scaled = np.diag([1e6, 1.0, 1e-18, 1e-18])
        z_pred = observe(self.x, self.radar.position_array)
        with pytest.raises(
            DegenerateInnovationError, match="degenerate innovation covariance"
        ):
            measurement = make_measurement(z_pred, badly_scaled)
            ekf_update(self.x, np.zeros((6, 6)), measurement, self.radar)

    def test_innovation_covariance_spd(self):
        # S = H P H' + R is SPD here, so the Joseph update must agree with
        # the information form P+^-1 = P^-1 + H' R^-1 H
        z_pred = observe(self.x, self.radar.position_array)
        H = observe_jacobian(self.x, self.radar.position_array)
        S = H @ self.P @ H.T + self.R
        assert np.linalg.eigvalsh(S).min() > 0.0
        z = make_measurement(z_pred, self.R)
        (_, P), _ = ekf_update(self.x, self.P, z, self.radar)
        info = np.linalg.inv(self.P) + H.T @ np.linalg.inv(self.R) @ H
        assert P @ info == pytest.approx(np.eye(6), abs=1e-9)


class TestGate:
    def make_gate(self, nu_range, sigma_range):
        r = np.array([sigma_range**2, 1.0, 1.0, 1.0])
        return gate(np.array([nu_range, 0.0, 0.0, 0.0]), r)

    def test_zero_innovation_correlates(self):
        assert self.make_gate(0.0, 10.0).correlated

    def test_window_arithmetic(self):
        # sigma 10 m: window 19.6 m, threshold 58.8 m
        result = self.make_gate(58.9, 10.0)
        assert result.range_window == pytest.approx(19.6)
        assert not result.correlated
        assert self.make_gate(58.7, 10.0).correlated

    def test_boundary_inclusive(self):
        assert self.make_gate(3.0 * 19.6, 10.0).correlated

    def test_sign_symmetric(self):
        assert self.make_gate(-58.7, 10.0).correlated
        assert not self.make_gate(-58.9, 10.0).correlated

    def test_records_innovation(self):
        result = self.make_gate(-12.5, 10.0)
        assert result.range_innovation == pytest.approx(-12.5)

    def test_result_is_plain_values(self):
        """The result is a named tuple: it unpacks into the three values and
        equals their plain tuple, and ``.correlated`` is still a bool."""
        result = self.make_gate(-12.5, 10.0)
        correlated, window, nu_range = result
        assert isinstance(result, GateResult)
        assert result == (True, 1.96 * 10.0, -12.5) == (correlated, window, nu_range)
        assert type(result.correlated) is bool and type(window) is float

    @given(
        st.floats(1.0, 1e3),
        st.floats(1.1, 4.0),
        st.floats(-1e4, 1e4),
    )
    @settings(max_examples=200)
    def test_wider_window_keeps_correlated(self, sigma, factor, nu_range):
        narrow = self.make_gate(nu_range, sigma)
        wide = self.make_gate(nu_range, sigma * factor)
        if narrow.correlated:
            assert wide.correlated

    def test_halved_bandwidth_doubles_window(self):
        cfg = RadarConfig()
        snr = 50.0
        r1 = measurement_noise_var(4e6, snr, cfg)
        r2 = measurement_noise_var(2e6, snr, cfg)
        w1 = gate(np.zeros(4), r1).range_window
        w2 = gate(np.zeros(4), r2).range_window
        assert w2 == pytest.approx(2.0 * w1)


class TestCoast:
    """A gate miss keeps the prediction: no update between predicts."""

    def test_covariance_grows_across_coasted_predicts(self):
        model = make_model(sigma=2.0, dt=0.5)
        x, P = np.array([1e4, 0.0, 5e3, -100.0, 0.0, -50.0]), np.eye(6)
        traces = []
        for _ in range(6):
            x, P = predict(x, P, model, Phase.MID_COURSE)
            traces.append(np.trace(P))
        assert np.all(np.diff(traces) > 0.0)


class TestInitializeTrack:
    def test_inverts_exact_measurement(self):
        radar = RadarConfig(position=(2_000.0, -1_000.0, 50.0))
        position = np.array([15_000.0, 4_000.0, 9_000.0])
        z_vec = observe(
            np.concatenate([position, np.zeros(3)]), radar.position_array
        )
        x, _ = initialize_track(z_vec, radar)
        assert x[:3] == pytest.approx(position, abs=1e-6)
        assert x[3:] == pytest.approx(np.zeros(3))

    def test_default_uncertainty(self):
        radar = RadarConfig()
        z_vec = np.array([20_000.0, -100.0, 0.3, 0.2])
        _, P = initialize_track(z_vec, radar)
        assert np.diag(P)[:3] == pytest.approx([1e6] * 3)
        assert np.diag(P)[3:] == pytest.approx([250_000.0] * 3)
        assert P == pytest.approx(np.diag(np.diag(P)))

    def test_stack_is_each_row_alone(self):
        """A stack of measurements starts the tracks each row starts alone,
        byte for byte: np.cos and np.sin round an array's angles as they
        round one angle's."""
        radar = RadarConfig()
        rng = np.random.default_rng(9)
        z = np.column_stack([rng.uniform(1e3, 9e4, 500), rng.standard_normal(500),
                             rng.uniform(-np.pi, np.pi, 500), rng.uniform(-1.5, 1.5, 500)])
        x, P = initialize_track(z, radar)
        assert x.shape == (500, 6) and P.shape == (500, 6, 6)
        for k, row in enumerate(z):
            x_k, P_k = initialize_track(row, radar)
            assert x[k].tobytes() == x_k.tobytes() and P[k].tobytes() == P_k.tobytes(), k


class TestCovarianceInvariants:
    def test_symmetric_psd_through_random_cycles(self):
        """predict/update driven by simulated measurements, skipping the
        update every seventh step as a gate miss does, keeps P symmetric and
        PSD."""
        rng = np.random.default_rng(2024)
        radar = RadarConfig()
        model = ProcessModel(
            dt=0.5,
            accel_noise_std={
                Phase.BOOST: 15.0,
                Phase.MID_COURSE: 1.5,
                Phase.TERMINAL: 20.0,
            },
        )
        truth_pos = np.array([5_000.0, 3_000.0, 8_000.0])
        truth_vel = np.array([120.0, -40.0, -60.0])
        x = np.concatenate([truth_pos + 50.0, truth_vel])
        P = np.diag([1e6] * 3 + [2.5e5] * 3)
        phases = list(Phase)
        for k in range(400):
            phase = phases[k % 3]
            x, P = predict(x, P, model, phase)
            truth_pos = truth_pos + truth_vel * model.dt
            t = (k + 1) * model.dt
            truth = TruthPoint(t=t, position=truth_pos, velocity=truth_vel, phase=phase)
            bandwidth = float(rng.choice([0.5e6, 2.5e6, 10e6]))
            z = measure(TruthSide([truth], radar), 0, bandwidth, rng)
            if k % 7 != 3:
                (x, P), _ = ekf_update(x, P, z, radar)
            asym = np.abs(P - P.T).max()
            assert asym < 1e-9
            assert np.linalg.eigvalsh(P).min() >= -1e-9

    def test_returns_float_arrays_of_track_shape(self):
        radar = RadarConfig()
        initial = initialize_track(np.array([20_000.0, -100.0, 0.3, 0.2]), radar)
        prior = predict(*initial, make_model(), Phase.BOOST)
        z = observe(prior[0], radar.position_array)
        posterior, _ = ekf_update(*prior, make_measurement(z, np.eye(4)), radar)
        for x, P in (initial, prior, posterior):
            assert isinstance(x, np.ndarray) and isinstance(P, np.ndarray)
            assert x.dtype == P.dtype == np.float64
            assert x.shape == (6,) and P.shape == (6, 6)

    def test_gate_result_validation(self):
        """A zero range variance gives no window: gate refuses it, naming the
        window, before it builds a result."""
        with pytest.raises(ValueError, match="^range_window must be > 0$"):
            gate(np.zeros(4), np.array([0.0, 1.0, 1.0, 1.0]))
