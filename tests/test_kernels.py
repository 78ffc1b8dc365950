"""The shared kernels of the dwell against the calls they replace, byte for
byte: ``tracker.kalman_gain`` and its eigenvalues against ``np.linalg.solve``
and ``eigvalsh``, its decisions on the stacks it certifies and those of
``update``'s gain on its one S against the eigenvalue-only gain kept in
``dwell_oracle``, and the campaign's ``radar.TruthSide``, noise table
included, against what a measurement computes per call.  Both kernels (the scalar loop and the lockstep lanes)
read these, so a difference here would move every output.  Also the lanes'
geometry against the scalar ``observe``, ``observe_jacobian`` and range
error."""

import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from cogradar import experiment, lockstep, tracker
from cogradar.cli import cli_main
from cogradar.config import default_scenario
from cogradar.experiment import campaign_truth, seeded_run, train_qlearning
from cogradar.policy import BandwidthScalingPolicy, Discretizer, QLearningPolicy
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
from cogradar.tracker import DegenerateInnovationError, kalman_gain, update
from cogradar.trajectory import Phase, TruthPoint, generate_trajectory
from dwell_oracle import kalman_gain as oracle_gain
from test_ekf_oracle import GOLDEN_DIR, RADAR_POSITIONS
from test_radar import random_states

LANES = 2 * tracker._CERTIFY_MIN_LANES  # a stack the gain certifies first


def random_gain_inputs(rng, m):
    """m symmetric positive definite S (4x4) spread over orders of magnitude,
    and m P H' (6x4)."""
    A = rng.standard_normal((m, 4, 4)) * 10.0 ** rng.uniform(-3, 4, (m, 1, 4))
    S = A @ A.transpose(0, 2, 1) + np.eye(4) * 1e-3
    return 0.5 * (S + S.transpose(0, 2, 1)), rng.standard_normal((m, 6, 4)) * 1e3


def lone_gain(S, PHt):
    """The gain of one S as the scalar ``update`` takes it, from S's 16 floats."""
    return tracker._lone_gain(S.ravel().tolist(), PHt)


def test_gain_matches_linalg():
    """The gain, and the eigenvalues its condition check reads, are
    ``np.linalg``'s bits, for one S as ``update`` passes it and for a stack
    as the lanes pass it."""
    S, PHt = random_gain_inputs(np.random.default_rng(21), 300)
    for one_S, one_PHt in zip(S, PHt):
        assert (tracker._umath_linalg.eigvalsh_lo(one_S).tobytes()
                == np.linalg.eigvalsh(one_S).tobytes())
        K = lone_gain(one_S, one_PHt)
        assert K.tobytes() == np.linalg.solve(one_S, one_PHt.T).T.tobytes()
    assert tracker._umath_linalg.eigvalsh_lo(S).tobytes() == np.linalg.eigvalsh(S).tobytes()
    K = kalman_gain(S, PHt)
    want = np.linalg.solve(S, PHt.transpose(0, 2, 1)).transpose(0, 2, 1)
    assert K.shape == (300, 6, 4) and K.tobytes() == want.tobytes()


def test_nan_eigenvalue_is_degenerate(monkeypatch):
    """LAPACK's gufunc returns NaN where the np.linalg wrapper raised; both
    kernels must count such an S as degenerate, also where the gain
    certifies first: S = diag(2, 2, 2, 5e-12) has cond 4e11, inside the
    bound, but its shifted Cholesky factor fails, on floats for one S and
    by LAPACK for a stack, so it goes to its eigenvalues, and NaN ones raise
    there."""
    H = np.hstack([np.eye(4), np.zeros((4, 2))])
    x, P, r, nu = np.zeros(6), np.eye(6), np.ones(4), np.zeros(4)
    P_wide, r_wide = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0, 5e-12])
    lanes = [np.repeat(array[None], LANES, axis=0) for array in (x, P_wide, r_wide, H, nu)]
    S_wide = np.diag([2.0, 2.0, 2.0, 5e-12])
    assert not tracker._certified_one(S_wide.ravel().tolist())
    assert not tracker._certified(np.repeat(S_wide[None], LANES, axis=0))
    update(x, P_wide, r_wide, H, nu)  # the real eigenvalues pass it
    lockstep._lane_update(*lanes)
    linalg = tracker._umath_linalg
    monkeypatch.setattr(tracker, "_umath_linalg", SimpleNamespace(
        eigvalsh_lo=lambda S: np.full(S.shape[:-1], np.nan), cholesky_lo=linalg.cholesky_lo,
        solve=linalg.solve))
    with pytest.raises(DegenerateInnovationError):
        update(x, P_wide, r_wide, H, nu)
    with pytest.raises(DegenerateInnovationError):
        lockstep._lane_update(x[None], P[None], r[None], H[None], nu[None])
    with pytest.raises(DegenerateInnovationError):
        lockstep._lane_update(*lanes)


def test_singular_innovation_raises_before_the_solve():
    """S = diag(0, 1, 1, 1) is exactly singular: both kernels raise on its
    eigenvalues, without the warning a solve on it would give, also when it
    is the second lane of a stack."""
    H = np.hstack([np.eye(4), np.zeros((4, 2))])
    x, P, r, nu = np.zeros(6), np.diag([-1.0, 0, 0, 0, 0, 0]), np.ones(4), np.zeros(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInnovationError):
            update(x, P, r, H, nu)
        with pytest.raises(DegenerateInnovationError):
            lockstep._lane_update(*(np.stack(pair) for pair in
                                    ((x, x), (np.eye(6), P), (r, r), (H, H), (nu, nu))))


def _orthogonal(rng, tilt=None):
    """A random 4x4 rotation: Haar-distributed, or with ``tilt`` one that
    turns range and range rate into each other and the two angles into each
    other, and mixes the two pairs by about ``tilt`` radians, as the
    eigenvectors of a real S do."""
    if tilt is None:
        Q, R = np.linalg.qr(rng.standard_normal((4, 4)))
        return Q * np.sign(np.diag(R))
    Q = np.zeros((4, 4))
    for block in (slice(0, 2), slice(2, 4)):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        Q[block, block] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    mix, _ = np.linalg.qr(np.eye(4) + tilt * rng.standard_normal((4, 4)))
    return mix @ Q


def _covariance(rng, condition, tilt=None):
    """Symmetric S with eigenvalues scale * [1, ..., 1/condition], scale
    random over 1e-2..1e6: random orientations, or with ``tilt`` the
    range-against-angle spread of a real S, whose range and range-rate
    variances (about 10..1e6) sit 1e7 and more above its angle variances
    (about 5e-6)."""
    scale = 10.0 ** rng.uniform(-2.0, 6.0)
    if tilt is None:
        spread = condition ** -rng.uniform(0.0, 1.0, 2)
    else:
        spread = [10.0 ** -rng.uniform(0.0, 2.0), 10.0 ** rng.uniform(0.0, 1.0) / condition]
    lam = scale * np.array([1.0, spread[0], spread[1], 1.0 / condition])
    Q = _orthogonal(rng, tilt)
    S = (Q * lam) @ Q.T
    return 0.5 * (S + S.T)


def _decision(gain, S, PHt):
    """K's bytes, or the type and message of what ``gain`` raised with every
    warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return gain(S, PHt).tobytes()
        except Exception as error:  # a raise, or a warning made an error
            return type(error), str(error)


def _assert_decides_as_oracle(bad, rng):
    """Each ``bad`` S first, in the middle and last of a stack of real-like S:
    the gain raises what the eigenvalue-only oracle raises, with the same
    message, and returns the same K bytes where the oracle returns.  Under
    warnings as errors, the gain warns only where the oracle's own
    ``eigvalsh_lo`` warns.  Returns how each stack was decided."""
    good = np.array([_covariance(rng, 4e7, tilt=1e-3) for _ in range(LANES)])
    PHt = rng.standard_normal((LANES, 6, 4)) * 1e3
    assert tracker._certified(good) and _decision(kalman_gain, good, PHt) == _decision(
        oracle_gain, good, PHt)
    paths = []
    for one in bad:
        for at in (0, LANES // 2, LANES - 1):
            S = good.copy()
            S[at] = one
            want = _decision(oracle_gain, S, PHt)
            assert _decision(kalman_gain, S, PHt) == want, (one, at, want)
            paths.append("certified" if tracker._certified(S) else
                         "rejected" if isinstance(want, tuple) else "passed by eigenvalues")
    return paths


@pytest.mark.parametrize("tilt", [None, 1e-3], ids=["random", "real-spread"])
def test_certificate_decides_as_the_eigenvalues_near_the_bound(tilt):
    """S whose condition number is swept log-uniformly over 1e9..1e13, in
    random orientations and with a real S's range-against-angle spread: the
    sweep reaches all three paths, a certified stack, a stack the
    eigenvalues pass and one they reject, and each decides as the oracle."""
    rng = np.random.default_rng(51)
    conditions = 10.0 ** rng.uniform(9.0, 13.0, 60)
    paths = _assert_decides_as_oracle([_covariance(rng, c, tilt) for c in conditions], rng)
    assert {"certified", "passed by eigenvalues", "rejected"} <= set(paths)
    stack = np.array([_covariance(rng, c, tilt) for c in conditions[:LANES]])
    PHt = rng.standard_normal((len(stack), 6, 4))
    assert _decision(kalman_gain, stack, PHt) == _decision(oracle_gain, stack, PHt)


def test_certificate_at_exactly_the_bound():
    """S = diag(1e12 a, a, ..) is exactly at the bound, which the eigenvalues
    pass, and the next double above it is rejected; the gain agrees."""
    rng = np.random.default_rng(52)
    bad = []
    for scale in (1.0, 3.5e-6, 2.0e5):
        for top in (1e12, np.nextafter(1e12, np.inf), np.nextafter(1e12, 0.0)):
            for middle in ([1.0, 1.0], [7.0, 3.0e4]):
                bad.append(np.diag(scale * np.array([top, *middle, 1.0])))
    for S in bad:  # the oracle sees the exact ratio
        lam = tracker._umath_linalg.eigvalsh_lo(S)
        assert lam[3] / lam[0] == S[0, 0] / S[3, 3]
    paths = _assert_decides_as_oracle(bad, rng)
    assert set(paths) == {"passed by eigenvalues", "rejected"}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_certificate_rejects_non_finite_covariance(value):
    """A NaN or an infinity on the diagonal or off it (in both triangles):
    the stack goes to its eigenvalues, which decide as the oracle does; a
    NaN makes the oracle's own ``eigvalsh_lo`` warn, and the gain warns the
    same and no more."""
    rng = np.random.default_rng(53)
    bad = []
    for i, j in ((0, 0), (2, 2), (3, 3), (1, 0), (3, 2), (2, 0)):
        S = _covariance(rng, 1e6, tilt=1e-3)
        S[i, j] = S[j, i] = value
        bad.append(S)
    assert set(_assert_decides_as_oracle(bad, rng)) == {"rejected"}


def test_certificate_rejects_what_is_not_positive_definite():
    """Indefinite, zero, negative-trace and exactly singular S, randomly
    oriented or diagonal: every stack that holds one is rejected, by the
    eigenvalues, as the oracle rejects it."""
    rng = np.random.default_rng(54)
    indefinite = []
    for negative in (1e-9, 1e-3, 1.0):
        Q = _orthogonal(rng)
        indefinite.append((Q * np.array([5.0, 2.0, 1.0, -negative])) @ Q.T)
    B = rng.standard_normal((4, 3))
    bad = [
        *(0.5 * (S + S.T) for S in indefinite),
        np.zeros((4, 4)),
        -_covariance(rng, 1e6, tilt=1e-3),
        np.diag([-1.0, 2.0, 2.0, 2.0]),
        np.diag([0.0, 1.0, 1.0, 1.0]),
        np.diag([1e6, 0.0, 1e-6, 1e-6]),
        B @ B.T,  # rank 3
    ]
    assert set(_assert_decides_as_oracle(bad, rng)) == {"rejected"}


# A rank-3 S of subnormal entries (its lower triangle, row by row) whose
# shift 1e-11 tr(S) rounds to the smallest subnormal, 5e-324, and whose
# shifted Cholesky factor OpenBLAS 0.3.31 finds.
_SUBNORMAL_SHIFT_S = (
    "0x0.0000831ca84a3p-1022", "0x0.0000167178bbdp-1022", "0x0.00005bdd72a8dp-1022",
    "0x0.0000371070a34p-1022", "-0x0.0000018cbabe5p-1022", "0x0.00003104ada1ap-1022",
    "-0x0.000064f68f784p-1022", "0x0.00001e1cfaba1p-1022", "-0x0.000055861881bp-1022",
    "0x0.00009fbb123a2p-1022",
)


def test_certificate_needs_a_normal_shift():
    """Singular S of subnormal entries that the eigenvalues reject: where the
    shift 1e-11 tr(S) underflows to zero or to a subnormal, a shifted
    Cholesky factor of such an S can succeed, because the rounding there is
    no longer relative.  The certificate asks for a normal shift, so these
    go to their eigenvalues and are rejected, one S as well as a stack."""
    rng = np.random.default_rng(55)
    bad = []
    for _ in range(20_000):
        B = rng.standard_normal((4, int(rng.integers(1, 4))))  # rank 1 to 3
        S = (B @ B.T) * 10.0 ** rng.uniform(-323.0, -310.0)
        S = 0.5 * (S + S.T)
        with np.errstate(all="ignore"):
            factored = tracker._umath_linalg.cholesky_lo(S)[3, 3] > 0.0  # a zero shift
        if factored and isinstance(_decision(oracle_gain, S, np.zeros((6, 4))), tuple):
            bad.append(S)
        if len(bad) == 3:
            break
    S = np.zeros((4, 4))
    S[np.tril_indices(4)] = [float.fromhex(value) for value in _SUBNORMAL_SHIFT_S]
    S += np.tril(S, -1).T
    assert 0.0 < tracker._CERTIFY_SHIFT * np.trace(S) < tracker._NORMAL_MIN
    assert len(bad) == 3 and set(_assert_decides_as_oracle([*bad, S], rng)) == {"rejected"}
    for one in [*bad, S]:
        assert not tracker._certified_one(one.ravel().tolist())
        want = _decision(oracle_gain, one, np.zeros((6, 4)))
        assert isinstance(want, tuple) and _decision(lone_gain, one, np.zeros((6, 4))) == want


def test_frozen_compare_certifies_every_large_stack(tmp_path, monkeypatch):
    """``compare`` on the README roster (default scenario, 100 runs, seed
    1000) decides no stack of ``_CERTIFY_MIN_LANES`` or more S by its
    eigenvalues: each one is certified, so the frozen kernel keeps the
    certificate's gain."""
    linalg = tracker._umath_linalg
    by_eigenvalues, certified = [], []

    def eigvalsh_lo(S):
        by_eigenvalues.append(len(S) if S.ndim == 3 else 1)
        return linalg.eigvalsh_lo(S)

    def cholesky_lo(A):
        certified.append(len(A))
        return linalg.cholesky_lo(A)

    monkeypatch.setattr(tracker, "_umath_linalg", SimpleNamespace(
        eigvalsh_lo=eigvalsh_lo, cholesky_lo=cholesky_lo, solve=linalg.solve))
    roster = (f"fixed:1e6,fixed:5e6,scaling,qlearn:{GOLDEN_DIR}/q/qtable.json,"
              f"qlearn-lookahead:{GOLDEN_DIR}/ql/qtable.json")
    argv = ["compare", "--policy", roster, "--runs", "100", "--seed", "1000",
            "--out", str(tmp_path / "cmp")]
    assert cli_main(argv) == 0
    assert len(certified) >= 100 and min(certified) >= tracker._CERTIFY_MIN_LANES
    assert [m for m in by_eigenvalues if m >= tracker._CERTIFY_MIN_LANES] == []


def _one_s_cases(rng):
    """Random symmetric 4x4 S of every kind one S can be: positive definite
    with cond2 log-uniform over 1..1e13, randomly oriented or with a real
    S's spread; indefinite; singular of rank 0 to 3; with a NaN or an
    infinity on the diagonal or off it; with a subnormal trace; and with
    entries so large that the trace or the factor overflows."""
    cases = [_covariance(rng, c, tilt) for c in 10.0 ** rng.uniform(0.0, 13.0, 300)
             for tilt in (None, 1e-3)]
    for negative in 10.0 ** rng.uniform(-12.0, 1.0, 40):
        Q = _orthogonal(rng)
        cases.append((Q * np.array([5.0, 2.0, 1.0, -negative])) @ Q.T)
    for rank in (0, 1, 2, 3) * 10:
        B = rng.standard_normal((4, rank)) * 10.0 ** rng.uniform(-3.0, 6.0)
        cases.append(B @ B.T)
    for value in (np.nan, np.inf, -np.inf) * 20:
        S = _covariance(rng, 10.0 ** rng.uniform(0.0, 9.0), tilt=1e-3)
        i, j = rng.integers(0, 4, 2)
        S[i, j] = S[j, i] = value
        cases.append(S)
    for scale in 10.0 ** rng.uniform(-323.0, -300.0, 40):
        B = rng.standard_normal((4, int(rng.integers(1, 5))))  # rank 1 to 4
        cases.append((B @ B.T) * scale)
    for scale in 10.0 ** rng.uniform(150.0, 305.0, 40):
        cases.append(_covariance(rng, 10.0 ** rng.uniform(0.0, 6.0)) / 1e6 * scale)
    cases = [0.5 * (S + S.T) for S in cases]
    for top in 10.0 ** rng.uniform(307.0, 308.2, 10):  # tr(S) overflows from 9.1e307 on
        cases.append(np.diag([top, top / 3.0, top / 7.0, top / 2.0]))
    for tiny in 10.0 ** rng.uniform(-320.0, -250.0, 10):  # l10 * l10 overflows
        S = np.eye(4)
        S[0, 0], S[1, 0], S[0, 1] = tiny, 1e5, 1e5
        cases.append(S)
    return cases


def test_one_certificate_decides_as_the_eigenvalues():
    """One S, given as the 16 floats the scalar ``update`` forms, decided by
    the certificate on those floats: the gain raises what the
    eigenvalue-only oracle raises, with its message and its warnings, and
    returns the same K bytes where the oracle returns; every S the
    certificate accepts is one the oracle passes.  The cases reach all three paths, and every positive
    definite S with cond2 <= 1e9 of normal scale is certified."""
    rng = np.random.default_rng(56)
    paths = []
    for S in _one_s_cases(rng):
        PHt = rng.standard_normal((6, 4)) * 1e3
        want = _decision(oracle_gain, S, PHt)
        assert _decision(lone_gain, S, PHt) == want, S
        certified = tracker._certified_one(S.ravel().tolist())
        assert not (certified and isinstance(want, tuple)), S
        paths.append("certified" if certified else
                     "rejected" if isinstance(want, tuple) else "passed by eigenvalues")
    assert {"certified", "passed by eigenvalues", "rejected"} == set(paths)
    for c in 10.0 ** rng.uniform(0.0, 9.0, 200):
        assert tracker._certified_one(_covariance(rng, c).ravel().tolist()), c


def test_one_certificate_reads_the_lower_triangle():
    """The float certificate reads S's lower triangle, as ``cholesky_lo`` and
    ``eigvalsh_lo`` do: garbage above the diagonal changes no decision."""
    rng = np.random.default_rng(57)
    for S in _one_s_cases(rng)[::7]:
        garbled = S.copy()
        garbled[np.triu_indices(4, 1)] = rng.choice([np.nan, np.inf, -1e300, 0.0], 6)
        assert (tracker._certified_one(garbled.ravel().tolist())
                == tracker._certified_one(S.ravel().tolist()))


def test_training_takes_no_eigenvalues(monkeypatch):
    """20 lookahead training episodes on the default scenario decide every S
    by the float certificate and take every product through ``ndarray.dot``:
    with ``eigvalsh_lo`` and ``numpy.dot`` made to raise, the table trains,
    and to the bytes it has with both at hand."""
    sc = default_scenario()
    truth = campaign_truth(generate_trajectory(sc.trajectory, seed=sc.episode.seed),
                           sc.radar, sc.episode)
    edges = Discretizer.load(f"{GOLDEN_DIR}/cal/edges.json")
    tables = [sc.new_table(edges, lookahead=True) for _ in range(2)]
    train_qlearning(truth, tables[0], sc.process, sc.episode.miss_limit, n_runs=20,
                    base_seed=0)
    linalg = tracker._umath_linalg

    def eigvalsh_lo(S):
        raise AssertionError("an S went to its eigenvalues")

    def dot(*args, **kwargs):
        raise AssertionError("a product went through numpy.dot")

    monkeypatch.setattr(tracker, "_umath_linalg", SimpleNamespace(
        eigvalsh_lo=eigvalsh_lo, cholesky_lo=linalg.cholesky_lo, solve=linalg.solve))
    monkeypatch.setattr(np, "dot", dot)
    train_qlearning(truth, tables[1], sc.process, sc.episode.miss_limit, n_runs=20,
                    base_seed=0)
    assert tables[0].values.tobytes() == tables[1].values.tobytes()
    assert np.count_nonzero(tables[1].values) > 0


@pytest.mark.parametrize("position", RADAR_POSITIONS)
def test_lane_geometry_matches_scalar(position):
    """``lockstep._lane_observe`` on a stack of one and of many states: each
    row's h and H are the scalar ``observe`` and ``observe_jacobian`` bytes,
    and ``_lane_range`` is the scalar loop's range to the radar."""
    states = random_states(200, seed=31)
    states[:, :3] += position
    radar = np.asarray(position, dtype=float)
    for stack in [states[i : i + 1] for i in range(len(states))] + [states]:
        h, H = lockstep._lane_observe(stack, radar)
        distance = lockstep._lane_range(stack, radar)[2]
        assert h.shape == (len(stack), 4) and H.shape == (len(stack), 4, 6)
        for j, state in enumerate(stack):
            assert h[j].tobytes() == observe(state, position).tobytes(), j
            assert H[j].tobytes() == observe_jacobian(state, position).tobytes(), j
            assert distance[j, 0] == experiment._distance(state[:3].tolist(), position), j


def test_products_match_the_lanes():
    """The scalar ``predict``, ``range_variance`` and ``update``, whose
    products go through ``ndarray.dot`` (the same ``PyArray_MatrixProduct2``
    entry as ``np.dot``), against the lanes' stacked ``@``: byte
    for byte on 200 random (x, P, H, r, nu), as 200 one-lane stacks, as one
    200-lane stack and as the stack of the lanes whose S is certified.  Both
    kernels add r to S's diagonal.  One-lane gains are decided by
    eigenvalues, and so is the 200-lane one, as some of its S have a
    condition number above 1e11; the last stack is certified, and so is
    the scalar ``update``'s one S where the float certificate accepts it."""
    rng = np.random.default_rng(33)
    scenario = default_scenario()
    x = random_states(200, seed=34)
    A = rng.standard_normal((200, 6, 6)) * np.array([300.0] * 3 + [30.0] * 3)
    P = A @ A.transpose(0, 2, 1) + np.diag([1.0] * 3 + [0.1] * 3)
    H = np.array([observe_jacobian(state, (0.0, 0.0, 0.0)) for state in x])
    r = np.array([measurement_noise_var(rng.uniform(0.5e6, 10e6), rng.uniform(1.0, 1e4),
                                        scenario.radar) for _ in x])
    nu = np.sqrt(r) * rng.standard_normal((200, 4)) * 3.0
    S = H @ (P @ H.transpose(0, 2, 1))  # as _lane_update forms it
    S = 0.5 * (S + S.transpose(0, 2, 1)) + r[:, :, None] * np.eye(4)
    certified = [tracker._certified(one[None]) for one in S]
    first = np.argsort(np.logical_not(certified), kind="stable")  # certified lanes first
    x, P, r, H, nu, S = (array[first] for array in (x, P, r, H, nu, S))
    n_certified = sum(certified)
    assert tracker._certified(S[:n_certified]) and not tracker._certified(S)
    phases = list(Phase)
    for stack in [slice(j, j + 1) for j in range(len(x))] + [slice(None), slice(n_certified)]:
        lanes = [array[stack] for array in (x, P, r, H, nu)]
        phase = phases[(stack.start or 0) % 3]
        x_pred, P_pred = lockstep._lane_predict(*lanes[:2], scenario.process, phase)
        variance = lockstep._lane_range_variance(lanes[3], lanes[1])
        x_post, P_post = lockstep._lane_update(*lanes)
        for j, one in enumerate(zip(*lanes)):
            want = (*tracker.predict(*one[:2], scenario.process, phase),
                    tracker.range_variance(one[3], one[1]), *update(*one))
            got = x_pred[j], P_pred[j], variance[j], x_post[j], P_post[j]
            for name, a, b in zip(("x-", "P-", "pred_var", "x+", "P+"), got, want):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (name, stack, j)


def test_lane_at_radar_raises_before_dividing():
    """A lane at the radar fails with ``observe_jacobian``'s message and no
    division-by-zero warning, also as the second lane of a stack."""
    radar = np.array(RADAR_POSITIONS[1])
    states = random_states(2, seed=32)
    states[1, :3] = radar
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="target at radar"):
            lockstep._lane_observe(states, radar)


@pytest.fixture(scope="module")
def hard():
    scenario = default_scenario()
    return scenario, generate_trajectory(scenario.trajectory, seed=scenario.episode.seed)


def test_truth_side_matches_per_call(hard):
    """Every row's z_true, SNR and true range, and every action's r and
    sqrt(r) in the shared table, equal what ``measure`` computed per call
    before the truth side was shared; the true range is also the scalar
    loop's old distance.  The table gains one column per new bandwidth, in
    any order of first use, and what ``measure`` returns is its row."""
    scenario, trajectory = hard
    radar = scenario.radar
    rows = trajectory[: scenario.episode.n_transmissions + 1]
    truth = TruthSide(rows, radar)
    assert truth.failure is None and len(truth) == len(truth.z_true) == len(rows)
    bandwidths = scenario.actions.bandwidths
    measure(truth, 3, bandwidths[2], np.random.default_rng(0))  # scalar first use
    columns = truth.columns([*bandwidths[::-1], bandwidths[0]])  # the lanes' first use
    assert truth.table.shape == (2, len(rows), len(bandwidths), 4)
    assert sorted(columns[:-1]) == list(range(len(bandwidths)))
    assert columns[-1] == columns[-2] and truth.column[bandwidths[2]] == 0
    for k, point in enumerate(rows):
        z_true = observe(np.concatenate([point.position, point.velocity]), radar.position)
        snr = snr_at_range(float(z_true[0]), radar)
        assert truth.z_true[k].tobytes() == z_true.tobytes()
        assert truth.snr[k] == snr and truth.phases[k] is point.phase
        assert truth.range[k] == experiment._distance(point.position.tolist(), radar.position)
        for bandwidth in bandwidths:
            r = measurement_noise_var(bandwidth, snr, radar)
            got_r, got_root = truth.table[:, k, truth.column[bandwidth]]
            assert got_r.tobytes() == r.tobytes()
            assert got_root.tobytes() == np.sqrt(r).tobytes()
            _, measured_r = measure(truth, k, bandwidth, np.random.default_rng(k))
            assert measured_r.tobytes() == r.tobytes()


def python_noise_var(bandwidth, snr, radar):
    """The four noise variances on Python floats, every square a float power,
    libm's pow(x, 2.0): the formula as one measurement computed it before the
    table was filled from row arrays."""
    root = math.sqrt(2.0 * snr)
    sigma_range = SPEED_OF_LIGHT / (2.0 * bandwidth * root)
    sigma_rate = SPEED_OF_LIGHT / (2.0 * radar.carrier_freq * radar.pulse_duration * root)
    angle_var = radar.angle_noise_std**2
    return [sigma_range**2, sigma_rate**2, angle_var, angle_var]


def test_noise_squares_are_float_powers(hard):
    """A sweep of 400 bandwidths over [min_bw, max_bw], new columns of one
    call: each column has the bytes of per-row ``measurement_noise_var`` and
    of the Python-float formula.  The sweep reaches rows whose range sigma s
    has s**2 != s*s (42 of the 400 bandwidths on glibc 2.36), so a table
    squared with x * x or ``np.square`` fails here on any platform whose pow
    rounds as that one's does."""
    scenario, trajectory = hard
    radar = scenario.radar
    truth = campaign_truth(trajectory, radar, scenario.episode)
    bandwidths = np.linspace(radar.min_bw, radar.max_bw, 400).tolist()
    columns = truth.columns(np.array(bandwidths))
    assert columns.tolist() == list(range(400))
    apart = 0
    for bandwidth in bandwidths:
        want = np.array([python_noise_var(bandwidth, snr, radar) for snr in truth.snr])
        per_row = np.array([measurement_noise_var(bandwidth, snr, radar) for snr in truth.snr])
        r, root = truth.table[:, :, truth.column[bandwidth]]
        assert r.tobytes() == want.tobytes() == per_row.tobytes(), bandwidth
        assert root.tobytes() == np.sqrt(want).tobytes(), bandwidth
        sigmas = [SPEED_OF_LIGHT / (2.0 * bandwidth * math.sqrt(2.0 * snr)) for snr in truth.snr]
        apart += any(s**2 != s * s for s in sigmas)
    assert apart > 0


def test_other_noise_powers_are_float_powers():
    """The SNR's fourth power and the range-rate and angle variances against
    Python-float copies of their formulas, every power libm's pow, over
    sweeps that reach values whose pow does not round as products do (on
    glibc 2.36: hundreds of the 2000 ranges for the fourth power, one to
    three rows in each radar's range-rate variances and 4 of the 4000 angle
    noises), so a formula mutated to products fails here on any platform
    whose pow rounds as that one's does.  The ranges sweep [2 km, 200 km]
    from the radar, and with them the SNR; each radar has its own carrier
    frequency, pulse length and angle noise."""
    base = RadarConfig()
    position = np.array(base.position)
    velocity = np.array([100.0, 50.0, -20.0])
    points = [TruthPoint(0.0, position + [d, 0.0, 0.0], velocity, Phase.BOOST)
              for d in np.geomspace(2e3, 2e5, 2000)]
    bandwidth = 1e6
    rate_apart = 0
    for carrier_freq, pulse_duration, angle_noise_std in [
        (1e10, 1e-4, 0.002), (3e9, 2e-4, 0.003), (3.5e10, 5e-5, 0.0007), (9.4e9, 1.7e-4, 0.005)
    ]:
        radar = replace(base, carrier_freq=carrier_freq, pulse_duration=pulse_duration,
                        angle_noise_std=angle_noise_std)
        truth = TruthSide(points, radar)
        ratios = [radar.range_ref / distance for distance in truth.range]
        assert truth.snr == [radar.snr_ref * ratio**4 for ratio in ratios]
        column = truth.columns(np.array([bandwidth]))[0]
        r = truth.table[0, :, column]
        want = np.array([python_noise_var(bandwidth, snr, radar) for snr in truth.snr])
        assert r.tobytes() == want.tobytes()
        sigmas = [SPEED_OF_LIGHT / (2.0 * carrier_freq * pulse_duration * math.sqrt(2.0 * snr))
                  for snr in truth.snr]
        rate_apart += any(s**2 != s * s for s in sigmas)
    assert rate_apart > 0
    assert any(ratio**4 != ratio * ratio * ratio * ratio for ratio in ratios)
    assert any(ratio**4 != (ratio * ratio) * (ratio * ratio) for ratio in ratios)
    angles = np.geomspace(1e-4, 1e-2, 4000).tolist()
    for angle in angles:
        r = measurement_noise_var(bandwidth, 100.0, replace(base, angle_noise_std=angle))
        assert r[2:].tolist() == [angle**2, angle**2], angle
    assert any(angle**2 != angle * angle for angle in angles)


def test_columns_of_arrays_are_columns_one_at_a_time(hard):
    """Known, repeated and new bandwidths in one call, and then new ones
    mid-campaign, give the columns and table bytes of adding the bandwidths
    one at a time; columns go to new bandwidths in order of first use, and
    a bandwidth that is not > 0 raises ``measurement_noise_var``'s error."""
    scenario, trajectory = hard
    rows = trajectory[:41]
    truth, alone = TruthSide(rows, scenario.radar), TruthSide(rows, scenario.radar)
    calls = [[5e6], [1e6, 5e6, 3.3e6, 1e6, 0.7e6, 3.3e6], [0.7e6, 5e6], [1e7, 1e6, 2.2e6]]
    for call in calls:
        got = truth.columns(np.array(call))
        one_at_a_time = [alone.columns([bandwidth])[0] for bandwidth in call]
        assert got.dtype == np.intp and got.tolist() == one_at_a_time
        assert truth.table.tobytes() == alone.table.tobytes()
    assert list(truth.column.items()) == list(alone.column.items())
    assert list(truth.column) == [5e6, 1e6, 3.3e6, 0.7e6, 1e7, 2.2e6]
    assert truth.columns(np.array([2.2e6, 5e6, 2.2e6])).tolist() == [5, 0, 5]
    for bad in (0.0, -0.0, -1e6):
        with pytest.raises(ValueError, match="bandwidth must be > 0"):
            truth.columns(np.array([1e6, bad]))


def test_truth_failure_is_raised_at_its_row():
    """Rows stop at the first truth that fails; measuring that row raises its
    error, and the rows before it measure as usual."""
    radar = RadarConfig()
    points = [TruthPoint(0.0, np.asarray(position, float), np.zeros(3), Phase.BOOST)
              for position in ([1000.0, 0.0, 500.0], radar.position, [2000.0, 0.0, 0.0])]
    truth = TruthSide(points, radar)
    assert len(truth) == 3 and len(truth.z_true) == 1
    measure(truth, 0, 1e6, np.random.default_rng(0))
    with pytest.raises(ValueError, match="target at radar"):
        measure(truth, 1, 1e6, np.random.default_rng(0))


def test_campaign_truth_side_changes_no_bit(hard):
    """``train_qlearning`` hands one truth side to every episode; the table
    equals the one trained run by run with a fresh truth side per episode,
    and a frozen run replays alike on a shared truth side, whose table an
    earlier run filled, and on a fresh one."""
    sc, trajectory = hard
    rows = trajectory[: sc.episode.n_transmissions + 1]
    edges = Discretizer.load(f"{GOLDEN_DIR}/cal/edges.json")
    shared = sc.new_table(edges, lookahead=True)
    models = (sc.process, sc.episode.miss_limit)
    train_qlearning(TruthSide(rows, sc.radar), shared, *models, n_runs=4, base_seed=9)
    alone = sc.new_table(edges, lookahead=True)
    policy = QLearningPolicy(alone)
    for i in range(4):
        seeded_run(i, 9, TruthSide(rows, sc.radar), policy, *models, learning=True)
    assert shared.values.tobytes() == alone.values.tobytes()
    truth = TruthSide(rows, sc.radar)
    scaling = BandwidthScalingPolicy(sc.radar.min_bw, sc.radar.max_bw)
    seeded_run(0, 50, truth, scaling, *models)
    assert len(truth.column) > 1
    a, b = (seeded_run(3, 50, side, scaling, *models)
            for side in (truth, TruthSide(rows, sc.radar)))
    assert a.records.tobytes() == b.records.tobytes() and a.lost_at == b.lost_at
