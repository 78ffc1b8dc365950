import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogradar import experiment, lockstep
from cogradar import policy as policy_module
from cogradar.config import default_scenario
from cogradar.experiment import run_episode
from cogradar.policy import (
    DEFAULT_ACTIONS_HZ,
    ActionSet,
    BandwidthScalingPolicy,
    Discretizer,
    FixedPolicy,
    Hyperparams,
    QLearningPolicy,
    QTable,
    bandwidth_scaling_step,
    lookahead_update,
    q_update,
    require_float,
    reward,
    select_action,
)
from cogradar.radar import TruthSide
from cogradar.trajectory import generate_trajectory

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
INTEGER_EDGES = dict(
    pred_var_edges=tuple(float(i) for i in range(1, 10)),
    meas_var_edges=tuple(float(i) for i in range(1, 8)),
)


def make_table(**kwargs):
    return QTable.zeros(Discretizer(**INTEGER_EDGES), hyperparams=Hyperparams(**kwargs))


def ctx(pred=0.5, meas=0.5, correlated=True, bandwidth=10e6, streak=0):
    """``choose``'s inputs but the rng: the feedback of the last dwell, the
    previous bandwidth and the streak of gate hits."""
    return pred, meas, correlated, bandwidth, streak


def scaling_widths(policy, outcomes, rng):
    """The bandwidths chosen after each gate outcome in turn, carrying the
    bandwidth and streak from one choice to the next as a run does."""
    bandwidth, streak, widths = policy.initial_bandwidth(), 0, []
    for correlated in outcomes:
        bandwidth, streak, _, _ = policy.choose(
            *ctx(correlated=correlated, bandwidth=bandwidth, streak=streak), rng)
        widths.append(bandwidth)
    return widths


def alg1_reference(prev_bw, correlated, streak, min_bw, max_bw):
    """Literal transcription of the scaling heuristic, kept independent of
    the implementation: halve on miss (floored), double after the fifth
    consecutive hit (capped), otherwise hold."""
    if correlated:
        streak = streak + 1
        if streak == 5:
            doubled = prev_bw * 2.0
            if doubled > max_bw:
                doubled = max_bw
            return doubled, 0
        return prev_bw, streak
    halved = prev_bw / 2.0
    if halved < min_bw:
        halved = min_bw
    return halved, 0


def reachable_bandwidths(min_bw, max_bw):
    """Closure of {max_bw} under halving (floored) and doubling (capped)."""
    seen = {max_bw}
    frontier = [max_bw]
    while frontier:
        bw = frontier.pop()
        for nxt in (max(bw / 2.0, min_bw), min(bw * 2.0, max_bw)):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return sorted(seen)


class TestDiscretizer:
    def test_below_all_edges(self):
        d = Discretizer(**INTEGER_EDGES)
        assert d.state_index(0.5, 0.5) == 0

    def test_above_all_edges(self):
        d = Discretizer(**INTEGER_EDGES)
        assert d.state_index(100.0, 100.0) == 79
        assert d.n_states == 80

    def test_edge_value_goes_to_higher_bin(self):
        d = Discretizer(**INTEGER_EDGES)
        assert d.pred_bin(3.0) == 3
        assert d.pred_bin(np.nextafter(3.0, 0.0)) == 2
        assert d.meas_bin(7.0) == 7

    def test_state_index_layout(self):
        # state = pred_bin * 8 + meas_bin
        d = Discretizer(**INTEGER_EDGES)
        assert d.state_index(3.5, 2.5) == 3 * 8 + 2
        assert d.state_index(9.5, 0.5) == 72

    def test_discretize_uses_context_variances(self):
        d = Discretizer(**INTEGER_EDGES)
        pred_var, meas_var, *_ = ctx(pred=3.5, meas=2.5)
        assert d.state_index(pred_var, meas_var) == 26

    @given(st.floats(1e-6, 1e12), st.floats(1.0, 1e6))
    def test_order_preserving(self, v, factor):
        d = Discretizer(**INTEGER_EDGES)
        assert d.pred_bin(v * factor) >= d.pred_bin(v)
        assert d.meas_bin(v * factor) >= d.meas_bin(v)

    @given(st.floats(1e-9, 1e15), st.floats(1e-9, 1e15))
    def test_total_over_positives(self, pred, meas):
        d = Discretizer(**INTEGER_EDGES)
        assert 0 <= d.state_index(pred, meas) < 80

    def test_from_samples_log_spacing(self):
        rng = np.random.default_rng(0)
        pred = rng.uniform(10.0, 1e4, size=5000)
        meas = rng.uniform(1.0, 1e3, size=5000)
        d = Discretizer.from_samples(pred, meas)
        assert len(d.pred_var_edges) == 9
        assert len(d.meas_var_edges) == 7
        # np.geomspace sets its endpoints exactly
        assert d.pred_var_edges[0] == np.percentile(pred, 1.0)
        assert d.pred_var_edges[-1] == np.percentile(pred, 99.0)
        assert d.meas_var_edges[0] == np.percentile(meas, 1.0)
        assert d.meas_var_edges[-1] == np.percentile(meas, 99.0)
        ratios = np.diff(np.log(d.pred_var_edges))
        assert ratios == pytest.approx(np.full(8, ratios[0]))

    @pytest.mark.parametrize("variance", ["pred_var", "meas_var"])
    def test_from_samples_rejects_percentiles_an_ulp_apart(self, variance):
        """Percentiles one ulp apart are positive and ascending, but no
        log-spaced edges between them are strictly ascending: the error names
        the calibration samples, not an edges field."""
        wide = np.geomspace(1.0, 1e4, 100)
        samples = {"pred_var": wide, "meas_var": wide,
                   variance: np.repeat([1062502.25, np.nextafter(1062502.25, np.inf)], 50)}
        with pytest.raises(ValueError, match=f"calibration samples of {variance} spread too little"):
            Discretizer.from_samples(samples["pred_var"], samples["meas_var"])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(pred_var_edges=(1.0,) * 9, meas_var_edges=tuple(range(1, 8))),
            dict(pred_var_edges=tuple(range(1, 9)), meas_var_edges=tuple(range(1, 8))),
            dict(pred_var_edges=tuple(range(1, 10)), meas_var_edges=tuple(range(1, 9))),
            dict(
                pred_var_edges=(0.0, *range(1, 9)),
                meas_var_edges=tuple(range(1, 8)),
            ),
        ],
    )
    def test_rejects_bad_edges(self, kwargs):
        with pytest.raises(ValueError):
            Discretizer(
                pred_var_edges=tuple(float(e) for e in kwargs["pred_var_edges"]),
                meas_var_edges=tuple(float(e) for e in kwargs["meas_var_edges"]),
            )


class TestPercentiles:
    """``policy._percentiles`` against ``np.percentile``, its oracle, bit for
    bit, and ``from_samples`` against the edges ``np.percentile`` gives."""

    @staticmethod
    def assert_as_numpy(samples, percents=(1.0, 99.0)):
        samples = np.asarray(samples, dtype=float)
        before = samples.copy()
        got = np.array(policy_module._percentiles(samples, percents))
        want = np.percentile(samples, list(percents))
        assert got.tobytes() == want.tobytes(), (got, want)
        assert samples.tobytes() == before.tobytes()  # the input is not modified

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 100, 101, 102, 1000, 1001])
    def test_small_and_exact_indices(self, n):
        """n = 101 puts (n - 1) 0.01 on an integer; n = 2 and 3 put both
        percentiles between the same two values."""
        rng = np.random.default_rng(n)
        self.assert_as_numpy(rng.lognormal(3.0, 2.0, n))
        self.assert_as_numpy(rng.lognormal(3.0, 2.0, n), (0.0, 1.0, 50.0, 99.0, 100.0))

    def test_gamma_one_half(self):
        """n = 51: (n - 1) 0.01 = 0.5 and (n - 1) 0.99 = 49.5, where numpy's
        interpolation switches to its upper branch."""
        n = 51
        assert (n - 1) * 0.01 == 0.5 and (n - 1) * 0.99 == 49.5
        self.assert_as_numpy(np.random.default_rng(51).lognormal(0.0, 3.0, n))
        self.assert_as_numpy(np.geomspace(1e-3, 1e3, n)[::-1])

    def test_ties_and_equal_samples(self):
        rng = np.random.default_rng(7)
        self.assert_as_numpy(np.round(rng.lognormal(0.0, 1.0, 997), 1))
        self.assert_as_numpy(np.repeat([1.0, 2.0, 3.0], [5, 1, 500]))
        self.assert_as_numpy(np.full(300, 0.1))
        self.assert_as_numpy([0.0, -0.0, 0.0, -0.0])
        self.assert_as_numpy([-0.0, -0.0, 1.0])

    @pytest.mark.parametrize("n", [2, 3, 51, 101, 1000])
    def test_infinities(self, n):
        rng = np.random.default_rng(n)
        for bad in ([np.inf], [-np.inf], [np.inf, -np.inf], [np.inf] * n, [-np.inf] * n):
            samples = rng.lognormal(0.0, 1.0, n)
            samples[rng.choice(n, len(bad), replace=False)] = bad
            with np.errstate(invalid="ignore"):  # numpy's own inf - inf warns
                self.assert_as_numpy(samples)

    @pytest.mark.parametrize("n", [2, 3, 51, 101, 1000])
    def test_nan_gives_nan_and_the_same_error(self, n):
        rng = np.random.default_rng(n)
        for count in (1, n):
            samples = rng.lognormal(0.0, 1.0, n)
            samples[rng.choice(n, count, replace=False)] = np.nan
            self.assert_as_numpy(samples)
            assert np.isnan(policy_module._percentiles(samples, (1.0, 99.0))).all()
            for pred, meas in ((samples, rng.lognormal(0.0, 1.0, n)),
                               (rng.lognormal(0.0, 1.0, n), samples)):
                with pytest.raises(ValueError, match="calibration samples must spread over positives"):
                    Discretizer.from_samples(pred, meas)

    def test_random_samples(self):
        """Lognormal samples of 2 to 20,000 values, every third rounded so
        that values tie, at the calibration percentiles and at random ones."""
        rng = np.random.default_rng(25)
        for i in range(300):
            n = int(rng.integers(2, 20_001 if i % 10 == 0 else 400))
            samples = rng.lognormal(rng.normal(0.0, 5.0), rng.uniform(0.1, 3.0), n)
            if i % 3 == 0:
                samples = np.round(samples, int(rng.integers(0, 3)))
            self.assert_as_numpy(samples)
            self.assert_as_numpy(samples, tuple(rng.uniform(0.0, 100.0, 3).tolist()))

    def test_from_samples_as_numpy(self):
        """The edges are ``np.geomspace`` between ``np.percentile``'s 1st and
        99th percentiles, byte for byte."""
        rng = np.random.default_rng(3)
        for n in (2, 3, 51, 101, 5000):
            pred, meas = rng.lognormal(5.0, 2.0, n), rng.lognormal(2.0, 1.0, n)
            d = Discretizer.from_samples(pred, meas)
            for got, samples, n_edges in ((d.pred_var_edges, pred, 9), (d.meas_var_edges, meas, 7)):
                want = np.geomspace(*np.percentile(samples, [1.0, 99.0]), n_edges)
                assert np.array(got).tobytes() == want.tobytes()

    def test_strided_record_fields(self):
        """The pooled fields of a campaign's records, strided views as
        ``calibrate_discretizer`` passes them, give ``np.percentile``'s bits
        and edges."""
        sc = default_scenario()
        policies = [FixedPolicy(bw, sc.radar.min_bw, sc.radar.max_bw)
                    for bw in sc.actions.bandwidths]
        trajectory = generate_trajectory(sc.trajectory, seed=sc.episode.seed)
        episode = replace(sc.episode, n_transmissions=40)
        truth = experiment.campaign_truth(trajectory, sc.radar, episode)
        records = experiment.seeded_runs(policies, range(6), 0, truth, sc.process,
                                         episode.miss_limit).records
        d = Discretizer.from_samples(records["pred_var"], records["meas_var"])
        for field, got, n_edges in (("pred_var", d.pred_var_edges, 9),
                                    ("meas_var", d.meas_var_edges, 7)):
            samples = records[field]
            assert samples.strides != (samples.itemsize,)
            self.assert_as_numpy(samples)
            want = np.geomspace(*np.percentile(samples, [1.0, 99.0]), n_edges)
            assert np.array(got).tobytes() == want.tobytes()


class TestReward:
    def test_lost_is_minus_c(self):
        assert reward(0.0, lost=True, C=2.0) == -2.0
        assert reward(1e6, lost=True, C=3.0) == -3.0

    def test_zero_error(self):
        assert reward(0.0, lost=False, C=2.0) == 0.0

    def test_km_normalization(self):
        assert reward(500.0, lost=False, C=2.0) == pytest.approx(-0.5)

    def test_clipped_at_c(self):
        assert reward(7_500.0, lost=False, C=2.0) == -2.0

    def test_loss_never_better_than_survival(self):
        for error in (0.0, 100.0, 1e4, 1e8):
            assert reward(error, lost=True, C=2.0) <= reward(error, lost=False, C=2.0)

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError):
            reward(-1.0, lost=False, C=2.0)

    @pytest.mark.parametrize("error", [float("nan"), float("inf")])
    @pytest.mark.parametrize("lost", [False, True])
    def test_non_finite_error_rejected(self, error, lost):
        """min(nan, C) is nan, which would reach q_update; a loss does not
        excuse it either."""
        with pytest.raises(ValueError, match=r"^range_error must be finite, got (nan|inf)$"):
            reward(error, lost=lost, C=2.0)


class TestQUpdate:
    def test_hand_value(self):
        # zero table: 0 + 0.1 * (-0.5 + 0.9 * 0 - 0) = -0.05
        table = make_table()
        q_update(table, s_prev=4, a_prev=1, r=-0.5, s_now=20)
        assert abs(table.values[4, 1] - (-0.05)) < 1e-12
        assert np.count_nonzero(table.values) == 1

    def test_bootstrap_uses_row_max(self):
        table = make_table()
        table.values[20] = [-1.0, -0.3, -0.7, -2.0, -0.4, -1.5]
        q_update(table, s_prev=4, a_prev=1, r=-0.5, s_now=20)
        expected = 0.1 * (-0.5 + 0.9 * (-0.3))
        assert table.values[4, 1] == pytest.approx(expected, abs=1e-15)

    def test_fixed_point(self):
        table = make_table()
        table.values[5, 2] = -1.0
        q_update(table, s_prev=5, a_prev=2, r=-1.0, s_now=30)
        assert table.values[5, 2] == -1.0

    def test_disjoint_updates_commute(self):
        first = (0, 1, -0.5, 10)
        second = (2, 3, -1.0, 11)
        t_ab, t_ba = make_table(), make_table()
        q_update(t_ab, *first)
        q_update(t_ab, *second)
        q_update(t_ba, *second)
        q_update(t_ba, *first)
        assert np.array_equal(t_ab.values, t_ba.values)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 79),
                st.integers(0, 5),
                st.floats(-2.0, 0.0),
                st.integers(0, 79),
            ),
            max_size=300,
        )
    )
    @settings(max_examples=100)
    def test_values_bounded_by_c_over_one_minus_gamma(self, updates):
        table = make_table()
        for s, a, r, s_now in updates:
            q_update(table, s, a, r, s_now)
        assert np.all(table.values <= 0.0)
        assert np.all(table.values >= -table.value_bound)
        assert table.value_bound == pytest.approx(20.0)


class TestLookaheadUpdate:
    def test_l1_reduces_to_q_update(self):
        rng = np.random.default_rng(17)
        vanilla, look = make_table(), make_table(L=1)
        for _ in range(1000):
            s, a = int(rng.integers(80)), int(rng.integers(6))
            s_now = int(rng.integers(80))
            r = float(-2.0 * rng.random())
            q_update(vanilla, s, a, r, s_now)
            lookahead_update(look, [(s, a)], r, s_now)
        assert np.array_equal(vanilla.values, look.values)

    def test_hand_triple(self):
        # zero table, r = -1, three distinct pairs, bootstrap row stays zero:
        # each entry gets 0.1 * (-1) = -0.1
        table = make_table(L=3)
        lookahead_update(table, [(16, 2), (8, 1), (0, 0)], r=-1.0, s_now=40)
        for s, a in [(0, 0), (8, 1), (16, 2)]:
            assert table.values[s, a] == pytest.approx(-0.1, abs=1e-15)
        assert np.count_nonzero(table.values) == 3

    def test_sequential_coupling_through_bootstrap(self):
        # the newest pair is updated first; if an older pair bootstraps from
        # the row just written, it must see the new value
        table = make_table(L=2)
        # newest (5, 0) shares its state with s_now; older (7, 3) bootstraps
        # from s_now = 5
        lookahead_update(table, [(5, 0), (7, 3)], r=-1.0, s_now=5)
        # newest first: Q[5,0] = 0.1 * (-1 + 0.9 * 0) = -0.1 (row max still 0)
        assert table.values[5, 0] == pytest.approx(-0.1, abs=1e-15)
        # then Q[7,3] = 0.1 * (-1 + 0.9 * max Q[5,:]) with max now 0 (other
        # entries of row 5 untouched)
        assert table.values[7, 3] == pytest.approx(-0.1, abs=1e-15)

    def test_sequential_coupling_when_row_max_changes(self):
        table = make_table(L=2)
        table.values[5] = -0.5  # whole row at -0.5
        lookahead_update(table, [(5, 0), (7, 3)], r=-1.0, s_now=5)
        # newest: Q[5,0] = -0.5 + 0.1 * (-1 + 0.9 * -0.5 + 0.5) = -0.595
        assert table.values[5, 0] == pytest.approx(-0.595, abs=1e-12)
        # older pair sees the updated row max of row 5, still -0.5
        assert table.values[7, 3] == pytest.approx(
            0.1 * (-1.0 + 0.9 * -0.5), abs=1e-12
        )

    @pytest.mark.parametrize("where", ["first", "middle", "last", "twice", "absent"])
    def test_bootstrap_read_once_matches_per_pair_loop(self, monkeypatch, where):
        """max Q[s_now, :], read once and again only after a pair in s_now,
        against the loop that reads it for every pair: equal table bytes,
        with one ``q_update`` call per pair."""
        rng = np.random.default_rng(["first", "middle", "last", "twice", "absent"].index(where))
        calls = []
        counted = policy_module.q_update

        def counting(*args):
            calls.append(args)
            return counted(*args)

        monkeypatch.setattr(policy_module, "q_update", counting)
        for _ in range(200):
            table = make_table(L=5)
            table.values[:] = -2.0 * rng.random((80, 6))
            s_now = int(rng.integers(80))
            others = [int(s) for s in rng.choice(np.delete(np.arange(80), s_now), 5)]
            slots = {"first": [0], "middle": [2], "last": [4], "twice": [1, 3], "absent": []}[where]
            pairs = []
            for slot, s in enumerate(others):
                # in s_now, the pair takes the row's best action, so its update moves the max
                pairs.append((s_now, int(table.values[s_now].argmax())) if slot in slots
                             else (s, int(rng.integers(6))))
            r = float(-2.0 * rng.random())
            want = make_table(L=5)
            want.values[:] = table.values
            for s_prev, a_prev in pairs:
                counted(want, s_prev, a_prev, r, s_now)
            calls.clear()
            lookahead_update(table, pairs, r, s_now)
            assert table.values.tobytes() == want.values.tobytes()
            assert len(calls) == len(pairs)

    def test_buffer_shorter_than_l(self):
        table = make_table(L=5)
        lookahead_update(table, [(3, 3)], r=-1.0, s_now=60)
        assert np.count_nonzero(table.values) == 1

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            lookahead_update(make_table(), [], -1.0, 0)

    def test_ring_drops_oldest(self):
        # QLearningPolicy keeps the last L pairs: with L = 2 the fourth
        # reward backs up (72, 0) and (26, 0) but no longer (0, 0)
        table = make_table(L=2)
        policy = QLearningPolicy(table, epsilon=0.0)
        rng = np.random.default_rng(0)
        for pred, meas, error in [(0.5, 0.5, 500.0), (3.5, 2.5, 1000.0), (9.5, 0.5, 2000.0)]:
            policy.choose(*ctx(pred=pred, meas=meas), rng)  # s = 0, 26, 72
            policy.learn(error, False)
        before = table.values.copy()
        policy.choose(*ctx(pred=5.5, meas=0.5), rng)  # s = 40
        policy.learn(1000.0, False)
        changed = {tuple(i) for i in np.argwhere(table.values != before)}
        assert changed == {(72, 0), (26, 0)}


class TestSelectAction:
    def test_greedy_argmax(self):
        table = make_table()
        table.values[9] = [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
        assert select_action(table, 9, 0.0, np.random.default_rng(0)) == 2

    def test_tie_breaks_to_lowest_index(self):
        table = make_table()
        assert select_action(table, 0, 0.0, np.random.default_rng(0)) == 0
        table.values[1] = [-0.2, -0.1, -0.1, -0.5, -0.1, -0.3]
        assert select_action(table, 1, 0.0, np.random.default_rng(0)) == 1

    def test_constant_row_shift_preserves_greedy_choice(self):
        table = make_table()
        rng = np.random.default_rng(3)
        table.values[:] = -rng.random((80, 6))
        before = [select_action(table, s, 0.0, rng) for s in range(80)]
        table.values -= 7.5
        after = [select_action(table, s, 0.0, rng) for s in range(80)]
        assert before == after

    def test_epsilon_one_is_uniform(self):
        # 60 000 draws: each action within 3 sigma of n/6
        table = make_table()
        table.values[0] = [0.0, -1.0, -1.0, -1.0, -1.0, -1.0]
        rng = np.random.default_rng(99)
        n = 60_000
        counts = np.bincount(
            [select_action(table, 0, 1.0, rng) for _ in range(n)], minlength=6
        )
        expected = n / 6.0
        sigma = np.sqrt(n * (1.0 / 6.0) * (5.0 / 6.0))
        assert np.all(np.abs(counts - expected) <= 3.0 * sigma)

    def test_epsilon_zero_consumes_no_randomness(self):
        table = make_table()
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        select_action(table, 0, 0.0, rng)
        assert rng.bit_generator.state == before

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            select_action(make_table(), 0, 1.5, np.random.default_rng(0))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5]),
                              st.floats(-30.0, 30.0)), min_size=6, max_size=6))
    def test_greedy_is_argmax(self, row):
        """Greedy choice on floats is ``np.argmax`` of the row, ties (signed
        zeros among them) to the lowest index."""
        table = make_table()
        table.values[7] = row
        want = int(np.argmax(table.values[7]))
        assert select_action(table, 7, 0.0, np.random.default_rng(0)) == want


class TestBandwidthScalingStep:
    def test_miss_halves(self):
        bw, streak = bandwidth_scaling_step(4e6, correlated=False, correlated_streak=3)
        assert bw == 2e6
        assert streak == 0

    def test_floor_at_min(self):
        bw, streak = bandwidth_scaling_step(0.5e6, False, 0)
        assert bw == 0.5e6
        assert streak == 0

    def test_fifth_hit_doubles_and_resets(self):
        bw, streak = bandwidth_scaling_step(2e6, True, correlated_streak=4)
        assert bw == 4e6
        assert streak == 0

    def test_cap_at_max(self):
        bw, _ = bandwidth_scaling_step(8e6, True, correlated_streak=4)
        assert bw == 10e6

    def test_hit_below_five_holds(self):
        bw, streak = bandwidth_scaling_step(2e6, True, correlated_streak=2)
        assert bw == 2e6
        assert streak == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bandwidth_scaling_step(20e6, True, 0)

    def test_exhaustive_conformance_against_reference(self):
        min_bw, max_bw = 0.5e6, 10e6
        for bw in reachable_bandwidths(min_bw, max_bw):
            for streak in range(5):
                for correlated in (False, True):
                    got = bandwidth_scaling_step(
                        bw, correlated, streak, min_bw, max_bw
                    )
                    want = alg1_reference(bw, correlated, streak, min_bw, max_bw)
                    assert got == want, (bw, correlated, streak)

    @given(
        st.floats(0.5e6, 10e6),
        st.booleans(),
        st.integers(0, 4),
    )
    def test_output_always_in_bounds(self, prev_bw, correlated, streak):
        bw, new_streak = bandwidth_scaling_step(prev_bw, correlated, streak)
        assert 0.5e6 <= bw <= 10e6
        assert 0 <= new_streak <= 4


class TestFixedPolicy:
    def test_always_returns_b(self):
        policy = FixedPolicy(1e6)
        assert policy.initial_bandwidth() == 1e6
        rng = np.random.default_rng(0)
        for _ in range(10):
            bandwidth, _, state, action = policy.choose(*ctx(), rng)
            assert bandwidth == 1e6
            assert state == -1
            assert action == -1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FixedPolicy(20e6)
        with pytest.raises(ValueError):
            FixedPolicy(0.1e6)

    def test_learn_is_noop(self):
        policy = FixedPolicy(5e6)
        policy.learn(1000.0, False)


class TestBandwidthScalingPolicy:
    def test_starts_at_max(self):
        policy = BandwidthScalingPolicy()
        assert policy.initial_bandwidth() == 10e6

    def test_halves_on_misses(self):
        policy = BandwidthScalingPolicy()
        rng = np.random.default_rng(0)
        widths = scaling_widths(policy, [False] * 6, rng)
        assert widths == [5e6, 2.5e6, 1.25e6, 0.625e6, 0.5e6, 0.5e6]

    def test_doubles_after_five_hits(self):
        policy = BandwidthScalingPolicy()
        rng = np.random.default_rng(0)
        # two misses take it down to 2.5 MHz
        widths = scaling_widths(policy, [False] * 2 + [True] * 10, rng)[2:]
        # four holds, double on the fifth hit, then four holds, double again
        assert widths[:5] == [2.5e6] * 4 + [5e6]
        assert widths[5:] == [5e6] * 4 + [10e6]

    def test_reset_restores_initial_state(self):
        """The policy holds no decision state: a new run starts from the
        initial bandwidth whatever the last run chose."""
        policy = BandwidthScalingPolicy()
        rng = np.random.default_rng(0)
        scaling_widths(policy, [False], rng)
        policy.reset()
        assert scaling_widths(policy, [False], rng) == [5e6]


class TestQLearningPolicy:
    def test_first_learn_performs_no_update(self):
        table = make_table()
        policy = QLearningPolicy(table, epsilon=0.0)
        policy.choose(*ctx(), np.random.default_rng(0))
        policy.learn(500.0, False)
        assert np.count_nonzero(table.values) == 0

    def test_second_learn_updates_previous_pair(self):
        table = make_table()
        policy = QLearningPolicy(table, epsilon=0.0)
        rng = np.random.default_rng(0)
        policy.choose(*ctx(pred=0.5, meas=0.5), rng)  # s = 0, a = 0
        policy.learn(500.0, False)
        _, _, state, action = policy.choose(*ctx(pred=3.5, meas=2.5), rng)  # s = 26
        assert (state, action) == (26, 0)
        policy.learn(1000.0, False)
        # Q[0, 0] = 0.1 * (-1 + 0.9 * max Q[26, :]) = -0.1
        assert table.values[0, 0] == pytest.approx(-0.1, abs=1e-15)
        assert np.count_nonzero(table.values) == 1

    def test_lookahead_depth_two(self):
        table = make_table(L=2)
        policy = QLearningPolicy(table, epsilon=0.0)
        rng = np.random.default_rng(0)
        policy.choose(*ctx(pred=0.5, meas=0.5), rng)  # s0 = 0
        policy.learn(500.0, False)
        policy.choose(*ctx(pred=3.5, meas=2.5), rng)  # s1 = 26
        policy.learn(1000.0, False)  # updates (0, 0) only
        policy.choose(*ctx(pred=9.5, meas=0.5), rng)  # s2 = 72
        policy.learn(2000.0, False)  # updates (26, 0) then (0, 0)
        assert table.values[26, 0] == pytest.approx(-0.2, abs=1e-12)
        # Q[0,0]: -0.1 + 0.1 * (-2 + 0.9 * 0 - (-0.1)) = -0.29
        assert table.values[0, 0] == pytest.approx(-0.29, abs=1e-12)

    def test_greedy_follows_table(self):
        table = make_table()
        table.values[0] = [-0.9, -0.1, -0.5, -0.6, -0.7, -0.8]
        policy = QLearningPolicy(table, epsilon=0.0)
        bw, *_ = policy.choose(*ctx(pred=0.5, meas=0.5), np.random.default_rng(0))
        assert bw == DEFAULT_ACTIONS_HZ[1]

    def test_initial_bandwidth_is_largest_action(self):
        assert QLearningPolicy(make_table()).initial_bandwidth() == 10e6

    def test_reset_clears_buffer(self):
        table = make_table()
        policy = QLearningPolicy(table, epsilon=0.0)
        rng = np.random.default_rng(0)
        policy.choose(*ctx(), rng)
        policy.learn(500.0, False)
        policy.reset()
        policy.choose(*ctx(), rng)
        policy.learn(1000.0, False)  # first transmission of the new episode: no update
        assert np.count_nonzero(table.values) == 0

    def test_learn_before_choose_rejected(self):
        policy = QLearningPolicy(make_table())
        with pytest.raises(ValueError, match="before choose"):
            policy.learn(1000.0, False)

    def test_lost_dwell_backs_up_minus_table_C(self):
        """The learner clips its reward at its own table's C: with C = 0.5,
        alpha = 1 and gamma = 0, a lost dwell sets the previous pair to -0.5."""
        table = make_table(C=0.5, alpha=1.0, gamma=0.0)
        policy = QLearningPolicy(table, epsilon=0.0)
        rng = np.random.default_rng(0)
        policy.choose(*ctx(pred=0.5, meas=0.5), rng)  # s = 0, a = 0
        policy.learn(10.0, False)
        policy.choose(*ctx(pred=3.5, meas=2.5), rng)  # s = 26
        policy.learn(10.0, True)
        assert table.values[0, 0] == -0.5
        assert np.count_nonzero(table.values) == 1

    def test_epsilon_defaults_to_table_hyperparam(self):
        table = make_table(epsilon=0.35)
        assert QLearningPolicy(table).epsilon == 0.35
        assert QLearningPolicy(table, epsilon=0.0).epsilon == 0.0


class TestRequireFloat:
    @pytest.mark.parametrize(
        "value, error",
        [
            (True, TypeError),
            ("1.0", TypeError),
            (None, TypeError),
            (float("nan"), ValueError),
            (float("inf"), ValueError),
            (np.float64(-np.inf), ValueError),
        ],
    )
    def test_rejects_and_names_the_field(self, value, error):
        with pytest.raises(error, match="snr_ref must be"):
            require_float("snr_ref", value)

    @pytest.mark.parametrize("value", [0, 2, -1.5, np.float32(0.5), np.int64(3)])
    def test_accepts_finite_reals(self, value):
        require_float("snr_ref", value)


class TestHyperparams:
    def test_defaults(self):
        assert Hyperparams() == Hyperparams(alpha=0.1, gamma=0.9, epsilon=0.2, C=2.0, L=1)

    @pytest.mark.parametrize("name", ["alpha", "gamma", "epsilon", "C"])
    def test_float_fields_checked(self, name):
        with pytest.raises(TypeError, match=f"{name} must be a number"):
            Hyperparams(**{name: True})
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            Hyperparams(**{name: float("nan")})

    def test_epsilon_override_checked(self):
        with pytest.raises(ValueError, match="epsilon"):
            QLearningPolicy(make_table(), epsilon=1.5)


class TestQTablePersistence:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        table = make_table(L=5, epsilon=0.2)
        table.values[:] = -2.0 * rng.random((80, 6))
        path = tmp_path / "qtable.json"
        table.save(str(path))
        loaded = QTable.load(str(path))
        assert np.array_equal(loaded.values, table.values)
        assert loaded.discretizer == table.discretizer
        assert loaded.actions == table.actions
        hyper = loaded.hyperparams
        assert (hyper.alpha, hyper.gamma, hyper.epsilon) == (0.1, 0.9, 0.2)
        assert (hyper.C, hyper.L) == (2.0, 5)

    def test_parent_layout_resaves_byte_identical(self, tmp_path):
        golden = os.path.join(GOLDEN_DIR, "ql", "qtable.json")
        path = str(tmp_path / "qtable.json")
        QTable.load(golden).save(path)
        with open(golden, "rb") as want, open(path, "rb") as got:
            assert got.read() == want.read()

    @pytest.mark.parametrize("value", [True, "0.9", None])
    def test_load_rejects_non_numeric_floats(self, tmp_path, value):
        table = make_table()
        doc = table.to_json_dict()
        doc["gamma"] = value
        path = tmp_path / "qtable.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(TypeError, match="gamma must be a number"):
            QTable.load(str(path))

    def test_json_schema_keys(self, tmp_path):
        path = tmp_path / "qtable.json"
        make_table().save(str(path))
        doc = json.loads(path.read_text())
        assert set(doc) == {
            "alpha", "gamma", "epsilon", "C", "L",
            "actions_hz", "pred_var_edges", "meas_var_edges", "values",
        }
        assert len(doc["values"]) == 80
        assert all(len(row) == 6 for row in doc["values"])

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc.pop("gamma"),
            lambda doc: doc.__setitem__("values", doc["values"][:79]),
            lambda doc: doc.__setitem__(
                "values", [row[:5] for row in doc["values"]]
            ),
            lambda doc: doc.__setitem__(
                "pred_var_edges", doc["pred_var_edges"][:8]
            ),
            lambda doc: doc.__setitem__("values", [[float("nan")] * 6] * 80),
        ],
    )
    def test_load_rejects_malformed(self, tmp_path, mutate):
        path = tmp_path / "qtable.json"
        make_table().save(str(path))
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            QTable.load(str(path))

    BAD_CELLS = [(True, TypeError, "must be a number, got True"),
                 ("0.5", TypeError, "must be a number, got '0.5'"),
                 (None, TypeError, "must be a number, got None"),
                 (float("nan"), ValueError, "must be finite, got nan"),
                 (float("inf"), ValueError, "must be finite, got inf"),
                 (float("-inf"), ValueError, "must be finite, got -inf")]

    @pytest.mark.parametrize("cell", [(0, 0), (40, 3), (79, 5)], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad, error, message", BAD_CELLS,
                             ids=["bool", "string", "null", "NaN", "Infinity", "-Infinity"])
    def test_load_names_the_bad_cell(self, tmp_path, cell, bad, error, message):
        """One bad cell of ``values`` fails the load with ``require_float``'s
        error, naming that cell."""
        i, j = cell
        doc = make_table().to_json_dict()
        doc["values"][i][j] = bad
        path = tmp_path / "qtable.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(error, match=rf"^values\[{i}\]\[{j}\] {re.escape(message)}$"):
            QTable.load(str(path))

    @pytest.mark.parametrize("first, later", [((1, 5), (2, 0)), ((40, 3), (40, 4)),
                                              ((0, 1), (79, 0))])
    def test_load_names_the_first_bad_cell_in_row_major_order(self, tmp_path, first, later):
        doc = make_table().to_json_dict()
        doc["values"][later[0]][later[1]] = True  # a type error, checked no earlier
        doc["values"][first[0]][first[1]] = float("nan")
        path = tmp_path / "qtable.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"^values\[{first[0]}\]\[{first[1]}\] must be finite"):
            QTable.load(str(path))

    def test_load_accepts_integer_cells(self, tmp_path):
        doc = make_table().to_json_dict()
        doc["values"][0][0], doc["values"][40][3], doc["values"][79][5] = -1, 0, -3
        path = tmp_path / "qtable.json"
        path.write_text(json.dumps(doc))
        values = QTable.load(str(path)).values
        assert values.dtype == np.float64
        assert (values[0, 0], values[40, 3], values[79, 5]) == (-1.0, 0.0, -3.0)

    def test_save_is_atomic_no_stray_tmp(self, tmp_path):
        path = tmp_path / "qtable.json"
        make_table().save(str(path))
        make_table().save(str(path))  # overwrite in place
        assert sorted(p.name for p in tmp_path.iterdir()) == ["qtable.json"]


class TestDiscretizerPersistence:
    def test_round_trip(self, tmp_path):
        disc = Discretizer(**INTEGER_EDGES)
        path = tmp_path / "edges.json"
        disc.save(str(path))
        assert Discretizer.load(str(path)) == disc
        assert sorted(p.name for p in tmp_path.iterdir()) == ["edges.json"]

    def test_load_rejects_missing_key(self, tmp_path):
        path = tmp_path / "edges.json"
        path.write_text(json.dumps({"pred_var_edges": list(range(1, 10))}))
        with pytest.raises(ValueError, match="meas_var_edges"):
            Discretizer.load(str(path))


class TestValidation:
    def test_action_set_ordering(self):
        with pytest.raises(ValueError):
            ActionSet(bandwidths=(1e6, 1e6, 2e6))
        with pytest.raises(ValueError):
            ActionSet(bandwidths=(2e6, 1e6))

    def test_default_action_set(self):
        actions = ActionSet()
        assert actions.bandwidths == (0.5e6, 1e6, 2.5e6, 5e6, 7.5e6, 10e6)
        assert len(actions) == 6

    def test_qtable_shape_checked(self):
        with pytest.raises(ValueError):
            QTable(values=np.zeros((79, 6)), discretizer=Discretizer(**INTEGER_EDGES))

    def test_context_validation(self, monkeypatch):
        """A variance that is not positive fails the dwell before the policy
        chooses, with the same message from the scalar loop and from a lane."""
        sc = default_scenario()
        truth = TruthSide(generate_trajectory(sc.trajectory, seed=sc.episode.seed)[:4], sc.radar)
        policy = FixedPolicy(1e6)
        observe_lanes = lockstep._lane_observe

        def negated_r(measure):
            def negated(*args):
                z, r = measure(*args)
                return z, -r
            return negated

        cases = {
            "predicted_range_variance must be > 0": [
                (experiment, "observe_jacobian", lambda x, position: np.zeros((4, 6))),
                (lockstep, "_lane_observe", lambda x, geometry: (
                    observe_lanes(x, geometry)[0], np.zeros((len(x), 4, 6)))),
            ],
            "last_measurement_range_variance must be > 0": [
                (experiment, "measure", negated_r(experiment.measure)),
                (lockstep.Lockstep, "_measure", negated_r(lockstep.Lockstep._measure)),
            ],
        }
        for message, patches in cases.items():
            with monkeypatch.context() as patched:
                for owner, name, fake in patches:
                    patched.setattr(owner, name, fake)
                with pytest.raises(ValueError, match=message):
                    run_episode(truth, policy, sc.process, 5, np.random.default_rng(0))
                with pytest.raises(ValueError, match=message):
                    run_episode(truth, [policy], sc.process, 5, [0])

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            make_table(alpha=0.0)
        with pytest.raises(ValueError):
            make_table(gamma=1.0)
        with pytest.raises(ValueError):
            make_table(L=0)
