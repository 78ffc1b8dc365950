import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from cogradar import experiment, lockstep
from cogradar.cli import PolicySpec, cli_main
from cogradar.config import default_scenario
from cogradar.experiment import campaign_truth, evaluate, save_run_csv
from cogradar.policy import ActionSet, BandwidthScalingPolicy, Discretizer, QTable
from cogradar.radar import TruthSide
from cogradar.tracker import DegenerateInnovationError
from cogradar.trajectory import generate_trajectory
from trajectory_readers import load_trajectory_csv

FAST = ["--transmissions", "40"]
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
TOO_FEW_DWELLS = "n_transmissions must be >= 3, one MSE window, to evaluate"


def run(*argv):
    return cli_main(list(argv))


def fail_if_called(*args, **kwargs):
    raise AssertionError("no episode should run")


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def edges_file(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("calib"))
    assert run("calibrate", "--runs", "6", *FAST, "--out", out) == 0
    return os.path.join(out, "edges.json")


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run() == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 1

    def test_unknown_flag(self, capsys):
        assert run("trace", "--policy", "scaling", "--bogus") == 1

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "COMMAND" in capsys.readouterr().out

    def test_unknown_policy_name(self, capsys):
        assert run("evaluate", "--policy", "nope") == 1

    def test_fixed_needs_numeric_bandwidth(self, capsys):
        assert run("evaluate", "--policy", "fixed:wide") == 1

    def test_fixed_out_of_range_bandwidth(self, capsys):
        assert run("evaluate", "--policy", "fixed:2e7") == 1

    def test_qlearn_without_table_is_usage_error(self, capsys):
        assert run("evaluate", "--policy", "qlearn") == 1

    def test_missing_qtable_file(self, capsys, tmp_path):
        assert run("evaluate", "--policy", "qlearn:" + str(tmp_path / "no.json")) == 2

    def test_missing_config_file(self, capsys, tmp_path):
        code = run(
            "evaluate", "--policy", "fixed:1e6",
            "--config", str(tmp_path / "no.json"),
        )
        assert code == 2

    def test_corrupt_config_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("evaluate", "--policy", "fixed:1e6", "--config", str(bad)) == 2

    @pytest.mark.parametrize("command", ["evaluate", "trace"])
    def test_one_policy_commands_reject_a_list(self, capsys, tmp_path, command):
        """evaluate and trace run one policy; a list belongs to compare."""
        out = str(tmp_path / "out")
        assert run(command, "--policy", "fixed:1e6,scaling", *FAST, "--out", out) == 1
        assert "compare" in capsys.readouterr().err
        assert not os.path.exists(out)


def train_on_rewritten_input(tmp_path, qtable, edit):
    """Run ``train`` on the golden lookahead Q-table when ``qtable``, else on
    the default scenario, after ``edit`` has rewritten the parsed document in
    place.  Returns the exit code and the output directory."""
    path = str(tmp_path / "input.json")
    argv = ["train", "--policy", "qlearn-lookahead", "--runs", "1"]
    if qtable:
        with open(os.path.join(GOLDEN_DIR, "ql", "qtable.json")) as handle:
            doc = json.load(handle)
        argv += ["--qtable", path]
    else:
        doc = default_scenario().to_json_dict()
        argv += ["--config", path,
                 "--edges", os.path.join(GOLDEN_DIR, "cal", "edges.json")]
    edit(doc)
    with open(path, "w") as handle:
        json.dump(doc, handle)
    out = str(tmp_path / "out")
    return run(*argv, "--out", out), out


def train_on_edited_input(tmp_path, keys, value):
    """Run ``train`` on the default scenario, or on the golden lookahead
    Q-table when ``keys[0]`` is "qtable", with the entry at ``keys`` set to
    ``value``.  Returns the exit code and the output directory."""
    where, *inner, field = keys

    def edit(doc):
        section = doc if where == "qtable" else doc[where]
        for key in inner:
            section = section[key]
        section[field] = value

    return train_on_rewritten_input(tmp_path, where == "qtable", edit)


class TestIntegerFields:
    """Integer fields of a scenario or a Q-table reject floats and bools at
    load time, and the message names the field."""

    @pytest.mark.parametrize(
        "where, field, value",
        [
            ("episode", "miss_limit", 2.5),
            ("episode", "miss_limit", True),
            ("episode", "n_transmissions", 40.0),
            ("episode", "seed", 1.5),
            ("hyperparams", "L", 2.5),
            ("qtable", "L", 2.7),
        ],
    )
    def test_non_integer_rejected(self, capsys, tmp_path, where, field, value):
        code, out = train_on_edited_input(tmp_path, (where, field), value)
        assert code == 2
        assert f"{field} must be an integer" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestFloatFields:
    """Float fields of a scenario or a Q-table reject bools, strings and
    non-finite values at load time, and the message names the field."""

    @pytest.mark.parametrize(
        "keys, value, name",
        [
            (("hyperparams", "alpha"), True, "alpha"),
            (("hyperparams", "C"), "2", "C"),
            (("radar", "snr_ref"), float("nan"), "snr_ref"),
            (("process", "accel_noise_std", "boost"), float("inf"), "accel_noise_std.boost"),
            (("qtable", "alpha"), True, "alpha"),
            (("qtable", "C"), "nan", "C"),
            (("actions_hz", 1), "nan", "actions_hz[1]"),
            (("qtable", "actions_hz", 1), "nan", "actions_hz[1]"),
            (("qtable", "pred_var_edges", 8), "nan", "pred_var_edges[8]"),
            (("qtable", "meas_var_edges", 0), True, "meas_var_edges[0]"),
            (("qtable", "values", 3, 2), "1.5", "values[3][2]"),
            (("qtable", "values", 3, 2), True, "values[3][2]"),
        ],
        ids=[
            "hyperparams.alpha-true",
            "hyperparams.C-string",
            "radar.snr_ref-NaN",
            "accel_noise_std.boost-Infinity",
            "qtable.alpha-true",
            "qtable.C-string-nan",
            "actions_hz[1]-string-nan",
            "qtable.actions_hz[1]-string-nan",
            "qtable.pred_var_edges[8]-string-nan",
            "qtable.meas_var_edges[0]-true",
            "qtable.values[3][2]-string",
            "qtable.values[3][2]-true",
        ],
    )
    def test_non_float_rejected(self, capsys, tmp_path, keys, value, name):
        code, out = train_on_edited_input(tmp_path, keys, value)
        assert code == 2
        assert f"{name} must be" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestShapeFields:
    """A list or a section given as a scalar fails at load time, and the
    message names the field."""

    @pytest.mark.parametrize(
        "qtable, key, message",
        [
            (False, "radar", "radar must be an object"),
            (False, "hyperparams", "hyperparams must be an object"),
            (False, "actions_hz", "actions_hz must be a list"),
            (True, "pred_var_edges", "pred_var_edges must be a list"),
            (True, "actions_hz", "actions_hz must be a list"),
        ],
        ids=["radar", "hyperparams", "actions_hz", "qtable.pred_var_edges",
             "qtable.actions_hz"],
    )
    def test_scalar_rejected(self, capsys, tmp_path, qtable, key, message):
        code, out = train_on_rewritten_input(
            tmp_path, qtable, lambda doc: doc.update({key: 5})
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)


def loading(kind, path, out):
    """A command that loads ``path`` as its ``kind`` of file."""
    return {
        "edges": ["train", "--edges", str(path), "--runs", "1", *FAST, "--out", out],
        "Q-table": ["evaluate", "--policy", f"qlearn:{path}", "--runs", "1", *FAST,
                    "--out", out],
        "scenario": ["evaluate", "--policy", "fixed:1e6", "--config", str(path),
                     "--runs", "1", *FAST, "--out", out],
    }[kind]


class TestTopLevelObject:
    """An edges file, a Q-table or a scenario whose JSON is not an object
    exits 2, and the message names the kind of file."""

    @pytest.mark.parametrize("text", ["5", "null", "[]", '"pred_var_edges meas_var_edges"'],
                             ids=["number", "null", "array", "string"])
    @pytest.mark.parametrize("kind", ["edges", "Q-table", "scenario"])
    def test_rejected(self, capsys, tmp_path, kind, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        out = str(tmp_path / "out")
        assert run(*loading(kind, path, out)) == 2
        assert f"cogradar: error: {kind} file must be an object, got " in capsys.readouterr().err
        assert not os.path.exists(out)


class TestMalformedJson:
    """An edges file, a Q-table or a scenario that is not JSON text, cut
    short, empty or not UTF-8, exits 2 before any file is written, and the
    message names the kind of file and its path."""

    @pytest.mark.parametrize("content", [b'{"pred_var_edges": [1,2', b"", b"\xff{}"],
                             ids=["truncated", "empty", "not-utf8"])
    @pytest.mark.parametrize("kind", ["edges", "Q-table", "scenario"])
    def test_rejected(self, capsys, tmp_path, kind, content):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        out = str(tmp_path / "out")
        assert run(*loading(kind, path, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cogradar: error: {kind} file {path} is not valid JSON: ")
        assert not os.path.exists(out)


class TestPhaseNames:
    def test_unknown_phase_rejected(self, capsys, tmp_path):
        code, out = train_on_rewritten_input(
            tmp_path, False,
            lambda doc: doc["process"]["accel_noise_std"].update(boost2=1.0),
        )
        assert code == 2
        assert "process.accel_noise_std: unknown phase 'boost2'" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestNegativeSeeds:
    """A negative seed fails before any run or write, naming the field."""

    def test_scenario_seed(self, capsys, tmp_path):
        code, out = train_on_edited_input(tmp_path, ("episode", "seed"), -1)
        assert code == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv", [
        ["generate-trajectory"],
        ["calibrate", "--runs", "2"],
        ["train", "--runs", "1"],
        ["evaluate", "--policy", "fixed:1e6", "--runs", "2"],
        ["compare", "--policy", "fixed:1e6,scaling", "--runs", "2"],
        ["trace", "--policy", "scaling"],
    ])
    def test_seed_flag(self, capsys, tmp_path, monkeypatch, argv):
        runs = []
        monkeypatch.setattr(experiment, "run_episode", lambda *a, **k: runs.append(a))
        out = str(tmp_path / "out")
        assert run(*argv, "--seed", "-4", *FAST, "--out", out) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err
        assert runs == []
        assert not os.path.exists(out)


class TestPointFields:
    """A radar or launch position without exactly three coordinates fails
    at load time, and the message names the field."""

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("radar", "position"), [14_800.0, -17_600.0]),
            (("radar", "position"), [14_800.0, -17_600.0, 0.0, 1.0]),
            (("trajectory", "launch_position"), [0.0, 0.0]),
        ],
        ids=["radar.position-2", "radar.position-4", "trajectory.launch_position-2"],
    )
    def test_wrong_length_rejected(self, capsys, tmp_path, keys, value):
        code, out = train_on_edited_input(tmp_path, keys, value)
        assert code == 2
        message = f"{keys[-1]} must have 3 coordinates, got {len(value)}"
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)


class TestHyperparamsKeys:
    """The scenario's hyperparams section holds exactly the five
    hyperparameters; a stray or missing key names the section and the key."""

    def test_misspelt_key(self, capsys, tmp_path):
        def rename(doc):
            doc["hyperparams"]["epsilom"] = doc["hyperparams"].pop("epsilon")

        code, out = train_on_rewritten_input(tmp_path, False, rename)
        assert code == 2
        err = capsys.readouterr().err
        assert "hyperparams" in err and "'epsilom'" in err and "'epsilon'" in err
        assert not os.path.exists(out)

    def test_extra_key(self, capsys, tmp_path):
        code, out = train_on_rewritten_input(
            tmp_path, False, lambda doc: doc["hyperparams"].update(extra=1)
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "hyperparams" in err and "'extra'" in err
        assert not os.path.exists(out)


class TestSectionKeys:
    """A missing required scenario field or a stray key exits 2 with a
    message that names the section and the key."""

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["process"].pop("dt"), "process: missing key 'dt'"),
        (lambda doc: doc["radar"].update(gain=3.0), "radar: unknown keys ['gain']"),
        (lambda doc: doc["process"].update(drift=0.1), "process: unknown keys ['drift']"),
    ], ids=["process.dt-missing", "radar-unknown", "process-unknown"])
    def test_named_at_load(self, capsys, tmp_path, edit, message):
        code, out = train_on_rewritten_input(tmp_path, False, edit)
        assert code == 2
        assert f"cogradar: error: {message}" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_dropped_initial_bandwidth_named(self, capsys, tmp_path):
        """A scenario that still sets ``episode.initial_bandwidth`` fails at
        load, naming the field; only null, what older templates hold, loads."""
        doc = default_scenario().to_json_dict()
        doc["episode"]["initial_bandwidth"] = 5e6
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        out = str(tmp_path / "out")
        code = run("evaluate", "--policy", "fixed:1e6", "--config", str(path), *FAST,
                   "--out", out)
        assert code == 2
        assert "cogradar: error: episode.initial_bandwidth:" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestPolicySpec:
    def test_parse_with_param(self):
        assert PolicySpec.parse("fixed:1e6") == PolicySpec("fixed", "1e6")

    def test_parse_bare(self):
        assert PolicySpec.parse("scaling") == PolicySpec("scaling", None)

    def test_str_round_trip(self):
        for text in ("fixed:1e6", "scaling", "qlearn:t.json"):
            assert str(PolicySpec.parse(text)) == text


class TestGenerateTrajectory:
    def test_round_trip(self, capsys, tmp_path):
        out = str(tmp_path)
        assert run("generate-trajectory", "--out", out) == 0
        loaded = load_trajectory_csv(os.path.join(out, "trajectory.csv"))
        sc = default_scenario()
        assert len(loaded) >= sc.episode.n_transmissions + 1

    def test_seed_changes_terminal_phase_only_noise(self, capsys, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run("generate-trajectory", "--out", a, "--seed", "1") == 0
        assert run("generate-trajectory", "--out", b, "--seed", "1") == 0
        assert read(os.path.join(a, "trajectory.csv")) == read(
            os.path.join(b, "trajectory.csv")
        )


class TestCalibrateAndTrain:
    def test_edges_loadable(self, capsys, edges_file):
        disc = Discretizer.load(edges_file)
        assert disc.n_states == 80

    def test_train_zero_runs_writes_zero_table(self, capsys, tmp_path, edges_file):
        out = str(tmp_path)
        code = run("train", "--runs", "0", "--edges", edges_file, "--out", out)
        assert code == 0
        table = QTable.load(os.path.join(out, "qtable.json"))
        assert not table.values.any()
        assert table.hyperparams.L == 1

    def test_train_lookahead_sets_depth(self, capsys, tmp_path, edges_file):
        out = str(tmp_path)
        code = run(
            "train", "--runs", "1", "--policy", "qlearn-lookahead",
            "--edges", edges_file, *FAST, "--out", out,
        )
        assert code == 0
        assert QTable.load(os.path.join(out, "qtable.json")).hyperparams.L == 5

    def test_train_touches_table(self, capsys, tmp_path, edges_file):
        out = str(tmp_path)
        assert run("train", "--runs", "2", "--edges", edges_file, *FAST, "--out", out) == 0
        table = QTable.load(os.path.join(out, "qtable.json"))
        assert table.values.any()
        assert (table.values <= 0.0).all()

    def test_train_rejects_non_tabular_policy(self, capsys, edges_file, tmp_path):
        code = run(
            "train", "--policy", "fixed:1e6", "--edges", edges_file,
            "--out", str(tmp_path),
        )
        assert code == 1

    def test_warm_start_does_not_mutate_input(self, capsys, tmp_path, edges_file):
        first = str(tmp_path / "first")
        assert run("train", "--runs", "1", "--edges", edges_file, *FAST, "--out", first) == 0
        table_path = os.path.join(first, "qtable.json")
        before = read(table_path)
        second = str(tmp_path / "second")
        code = run(
            "train", "--runs", "1", "--qtable", table_path, *FAST,
            "--seed", "9", "--out", second,
        )
        assert code == 0
        assert read(table_path) == before
        assert read(os.path.join(second, "qtable.json")) != before

    @pytest.mark.parametrize(
        "policy, table",
        [("qlearn-lookahead", "q/qtable.json"), ("qlearn", "ql/qtable.json")],
    )
    def test_warm_start_rejects_other_depth(self, capsys, tmp_path, policy, table):
        """A warm-start table keeps its depth L, so it must match --policy:
        L == 1 for qlearn, L > 1 for qlearn-lookahead."""
        path = os.path.join(GOLDEN_DIR, table)
        out = str(tmp_path / "out")
        code = run(
            "train", "--policy", policy, "--qtable", path, "--runs", "1",
            *FAST, "--out", out,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "L" in err and path in err and policy in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("policy", ["qlearn", "qlearn-lookahead"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_pilot_calibration_is_calibrate(self, capsys, tmp_path, policy, seed):
        """train without --edges calibrates on the --seed + 1000000 stream
        and trains on the same truth: its table has the bytes of calibrate
        at that seed followed by train --edges."""
        alone, cal, edged = (str(tmp_path / name) for name in ("alone", "cal", "edged"))
        train = ["train", "--policy", policy, "--runs", "3", "--seed", str(seed)]
        assert run(*train, "--out", alone) == 0
        assert run("calibrate", "--runs", "100", "--seed", str(seed + 1_000_000),
                   "--out", cal) == 0
        assert run(*train, "--edges", os.path.join(cal, "edges.json"), "--out", edged) == 0
        assert (read(os.path.join(alone, "qtable.json"))
                == read(os.path.join(edged, "qtable.json")))

    def test_train_builds_one_truth_side(self, capsys, tmp_path, monkeypatch):
        """The pilot calibration and the training of one train read the one
        truth side the command builds."""
        built = []

        class Counted(TruthSide):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(experiment, "TruthSide", Counted)
        assert run("train", "--runs", "2", *FAST, "--out", str(tmp_path)) == 0
        assert len(built) == 1

    def test_warm_start_rejects_edges(self, capsys, tmp_path, edges_file):
        """A warm start keeps the table's own edges, so --edges is an error."""
        out = str(tmp_path / "out")
        code = run(
            "train", "--qtable", os.path.join(GOLDEN_DIR, "q", "qtable.json"),
            "--edges", edges_file, "--runs", "1", *FAST, "--out", out,
        )
        assert code == 1
        assert "warm start keeps the table's edges" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestTableDepth:
    """Every command that loads a Q-table checks its depth L against the
    policy name: L == 1 for qlearn, L > 1 for qlearn-lookahead."""

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--runs", "1", "--policy", "qlearn-lookahead:{q}"],
        ["evaluate", "--runs", "1", "--policy", "qlearn:{ql}"],
        ["compare", "--runs", "1", "--policy", "fixed:1e6,qlearn-lookahead:{q}"],
        ["compare", "--runs", "1", "--policy", "qlearn:{q},qlearn:{ql}"],
        ["trace", "--policy", "qlearn-lookahead:{q}"],
        ["trace", "--policy", "qlearn:{ql}"],
    ])
    def test_other_depth_rejected(self, capsys, tmp_path, argv):
        q, ql = (os.path.join(GOLDEN_DIR, name, "qtable.json") for name in ("q", "ql"))
        out = str(tmp_path / "out")
        argv = [arg.format(q=q, ql=ql) for arg in argv]
        assert run(*argv, *FAST, "--out", out) == 1
        err = capsys.readouterr().err
        assert "L=" in err and "does not fit" in err
        assert not os.path.exists(out)


class TestEvaluate:
    def test_byte_identical_outputs(self, capsys, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        argv = ["evaluate", "--policy", "fixed:1e6", "--runs", "3", "--seed", "3", *FAST]
        assert run(*argv, "--out", a) == 0
        assert run(*argv, "--out", b) == 0
        for name in ("metrics.csv", "histogram.csv"):
            assert read(os.path.join(a, name)) == read(os.path.join(b, name))

    def test_seed_changes_metrics(self, capsys, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        argv = ["evaluate", "--policy", "fixed:1e6", "--runs", "3", *FAST]
        assert run(*argv, "--seed", "3", "--out", a) == 0
        assert run(*argv, "--seed", "4", "--out", b) == 0
        assert read(os.path.join(a, "metrics.csv")) != read(os.path.join(b, "metrics.csv"))

    def test_transmissions_override_shapes_metrics(self, capsys, tmp_path):
        out = str(tmp_path)
        assert run(
            "evaluate", "--policy", "fixed:1e6", "--runs", "2",
            "--transmissions", "20", "--out", out,
        ) == 0
        with open(os.path.join(out, "metrics.csv")) as handle:
            rows = handle.read().strip().splitlines()
        assert len(rows) == 1 + (20 - 3 + 1)


MARK = 1e25  # a range-rate normal this large marks the dwell a run fails on


def fail_marked_dwells(monkeypatch, marks, fails=lambda rate, range_var: True):
    """Fail chosen dwells of chosen runs with a degenerate innovation
    covariance, on the scalar and the lockstep path alike.

    ``marks`` maps (seed, noise row) to a range-rate normal of size ``MARK``
    and either sign; row k + 1 of a run's normals is its decision dwell k.
    Both updates fail where the range-rate innovation is that large and
    ``fails(sign, range_var)`` holds, and elsewhere drop the mark.
    """
    real_rng, update, lane_update = (
        np.random.default_rng, experiment.update, lockstep._lane_update
    )

    class MarkedRng:
        def __init__(self, seed):
            self._rng, self._seed, self._drawn = real_rng(seed), seed, 0

        def standard_normal(self, size):
            out = self._rng.standard_normal(size)
            rows = out.reshape(-1, 4)
            for i in range(len(rows)):
                rows[i, 1] = marks.get((self._seed, self._drawn + i), rows[i, 1])
            self._drawn += len(rows)
            return out

        def __getattr__(self, name):
            return getattr(self._rng, name)

    def triage(nu, r):
        """The lanes that fail here, and the innovations without the marks."""
        rate = nu[..., 1]
        marked = np.abs(rate) > 0.1 * MARK
        bad = marked & fails(np.sign(rate), r[..., 0])
        nu = nu.copy()
        nu[..., 1] = np.where(marked, 0.0, rate)
        return bad, nu

    def failing_update(x, P, r, H, nu):
        bad, nu = triage(nu, r)
        if bad:
            raise DegenerateInnovationError("degenerate innovation covariance")
        return update(x, P, r, H, nu)

    def failing_lane_update(x, P, r, H, nu):
        bad, nu = triage(nu, r)
        if bad.any():
            raise DegenerateInnovationError("degenerate innovation covariance")
        return lane_update(x, P, r, H, nu)

    seeds = {seed for seed, _ in marks}
    monkeypatch.setattr(
        np.random, "default_rng",
        lambda seed=None: MarkedRng(seed) if seed in seeds else real_rng(seed),
    )
    monkeypatch.setattr(experiment, "update", failing_update)
    monkeypatch.setattr(lockstep, "_lane_update", failing_lane_update)


class TestFailedRun:
    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--policy", "fixed:1e6"],
            ["calibrate"],
            ["train", "--edges", os.path.join(GOLDEN_DIR, "cal", "edges.json")],
        ],
    )
    def test_failed_run_names_index_and_seed(self, capsys, tmp_path, monkeypatch, argv):
        """A numerical failure in the third run names run 2 and its seed, and
        leaves no file: lanes 0-3 of evaluate and calibrate run in lockstep,
        train runs them one by one."""
        fail_marked_dwells(monkeypatch, {(1002, 2): MARK})
        out = str(tmp_path / "out")
        code = run(*argv, "--runs", "4", "--seed", "1000", *FAST, "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert "run 2 (seed 1002): degenerate innovation covariance" in err
        assert not os.path.exists(out)

    def test_compare_names_the_first_failed_lane(self, capsys, tmp_path, monkeypatch):
        """Lane (fixed:5e6, run 0) fails at dwell 1, before lane (fixed:1e6,
        run 3) fails at dwell 6; run by run, policy by policy, the loop meets
        run 3 of fixed:1e6 first, so that is the run the message names."""
        fail_marked_dwells(
            monkeypatch,
            {(1000, 2): -MARK, (1003, 7): MARK},
            # a positive mark fails the 1 MHz lanes, a negative one the 5 MHz
            # lanes: their range variances lie above and below 50 m^2
            fails=lambda sign, range_var: (sign > 0) == (range_var > 50.0),
        )
        out = str(tmp_path / "out")
        code = run("compare", "--policy", "fixed:1e6,fixed:5e6", "--runs", "4",
                   "--seed", "1000", *FAST, "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert "run 3 (seed 1003): degenerate innovation covariance" in err
        assert not os.path.exists(out)

    def test_failed_trace_names_run_and_seed(self, capsys, tmp_path, monkeypatch):
        fail_marked_dwells(monkeypatch, {(1000, 2): MARK})
        out = str(tmp_path / "out")
        code = run("trace", "--policy", "scaling", "--seed", "1000", *FAST, "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert "run 0 (seed 1000): degenerate innovation covariance" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command, policy", [
        ("evaluate", "fixed:1e6"),
        ("compare", "fixed:1e6,scaling"),
    ])
    def test_failed_scoring_writes_nothing(self, capsys, tmp_path, monkeypatch, command,
                                           policy):
        """Two transmissions fill no 3-wide window, so scoring is refused
        before any run, naming the field and the window; no file is left."""
        monkeypatch.setattr(experiment, "run_episode", fail_if_called)
        out = str(tmp_path / "out")
        code = run(
            command, "--policy", policy, "--transmissions", "2", "--runs", "2",
            "--out", out,
        )
        assert code == 2
        captured = capsys.readouterr()
        assert TOO_FEW_DWELLS in captured.err
        assert "wrote" not in captured.out
        assert not os.path.exists(out) or os.listdir(out) == []

    def test_too_few_dwells_in_config_fail_the_same_way(self, capsys, tmp_path, monkeypatch):
        """A --config file's n_transmissions below the window is refused as
        --transmissions is."""
        monkeypatch.setattr(experiment, "run_episode", fail_if_called)
        doc = default_scenario().to_json_dict()
        doc["episode"]["n_transmissions"] = 2
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        out = str(tmp_path / "out")
        code = run("evaluate", "--policy", "fixed:1e6", "--runs", "1", "--config", str(path),
                   "--out", out)
        assert code == 2
        assert f"cogradar: error: {TOO_FEW_DWELLS}" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_trace_scores_no_window(self, tmp_path):
        """trace writes the records of a run too short for one window."""
        out = str(tmp_path / "out")
        assert run("trace", "--policy", "scaling", "--transmissions", "2", "--out", out) == 0
        with open(os.path.join(out, "trace.csv")) as handle:
            assert len(handle.read().splitlines()) == 3  # the header and two dwells


class TestFailedLockstepCall:
    @pytest.mark.parametrize("argv", [
        ["evaluate", "--policy", "fixed:1e6", "--runs", "1"],
        ["evaluate", "--policy", "fixed:1e6", "--runs", "2"],
        ["compare", "--policy", "fixed:1e6,fixed:5e6", "--runs", "2"],
        ["calibrate", "--runs", "3"],
        ["train", "--policy", "qlearn", "--runs", "2"],
        ["train", "--policy", "qlearn", "--runs", "2",
         "--edges", os.path.join(GOLDEN_DIR, "cal", "edges.json")],
        ["trace", "--policy", "scaling"],
    ], ids=["evaluate-1", "evaluate-2", "compare", "calibrate", "train", "train-edges",
            "trace"])
    def test_short_trajectory_fails_before_any_run(self, capsys, tmp_path, monkeypatch, argv):
        """A trajectory too short for --transmissions fails as the command
        builds its truth, before any run, so the error names no run."""
        monkeypatch.setattr(experiment, "run_episode", fail_if_called)
        out = str(tmp_path / "out")
        code = run(*argv, "--seed", "7", "--transmissions", "5000", "--out", out)
        assert code == 2
        assert capsys.readouterr().err == ("cogradar: error: trajectory too short: need "
                                           "n_transmissions + 1 = 5001 samples, have 183\n")
        assert not os.path.exists(out)

    def test_failure_seen_only_in_the_lanes(self, capsys, tmp_path, monkeypatch):
        """The one-lane replay passes every run, so the lanes' own error is
        what the command reports, and it writes nothing."""
        lane_update = lockstep._lane_update

        def failing_lane_update(x, *args):
            if len(x) > 1:  # a one-lane call never fails
                raise DegenerateInnovationError("lanes only")
            return lane_update(x, *args)

        monkeypatch.setattr(lockstep, "_lane_update", failing_lane_update)
        out = str(tmp_path / "out")
        code = run("evaluate", "--policy", "fixed:1e6", "--runs", "3", *FAST, "--out", out)
        assert code == 2
        captured = capsys.readouterr()
        assert "error: lanes only" in captured.err and "wrote" not in captured.out
        assert not os.path.exists(out)


class TestOneKernel:
    def test_frozen_runs_never_reach_the_scalar_loop(self, capsys, tmp_path, monkeypatch):
        """trace and a one-run evaluate step their lane through the lockstep
        kernel: with the scalar predict broken they write the same bytes."""
        argvs = (["trace", "--policy", "scaling", "--seed", "7"],
                 ["evaluate", "--policy", "fixed:1e7", "--runs", "1", "--seed", "3"])
        for n, argv in enumerate(argvs):
            assert run(*argv, "--out", str(tmp_path / f"{n}a")) == 0

        def broken_predict(*args):
            raise AssertionError("a frozen run reached the scalar loop")

        monkeypatch.setattr(experiment, "predict", broken_predict)
        for n, argv in enumerate(argvs):
            assert run(*argv, "--out", str(tmp_path / f"{n}b")) == 0
            a, b = tmp_path / f"{n}a", tmp_path / f"{n}b"
            assert sorted(os.listdir(a)) == sorted(os.listdir(b))
            for name in os.listdir(a):
                assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_calibrate_rejects_negative_runs(self, capsys, tmp_path):
        assert run("calibrate", "--runs", "-3", "--out", str(tmp_path)) == 2
        assert "n_runs must be >= 0" in capsys.readouterr().err

    def test_calibrate_zero_runs_pools_no_samples(self, capsys, tmp_path):
        """A lockstep call with no lanes records nothing, so the edges fail
        for want of samples."""
        assert run("calibrate", "--runs", "0", "--out", str(tmp_path)) == 2
        assert "need at least two calibration samples" in capsys.readouterr().err

    def test_calibrate_rejects_percentiles_ulps_apart(self, capsys, tmp_path):
        """One dwell per pilot run leaves the pred_var percentiles ulps apart;
        the error names the samples and no edges are written."""
        out = str(tmp_path / "out")
        assert run("calibrate", "--runs", "100", "--transmissions", "1", "--out", out) == 2
        assert "calibration samples of pred_var spread too little" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "edges.json"))


class TestCompare:
    def test_roster_outputs(self, capsys, tmp_path, edges_file):
        tdir = str(tmp_path / "train")
        assert run("train", "--runs", "1", "--edges", edges_file, *FAST, "--out", tdir) == 0
        qpath = os.path.join(tdir, "qtable.json")
        out = str(tmp_path / "cmp")
        code = run(
            "compare", "--policy", f"fixed:1e6,fixed:5e6,scaling,qlearn:{qpath}",
            "--runs", "2", *FAST, "--out", out,
        )
        assert code == 0
        names = sorted(os.listdir(out))
        assert names == [
            "metrics_fixed_1e6.csv",
            "metrics_fixed_5e6.csv",
            "metrics_qlearn_qtable.csv",
            "metrics_scaling.csv",
            "summary.csv",
        ]
        with open(os.path.join(out, "summary.csv")) as handle:
            lines = handle.read().strip().splitlines()
        assert lines[0] == "policy,n_runs,successful_runs,mean_windowed_min_mse"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "fixed:1e6", "fixed:5e6", "scaling", f"qlearn:{qpath}",
        ]
        for line in lines[1:]:
            fields = line.rsplit(",", 3)
            assert int(fields[1]) == 2
            assert 0 <= int(fields[2]) <= 2
            assert np.isfinite(float(fields[3]))

    def test_suffixed_slug_does_not_overwrite(self, capsys, tmp_path):
        """The second q.json is suffixed to qlearn_q_1, which is also the
        third table's own slug; each policy still gets its own file."""
        specs = []
        for name in ("a/q.json", "b/q.json", "c/q_1.json"):
            path = tmp_path / name
            path.parent.mkdir()
            shutil.copy(os.path.join(GOLDEN_DIR, "q", "qtable.json"), path)
            specs.append(f"qlearn:{path}")
        out = str(tmp_path / "cmp")
        code = run("compare", "--policy", ",".join(specs), "--runs", "2", *FAST,
                   "--out", out)
        assert code == 0
        assert "3 per-policy metrics files" in capsys.readouterr().out
        assert sorted(os.listdir(out)) == [
            "metrics_qlearn_q.csv",
            "metrics_qlearn_q_1.csv",
            "metrics_qlearn_q_1_1.csv",
            "summary.csv",
        ]

    def test_empty_policy_list_is_usage_error(self, capsys):
        assert run("compare", "--policy", ",") == 1


class TestTrace:
    def test_deterministic_and_complete(self, capsys, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        argv = ["trace", "--policy", "scaling", "--seed", "5", *FAST]
        assert run(*argv, "--out", a) == 0
        assert run(*argv, "--out", b) == 0
        assert read(os.path.join(a, "trace.csv")) == read(os.path.join(b, "trace.csv"))
        with open(os.path.join(a, "trace.csv")) as handle:
            rows = handle.read().strip().splitlines()
        assert rows[0].startswith("step,bandwidth_hz,")
        assert len(rows) <= 1 + 40

    def test_reward_clip_follows_scenario(self, capsys, tmp_path):
        """The loss reward is -C of the scenario, whatever the policy."""
        config = str(tmp_path / "scenario.json")
        scenario = default_scenario()
        replace(scenario, hyperparams=replace(scenario.hyperparams, C=0.5)).save(config)
        out = str(tmp_path / "out")
        code = run(
            "trace", "--policy", "fixed:1e7", "--seed", "3",
            "--config", config, "--out", out,
        )
        assert code == 0
        with open(os.path.join(out, "trace.csv")) as handle:
            rows = handle.read().strip().splitlines()
        header = rows[0].split(",")
        last = dict(zip(header, rows[-1].split(",")))
        assert len(rows) == 1 + 145  # the track is lost at step 145
        assert last["correlated"] == "0"
        assert float(last["reward"]) == -0.5

    def test_trace_is_run_zero_of_evaluate(self, capsys, tmp_path):
        """trace --seed 7 writes the bytes that save_run_csv writes for run 0
        of a one-run evaluate at base seed 7, at the scenario's C."""
        out = str(tmp_path / "out")
        assert run("trace", "--policy", "scaling", "--seed", "7", "--out", out) == 0
        scenario = default_scenario()
        radar = scenario.radar
        trajectory = generate_trajectory(scenario.trajectory, seed=scenario.episode.seed)
        [([result], _)] = evaluate(
            campaign_truth(trajectory, radar, scenario.episode),
            [BandwidthScalingPolicy(radar.min_bw, radar.max_bw)],
            scenario.process,
            scenario.episode.miss_limit,
            n_runs=1,
            base_seed=7,
        )
        path = str(tmp_path / "run0.csv")
        save_run_csv(result, scenario.hyperparams.C, path)
        assert read(os.path.join(out, "trace.csv")) == read(path)

    @pytest.mark.parametrize("policy, seed, status", [
        ("fixed:1e7", "3", "145 steps, lost at step 145"),
        ("scaling", "7", "160 steps, full track"),
    ], ids=["lost", "full"])
    def test_status_line(self, capsys, tmp_path, policy, seed, status):
        out = str(tmp_path / "out")
        assert run("trace", "--policy", policy, "--seed", seed, "--out", out) == 0
        assert capsys.readouterr().out == f"wrote {os.path.join(out, 'trace.csv')} ({status})\n"


class TestOutputFiles:
    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_modes_follow_umask(self, capsys, tmp_path, umask):
        out = str(tmp_path)
        old = os.umask(umask)
        try:
            assert run("generate-trajectory", "--out", out) == 0
            assert run("calibrate", "--runs", "2", *FAST, "--out", out) == 0
            assert run("trace", "--policy", "scaling", *FAST, "--out", out) == 0
        finally:
            os.umask(old)
        modes = {name: os.stat(os.path.join(out, name)).st_mode & 0o777
                 for name in os.listdir(out)}
        assert set(modes) == {"trajectory.csv", "edges.json", "trace.csv"}
        assert modes == dict.fromkeys(modes, 0o666 & ~umask)


class TestQTableActions:
    """A Q-table trained on another action menu is rejected at load time."""

    @pytest.fixture
    def foreign_table(self, tmp_path):
        path = str(tmp_path / "foreign.json")
        actions = ActionSet((0.1e6, 1e6, 5e6, 10e6, 25e6, 50e6))
        edges = Discretizer(
            pred_var_edges=tuple(float(i) for i in range(1, 10)),
            meas_var_edges=tuple(float(i) for i in range(1, 8)),
        )
        QTable.zeros(edges, actions=actions).save(path)
        return path

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--policy", "qlearn", "--runs", "1"],
            ["compare", "--policy", "fixed:1e6,qlearn", "--runs", "1"],
            ["trace", "--policy", "qlearn"],
            ["train", "--policy", "qlearn", "--runs", "1"],
        ],
    )
    def test_mismatched_actions_rejected(self, capsys, tmp_path, foreign_table, argv):
        out = str(tmp_path / "out")
        assert run(*argv, "--qtable", foreign_table, *FAST, "--out", out) == 2
        err = capsys.readouterr().err
        assert "actions_hz" in err and foreign_table in err
        assert not os.path.exists(out) or not os.listdir(out)


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "cogradar.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "generate-trajectory" in result.stdout


NUMPY_LOADS_MA = "import numpy loads numpy.ma"
NO_MASKED_ARRAYS = f"""
import os, sys
import numpy
if "numpy.ma" in sys.modules:  # numpy 1.x: nothing to check
    print({NUMPY_LOADS_MA!r})
    sys.exit()
out = sys.argv[1]
from cogradar.cli import cli_main
assert "numpy.ma" not in sys.modules, "import cogradar.cli"
table = os.path.join(out, "qtable.json")
fast = ["--transmissions", "40", "--out", out]
for argv in (
    ["generate-trajectory", *fast],
    ["calibrate", "--runs", "6", *fast],
    ["train", "--runs", "1", *fast],
    ["evaluate", "--policy", "qlearn:" + table, "--runs", "2", *fast],
    ["compare", "--policy", "fixed:1e6,scaling,qlearn:" + table, "--runs", "2", *fast],
    ["trace", "--policy", "scaling", *fast],
):
    assert cli_main(argv) == 0, argv
    assert "numpy.ma" not in sys.modules, argv
"""


def test_no_command_imports_numpy_ma(tmp_path):
    """Neither ``import cogradar.cli`` nor any command, ``train`` with its own
    pilot calibration included, imports ``numpy.ma`` (``np.percentile`` would,
    on numpy 2.x), all in one fresh interpreter.  numpy 1.x imports
    ``numpy.ma`` with ``import numpy``, and there the test is skipped."""
    result = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS, str(tmp_path)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    if result.stdout.startswith(NUMPY_LOADS_MA):
        pytest.skip(NUMPY_LOADS_MA)
