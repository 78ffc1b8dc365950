import dataclasses
import json
import os

import numpy as np
import pytest

from cogradar.config import ScenarioConfig, default_scenario, easy_scenario
from cogradar.experiment import EpisodeConfig
from cogradar.policy import ActionSet, Discretizer, Hyperparams
from cogradar.radar import RadarConfig
from cogradar.tracker import ProcessModel
from cogradar.trajectory import Phase, TrajectoryConfig, generate_trajectory

EDGES = Discretizer(
    pred_var_edges=tuple(float(i) for i in range(1, 10)),
    meas_var_edges=tuple(float(i) for i in range(1, 8)),
)


def test_default_construction_is_valid():
    sc = ScenarioConfig()
    assert sc.process.dt == sc.trajectory.dt
    hyper = sc.hyperparams
    assert hyper.alpha == 0.1 and hyper.gamma == 0.9 and hyper.epsilon == 0.2
    assert hyper.C == 2.0 and hyper.L == 5


def test_dt_mismatch_rejected():
    with pytest.raises(ValueError, match="dt"):
        ScenarioConfig(
            trajectory=TrajectoryConfig(dt=0.5),
            process=ProcessModel(
                dt=0.25,
                accel_noise_std={p: 1.0 for p in Phase},
            ),
        )


def test_actions_outside_radar_bounds_rejected():
    with pytest.raises(ValueError, match="bandwidths"):
        ScenarioConfig(actions=ActionSet((0.5e6, 20.0e6)))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(alpha=0.0),
        dict(alpha=1.5),
        dict(gamma=1.0),
        dict(gamma=-0.1),
        dict(epsilon=1.2),
        dict(C=0.0),
        dict(L=0),
    ],
)
def test_bad_hyperparams_rejected(kwargs):
    with pytest.raises(ValueError):
        ScenarioConfig(hyperparams=Hyperparams(**kwargs))


def test_integer_fields_accept_numpy_integers():
    episode = EpisodeConfig(
        n_transmissions=np.int64(40), miss_limit=np.int32(3), seed=np.int64(7)
    )
    scenario = dataclasses.replace(
        default_scenario(), episode=episode, hyperparams=Hyperparams(L=np.int64(2))
    )
    assert scenario.new_table(EDGES, lookahead=True).hyperparams.L == 2


def test_new_table_wiring():
    sc = ScenarioConfig()
    table = sc.new_table(EDGES)
    assert table.values.shape == (80, 6)
    assert not table.values.any()
    assert table.hyperparams.alpha == sc.hyperparams.alpha
    assert table.hyperparams.gamma == sc.hyperparams.gamma
    assert table.hyperparams.epsilon == sc.hyperparams.epsilon
    assert table.hyperparams.C == sc.hyperparams.C
    assert table.hyperparams.L == 1
    assert table.actions == sc.actions
    assert sc.new_table(EDGES, lookahead=True).hyperparams.L == sc.hyperparams.L


def test_json_round_trip_default(tmp_path):
    sc = default_scenario()
    path = os.path.join(tmp_path, "scenario.json")
    sc.save(path)
    assert ScenarioConfig.load(path) == sc
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


def test_json_round_trip_customized(tmp_path):
    sc = ScenarioConfig(
        trajectory=TrajectoryConfig(launch_speed=80.0, thrust_accel=35.0),
        radar=RadarConfig(position=(1.0, 2.0, 3.0), snr_ref=99.0),
        process=ProcessModel(
            dt=0.5,
            accel_noise_std={Phase.BOOST: 7.0, Phase.MID_COURSE: 2.0, Phase.TERMINAL: 9.0},
        ),
        episode=EpisodeConfig(n_transmissions=40, seed=7),
        hyperparams=Hyperparams(alpha=0.2, gamma=0.8, epsilon=0.1, C=3.0, L=2),
    )
    path = os.path.join(tmp_path, "scenario.json")
    sc.save(path)
    loaded = ScenarioConfig.load(path)
    assert loaded == sc
    assert loaded.radar.position == (1.0, 2.0, 3.0)
    assert loaded.process.accel_noise_std[Phase.TERMINAL] == 9.0


def test_integer_valued_floats_resave_byte_identical(tmp_path):
    # values are stored as given: a hand-written 120 is not re-saved as 120.0
    data = default_scenario().to_json_dict()
    data["radar"]["snr_ref"] = 120
    data["process"]["accel_noise_std"]["boost"] = 12
    data["hyperparams"]["C"] = 2
    text = json.dumps(data, indent=2) + "\n"
    path = os.path.join(tmp_path, "scenario.json")
    ScenarioConfig.from_json_dict(json.loads(text)).save(path)
    with open(path) as handle:
        assert handle.read() == text


def test_json_layout_uses_phase_names(tmp_path):
    path = os.path.join(tmp_path, "scenario.json")
    default_scenario().save(path)
    with open(path) as handle:
        data = json.load(handle)
    assert set(data) == {
        "trajectory", "radar", "process", "episode", "actions_hz", "hyperparams"
    }
    assert set(data["process"]["accel_noise_std"]) == {"boost", "mid_course", "terminal"}
    assert set(data["hyperparams"]) == {"alpha", "gamma", "epsilon", "C", "L"}


def test_load_accepts_older_json_with_transmit_energy():
    # scenario files written before the unused field was dropped still load
    data = default_scenario().to_json_dict()
    assert "transmit_energy" not in data["radar"]
    data["radar"]["transmit_energy"] = 1.0
    assert ScenarioConfig.from_json_dict(data) == default_scenario()


def test_load_accepts_older_json_with_null_initial_bandwidth():
    # templates saved before the field was dropped hold null; a bandwidth
    # there would change the run, so it fails, naming the field
    data = default_scenario().to_json_dict()
    assert "initial_bandwidth" not in data["episode"]
    data["episode"]["initial_bandwidth"] = None
    assert ScenarioConfig.from_json_dict(data) == default_scenario()
    data["episode"]["initial_bandwidth"] = 5e6
    with pytest.raises(ValueError, match=r"^episode\.initial_bandwidth: "):
        ScenarioConfig.from_json_dict(data)


def test_load_rejects_missing_section():
    data = default_scenario().to_json_dict()
    del data["radar"]
    with pytest.raises(ValueError, match="radar"):
        ScenarioConfig.from_json_dict(data)


def test_default_scenario_supports_full_episode():
    sc = default_scenario()
    traj = generate_trajectory(sc.trajectory, seed=sc.episode.seed)
    assert len(traj) >= sc.episode.n_transmissions + 1
    phases = {p.phase for p in traj[: sc.episode.n_transmissions + 1]}
    assert phases == set(Phase)


def test_easy_scenario_differs_only_in_trajectory():
    hard, easy = default_scenario(), easy_scenario()
    assert easy.trajectory != hard.trajectory
    assert easy.trajectory.terminal_maneuver_accel_std == 0.0
    assert dataclasses.replace(easy, trajectory=hard.trajectory) == hard
    traj = generate_trajectory(easy.trajectory, seed=easy.episode.seed)
    assert len(traj) >= easy.episode.n_transmissions + 1


class TestSectionKeys:
    """Every scenario section reads its keys the same way: a field left out
    takes its default, a missing required field and a key that names no
    field fail, naming the section."""

    @pytest.mark.parametrize("section, key, cls", [
        ("trajectory", "launch_position", TrajectoryConfig),
        ("radar", "position", RadarConfig),
        ("radar", "snr_ref", RadarConfig),
        ("episode", "miss_limit", EpisodeConfig),
    ])
    def test_missing_field_takes_its_default(self, section, key, cls):
        data = default_scenario().to_json_dict()
        del data[section][key]
        loaded = getattr(ScenarioConfig.from_json_dict(data), section)
        assert getattr(loaded, key) == getattr(cls(), key)

    @pytest.mark.parametrize("key", ["dt", "accel_noise_std"])
    def test_missing_required_field_is_named(self, key):
        data = default_scenario().to_json_dict()
        del data["process"][key]
        with pytest.raises(ValueError, match=f"^process: missing key '{key}'$"):
            ScenarioConfig.from_json_dict(data)

    @pytest.mark.parametrize("section", ["trajectory", "radar", "process", "episode"])
    def test_unknown_keys_are_named(self, section):
        data = default_scenario().to_json_dict()
        data[section]["zeta"] = 1.0
        data[section]["bogus"] = 2.0
        with pytest.raises(ValueError, match=rf"^{section}: unknown keys \['bogus', 'zeta'\]$"):
            ScenarioConfig.from_json_dict(data)
