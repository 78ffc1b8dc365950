"""Scenario bundles: trajectory, radar, tracker, and learning settings.

A ScenarioConfig is the single object the CLI and the experiment harness
pass around. It serializes to JSON so a study is reproducible from one
file plus a seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any

from .experiment import EpisodeConfig
from .fileio import read_json, require_list, require_object, write_json
from .policy import ActionSet, Discretizer, Hyperparams, QTable
from .radar import RadarConfig
from .tracker import ProcessModel
from .trajectory import Phase, TrajectoryConfig


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to run, train, and evaluate on one scenario."""

    trajectory: TrajectoryConfig = field(default_factory=TrajectoryConfig)
    radar: RadarConfig = field(default_factory=RadarConfig)
    process: ProcessModel = field(
        default_factory=lambda: ProcessModel(
            dt=0.5,
            accel_noise_std={Phase.BOOST: 12.0, Phase.MID_COURSE: 5.0, Phase.TERMINAL: 22.0},
        )
    )
    episode: EpisodeConfig = field(default_factory=EpisodeConfig)
    actions: ActionSet = field(default_factory=ActionSet)
    # L is the depth of lookahead tables; plain Q-learning tables use 1
    hyperparams: Hyperparams = field(default_factory=lambda: Hyperparams(L=5))

    def __post_init__(self) -> None:
        if self.process.dt != self.trajectory.dt:
            raise ValueError("process.dt must match trajectory.dt")
        bws = self.actions.bandwidths
        if bws[0] < self.radar.min_bw or bws[-1] > self.radar.max_bw:
            raise ValueError("action bandwidths must lie within radar [min_bw, max_bw]")

    def new_table(self, discretizer: Discretizer, lookahead: bool = False) -> QTable:
        """Fresh all-zero Q-table wired to this scenario's hyperparameters."""
        L = self.hyperparams.L if lookahead else 1
        return QTable.zeros(discretizer, self.actions, replace(self.hyperparams, L=L))

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "trajectory": dataclasses.asdict(self.trajectory),
            "radar": dataclasses.asdict(self.radar),
            "process": {
                "dt": self.process.dt,
                "accel_noise_std": {
                    phase.value: self.process.accel_noise_std[phase] for phase in Phase
                },
            },
            "episode": dataclasses.asdict(self.episode),
            "actions_hz": list(self.actions.bandwidths),
            "hyperparams": dataclasses.asdict(self.hyperparams),
        }

    def save(self, path: str) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict[str, Any]) -> "ScenarioConfig":
        required = {"trajectory", "radar", "process", "episode", "actions_hz", "hyperparams"}
        missing = required - set(data)
        if missing:
            raise ValueError(f"scenario JSON missing keys: {sorted(missing)}")
        for name in ("trajectory", "radar", "process", "episode", "hyperparams"):
            require_object(name, data[name])
        traj = _section("trajectory", data["trajectory"], TrajectoryConfig, "launch_position")
        radar = dict(data["radar"])
        radar.pop("transmit_energy", None)  # dropped field, still in older files
        radar = _section("radar", radar, RadarConfig, "position")
        process = _section("process", data["process"], ProcessModel)
        require_object("process.accel_noise_std", process["accel_noise_std"])
        for name in process["accel_noise_std"]:
            if name not in {phase.value for phase in Phase}:
                raise ValueError(f"process.accel_noise_std: unknown phase {name!r}")
        noise = {Phase(name): std for name, std in process["accel_noise_std"].items()}
        episode = dict(data["episode"])
        if episode.pop("initial_bandwidth", None) is not None:  # dropped; older files hold null
            raise ValueError("episode.initial_bandwidth: dropped field, only null loads; "
                             "a track starts at its policy's initial bandwidth")
        hyper = data["hyperparams"]
        names = [f.name for f in dataclasses.fields(Hyperparams)]
        unknown = sorted(set(hyper) - set(names))
        missing = [name for name in names if name not in hyper]
        if unknown or missing:
            raise ValueError(f"hyperparams: unknown keys {unknown}, missing keys {missing}")
        return cls(
            trajectory=TrajectoryConfig(**traj),
            radar=RadarConfig(**radar),
            process=ProcessModel(dt=process["dt"], accel_noise_std=noise),
            episode=EpisodeConfig(**_section("episode", episode, EpisodeConfig)),
            actions=ActionSet(data["actions_hz"]),
            hyperparams=Hyperparams(**hyper),
        )

    @classmethod
    def load(cls, path: str) -> "ScenarioConfig":
        return cls.from_json_dict(read_json(path, (), "scenario"))


def _section(name: str, section: dict, cls: type, point: str = "") -> dict:
    """Scenario section ``name`` as keyword arguments of ``cls``: a field left
    out takes its default, and a missing required field or a key that names
    no field fails, naming the section.  The ``point`` field, a JSON list,
    becomes a tuple."""
    section = dict(section)
    fields = dataclasses.fields(cls)
    unknown = sorted(set(section) - {f.name for f in fields})
    if unknown:
        raise ValueError(f"{name}: unknown keys {unknown}")
    for f in fields:
        if f.name not in section and f.default is f.default_factory is dataclasses.MISSING:
            raise ValueError(f"{name}: missing key {f.name!r}")
    if point in section:
        require_list(f"{name}.{point}", section[point])
        section[point] = tuple(section[point])
    return section


def default_scenario() -> ScenarioConfig:
    """Hard scenario: boosting, maneuvering target watched broadside.

    The radar sits abeam the launch azimuth so the line-of-sight speed is
    near zero at track initiation and the unmodeled thrust, gravity, and
    terminal maneuvers project increasingly into range as the flight
    develops. Wide bandwidths then gate out their own measurements during
    boost and reentry (the prediction-error floor exceeds the narrow
    window) while midcourse is safe at any bandwidth; policies that react
    to the flight phase keep the track where fixed wide ones lose it.
    """
    return ScenarioConfig(
        trajectory=TrajectoryConfig(terminal_maneuver_accel_std=12.0),
        radar=RadarConfig(
            position=(14_800.0, -17_600.0, 0.0),
            snr_ref=120.0,
            range_ref=23_000.0,
        ),
    )


def easy_scenario() -> ScenarioConfig:
    """Benign transfer scenario: gentler boost, no terminal maneuvers.

    Same radar, tracker, and protocol as the default scenario; only the
    target differs, so a Q-table trained on the default scenario can be
    evaluated here unchanged.
    """
    base = default_scenario()
    trajectory = TrajectoryConfig(
        launch_elevation_angle=1.31,
        thrust_accel=30.0,
        boost_duration=16.0,
        terminal_maneuver_accel_std=0.0,
        reentry_altitude=2_500.0,
    )
    return replace(base, trajectory=trajectory)
