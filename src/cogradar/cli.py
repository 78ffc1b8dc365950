"""Command-line front end.

Subcommands cover the full experiment lifecycle: generate-trajectory,
calibrate, train, evaluate, compare, and trace. Every output file is
written atomically.  Run i of every campaign draws its noise from
--seed + i.  train runs its learning episodes one by one through
``experiment.seeded_run``; evaluate, compare, calibrate and trace hand all
their frozen runs to one lockstep call of ``experiment.seeded_runs``.  So any
invocation is reproducible byte for byte, a trace is lane 0 of the call a
one-run evaluate at the same --seed makes, and a failed run names its index
and seed.

Every command that runs episodes builds one truth side, from the scenario's
episode seed, not from --seed: policies evaluated under different noise
seeds still fly against the same target, and a trajectory too short for
--transmissions fails before any run.  The exception is
generate-trajectory, whose output is the truth itself: --seed seeds it.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

from .config import ScenarioConfig, default_scenario
from .experiment import (
    calibrate_discretizer,
    campaign_truth,
    evaluate,
    overall_windowed_mse,
    save_histogram_csv,
    save_metrics_csv,
    save_run_csv,
    seeded_runs,
    train_qlearning,
)
from .fileio import write_csv
from .policy import (
    BandwidthScalingPolicy,
    Discretizer,
    FixedPolicy,
    Policy,
    QLearningPolicy,
    QTable,
)
from .trajectory import generate_trajectory, save_trajectory_csv

POLICY_NAMES = ("fixed", "scaling", "qlearn", "qlearn-lookahead")
TRAINABLE_POLICY_NAMES = ("qlearn", "qlearn-lookahead")
SUMMARY_CSV_HEADER = ["policy", "n_runs", "successful_runs", "mean_windowed_min_mse"]
SUMMARY_LINE = "{0}: {2}/{1} full tracks, windowed-min MSE {3:.6g} m^2"  # one row, on stdout
DEFAULT_TRAIN_RUNS = 200
DEFAULT_EVAL_RUNS = 100
DEFAULT_CALIBRATE_RUNS = 100


class UsageError(Exception):
    """Bad invocation that argparse cannot catch (exit code 1)."""


@dataclass(frozen=True)
class PolicySpec:
    """One `name[:param]` item from --policy."""

    name: str
    param: Optional[str] = None

    @classmethod
    def parse(cls, text: str) -> "PolicySpec":
        name, _, param = text.partition(":")
        if name not in POLICY_NAMES:
            raise UsageError(
                f"unknown policy {name!r}; choose from {', '.join(POLICY_NAMES)}"
            )
        return cls(name=name, param=param or None)

    def __str__(self) -> str:
        return self.name if self.param is None else f"{self.name}:{self.param}"


def _load_scenario(args: argparse.Namespace) -> ScenarioConfig:
    scenario = (
        default_scenario() if args.config is None else ScenarioConfig.load(args.config)
    )
    if args.transmissions is not None:
        scenario = replace(
            scenario,
            episode=replace(scenario.episode, n_transmissions=args.transmissions),
        )
    return scenario


def _base_seed(args: argparse.Namespace, scenario: ScenarioConfig) -> int:
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    return args.seed if args.seed is not None else scenario.episode.seed


def _truth(scenario: ScenarioConfig):
    """The command's one truth side, which every campaign it runs reads."""
    trajectory = generate_trajectory(scenario.trajectory, seed=scenario.episode.seed)
    return campaign_truth(trajectory, scenario.radar, scenario.episode)


def _models(scenario: ScenarioConfig) -> tuple:
    """The process and miss-limit arguments of every campaign."""
    return scenario.process, scenario.episode.miss_limit


def _load_table(path: str, scenario: ScenarioConfig, name: str) -> QTable:
    """Load a Q-table that fits the scenario's actions and the policy's depth."""
    table = QTable.load(path)
    if table.actions != scenario.actions:
        raise ValueError(
            f"Q-table {path}: actions_hz {list(table.actions.bandwidths)} differ "
            f"from the scenario's actions_hz {list(scenario.actions.bandwidths)}"
        )
    if (table.hyperparams.L > 1) != (name == "qlearn-lookahead"):
        raise UsageError(
            f"Q-table {path} has L={table.hyperparams.L}, which does not fit "
            f"--policy {name} (qlearn needs L = 1, qlearn-lookahead L > 1)"
        )
    return table


def _build_policy(
    spec: PolicySpec, scenario: ScenarioConfig, qtable_path: Optional[str]
) -> Policy:
    radar = scenario.radar
    if spec.name == "fixed":
        if spec.param is None:
            raise UsageError("fixed policy needs a bandwidth, e.g. fixed:1e6")
        try:
            bandwidth = float(spec.param)
        except ValueError:
            raise UsageError(f"fixed policy bandwidth is not a number: {spec.param!r}")
        try:
            return FixedPolicy(bandwidth, radar.min_bw, radar.max_bw)
        except ValueError as exc:
            raise UsageError(str(exc))
    if spec.name == "scaling":
        if spec.param is not None:
            raise UsageError("scaling policy takes no parameter")
        return BandwidthScalingPolicy(radar.min_bw, radar.max_bw)
    path = spec.param or qtable_path
    if path is None:
        raise UsageError(f"{spec.name} needs a Q-table: {spec.name}:PATH or --qtable PATH")
    if not os.path.isfile(path):
        raise FileNotFoundError(f"Q-table file not found: {path}")
    return QLearningPolicy(_load_table(path, scenario, spec.name), epsilon=0.0)


def _slug(spec: PolicySpec) -> str:
    if spec.param is None:
        base = spec.name
    elif spec.name in TRAINABLE_POLICY_NAMES:
        stem = os.path.splitext(os.path.basename(spec.param))[0]
        base = f"{spec.name}_{stem}"
    else:
        base = f"{spec.name}_{spec.param}"
    return re.sub(r"[^A-Za-z0-9._-]+", "_", base)


def _out_path(args: argparse.Namespace, filename: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, filename)


def _cmd_generate_trajectory(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    seed = _base_seed(args, scenario)
    trajectory = generate_trajectory(scenario.trajectory, seed=seed)
    path = _out_path(args, "trajectory.csv")
    save_trajectory_csv(trajectory, path)
    print(f"wrote {path} ({len(trajectory)} samples)")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    discretizer = calibrate_discretizer(
        _truth(scenario), *_models(scenario), n_runs=args.runs,
        base_seed=_base_seed(args, scenario), actions=scenario.actions)
    path = _out_path(args, "edges.json")
    discretizer.save(path)
    print(f"wrote {path}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    spec = args.policy[0]
    if spec.name not in TRAINABLE_POLICY_NAMES:
        raise UsageError("train expects one policy: qlearn or qlearn-lookahead")
    if spec.param is not None:
        raise UsageError("pass the warm-start table via --qtable, not in --policy")
    if args.qtable is not None and args.edges is not None:
        raise UsageError("--edges with --qtable: a warm start keeps the table's edges")
    scenario = _load_scenario(args)
    truth = _truth(scenario)
    base_seed = _base_seed(args, scenario)
    if args.qtable is not None:
        table = _load_table(args.qtable, scenario, spec.name)
    else:
        if args.edges is not None:
            discretizer = Discretizer.load(args.edges)
        else:
            # self-contained default: pilot calibration on a disjoint seed stream
            discretizer = calibrate_discretizer(
                truth, *_models(scenario), n_runs=DEFAULT_CALIBRATE_RUNS,
                base_seed=base_seed + 1_000_000, actions=scenario.actions)
        table = scenario.new_table(
            discretizer, lookahead=spec.name == "qlearn-lookahead"
        )
    train_qlearning(truth, table, *_models(scenario), n_runs=args.runs,
                    base_seed=base_seed)
    path = _out_path(args, "qtable.json")
    table.save(path)
    print(f"wrote {path} after {args.runs} training runs")
    return 0


def _score(args: argparse.Namespace, scenario: ScenarioConfig) -> Iterator[tuple]:
    """Evaluate each --policy on --runs seeded runs, computing every number
    before anything is written, so a failure leaves no file.  Yields, per
    policy, the runs, the per-step windowed-min MSE and the summary row:
    the policy, the runs, the full tracks and the overall windowed-min MSE."""
    # build every policy first, so a bad spec fails before any run
    policies = [_build_policy(spec, scenario, args.qtable) for spec in args.policy]
    scores = evaluate(_truth(scenario), policies, *_models(scenario), n_runs=args.runs,
                      base_seed=_base_seed(args, scenario))
    for spec, (runs, per_step) in zip(args.policy, scores):
        full_tracks = runs.lost_at.count(None)
        yield runs, per_step, (str(spec), args.runs, full_tracks, overall_windowed_mse(runs))


def _cmd_evaluate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    [(runs, per_step, row)] = _score(args, scenario)
    metrics_path = _out_path(args, "metrics.csv")
    histogram_path = _out_path(args, "histogram.csv")
    save_metrics_csv(per_step, metrics_path)
    save_histogram_csv(runs, scenario.episode.n_transmissions, histogram_path)
    print(f"wrote {metrics_path} and {histogram_path}")
    print(SUMMARY_LINE.format(*row))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    scores = [(per_step, row) for _, per_step, row in _score(args, _load_scenario(args))]
    used: set[str] = set()
    for spec, (per_step, _) in zip(args.policy, scores):
        base = slug = _slug(spec)
        n = 0
        while slug in used:  # a suffixed slug may itself be another's slug
            n += 1
            slug = f"{base}_{n}"
        used.add(slug)
        save_metrics_csv(per_step, _out_path(args, f"metrics_{slug}.csv"))
    rows = [row for _, row in scores]
    summary_path = _out_path(args, "summary.csv")
    write_csv(summary_path, SUMMARY_CSV_HEADER, rows)
    print(f"wrote {summary_path} and {len(rows)} per-policy metrics files")
    for row in rows:
        print("  " + SUMMARY_LINE.format(*row))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    policy = _build_policy(args.policy[0], scenario, args.qtable)
    run = seeded_runs([policy], [0], _base_seed(args, scenario), _truth(scenario),
                      *_models(scenario))
    path = _out_path(args, "trace.csv")
    save_run_csv(run, scenario.hyperparams.C, path)
    status = "full track" if run.successful else f"lost at step {run.lost_at[0]}"
    print(f"wrote {path} ({len(run.records)} steps, {status})")
    return 0


_COMMANDS = {
    "generate-trajectory": _cmd_generate_trajectory,
    "calibrate": _cmd_calibrate,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
    "trace": _cmd_trace,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cogradar",
        description="Adaptive radar bandwidth selection against a ballistic target.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="scenario JSON (default: built-in hard scenario)")
        p.add_argument("--seed", type=int, metavar="N", help="base seed for run noise (default: scenario episode seed)")
        p.add_argument("--out", metavar="DIR", default=".", help="output directory, created if missing (default: .)")
        p.add_argument("--transmissions", type=int, metavar="N", help="override transmissions per run")

    p = sub.add_parser("generate-trajectory", help="write the truth trajectory CSV")
    common(p)

    p = sub.add_parser("calibrate", help="pilot runs -> discretizer edges JSON")
    common(p)
    p.add_argument("--runs", type=int, metavar="N", default=DEFAULT_CALIBRATE_RUNS, help="pilot runs (default: %(default)s)")

    p = sub.add_parser("train", help="train a Q-table, write qtable.json")
    common(p)
    p.add_argument("--policy", metavar="NAME", default="qlearn", help="qlearn or qlearn-lookahead (default: qlearn)")
    p.add_argument("--qtable", metavar="PATH", help="warm-start from an existing table")
    p.add_argument("--edges", metavar="PATH", help="discretizer edges JSON from calibrate (default: internal pilot calibration)")
    p.add_argument("--runs", type=int, metavar="N", default=DEFAULT_TRAIN_RUNS, help="training episodes (default: %(default)s)")

    p = sub.add_parser("evaluate", help="frozen-policy evaluation -> metrics.csv + histogram.csv")
    common(p)
    p.add_argument("--policy", metavar="SPEC", required=True, help="fixed:BW_HZ | scaling | qlearn[:PATH] | qlearn-lookahead[:PATH]")
    p.add_argument("--qtable", metavar="PATH", help="Q-table for qlearn policies")
    p.add_argument("--runs", type=int, metavar="N", default=DEFAULT_EVAL_RUNS, help="evaluation runs (default: %(default)s)")

    p = sub.add_parser("compare", help="evaluate a comma-separated policy list on shared seeds")
    common(p)
    p.add_argument("--policy", metavar="SPECS", required=True, help="comma-separated policy specs, e.g. fixed:1e6,scaling,qlearn:qtable.json")
    p.add_argument("--qtable", metavar="PATH", help="Q-table for qlearn policies without an inline path")
    p.add_argument("--runs", type=int, metavar="N", default=DEFAULT_EVAL_RUNS, help="evaluation runs per policy (default: %(default)s)")

    p = sub.add_parser("trace", help="single seeded run -> per-step trace.csv")
    common(p)
    p.add_argument("--policy", metavar="SPEC", required=True, help="policy spec, as in evaluate")
    p.add_argument("--qtable", metavar="PATH", help="Q-table for qlearn policies")

    return parser


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if getattr(args, "policy", None) is not None:
            args.policy = tuple(
                PolicySpec.parse(item) for item in args.policy.split(",") if item
            )
            if not args.policy:
                raise UsageError("--policy must name at least one policy")
            if len(args.policy) > 1 and args.command != "compare":
                raise UsageError(
                    f"{args.command} takes one policy; only compare takes a list"
                )
        for label, path in (
            ("config", args.config),
            ("Q-table", getattr(args, "qtable", None)),
            ("edges", getattr(args, "edges", None)),
        ):
            if path is not None and not os.path.isfile(path):
                raise FileNotFoundError(f"{label} file not found: {path}")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"cogradar: error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cogradar: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
