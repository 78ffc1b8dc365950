#!/usr/bin/env python3
"""cogradar benchmark: three real CLI commands, timed end to end and traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload compare-roster --seed 0 --seconds 35 --trace 0

Load model: a closed loop with one client. Each repetition runs one CLI
command to completion through ``cogradar.cli.cli_main(argv)`` in a fresh
Python child process, one at a time. ``--seed`` is the CLI's ``--seed`` (the
per-run noise streams); the Q-tables and bin edges the workloads read are
committed under ``perfbench/inputs``. The first repetition is a warm-up,
traced when tracing is on or when the seed has no committed dwell count;
then repetitions run until ``--seconds`` have passed. With
``--trace 0`` every timed repetition is untraced and the end-to-end metrics
are printed; with ``--trace 1`` untraced and traced repetitions alternate and
the per-layer metrics are printed. End-to-end times are also reported as
multiples of a fixed probe that runs in an interpreter of its own before and
after each repetition (see ``probe.py``). Every repetition's outputs are checked
against the committed reference for the seed, or structurally when the seed
has none. The last stdout line is one JSON object; a fuller record, with the
environment, goes to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
INPUTS = BENCH_DIR / "inputs"
REFERENCE = BENCH_DIR / "reference"
WORK = ROOT / ".perfbench_work"
REL_TOL = 1e-9  # float tolerance for reference outputs (ROADMAP item 3)
REFERENCE_SEEDS = range(64)  # seeds with committed reference outputs
REP_TIMEOUT_S = 120.0
PROBE_TIMEOUT_S = 30.0
MIN_TIMED_REPS = 2

ROSTER = "fixed:1e6,fixed:5e6,scaling,qlearn:qlearn.json,qlearn-lookahead:qlearn_lookahead.json"


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]  # CLI arguments without --runs/--seed/--out
    runs: int
    inputs: tuple[str, ...]
    why: str

    def cli_argv(self, seed: int, runs: Optional[int] = None) -> list[str]:
        runs = self.runs if runs is None else runs
        return [*self.argv, "--runs", str(runs), "--seed", str(seed), "--out", "out"]


WORKLOADS = {
    "compare-roster": Workload(
        argv=("compare", "--policy", ROSTER),
        runs=12,
        inputs=("qlearn.json", "qlearn_lookahead.json"),
        why="frozen roster: nearly every run tracks all 160 dwells, policies only read the "
        "Q-tables and learn never runs; tracker and radar kernels dominate",
    ),
    "train-lookahead": Workload(
        argv=("train", "--policy", "qlearn-lookahead", "--edges", "edges.json"),
        runs=50,
        inputs=("edges.json",),
        why="serial epsilon-greedy training that writes the Q-table and backs each reward up "
        "L=5 pairs; the only workload where learn runs",
    ),
    "calibrate-sweep": Workload(
        argv=("calibrate",),
        runs=60,
        inputs=(),
        why="ragged episodes: runs cycle the 6 fixed bandwidths, wide ones lose the track "
        "early, and the bin edges come from pooled samples",
    ),
}

# The metrics BENCHMARK.json bounds. The CPU speed of a shared host drifts by
# tens of percent over seconds to minutes, so times are also divided by the
# like part of the probe run around the repetition (see probe.py): the
# command's time by the probe's computation, set-up by the probe's own
# interpreter start and numpy import. The ratios cancel the drift while any
# change to the program still moves them. The command's time is bounded as
# dwells_per_probe, not wall_probes: the dwell count of calibrate-sweep moves
# by about 6 % between seeds, which the throughput removes.
END_TO_END = {
    "dwells_per_probe": "1/probe",
    "setup_s": "s",
    "setup_starts": "start",
    "peak_rss_mb": "MB",
}
# Printed and recorded next to them.
ALSO_REPORTED = {
    "wall_probes": "probe",
    "wall_s": "s",
    "dwells_per_s": "1/s",
    "ops_failed_frac": "frac",
}

PER_LAYER = {
    "tracker.update.us_per_call": "us",
    "tracker.predict.us_per_call": "us",
    "tracker.gate.us_per_call": "us",
    "tracker.step_status.us_per_call": "us",
    "tracker.coast.us_per_call": "us",
    "tracker.gate.miss_frac": "frac",
    "tracker.update.discarded_frac": "frac",
    "radar.measure.us_per_call": "us",
    "radar.observe.us_per_call": "us",
    "radar.observe_jacobian.us_per_call": "us",
    "radar.observe.calls_per_dwell": "count",
    "radar.observe_jacobian.calls_per_dwell": "count",
    "policy.choose.us_per_call": "us",
    "policy.learn.us_per_call": "us",
    "policy.learn.calls": "count",
    "policy.q_update.calls_per_learn": "count",
    "policy.qtable.load_ms": "ms",
    "policy.qtable.save_ms": "ms",
    "policy.discretizer.from_samples_ms": "ms",
    "experiment.run_episode.ms_p50": "ms",
    "experiment.run_episode.ms_p90": "ms",
    "experiment.run_episode.self_us_per_dwell": "us",
    "experiment.episodes": "count",
    "experiment.dwells": "count",
    "experiment.dwells_per_episode": "count",
    "experiment.lost_frac": "frac",
    "experiment.metrics.ms": "ms",
    "experiment.csv.ms": "ms",
    "trajectory.generate.ms": "ms",
    "config.load_scenario.ms": "ms",
    "cli.main.self_ms": "ms",
    "trace.overhead_frac": "frac",
    "trace.hooks_absent": "count",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no package, no inputs)."""


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------


@dataclass
class Rep:
    traced: bool
    warmup: bool
    ok: bool
    errors: list
    setup_s: float = math.nan
    wall_s: float = math.nan
    probe_s: float = math.nan
    start_s: float = math.nan
    peak_rss_mb: float = math.nan
    report: Optional[dict] = None
    outputs: Optional[dict] = None  # file name -> text
    timed_out: bool = False


def run_probe() -> tuple[float, float]:
    """Start-up seconds (spawn to numpy imported) and compute seconds of the
    fixed probe, in a fresh interpreter that never imports cogradar."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "probe.py")], cwd=BENCH_DIR,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        started = proc.stdout.readline()
        start_s = time.perf_counter() - start
        stdout, stderr = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SetupError(f"the probe took more than {PROBE_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if started.strip() != "started" or proc.returncode != 0:
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        raise SetupError(f"the probe exited {proc.returncode}: {tail}")
    return start_s, float(stdout)


def run_rep(rundir: Path, argv: list[str], traced: bool, warmup: bool = False) -> Rep:
    """Spawn one child, time its set-up from outside, collect its outputs."""
    shutil.rmtree(rundir / "out", ignore_errors=True)
    report_path = rundir / "report.json"
    report_path.unlink(missing_ok=True)
    spec = {"src": str(SRC), "argv": argv, "trace": traced, "report": str(report_path)}
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=rundir, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        _, stderr = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Rep(traced, warmup, False, [f"timed out after {REP_TIMEOUT_S} s"], timed_out=True)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    rep = Rep(traced, warmup, False, [], setup_s=setup_s)
    if ready.strip() != "ready" or proc.returncode != 0 or not report_path.exists():
        tail = stderr.strip().splitlines()[-3:]
        rep.errors.append(f"child exited {proc.returncode}: {' | '.join(tail)}")
        return rep
    rep.report = json.loads(report_path.read_text())
    rep.wall_s = rep.report["wall_s"]
    rep.peak_rss_mb = rep.report["peak_rss_mb"]
    if not Path(rep.report["cogradar"]).is_relative_to(SRC):
        rep.errors.append(f"imported cogradar from {rep.report['cogradar']}, not {SRC}")
    out = rundir / "out"
    rep.outputs = {p.name: p.read_text() for p in sorted(out.iterdir())} if out.is_dir() else {}
    rep.ok = not rep.errors
    return rep


# ---------------------------------------------------------------------------
# Reference-output check
# ---------------------------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reference_path(workload: str) -> Path:
    return REFERENCE / f"{workload}.json.gz"


def inputs_digest(workload: Workload) -> dict:
    return {name: sha256((INPUTS / name).read_text()) for name in workload.inputs}


def load_reference(name: str, workload: Workload, seed: int, runs: int) -> Optional[dict]:
    """The committed outputs for this seed, if they were made for this exact
    command and these inputs."""
    path = reference_path(name)
    if not path.exists():
        return None
    with gzip.open(path, "rt") as handle:
        doc = json.load(handle)
    if doc["argv"] != workload.cli_argv(0, runs) or doc["inputs"] != inputs_digest(workload):
        return None
    return doc["seeds"].get(str(seed))


def _compare_values(actual, expected, where: str, errors: list) -> None:
    if isinstance(expected, (bool, str)) or expected is None:
        if actual != expected:
            errors.append(f"{where}: {actual!r} != {expected!r}")
    elif isinstance(expected, int):
        if type(actual) is not int or actual != expected:
            errors.append(f"{where}: {actual!r} != {expected!r} (integer)")
    elif isinstance(expected, float):
        if type(actual) not in (int, float) or not math.isclose(
            actual, expected, rel_tol=REL_TOL, abs_tol=0.0
        ):
            errors.append(f"{where}: {actual!r} != {expected!r} (rel tol {REL_TOL})")
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            errors.append(f"{where}: length differs")
            return
        for i, (a, e) in enumerate(zip(actual, expected)):
            _compare_values(a, e, f"{where}[{i}]", errors)
    elif isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            errors.append(f"{where}: keys differ")
            return
        for key in expected:
            _compare_values(actual[key], expected[key], f"{where}.{key}", errors)
    else:
        errors.append(f"{where}: unexpected reference value {expected!r}")


def _csv_cell(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def parse_output(name: str, text: str):
    """JSON outputs as documents; CSV outputs as rows of typed cells, so
    integers compare exactly and floats within REL_TOL."""
    if name.endswith(".json"):
        return json.loads(text)
    return [[_csv_cell(cell) for cell in row] for row in csv.reader(io.StringIO(text))]


def check_against_reference(outputs: dict, reference: dict) -> list[str]:
    errors: list[str] = []
    if set(outputs) != set(reference):
        return [f"output files {sorted(outputs)} != reference {sorted(reference)}"]
    for name, expected in reference.items():
        try:
            actual = parse_output(name, outputs[name])
        except ValueError as exc:
            errors.append(f"{name}: unreadable ({exc})")
            continue
        mismatches: list[str] = []
        _compare_values(actual, parse_output(name, expected), name, mismatches)
        if mismatches:
            errors.append(f"{mismatches[0]}; {len(mismatches)} mismatches in {name}")
    return errors


def check_structure(name: str, outputs: dict, runs: int) -> list[str]:
    """Fallback at a seed without a committed reference: file set, headers,
    row counts and table shapes."""
    errors: list[str] = []
    try:
        docs = {file: parse_output(file, text) for file, text in outputs.items()}
    except ValueError as exc:
        return [f"unreadable output: {exc}"]
    if name == "compare-roster":
        summary = docs.get("summary.csv")
        if not summary or summary[0] != ["policy", "n_runs", "successful_runs",
                                         "mean_windowed_min_mse"]:
            return ["summary.csv missing or with the wrong header"]
        if len(summary) != 1 + len(ROSTER.split(",")):
            errors.append("summary.csv: one row per roster policy expected")
        for row in summary[1:]:
            if (len(row) != 4 or row[1] != runs or type(row[2]) is not int
                    or not 0 <= row[2] <= runs):
                errors.append(f"summary.csv: bad run counts in {row}")
        metrics = [f for f in docs if f.startswith("metrics_")]
        if len(metrics) != len(ROSTER.split(",")):
            errors.append(f"expected one metrics file per policy, got {metrics}")
        for file in metrics:
            if len(docs[file]) < 2 or docs[file][0] != ["step", "mean_windowed_min_mse"]:
                errors.append(f"{file}: wrong header or no rows")
    elif name == "train-lookahead":
        table = docs.get("qtable.json")
        if table is None:
            return ["qtable.json missing"]
        values = table.get("values", [])
        if table.get("L") != 5 or len(values) != 80 or any(len(row) != 6 for row in values):
            errors.append("qtable.json: expected L=5 and an 80x6 table")
    else:
        edges = docs.get("edges.json")
        if edges is None:
            return ["edges.json missing"]
        if len(edges.get("pred_var_edges", [])) != 9 or len(edges.get("meas_var_edges", [])) != 7:
            errors.append("edges.json: expected 9 and 7 edges")
    return errors


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def wall_probes(reps: list[Rep]) -> float:
    return statistics.median(r.wall_s / r.probe_s for r in reps)


def end_to_end(timed: list[Rep], dwells: Optional[int]) -> dict:
    """Medians over the timed repetitions; without a dwell count the two
    throughputs are left out."""
    wall = statistics.median(r.wall_s for r in timed)
    metrics = {
        "wall_probes": wall_probes(timed),
        "setup_s": statistics.median(r.setup_s for r in timed),
        "setup_starts": statistics.median(r.setup_s / r.start_s for r in timed),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in timed),
        "wall_s": wall,
    }
    if dwells:
        metrics.update(dwells_per_probe=dwells / metrics["wall_probes"],
                       dwells_per_s=dwells / wall)
    return metrics


def per_layer(traced: list[Rep], untraced: list[Rep]) -> tuple[dict, list[str]]:
    """Pool the traced repetitions' spans; per-run quantities are means over
    the traced repetitions. Also returns the hook targets that were absent."""
    n = len(traced)
    spans: dict[str, list] = {}
    episodes: list = []
    counts = {"gate_calls": 0, "gate_misses": 0, "updates_discarded": 0}
    absent: set = set()
    for rep in traced:
        trace = rep.report["trace"]
        for span, (calls, total, own) in trace["spans"].items():
            acc = spans.setdefault(span, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        episodes.extend(trace["episodes"])
        for key in counts:
            counts[key] += trace[key]
        absent.update(trace["absent"])

    def calls(span):
        return spans.get(span, [0, 0.0, 0.0])[0]

    def us_per_call(span):
        c, _, own = spans.get(span, [0, 0.0, 0.0])
        return own / c * 1e6 if c else 0.0

    def ms_per_run(span):
        return spans.get(span, [0, 0.0, 0.0])[2] / n * 1e3

    def ratio(a, b):
        return a / b if b else 0.0

    dwells = sum(e[1] for e in episodes)
    episode_ms = sorted(e[0] * 1e3 for e in episodes)
    deciles = statistics.quantiles(episode_ms, n=10) if len(episode_ms) > 1 else episode_ms * 9
    episode_self = spans.get("experiment.run_episode", [0, 0.0, 0.0])[2]
    return {
        "tracker.update.us_per_call": us_per_call("tracker.update"),
        "tracker.predict.us_per_call": us_per_call("tracker.predict"),
        "tracker.gate.us_per_call": us_per_call("tracker.gate"),
        "tracker.step_status.us_per_call": us_per_call("tracker.step_status"),
        "tracker.coast.us_per_call": us_per_call("tracker.coast"),
        "tracker.gate.miss_frac": ratio(counts["gate_misses"], counts["gate_calls"]),
        "tracker.update.discarded_frac": ratio(counts["updates_discarded"],
                                               calls("tracker.update")),
        "radar.measure.us_per_call": us_per_call("radar.measure"),
        "radar.observe.us_per_call": us_per_call("radar.observe"),
        "radar.observe_jacobian.us_per_call": us_per_call("radar.observe_jacobian"),
        "radar.observe.calls_per_dwell": ratio(calls("radar.observe"), dwells),
        "radar.observe_jacobian.calls_per_dwell": ratio(calls("radar.observe_jacobian"), dwells),
        "policy.choose.us_per_call": us_per_call("policy.choose"),
        "policy.learn.us_per_call": us_per_call("policy.learn"),
        "policy.learn.calls": calls("policy.learn") / n,
        "policy.q_update.calls_per_learn": ratio(calls("policy.q_update"), calls("policy.learn")),
        "policy.qtable.load_ms": ms_per_run("policy.qtable.load"),
        "policy.qtable.save_ms": ms_per_run("policy.qtable.save"),
        "policy.discretizer.from_samples_ms": ms_per_run("policy.discretizer.from_samples"),
        "experiment.run_episode.ms_p50": statistics.median(episode_ms) if episode_ms else 0.0,
        "experiment.run_episode.ms_p90": deciles[8] if episode_ms else 0.0,
        "experiment.run_episode.self_us_per_dwell": ratio(episode_self, dwells) * 1e6,
        "experiment.episodes": len(episodes) / n,
        "experiment.dwells": dwells / n,
        "experiment.dwells_per_episode": ratio(dwells, len(episodes)),
        "experiment.lost_frac": ratio(sum(e[2] for e in episodes), len(episodes)),
        "experiment.metrics.ms": ms_per_run("experiment.metrics"),
        "experiment.csv.ms": ms_per_run("experiment.csv"),
        "trajectory.generate.ms": ms_per_run("trajectory.generate"),
        "config.load_scenario.ms": ms_per_run("config.load_scenario"),
        "cli.main.self_ms": ms_per_run("cli.main"),
        "trace.overhead_frac": wall_probes(traced) / wall_probes(untraced) - 1.0,
        "trace.hooks_absent": float(len(absent)),
    }, sorted(absent)


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout read from .git directly; the benchmark may run in
    an export that is not a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, child_env: dict) -> dict:
    return {
        "nproc": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count()),
        "cpu_model": cpu_model(),
        "python": child_env.get("python"),
        "numpy": child_env.get("numpy"),
        "blas": child_env.get("blas", {}).get("name"),
        "blas_version": child_env.get("blas", {}).get("version"),
        "blas_threads": child_env.get("blas", {}).get("threads"),
        "git_commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------


def check_checkout(workload: Workload) -> None:
    if not (SRC / "cogradar" / "cli.py").is_file():
        raise SetupError(f"no cogradar package under {SRC}")
    for name in workload.inputs:
        if not (INPUTS / name).is_file():
            raise SetupError(f"missing benchmark input {INPUTS / name}")


def run(name: str, seed: int, seconds: float, trace: bool, runs: Optional[int] = None) -> dict:
    """Run one workload; returns the full result record."""
    workload = WORKLOADS[name]
    runs = workload.runs if runs is None else runs
    check_checkout(workload)
    argv = workload.cli_argv(seed, runs)
    reference = load_reference(name, workload, seed, runs)
    rundir = WORK / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    for file in workload.inputs:
        shutil.copyfile(INPUTS / file, rundir / file)

    reps: list[Rep] = []
    hashes: dict[str, set] = {}
    probes: list[tuple] = []  # probes[i] runs just before reps[i], probes[i + 1] just after

    def attempt(traced: bool, warmup: bool = False) -> Rep:
        rep = run_rep(rundir, argv, traced, warmup)
        probes.append(run_probe())
        rep.start_s = 0.5 * (probes[-2][0] + probes[-1][0])
        rep.probe_s = 0.5 * (probes[-2][1] + probes[-1][1])
        if rep.ok:
            if reference is not None:
                rep.errors += check_against_reference(rep.outputs, reference["files"])
            else:
                rep.errors += check_structure(name, rep.outputs, runs)
            rep.ok = not rep.errors
            for file, text in rep.outputs.items():
                hashes.setdefault(file, set()).add(sha256(text))
        reps.append(rep)
        return rep

    try:
        probes.append(run_probe())
        # The hooks count dwells only at a seed without a committed reference.
        attempt(traced=trace or reference is None, warmup=True)
        start = time.perf_counter()
        timed = 0
        while timed < MIN_TIMED_REPS or time.perf_counter() - start < seconds:
            if attempt(traced=trace and timed % 2 == 1).timed_out:
                break
            timed += 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    good = [r for r in reps if r.ok]
    untraced = [r for r in good if not r.traced and not r.warmup]
    traced_reps = [r for r in good if r.traced and not r.warmup] or [r for r in good if r.traced]
    failed = sum(not r.ok for r in reps)
    if not untraced or (trace and not traced_reps):
        raise SetupError("no successful timed repetition: "
                         + "; ".join(str(r.errors) for r in reps if not r.ok))
    if reference is not None:
        dwells = reference["dwells"]
    elif traced_reps:
        dwells = per_layer(traced_reps, untraced)[0]["experiment.dwells"] or None
    else:
        dwells = None
    env = environment(seed, good[0].report["env"])
    result = {
        "workload": name,
        "why": workload.why,
        "argv": argv,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "reference": (f"committed reference for seed {seed}" if reference is not None
                      else f"structural checks only: no committed reference for seed {seed}"),
        "attempted": len(reps),
        "failed": failed,
        "errors": [e for r in reps for e in r.errors],
        "dwells": dwells,
        "unavailable": ({} if dwells else {"dwells_per_probe": (
            f"no committed dwell count for seed {seed} and no run_episode trace")}),
        "outputs_sha256": {file: sorted(h) for file, h in sorted(hashes.items())},
        "reference_sha256": ({file: sha256(text) for file, text in reference["files"].items()}
                             if reference is not None else None),
        "samples": [{"traced": r.traced, "warmup": r.warmup, "ok": r.ok, "setup_s": r.setup_s,
                     "start_s": r.start_s, "wall_s": r.wall_s, "probe_s": r.probe_s,
                     "peak_rss_mb": r.peak_rss_mb}
                    for r in reps],
    }
    also = {"ops_failed_frac": failed / len(reps)}
    if trace:
        metrics, absent = per_layer(traced_reps, untraced)
        result["hooks_absent"] = absent
        units = PER_LAYER
    else:
        metrics = end_to_end(untraced, dwells)
        units = END_TO_END
        also.update((key, metrics[key]) for key in ("wall_probes", "wall_s", "dwells_per_s")
                    if key in metrics)
    result["metrics"] = {key: {"value": metrics[key], "unit": unit}
                         for key, unit in units.items() if key in metrics}
    result["also_reported"] = {key: {"value": value, "unit": ALSO_REPORTED[key]}
                               for key, value in also.items()}
    return result


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")

    env = result["environment"]
    print(f"workload {args.workload}: {result['reference']}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if result.get("hooks_absent"):
        print("hooks absent: " + ", ".join(result["hooks_absent"]))
    for error in result["errors"]:
        print(f"FAILED: {error}")
    for key, why in result["unavailable"].items():
        print(f"unavailable: {key}: {why}")
    for key, metric in [*result["metrics"].items(), *result["also_reported"].items()]:
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
