"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs each workload once in each mode with a handful of episodes and checks
that every named metric is emitted with its unit, that the reference check
rejects a float perturbed past its tolerance, and that a hook whose target is
gone is reported instead of failing the traced run.
"""

from __future__ import annotations

import gzip
import json
import math
import sys

import pytest

import run

TINY_RUNS = {"compare-roster": 1, "train-lookahead": 2, "calibrate-sweep": 6}


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_emitted_with_unit(workload, trace):
    result = run.run(workload, seed=0, seconds=0, trace=trace, runs=TINY_RUNS[workload])
    assert result["failed"] == 0, result["errors"]
    assert result["reference"].startswith("structural")
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    also = ["ops_failed_frac"] + ([] if trace else ["wall_probes", "wall_s", "dwells_per_s"])
    assert sorted(result["also_reported"]) == sorted(also)
    for name, metric in [*result["metrics"].items(), *result["also_reported"].items()]:
        assert metric["unit"] == {**expected, **run.ALSO_REPORTED}[name]
        assert math.isfinite(metric["value"]), name
    env = result["environment"]
    for key in ("nproc", "cpu_model", "python", "numpy", "blas", "blas_threads",
                "git_commit", "seed"):
        assert env[key] is not None, key
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["radar.observe_jacobian.calls_per_dwell"] == 2.0
        assert metrics["tracker.update.discarded_frac"] == metrics["tracker.gate.miss_frac"]
        assert (metrics["policy.learn.calls"] > 0) == (workload == "train-lookahead")


def test_end_to_end_without_dwell_count():
    rep = run.Rep(traced=False, warmup=False, ok=True, errors=[], setup_s=0.3, wall_s=2.0,
                  probe_s=0.25, start_s=0.2, peak_rss_mb=40.0)
    metrics = run.end_to_end([rep], dwells=None)
    assert "dwells_per_probe" not in metrics and "dwells_per_s" not in metrics
    assert metrics["wall_probes"] == 8.0 and metrics["setup_starts"] == pytest.approx(1.5)


def _committed(workload: str) -> dict:
    with gzip.open(run.reference_path(workload), "rt") as handle:
        doc = json.load(handle)
    return doc["seeds"]["0"]["files"]


def _perturb_first_float(text: str, factor: float) -> str:
    """Scale the first non-integer number in the text by ``factor``."""
    for token in text.replace(",", " ").replace("\n", " ").split():
        token = token.strip("[]")
        try:
            value = float(token)
        except ValueError:
            continue
        if "." in token and value != 0.0:
            return text.replace(token, repr(value * factor), 1)
    raise AssertionError("no float to perturb")


@pytest.mark.parametrize(
    "workload, file",
    [("compare-roster", "metrics_scaling.csv"), ("compare-roster", "summary.csv"),
     ("train-lookahead", "qtable.json"), ("calibrate-sweep", "edges.json")],
)
def test_reference_check_rejects_perturbed_float(workload, file):
    reference = _committed(workload)
    assert run.check_against_reference(dict(reference), reference) == []
    within = dict(reference, **{file: _perturb_first_float(reference[file], 1 + 1e-12)})
    assert run.check_against_reference(within, reference) == []
    past = dict(reference, **{file: _perturb_first_float(reference[file], 1 + 1e-8)})
    errors = run.check_against_reference(past, reference)
    assert len(errors) == 1 and errors[0].startswith(file)


def test_integer_fields_must_match_exactly():
    reference = _committed("compare-roster")
    lines = reference["summary.csv"].splitlines()
    fields = lines[1].split(",")
    fields[2] = str(int(fields[2]) - 1)  # successful_runs
    changed = "\n".join([lines[0], ",".join(fields), *lines[2:]]) + "\n"
    errors = run.check_against_reference(dict(reference, **{"summary.csv": changed}), reference)
    assert len(errors) == 1 and "integer" in errors[0]


def test_absent_hook_is_reported(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    import hooks

    monkeypatch.setattr(hooks, "HOOKS", (
        ("cogradar.tracker", "no_such_kernel", "tracker.gone"),
        ("cogradar.policy", "NoSuchPolicy.choose", "policy.choose"),
        ("cogradar.no_such_module", "run", "gone"),
        ("cogradar.tracker", "gate", "tracker.gate"),
    ))
    tracer = hooks.Tracer()
    import cogradar.tracker as tracker

    original = tracker.gate
    try:
        tracer.install()
        assert tracer.absent == ["cogradar.tracker.no_such_kernel",
                                 "cogradar.policy.NoSuchPolicy.choose",
                                 "cogradar.no_such_module.run"]
        assert tracker.gate is not original
    finally:
        tracker.gate = original
        sys.modules.pop("hooks", None)
