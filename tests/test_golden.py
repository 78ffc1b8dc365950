"""Golden outputs: small versions of the README quick-start commands, run
through ``cli_main`` and compared with the files under ``tests/golden/``.

On the platform recorded in ``golden_platform.json`` (Python, numpy, BLAS
and CPU model) every file must have the recorded SHA-256, that is, the
committed bytes exactly.  Elsewhere text outside numbers, integers and
strings must match exactly and floats must agree within 1e-9 relative, so a
BLAS that moves the last bits still passes.  The test prints which mode ran.
``fixed:1e7 --seed 3`` loses its track, so the trace covers the gate-miss and
lost-track path as well as the full-track one.

After an intended change to the outputs, regenerate with
``PYTHONPATH=src python tests/test_golden.py``, then rewrite the record with
``PYTHONPATH=src python tests/golden_platform.py``, and say why in
CHANGES.md.  Regenerating on another platform records that platform.
"""

from __future__ import annotations

import csv
import math
import os
import re
import shutil
import sys

from cogradar.cli import cli_main
from golden_platform import GOLDEN_DIR, golden_digests, load_record, on_recorded_platform, sha256

REL_TOL = 1e-9
_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

ROSTER = "fixed:1e6,fixed:5e6,fixed:1e7,scaling,qlearn:q/qtable.json,qlearn-lookahead:ql/qtable.json"
COMMANDS = (
    ["generate-trajectory", "--out", "truth"],
    ["calibrate", "--runs", "12", "--seed", "500", "--out", "cal"],
    ["train", "--policy", "qlearn", "--edges", "cal/edges.json",
     "--runs", "8", "--seed", "0", "--out", "q"],
    ["train", "--policy", "qlearn-lookahead", "--edges", "cal/edges.json",
     "--runs", "8", "--seed", "0", "--out", "ql"],
    ["evaluate", "--policy", "qlearn:q/qtable.json",
     "--runs", "6", "--seed", "1000", "--out", "eval"],
    ["compare", "--policy", ROSTER, "--runs", "6", "--seed", "1000", "--out", "cmp"],
    ["trace", "--policy", "scaling", "--seed", "7", "--out", "trace_scaling"],
    ["trace", "--policy", "fixed:1e7", "--seed", "3", "--out", "trace_fixed"],
)


def run_quickstart(out_dir: str) -> None:
    """Run every command with ``out_dir`` as the working directory."""
    cwd = os.getcwd()
    os.chdir(out_dir)
    try:
        for argv in COMMANDS:
            assert cli_main(argv) == 0, argv
    finally:
        os.chdir(cwd)


def output_files(root: str) -> list[str]:
    return sorted(
        os.path.relpath(os.path.join(d, name), root)
        for d, _, names in os.walk(root)
        for name in names
    )


def _same_number(expected: str, actual: str) -> bool:
    if not any(c in expected + actual for c in ".eE"):
        return int(expected) == int(actual)
    return math.isclose(float(expected), float(actual), rel_tol=REL_TOL, abs_tol=0.0)


def assert_matches(expected: str, actual: str, name: str) -> None:
    assert _NUMBER.sub("#", actual) == _NUMBER.sub("#", expected), name
    for want, got in zip(_NUMBER.findall(expected), _NUMBER.findall(actual)):
        assert _same_number(want, got), f"{name}: {got} != {want}"


def test_quickstart_outputs_match_golden(tmp_path, capsys):
    run_quickstart(str(tmp_path))
    names = output_files(GOLDEN_DIR)
    assert output_files(str(tmp_path)) == names
    exact = on_recorded_platform()
    with capsys.disabled():
        print("\ngolden: " + ("exact bytes (recorded platform)" if exact else
                              f"within {REL_TOL:g} relative (not the recorded platform)"),
              file=sys.stderr)
    if exact:
        digests = load_record()["golden"]
        for name in names:
            assert sha256((tmp_path / name).read_bytes()) == digests[name], name
    for name in names:
        with open(os.path.join(GOLDEN_DIR, name), newline="") as handle:
            expected = handle.read()
        with open(tmp_path / name, newline="") as handle:
            actual = handle.read()
        assert_matches(expected, actual, name)
    # evaluate and compare score one policy on the same seeds alike
    assert (tmp_path / "eval" / "metrics.csv").read_bytes() == (
        tmp_path / "cmp" / "metrics_qlearn_qtable.csv"
    ).read_bytes()
    with open(tmp_path / "cmp" / "summary.csv", newline="") as handle:
        summary = {row["policy"]: row for row in csv.DictReader(handle)}
    with open(tmp_path / "eval" / "histogram.csv", newline="") as handle:
        histogram = {row["bin_lo"]: row["count"] for row in csv.DictReader(handle)}
    assert summary["qlearn:q/qtable.json"]["successful_runs"] == histogram["full_track"]


def test_record_holds_the_golden_digests():
    """The record's SHA-256 are those of the committed files, one per file."""
    assert load_record()["golden"] == golden_digests()


def test_number_comparison():
    assert_matches("a,1,2.5\r\n", "a,1,2.5000000000001\r\n", "same")
    for actual in ("a,2,2.5\r\n", "a,1,2.51\r\n", "b,1,2.5\r\n", "a,1,2.5\n"):
        try:
            assert_matches("a,1,2.5\r\n", actual, "differs")
        except AssertionError:
            continue
        raise AssertionError(f"{actual!r} matched")


if __name__ == "__main__":
    shutil.rmtree(GOLDEN_DIR, ignore_errors=True)
    os.makedirs(GOLDEN_DIR)
    run_quickstart(GOLDEN_DIR)
    sys.stdout.write("\n".join(output_files(GOLDEN_DIR)) + "\n")
