#!/usr/bin/env python3
"""Regenerate the benchmark's committed inputs and reference outputs.

    python3 perfbench/make_reference.py inputs
    python3 perfbench/make_reference.py references

``inputs`` runs the README quick-start commands that make the bin edges and
the two Q-tables the workloads read (seeds below). Regenerating them changes
what every workload runs, so do it only on purpose and re-measure the
baseline. ``references`` runs each workload once per seed in
``run.REFERENCE_SEEDS`` through the benchmark's own child process, traced,
and stores its output files with the dwell count.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import subprocess
import sys

import run

INPUT_COMMANDS = (
    ("edges.json", ["calibrate", "--runs", "100", "--seed", "500"]),
    ("qlearn.json", ["train", "--policy", "qlearn", "--edges", "edges.json", "--seed", "0"]),
    ("qlearn_lookahead.json",
     ["train", "--policy", "qlearn-lookahead", "--edges", "edges.json", "--seed", "0"]),
)


def make_inputs() -> None:
    workdir = run.WORK / "make-inputs"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    for name, argv in INPUT_COMMANDS:
        subprocess.run([sys.executable, "-m", "cogradar.cli", *argv, "--out", "out"],
                       cwd=workdir, env=env, check=True)
        produced = "edges.json" if argv[0] == "calibrate" else "qtable.json"
        shutil.copyfile(workdir / "out" / produced, workdir / name)
        shutil.copyfile(workdir / name, run.INPUTS / name)
    shutil.rmtree(workdir)


def make_references() -> None:
    for name in run.WORKLOADS:
        workload = run.WORKLOADS[name]
        rundir = run.WORK / f"make-reference-{name}"
        shutil.rmtree(rundir, ignore_errors=True)
        rundir.mkdir(parents=True)
        for file in workload.inputs:
            shutil.copyfile(run.INPUTS / file, rundir / file)
        doc = {"argv": workload.cli_argv(0), "inputs": run.inputs_digest(workload), "seeds": {}}
        for seed in run.REFERENCE_SEEDS:
            rep = run.run_rep(rundir, workload.cli_argv(seed), traced=True)
            if not rep.ok:
                raise SystemExit(f"{name} seed {seed}: {rep.errors}")
            episodes = rep.report["trace"]["episodes"]
            doc["seeds"][str(seed)] = {
                "dwells": sum(e[1] for e in episodes),
                "episodes": len(episodes),
                "lost": sum(e[2] for e in episodes),
                "files": rep.outputs,
            }
            print(f"{name} seed {seed}: {doc['seeds'][str(seed)]['dwells']} dwells", flush=True)
        shutil.rmtree(rundir)
        data = json.dumps(doc, sort_keys=True).encode()
        with open(run.reference_path(name), "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", compresslevel=9, mtime=0) as handle:
                handle.write(data)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("inputs", "references"))
    args = parser.parse_args()
    if not (run.SRC / "cogradar" / "cli.py").is_file():
        raise SystemExit(f"no cogradar package under {run.SRC}")
    if args.what == "inputs":
        make_inputs()
    else:
        make_references()


if __name__ == "__main__":
    main()
