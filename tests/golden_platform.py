"""The platform that wrote the golden files, and the SHA-256 of their bytes.

``golden_platform.json``, beside ``golden/``, records the Python, numpy and
BLAS versions, the C library (whose libm ``pow`` squares the noise model's
sigmas) and the CPU model of the machine that wrote the files under
``golden/``.  With them it keeps the SHA-256 of each of those files and of
the six Q-tables (``values.tobytes()``) that ``test_acceptance.py`` trains.
On that platform the tests require these exact bytes.  Elsewhere another
CPU, BLAS or libm may move the last bits, and ``test_golden.py`` compares
within 1e-9 relative instead.

After regenerating the golden files (see ``test_golden.py``), rewrite the
record on the platform that wrote them:

    PYTHONPATH=src python tests/golden_platform.py
"""

from __future__ import annotations

import hashlib
import json
import os
import platform

import numpy as np

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(TESTS_DIR, "golden")
RECORD_PATH = os.path.join(TESTS_DIR, "golden_platform.json")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas() -> tuple[str, str]:
    """Name and version of the BLAS numpy was built with (numpy >= 1.25)."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return str(info.get("name")), str(info.get("version"))
    except (TypeError, KeyError, AttributeError):
        return "unknown", "unknown"


def this_platform() -> dict:
    name, version = blas()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": name, "blas_version": version, "libc": " ".join(platform.libc_ver()),
            "cpu_model": cpu_model()}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_record() -> dict:
    with open(RECORD_PATH) as handle:
        return json.load(handle)


def on_recorded_platform() -> bool:
    return this_platform() == load_record()["platform"]


def golden_digests() -> dict:
    """SHA-256 of every file under ``golden/``, by its path there."""
    digests = {}
    for directory, _, names in os.walk(GOLDEN_DIR):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                digests[os.path.relpath(path, GOLDEN_DIR)] = sha256(handle.read())
    return dict(sorted(digests.items()))


def trained_digests(tables: dict) -> dict:
    """SHA-256 of each acceptance table's values, by training seed and learner."""
    return {f"{seed}-{'lookahead' if lookahead else 'qlearn'}": sha256(table.values.tobytes())
            for (seed, lookahead), table in tables.items()}


if __name__ == "__main__":
    from cogradar.config import default_scenario
    from cogradar.experiment import campaign_truth
    from cogradar.trajectory import generate_trajectory
    from test_acceptance import calibrate, train_tables

    scenario = default_scenario()
    trajectory = generate_trajectory(scenario.trajectory, seed=scenario.episode.seed)
    truth = campaign_truth(trajectory, scenario.radar, scenario.episode)
    tables, _ = train_tables(scenario, truth, calibrate(scenario, truth))
    record = {"platform": this_platform(), "golden": golden_digests(),
              "trained": trained_digests(tables)}
    with open(RECORD_PATH, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"wrote {RECORD_PATH}")
