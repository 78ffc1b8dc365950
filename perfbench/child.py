"""One benchmark repetition in a fresh interpreter.

Usage: python3 child.py SPEC_JSON, where SPEC_JSON holds ``src`` (the
directory that contains the ``cogradar`` package), ``argv`` (the CLI
arguments), ``trace`` (install span hooks or not) and ``report`` (where to
write the result JSON). The working directory holds the workload's inputs.

The child prints ``ready`` once the interpreter, the ``cogradar`` import, the
scenario build and the truth trajectory are done; the parent times set-up
from spawn to that line. Then it times ``cli_main(argv)`` and writes its
report.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def blas_info() -> dict:
    """BLAS library name, version and the thread count in effect."""
    import ctypes

    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "blas" in line.lower()}
    except OSError:
        paths = set()
    symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads")
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    # cogradar first, as the CLI entry point imports it: any thread or numpy
    # setting it makes at import time then takes effect here too.
    import cogradar.cli as cli
    from cogradar.config import default_scenario
    from cogradar.trajectory import generate_trajectory

    import numpy as np

    scenario = default_scenario()
    generate_trajectory(scenario.trajectory, seed=scenario.episode.seed)
    print("ready", flush=True)

    tracer = None
    if spec["trace"]:
        from hooks import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    rc = cli.cli_main(spec["argv"])
    wall_s = time.perf_counter() - start
    report = {
        "rc": rc,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cogradar": os.path.abspath(cli.__file__),
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": blas_info(),
        },
        "trace": tracer.report() if tracer is not None else None,
    }
    with open(spec["report"], "w") as handle:
        json.dump(report, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
