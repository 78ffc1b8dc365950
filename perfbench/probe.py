"""Time a fixed computation in a short interpreter of its own.

Usage: python3 probe.py. It prints ``started`` once the interpreter is up and
numpy is imported (the caller times start-up from spawn to that line), then
the seconds of the computation.

The computation is shaped like one tracker dwell: small matrix products, a
solve, a condition number and scalar Python work. It is benchmark code and
never imports ``cogradar``, so nothing the program does (its imports, BLAS
thread pool, allocator state) can move it; it measures only the machine's
speed at the moment of a repetition. The benchmark runs it between
repetitions and divides the program's set-up by the start-up and the
program's command by the computation.
"""

from __future__ import annotations

import time

import numpy as np

ITERATIONS = 6000


def probe() -> float:
    F = np.eye(6)
    F[:3, 3:] = 0.5 * np.eye(3)
    Q = 0.1 * np.eye(6)
    R = np.diag([4.0, 1.0, 1e-6, 1e-6])
    P = 100.0 * np.eye(6)
    x = np.array([1.0e4, -2.0e4, 3.0e3, 1.0, 2.0, 3.0])
    start = time.perf_counter()
    for _ in range(ITERATIONS):
        P = F @ P @ F.T + Q
        d = x[:3]
        r = float(np.sqrt(d @ d))
        H = np.zeros((4, 6))
        H[0, :3] = d / r
        H[1, 3:] = d / r
        H[2, 0] = -d[1] / (d[0] ** 2 + d[1] ** 2)
        H[3, 2] = 1.0 / r
        S = H @ P @ H.T + R
        S = 0.5 * (S + S.T)
        np.linalg.cond(S)
        K = np.linalg.solve(S, H @ P).T
        I_KH = np.eye(6) - K @ H
        P = I_KH @ P @ I_KH.T + K @ R @ K.T
        P = 0.5 * (P + P.T)
    return time.perf_counter() - start


if __name__ == "__main__":
    print("started", flush=True)
    print(repr(probe()))
