"""Trajectory readers that only the tests use: the phase-change times of a
trajectory and the inverse of ``save_trajectory_csv``."""

from __future__ import annotations

import csv
from typing import Sequence

import numpy as np

from cogradar.trajectory import CSV_HEADER, Phase, TruthPoint


def phase_boundaries(trajectory: Sequence[TruthPoint]) -> tuple[float, float]:
    """Times of the Boost -> MidCourse and MidCourse -> Terminal transitions."""
    if not trajectory:
        raise ValueError("empty trajectory")
    t_boost_end = None
    t_terminal_start = None
    for point in trajectory:
        if t_boost_end is None and point.phase is Phase.MID_COURSE:
            t_boost_end = point.t
        if t_terminal_start is None and point.phase is Phase.TERMINAL:
            t_terminal_start = point.t
    if t_boost_end is None:
        raise ValueError("trajectory has no mid-course phase")
    if t_terminal_start is None:
        raise ValueError("trajectory has no terminal phase")
    return t_boost_end, t_terminal_start


def load_trajectory_csv(path) -> list[TruthPoint]:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected trajectory CSV header: {header!r}")
        points = []
        for row in reader:
            t, px, py, pz, vx, vy, vz = (float(x) for x in row[:7])
            points.append(
                TruthPoint(
                    t,
                    np.array([px, py, pz]),
                    np.array([vx, vy, vz]),
                    Phase(row[7]),
                )
            )
    return points
