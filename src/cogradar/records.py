"""What a run records: one ``RECORD_DTYPE`` row per transmission, held by a
``RunResult`` for one run and by ``Runs`` for the lanes of one lockstep call,
whose lane j is a ``RunResult``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# Everything observable about one transmission; row k of a run is step k.
RECORD_DTYPE = np.dtype(
    [
        ("bandwidth", "f8"),  # Hz
        ("range_error_true", "f8"),  # m, |estimated - true| range
        ("range_innovation", "f8"),  # m
        ("range_window", "f8"),  # m
        ("correlated", "?"),
        ("state_index", "i8"),  # -1 for non-tabular policies
        ("action_index", "i8"),
        ("pred_var", "f8"),  # m^2, range-projected prior variance
        ("meas_var", "f8"),  # m^2, R_rr of this transmission
    ]
)


@dataclass(frozen=True, eq=False)
class RunResult:
    """One ``RECORD_DTYPE`` row per transmission; ``lost_at`` is the number
    of transmissions when the track was declared lost, None for a full track."""

    records: np.recarray
    lost_at: Optional[int]

    def __post_init__(self) -> None:
        if self.lost_at is not None and self.lost_at != len(self.records):
            raise ValueError("lost_at must equal the number of records")

    @property
    def successful(self) -> bool:
        return self.lost_at is None


@dataclass(frozen=True, eq=False)
class Runs:
    """The lanes of one lockstep ``run_episode`` call: every lane's
    ``RECORD_DTYPE`` rows back to back in lane order, ``ends[j]`` the end of
    lane j's rows and ``lost_at[j]`` as in ``RunResult``.  ``runs[j]`` is lane
    j as a ``RunResult``."""

    records: np.recarray
    ends: np.ndarray
    lost_at: tuple[Optional[int], ...]

    @property
    def successful(self) -> bool:
        """No lane lost its track."""
        return all(lost is None for lost in self.lost_at)

    def block(self, start: int, stop: int) -> "Runs":
        """Lanes start to stop - 1, 0 <= start < stop, as ``Runs`` of their own."""
        first = self.ends[start - 1] if start else 0
        return Runs(self.records[first : self.ends[stop - 1]], self.ends[start:stop] - first,
                    self.lost_at[start:stop])

    def __len__(self) -> int:
        return len(self.lost_at)

    def __getitem__(self, lane: int) -> RunResult:
        lane = range(len(self))[lane]
        start = self.ends[lane - 1] if lane else 0
        return RunResult(self.records[start : self.ends[lane]], self.lost_at[lane])
