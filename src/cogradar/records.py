"""What a run records: one ``RECORD_DTYPE`` row per transmission, held by
``Runs``, the one record type: the lanes of one lockstep call, or the one
lane of a scalar episode."""

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
class Runs:
    """The lanes of one ``run_episode`` call: every lane's ``RECORD_DTYPE``
    rows back to back in lane order, ``ends[j]`` the end of lane j's rows and
    ``lost_at[j]`` the number of lane j's transmissions when its track was
    declared lost, None for a full track.  ``runs[j]`` is lane j as a one-lane
    ``Runs``."""

    records: np.recarray
    ends: np.ndarray
    lost_at: tuple[Optional[int], ...]

    def __post_init__(self) -> None:
        ends = self.ends.tolist()
        if any(lost not in (None, end - start)
               for lost, start, end in zip(self.lost_at, [0, *ends], ends)):
            raise ValueError("lost_at must equal the number of records")

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

    def __getitem__(self, lane: int) -> "Runs":
        lane = range(len(self))[lane]
        return self.block(lane, lane + 1)
