"""Reference scoring: the per-run metrics as the package computed them before
it scored a block of lanes whole, one one-lane ``Runs`` and one sliding
window per run.

``experiment.mean_windowed_mse`` and ``overall_windowed_mse`` must equal
these byte for byte.  The block forms take every lane's windows from one
sliding window over the lanes' records, which are the runs' records back to
back, so each window is the same minimum of the same squares; the per-step
totals add the lanes in lane order, as the loop below does, and the pooled
windows are the same array in the same order, so ``mean`` sums them alike.

``pack`` lays a list of one-lane ``Runs`` out as the ``Runs`` of one
lockstep call.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from cogradar.experiment import MSE_WINDOW
from cogradar.records import RECORD_DTYPE, Runs


def pack(results: Sequence[Runs]) -> Runs:
    """The one-lane runs' records back to back, in order, as lanes of one
    ``Runs``."""
    records = [result.records for result in results]
    return Runs(
        records=np.concatenate([np.zeros(0, RECORD_DTYPE), *records]).view(np.recarray),
        ends=np.cumsum([len(r) for r in records], dtype=int),
        lost_at=tuple(lost for result in results for lost in result.lost_at),
    )


def windowed_min(series: Sequence[float], window: int) -> np.ndarray:
    """Minimum over each full window of ``window`` consecutive values."""
    if window < 1:
        raise ValueError("window must be >= 1")
    arr = np.asarray(series, dtype=float)
    if arr.size < window:
        return np.empty(0)
    return np.lib.stride_tricks.sliding_window_view(arr, window).min(axis=1)


def mean_windowed_mse(results: Sequence[Runs]) -> np.ndarray:
    """Per-step mean of the windowed-min squared range error, averaging only
    over runs still alive at each step."""
    if len(results) == 0:
        raise ValueError("need at least one run")
    series = [windowed_min(result.records.range_error_true**2, MSE_WINDOW)
              for result in results]
    max_len = max(len(s) for s in series)
    if max_len == 0:
        return np.empty(0)
    total = np.zeros(max_len)
    alive = np.zeros(max_len, dtype=int)
    for s in series:
        total[: len(s)] += s
        alive[: len(s)] += 1
    return total / alive


def overall_windowed_mse(results: Sequence[Runs]) -> float:
    """Scalar summary: mean over every windowed-min value of every run."""
    pooled = np.concatenate(
        [windowed_min(result.records.range_error_true**2, MSE_WINDOW) for result in results]
    )
    if pooled.size == 0:
        raise ValueError("no full windows to aggregate")
    return float(pooled.mean())
