"""Pure-Python statistics shared by run.py and the worker process:
percentiles reported with their sample counts, and the per-window online lag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100), linear between order statistics."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


@dataclass(frozen=True)
class Quantile:
    """A percentile together with the evidence behind it."""

    q: float
    value: float
    n: int  # samples the percentile was taken over
    beyond: int  # samples strictly above the value

    @property
    def resolved(self) -> bool:
        """At least ten samples lie beyond the percentile, so it is not
        just the largest few samples."""
        return self.q == 50.0 or self.beyond >= 10


def quantile(values: Sequence[float], q: float) -> Quantile:
    value = percentile(values, q)
    return Quantile(q, value, len(values), sum(1 for v in values if v > value))


def due_times(sends: Sequence[float], chunk_s: float, speed: float) -> list[float]:
    """When each block of a paced replay was due: block k at
    t0 + k * chunk_s / speed, where t0 is the send time of block 0."""
    if not math.isfinite(speed):
        raise ValueError("an unpaced replay has no due times")
    t0 = sends[0]
    return [t0 + k * chunk_s / speed for k in range(len(sends))]


def window_ends(before: int, after: int, window_len: int, stride: int) -> range:
    """End samples of the windows the online engine evaluated while its
    write head moved from `before` to `after`: every
    n = window_len + j * stride with before < n <= after."""
    j = max(0, -(-(before + 1 - window_len) // stride))
    return range(window_len + j * stride, after + 1, stride)


def window_lags(
    pushes: Sequence[tuple[int, int, float]],
    due: Sequence[float],
    chunk_frames: int,
    window_len: int,
    stride: int,
) -> list[float]:
    """Lag of every window the online engine evaluated.

    `pushes` holds (write_head before, write_head after, return time) of each
    engine push. The window ending at sample n was completed by the block
    holding sample n - 1, so its lag runs from that block's due time to the
    return of the push that evaluated it.
    """
    return [
        returned - due[(end - 1) // chunk_frames]
        for before, after, returned in pushes
        for end in window_ends(before, after, window_len, stride)
    ]
