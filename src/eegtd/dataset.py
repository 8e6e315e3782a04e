"""Labeled training data from a recording plus schedule: label assignment,
minority-class sliding-window augmentation, and seeded negative sampling.

Augmentation slides the window forward from each event onset in `stride`
steps, giving exactly window_len/stride epochs per event (10 with defaults).
Test-time data are never augmented; evaluation sets take one window per
event at its onset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from eegtd.core import ClassId, Epoch, EventSchedule, LabelTrack, Recording
from eegtd.seeding import child_seed


class DatasetError(ValueError):
    """Inputs from which the requested epochs cannot be extracted."""


@dataclass(frozen=True)
class DatasetConfig:
    window_len: int = 250
    stride: int = 25
    nontarget_per_event: int = 14

    def __post_init__(self) -> None:
        if self.window_len <= 0 or self.stride <= 0:
            raise ValueError("window_len and stride must be positive")
        if self.window_len % self.stride != 0:
            raise ValueError(
                f"stride {self.stride} must divide window_len {self.window_len}"
            )
        if self.nontarget_per_event < 0:
            raise ValueError("nontarget_per_event must be >= 0")

    @property
    def augment_factor(self) -> int:
        return self.window_len // self.stride


def assign_labels(schedule: EventSchedule) -> LabelTrack:
    """Per-sample labels: class over each half-open event span, else 0."""
    labels = np.zeros(schedule.total_samples, dtype=np.int8)
    for ev in schedule.targets:
        labels[ev.onset : ev.end] = int(ev.class_id)
    return LabelTrack(labels)


def class_ratio(track: LabelTrack) -> np.ndarray:
    """Fractions of the three classes; sums to 1."""
    if len(track) == 0:
        raise DatasetError("empty label track")
    counts = np.bincount(track.labels, minlength=3).astype(np.float64)
    return counts / len(track)


def augment_minority(
    rec: Recording, schedule: EventSchedule, cfg: DatasetConfig
) -> list[Epoch]:
    """Exactly augment_factor epochs per target event, starts onset + k*stride."""
    epochs: list[Epoch] = []
    for index, ev in enumerate(schedule.targets):
        last_start = ev.onset + (cfg.augment_factor - 1) * cfg.stride
        if last_start + cfg.window_len > rec.n_samples:
            raise DatasetError(
                f"event {index} at onset {ev.onset}: augmentation window "
                f"overruns recording end ({rec.n_samples} samples)"
            )
        for k in range(cfg.augment_factor):
            start = ev.onset + k * cfg.stride
            data = rec.samples[:, start : start + cfg.window_len].copy()
            epochs.append(Epoch(data, ev.class_id, start))
    return epochs


def _count_events(labels: np.ndarray) -> int:
    occupied = (labels != 0).astype(np.int8)
    rises = np.diff(np.concatenate(([0], occupied))) == 1
    return int(rises.sum())


def free_window_starts(labels: np.ndarray, span: int) -> np.ndarray:
    """Ascending starts s whose samples labels[s : s + span] are all 0."""
    occupied = (labels != 0).astype(np.int64)
    csum = np.concatenate(([0], np.cumsum(occupied)))
    return np.flatnonzero(csum[span:] - csum[:-span] == 0)


def sample_nontarget(
    rec: Recording,
    track: LabelTrack,
    cfg: DatasetConfig,
    seed: int,
    n_events: int | None = None,
) -> list[Epoch]:
    """nontarget_per_event * n_events seeded epochs disjoint from all target spans.

    n_events defaults to the number of contiguous labeled runs in the track.
    """
    labels = track.labels
    if len(labels) != rec.n_samples:
        raise DatasetError("label track length does not match recording")
    if n_events is None:
        n_events = _count_events(labels)
    quota = cfg.nontarget_per_event * n_events
    if quota == 0:
        return []
    w = cfg.window_len
    if rec.n_samples < w:
        raise DatasetError("recording shorter than one window")
    candidates = free_window_starts(labels, w)
    if candidates.size == 0:
        raise DatasetError("no all-non-target window available")
    if quota > candidates.size:
        raise DatasetError(
            f"insufficient non-target span: need {quota} windows, "
            f"only {candidates.size} candidate starts"
        )
    rng = np.random.default_rng(seed)
    starts = rng.choice(candidates, size=quota, replace=False)
    return [
        Epoch(rec.samples[:, s : s + w].copy(), ClassId.NON_TARGET, int(s))
        for s in starts
    ]


def build_dataset(
    rec: Recording, schedule: EventSchedule, cfg: DatasetConfig, seed: int
) -> list[Epoch]:
    """Augmented minority epochs plus sampled negatives, seeded shuffle."""
    track = assign_labels(schedule)
    epochs = augment_minority(rec, schedule, cfg)
    epochs += sample_nontarget(
        rec, track, cfg, child_seed(seed, "nontarget"),
        n_events=len(schedule.targets),
    )
    rng = np.random.default_rng(child_seed(seed, "shuffle"))
    order = rng.permutation(len(epochs))
    return [epochs[i] for i in order]


def build_eval_dataset(
    rec: Recording, schedule: EventSchedule, cfg: DatasetConfig, seed: int
) -> list[Epoch]:
    """Unaugmented evaluation set: one window per event at its onset, plus
    the usual quota of negatives."""
    epochs: list[Epoch] = []
    for index, ev in enumerate(schedule.targets):
        if ev.onset + cfg.window_len > rec.n_samples:
            raise DatasetError(f"event {index}: evaluation window overruns recording")
        data = rec.samples[:, ev.onset : ev.onset + cfg.window_len].copy()
        epochs.append(Epoch(data, ev.class_id, ev.onset))
    track = assign_labels(schedule)
    epochs += sample_nontarget(
        rec, track, cfg, child_seed(seed, "eval-nontarget"),
        n_events=len(schedule.targets),
    )
    return epochs
