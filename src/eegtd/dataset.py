"""Labeled training data from a recording plus schedule: label assignment,
minority-class sliding-window augmentation, and seeded negative sampling.

Augmentation slides the window forward from each event onset in `stride`
steps, giving exactly window_len/stride epochs per event (10 with defaults).
Test-time data are never augmented; evaluation sets take one window per
event at its onset. Every epoch's data is a read-only view of the
recording's samples, so overlapping windows cost no memory beyond the
recording itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from eegtd.core import ClassId, Epoch, EventSchedule, Recording
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


def check_same_length(rec: Recording, schedule: EventSchedule) -> None:
    """DatasetError unless the schedule spans exactly the recording."""
    if schedule.total_samples != rec.n_samples:
        raise DatasetError(
            f"schedule length does not match recording: {schedule.total_samples} "
            f"vs {rec.n_samples} samples"
        )


def assign_labels(schedule: EventSchedule) -> np.ndarray:
    """Per-sample int8 labels: class over each half-open event span, else 0."""
    labels = np.zeros(schedule.total_samples, dtype=np.int8)
    for ev in schedule.targets:
        labels[ev.onset : ev.end] = int(ev.class_id)
    return labels


def class_ratio(labels: np.ndarray) -> np.ndarray:
    """Fractions of the three classes in a label track; sums to 1."""
    if len(labels) == 0:
        raise DatasetError("empty label track")
    counts = np.bincount(labels, minlength=3).astype(np.float64)
    return counts / len(labels)


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
            data = rec.samples[:, start : start + cfg.window_len]
            epochs.append(Epoch(data, ev.class_id, start))
    return epochs


def free_window_starts(labels: np.ndarray, span: int) -> np.ndarray:
    """Ascending starts s whose samples labels[s : s + span] are all 0."""
    occupied = (labels != 0).astype(np.int64)
    csum = np.concatenate(([0], np.cumsum(occupied)))
    return np.flatnonzero(csum[span:] - csum[:-span] == 0)


def sample_nontarget(
    rec: Recording, schedule: EventSchedule, cfg: DatasetConfig, seed: int
) -> list[Epoch]:
    """nontarget_per_event seeded epochs per target event, disjoint from all
    target spans."""
    check_same_length(rec, schedule)
    quota = cfg.nontarget_per_event * len(schedule.targets)
    if quota == 0:
        return []
    labels = assign_labels(schedule)
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
        Epoch(rec.samples[:, s : s + w], ClassId.NON_TARGET, int(s))
        for s in starts
    ]


def build_dataset(
    rec: Recording, schedule: EventSchedule, cfg: DatasetConfig, seed: int
) -> list[Epoch]:
    """Augmented minority epochs plus sampled negatives, seeded shuffle."""
    epochs = augment_minority(rec, schedule, cfg)
    epochs += sample_nontarget(rec, schedule, cfg, child_seed(seed, "nontarget"))
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
        data = rec.samples[:, ev.onset : ev.onset + cfg.window_len]
        epochs.append(Epoch(data, ev.class_id, ev.onset))
    epochs += sample_nontarget(rec, schedule, cfg, child_seed(seed, "eval-nontarget"))
    return epochs
