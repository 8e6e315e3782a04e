"""Labeled training data from a recording plus schedule: label assignment,
minority-class sliding-window augmentation, and seeded negative sampling.

Augmentation slides the window forward from each event onset in `stride`
steps, giving exactly window_len/stride windows per event (10 with
defaults). Test-time data are never augmented; evaluation sets take one
window per event at its onset. Every builder returns a `Windows`: arrays of
starts and labels over a read-only view of the recording's samples, so
overlapping windows cost no memory beyond the recording itself and
nothing is cut until a model stacks them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from eegtd.core import EventSchedule, Recording, Windows
from eegtd.seeding import child_seed


class DatasetError(ValueError):
    """Inputs from which the requested windows cannot be extracted."""


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


def augment_minority(
    rec: Recording, schedule: EventSchedule, cfg: DatasetConfig
) -> Windows:
    """Exactly augment_factor windows per target event, event by event, at
    starts onset + k*stride."""
    onsets = np.array([ev.onset for ev in schedule.targets], dtype=np.int64)
    starts = onsets[:, None] + cfg.stride * np.arange(cfg.augment_factor)
    overruns = np.flatnonzero(starts[:, -1] + cfg.window_len > rec.n_samples)
    if overruns.size:
        raise DatasetError(
            f"event {overruns[0]} at onset {onsets[overruns[0]]}: window "
            f"overruns recording end ({rec.n_samples} samples)"
        )
    labels = np.repeat([int(ev.class_id) for ev in schedule.targets], cfg.augment_factor)
    return Windows(rec.samples, cfg.window_len, starts.ravel(), labels)


def free_window_starts(labels: np.ndarray, span: int) -> np.ndarray:
    """Ascending starts s whose samples labels[s : s + span] are all 0."""
    occupied = (labels != 0).astype(np.int64)
    csum = np.concatenate(([0], np.cumsum(occupied)))
    return np.flatnonzero(csum[span:] - csum[:-span] == 0)


def sample_nontarget(
    rec: Recording, schedule: EventSchedule, cfg: DatasetConfig, seed: int
) -> Windows:
    """nontarget_per_event seeded windows per target event, disjoint from all
    target spans."""
    check_same_length(rec, schedule)
    quota = cfg.nontarget_per_event * len(schedule.targets)
    candidates = free_window_starts(assign_labels(schedule), cfg.window_len)
    if quota > candidates.size:
        raise DatasetError(
            f"insufficient non-target span: need {quota} windows, "
            f"only {candidates.size} candidate starts"
        )
    starts = np.random.default_rng(seed).choice(candidates, size=quota, replace=False)
    return Windows(rec.samples, cfg.window_len, starts, np.zeros_like(starts))


def _joined(first: Windows, second: Windows, order=slice(None)) -> Windows:
    """Two sets over the same samples as one, in `order`."""
    starts = np.concatenate((first.starts, second.starts))[order]
    labels = np.concatenate((first.labels, second.labels))[order]
    return Windows(first.samples, first.window_len, starts, labels)


def build_dataset(
    rec: Recording, schedule: EventSchedule, cfg: DatasetConfig, seed: int
) -> Windows:
    """Augmented minority windows plus sampled negatives, seeded shuffle."""
    targets = augment_minority(rec, schedule, cfg)
    negatives = sample_nontarget(rec, schedule, cfg, child_seed(seed, "nontarget"))
    rng = np.random.default_rng(child_seed(seed, "shuffle"))
    return _joined(targets, negatives, rng.permutation(len(targets) + len(negatives)))


def build_eval_dataset(
    rec: Recording, schedule: EventSchedule, cfg: DatasetConfig, seed: int
) -> Windows:
    """Unaugmented evaluation set: one window per event at its onset, plus
    the usual quota of negatives."""
    targets = augment_minority(rec, schedule, replace(cfg, stride=cfg.window_len))
    negatives = sample_nontarget(rec, schedule, cfg, child_seed(seed, "eval-nontarget"))
    return _joined(targets, negatives)


def pool_windows(sets: Sequence[Windows]) -> Windows:
    """One set over the sets' samples laid end to end along time: each set's
    starts are offset by the samples before it, and the order is kept."""
    if len({ws.window_len for ws in sets}) != 1:
        raise ValueError("pooled window sets need one window_len")
    offsets = np.cumsum([0] + [ws.samples.shape[1] for ws in sets[:-1]])
    return Windows(
        np.concatenate([ws.samples for ws in sets], axis=1), sets[0].window_len,
        np.concatenate([ws.starts + off for ws, off in zip(sets, offsets)]),
        np.concatenate([ws.labels for ws in sets]),
    )
