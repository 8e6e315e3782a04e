"""Recall, precision, F_beta and macro F_beta over 3-class confusion
matrices, window- and event-level confusion counting, and greedy
detection-to-event matching for online evaluation.

Two F_beta denominator forms are provided: the default `recall` form
(1+b^2)pr / (b^2 p + r) weights recall for beta > 1; the `literal` form
swaps the denominator to (b^2 r + p). Degenerate denominators score 0 so
macro averaging always runs over exactly three classes.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass, field
from typing import Iterable, TextIO

import numpy as np

from eegtd.core import ClassId, EventSchedule, FormatError

DEFAULT_MATCH_TOLERANCE = 375  # samples: 1.5 s at 250 Hz


class FBetaForm(str, enum.Enum):
    RECALL_WEIGHTED = "recall"
    LITERAL = "literal"


@dataclass
class ConfusionMatrix:
    """3x3 counts, rows = true class, cols = predicted class."""

    counts: np.ndarray = field(
        default_factory=lambda: np.zeros((3, 3), dtype=np.int64)
    )

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (3, 3):
            raise ValueError("confusion matrix must be 3x3")
        if (self.counts < 0).any():
            raise ValueError("confusion counts must be non-negative")

    def add(self, true_class: int, predicted_class: int, n: int = 1) -> None:
        self.counts[int(true_class), int(predicted_class)] += n

    def total(self) -> int:
        return int(self.counts.sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConfusionMatrix):
            return NotImplemented
        return bool(np.array_equal(self.counts, other.counts))


@dataclass(frozen=True)
class MetricConfig:
    beta: float = 2.0
    form: FBetaForm = FBetaForm.RECALL_WEIGHTED

    def __post_init__(self) -> None:
        if not self.beta > 0:
            raise ValueError("beta must be positive")


@dataclass(frozen=True)
class Detection:
    """One online detection emission."""

    time: int
    class_id: ClassId
    confidence: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("detection time must be >= 0")
        if self.class_id == ClassId.NON_TARGET:
            raise ValueError("detections carry target classes only")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must lie in [0, 1]")


def precision_recall(cm: ConfusionMatrix, c: ClassId | int) -> tuple[float, float]:
    """One-vs-rest precision and recall for class c; empty denominators give 0."""
    c = int(c)
    tp = float(cm.counts[c, c])
    row = float(cm.counts[c, :].sum())
    col = float(cm.counts[:, c].sum())
    precision = tp / col if col > 0 else 0.0
    recall = tp / row if row > 0 else 0.0
    return precision, recall


def f_beta(precision: float, recall: float, cfg: MetricConfig = MetricConfig()) -> float:
    b2 = cfg.beta * cfg.beta
    num = (1.0 + b2) * precision * recall
    if cfg.form == FBetaForm.RECALL_WEIGHTED:
        den = b2 * precision + recall
    else:
        den = b2 * recall + precision
    return num / den if den > 0 else 0.0


def macro_f_beta(cm: ConfusionMatrix, cfg: MetricConfig = MetricConfig()) -> float:
    """Unweighted mean of per-class F_beta over all three classes."""
    scores = [f_beta(*precision_recall(cm, c), cfg) for c in range(3)]
    return float(np.mean(scores))


def window_confusion(truth: np.ndarray, predicted: np.ndarray) -> ConfusionMatrix:
    """Per-sample confusion counts between two equal-length label arrays."""
    if len(truth) != len(predicted):
        raise ValueError(
            f"track lengths differ: {len(truth)} vs {len(predicted)}"
        )
    joint = np.bincount(
        np.asarray(truth, dtype=np.int64) * 3 + np.asarray(predicted, dtype=np.int64),
        minlength=9,
    )
    return ConfusionMatrix(joint.reshape(3, 3))


def match_detections(
    detections: list[Detection],
    schedule: EventSchedule,
    tolerance: int = DEFAULT_MATCH_TOLERANCE,
) -> tuple[ConfusionMatrix, list[tuple[int, int]]]:
    """Greedy one-to-one matching of detections to target events.

    Walking detections in time order, each matches the earliest unmatched
    event with detection time in [onset, onset + tolerance]. Matched pairs
    count at (true class, detected class); unmatched detections are false
    positives (row 0); unmatched events are misses (column 0). Returns the
    event-level confusion matrix and (event_index, detection_index) pairs.
    """
    times = [d.time for d in detections]
    if any(t1 < t0 for t0, t1 in zip(times, times[1:])):
        raise ValueError("detections must be sorted by time")
    events = schedule.targets
    matched_event = [False] * len(events)
    cm = ConfusionMatrix()
    pairs: list[tuple[int, int]] = []
    for d_idx, det in enumerate(detections):
        hit = None
        for e_idx, ev in enumerate(events):
            if matched_event[e_idx]:
                continue
            if ev.onset <= det.time <= ev.onset + tolerance:
                hit = e_idx
                break
            if ev.onset > det.time:
                break
        if hit is None:
            cm.add(ClassId.NON_TARGET, det.class_id)
        else:
            matched_event[hit] = True
            pairs.append((hit, d_idx))
            cm.add(events[hit].class_id, det.class_id)
    for e_idx, ev in enumerate(events):
        if not matched_event[e_idx]:
            cm.add(ev.class_id, ClassId.NON_TARGET)
    return cm, pairs


def write_detections_csv(detections: Iterable[Detection], destination: TextIO) -> None:
    destination.write("time,class,confidence\n")
    for det in detections:
        destination.write(f"{det.time},{int(det.class_id)},{det.confidence!r}\n")


def read_detections_csv(source: TextIO) -> list[Detection]:
    reader = csv.reader(source)
    header = next(reader, None)
    if header != ["time", "class", "confidence"]:
        raise FormatError(f"bad detections header {header!r}")
    out = []
    for row_no, row in enumerate(reader, start=1):
        if not row:
            continue
        try:
            out.append(Detection(int(row[0]), ClassId(int(row[1])), float(row[2])))
        except (ValueError, IndexError) as exc:
            raise FormatError(f"unparsable detection row {row_no}: {row!r}") from exc
    return out
