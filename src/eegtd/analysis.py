"""Grand-average evoked waveforms and channel-importance analysis via
occlusion and input gradients, with plot-ready CSV outputs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, TextIO

import numpy as np

from eegtd.core import ClassId, DynamicsKind, Epoch, EventSchedule, Recording
from eegtd.dataset import assign_labels, check_same_length, free_window_starts
from eegtd.metrics import ConfusionMatrix, MetricConfig, macro_f_beta, window_confusion
from eegtd.model import HierarchicalModel, _backward_batch, predict_batch, stack_epochs

CLASS_NAMES = {
    int(ClassId.NON_TARGET): "NonTarget",
    int(ClassId.TRUE_TARGET): "TrueTarget",
    int(ClassId.ERROR_TARGET): "ErrorTarget",
}
ROTATION_CLASS = "CameraRotation"
# Windows per input-gradient backward pass in gradient_saliency.
GRADIENT_CHUNK = 128


@dataclass
class ErpAverages:
    times_s: np.ndarray
    channels: list[str]
    waves: dict[str, np.ndarray]  # class name -> (n_channels, n_horizon)
    n_trials: dict[str, int]
    n_skipped: dict[str, int]
    notes: list[str] = field(default_factory=list)


def _average_trials(
    data: np.ndarray, onsets: Sequence[int], n_baseline: int, n_horizon: int
) -> tuple[np.ndarray | None, int, int]:
    """Baseline-corrected mean over trials; skips onsets too close to edges."""
    used = 0
    skipped = 0
    acc = np.zeros((data.shape[0], n_horizon))
    for onset in onsets:
        if onset - n_baseline < 0 or onset + n_horizon > data.shape[1]:
            skipped += 1
            continue
        trial = data[:, onset : onset + n_horizon].astype(np.float64)
        if n_baseline > 0:
            trial = trial - data[:, onset - n_baseline : onset].mean(
                axis=1, keepdims=True
            )
        acc += trial
        used += 1
    if used == 0:
        return None, 0, skipped
    return acc / used, used, skipped


def grand_average_erp(
    rec: Recording,
    schedule: EventSchedule,
    channels: Sequence[str],
    horizon_s: float = 3.0,
    baseline_s: float = 0.2,
    seed: int = 0,
) -> ErpAverages:
    """Per-class grand averages over the requested channels.

    Classes are the two target classes, a CameraRotation pseudo-class from
    the dynamics events, and a NonTarget baseline built from seeded random
    onsets whose analysis span avoids every target span.
    """
    check_same_length(rec, schedule)
    idx = np.array([rec.channel_index(name) for name in channels])
    data = rec.samples[idx]
    n_horizon = int(round(horizon_s * rec.sampling_rate))
    n_baseline = int(round(baseline_s * rec.sampling_rate))
    if n_horizon < 1:
        raise ValueError("horizon must cover at least one sample")

    onsets_by_class: dict[str, list[int]] = {}
    for ev in schedule.targets:
        onsets_by_class.setdefault(CLASS_NAMES[int(ev.class_id)], []).append(ev.onset)
    rot = [
        dyn.onset
        for dyn in schedule.dynamics
        if dyn.kind == DynamicsKind.CAMERA_ROTATION
    ]
    if rot:
        onsets_by_class[ROTATION_CLASS] = rot

    # Seeded pseudo-trials for the non-target baseline class.
    labels = assign_labels(schedule)
    candidates = free_window_starts(labels, n_baseline + n_horizon) + n_baseline
    if candidates.size:
        count = min(max(len(schedule.targets), 1), candidates.size)
        rng = np.random.default_rng(seed)
        picks = rng.choice(candidates, size=count, replace=False)
        onsets_by_class[CLASS_NAMES[0]] = [int(v) for v in np.sort(picks)]

    result = ErpAverages(
        times_s=np.arange(n_horizon) / rec.sampling_rate,
        channels=list(channels),
        waves={},
        n_trials={},
        n_skipped={},
    )
    for name, onsets in onsets_by_class.items():
        wave, used, skipped = _average_trials(data, onsets, n_baseline, n_horizon)
        result.n_skipped[name] = skipped
        if wave is None:
            result.notes.append(f"class {name}: no usable trials")
            continue
        result.waves[name] = wave
        result.n_trials[name] = used
    for class_id, name in CLASS_NAMES.items():
        if class_id != 0 and name not in onsets_by_class:
            result.notes.append(f"class {name}: no events in schedule")
    return result


@dataclass
class ChannelSaliency:
    baseline_score: float
    importance: np.ndarray  # (n_channels,) baseline minus ablated score


def _score_windows(
    model: HierarchicalModel, x: np.ndarray, y: np.ndarray, cfg: MetricConfig
) -> tuple[float, ConfusionMatrix]:
    """Window-level macro F_beta and confusion of one prediction pass."""
    predicted, _ = predict_batch(model, x)
    cm = window_confusion(y, predicted)
    return macro_f_beta(cm, cfg), cm


def evaluate_epochs(
    model: HierarchicalModel, epochs: list[Epoch], cfg: MetricConfig
) -> tuple[float, ConfusionMatrix]:
    """Window-level macro F_beta of the model over a labeled epoch set."""
    x, y = stack_epochs(epochs)
    return _score_windows(model, x, y, cfg)


def occlusion_saliency(
    model: HierarchicalModel, eval_epochs: list[Epoch], cfg: MetricConfig
) -> ChannelSaliency:
    """Importance per channel: macro F_beta drop when that channel is zeroed
    after standardization (zero = the channel's uninformative mean)."""
    x, y = stack_epochs(eval_epochs)
    baseline, _ = _score_windows(model, x, y, cfg)
    n_channels = x.shape[1]
    importance = np.zeros(n_channels)
    for c in range(n_channels):
        ablated = x.copy()
        ablated[:, c, :] = 0.0
        importance[c] = baseline - _score_windows(model, ablated, y, cfg)[0]
    return ChannelSaliency(baseline, importance)


def gradient_saliency(
    model: HierarchicalModel, eval_epochs: list[Epoch]
) -> np.ndarray:
    """Mean absolute input gradient of the loss per channel, dropout disabled."""
    x, y = stack_epochs(eval_epochs)
    total = np.zeros(x.shape[1])
    for lo in range(0, x.shape[0], GRADIENT_CHUNK):
        hi = min(lo + GRADIENT_CHUNK, x.shape[0])
        # _backward_batch averages over the batch, so rescale with the size.
        _, _, dx = _backward_batch(
            model, x[lo:hi], y[lo:hi], need_input_grad=True
        )
        total += np.abs(dx * (hi - lo)).mean(axis=2).sum(axis=0)
    return total / x.shape[0]


def write_erp_csv(result: ErpAverages, destination: TextIO) -> None:
    destination.write("class,channel,time_s,value_uv\n")
    for name in sorted(result.waves):
        wave = result.waves[name]
        for ci, channel in enumerate(result.channels):
            for t, v in zip(result.times_s, wave[ci]):
                destination.write(f"{name},{channel},{t!r},{v!r}\n")


def write_saliency_csv(
    channels: Sequence[str],
    occlusion: np.ndarray,
    gradient: np.ndarray,
    destination: TextIO,
) -> None:
    destination.write("channel,occlusion_importance,gradient_saliency\n")
    for name, occ, grad in zip(channels, occlusion, gradient):
        destination.write(f"{name},{occ!r},{grad!r}\n")
