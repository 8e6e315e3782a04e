"""End-to-end detection experiments: generate offline sessions, pre-train,
stream a fresh held-out session over TCP, and score event-level macro F_beta.

Pre-training pools windows from several independently generated sessions of
the same stimulus profile (the offline-subjects analog); the online test
always runs on a session whose schedule and noise the model never saw.
The session is replayed unpaced by default (`stream_speed` inf): the online
engine's detections do not depend on pacing, so pacing only costs wall time.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path

from eegtd.core import (
    EventSchedule,
    Recording,
    save_recording,
    save_schedule,
)
from eegtd.dataset import DatasetConfig, build_dataset, pool_windows
from eegtd.metrics import (
    ConfusionMatrix,
    Detection,
    MetricConfig,
    macro_f_beta,
    match_detections,
    write_detections_csv,
)
from eegtd.model import (
    HierarchicalModel,
    NetConfig,
    TrainConfig,
    init_model,
    save_model,
    train,
    write_loss_trace,
)
from eegtd.seeding import child_seed
from eegtd.stream import OnlineConfig, ReplayServer, stream_online_inference
from eegtd.synth import (
    StimulusProfile, SynthConfig, make_schedule, profile_by_name, render_eeg,
)

log = logging.getLogger("eegtd.experiment")


@dataclass(frozen=True)
class ExperimentConfig:
    profile: str = "video1"
    seed: int = 7
    n_train_sessions: int = 6
    train_epochs: int = 30
    synth: SynthConfig = SynthConfig()
    dataset: DatasetConfig = DatasetConfig()
    net: NetConfig = NetConfig()
    online: OnlineConfig = OnlineConfig()
    metric: MetricConfig = MetricConfig()
    stream_speed: float = math.inf
    chunk_ms: float = 40.0


@dataclass
class ExperimentResult:
    macro_f: float
    confusion: ConfusionMatrix
    detections: list[Detection]
    n_test_events: int
    loss_trace: list[float]
    model_path: Path
    detections_path: Path
    test_recording_path: Path
    test_schedule_path: Path


def render_session(
    profile: StimulusProfile, synth: SynthConfig, seed: int
) -> tuple[Recording, EventSchedule]:
    """One session of `profile`: its schedule and its EEG come from the
    "schedule" and "eeg" sub-streams of `seed`."""
    schedule = make_schedule(profile, child_seed(seed, "schedule"))
    synth_cfg = replace(synth, seed=child_seed(seed, "eeg"))
    return render_eeg(schedule, synth_cfg), schedule


def generate_session(
    cfg: ExperimentConfig, session_seed: int
) -> tuple[Recording, EventSchedule]:
    return render_session(profile_by_name(cfg.profile), cfg.synth, session_seed)


def pretrain_model(
    cfg: ExperimentConfig,
) -> tuple[HierarchicalModel, list[float]]:
    """Train on the pooled windows of n_train_sessions generated sessions.
    The per-session sets die with the pooling call, so only the pooled
    samples stay alive while training."""
    seeds = [child_seed(cfg.seed, f"train-session-{i}") for i in range(cfg.n_train_sessions)]
    windows = pool_windows([
        build_dataset(*generate_session(cfg, s), cfg.dataset, child_seed(s, "dataset"))
        for s in seeds
    ])
    log.info("%d windows pooled from %d sessions", len(windows), len(seeds))
    model = init_model(cfg.net, child_seed(cfg.seed, "init"))
    train_cfg = TrainConfig(
        epochs=cfg.train_epochs, seed=child_seed(cfg.seed, "train")
    )
    return train(model, windows, train_cfg)


def run_detection_experiment(
    cfg: ExperimentConfig, workdir: Path | str
) -> ExperimentResult:
    """The full offline-train, online-stream, event-level-evaluate loop.

    All outputs land in `workdir` with fixed names so repeated runs with the
    same config are byte-comparable.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    model, trace = pretrain_model(cfg)
    model_path = workdir / "model.hmdl"
    with open(model_path, "wb") as fh:
        save_model(model, fh)
    with open(workdir / "loss_trace.csv", "w", newline="") as fh:
        write_loss_trace(trace, fh)

    test_seed = child_seed(cfg.seed, "test-session")
    test_rec, test_schedule = generate_session(cfg, test_seed)
    rec_path = workdir / "test.eegr"
    sched_path = workdir / "test.schedule.csv"
    save_recording(test_rec, rec_path)
    save_schedule(test_schedule, sched_path)

    server = ReplayServer(
        test_rec, test_schedule, chunk_ms=cfg.chunk_ms, speed=cfg.stream_speed
    )
    with server:
        server.serve_in_thread()
        detections, summary = stream_online_inference(
            (server.host, server.port), model, cfg.online
        )
    log.info(
        "streamed %d frames in %.1fs wall, %d detections",
        summary.total_frames, summary.wall_seconds, len(detections),
    )

    detections_path = workdir / "detections.csv"
    with open(detections_path, "w", newline="") as fh:
        write_detections_csv(detections, fh)

    confusion, _ = match_detections(detections, test_schedule)
    macro = macro_f_beta(confusion, cfg.metric)
    return ExperimentResult(
        macro_f=macro,
        confusion=confusion,
        detections=detections,
        n_test_events=len(test_schedule.targets),
        loss_trace=trace,
        model_path=model_path,
        detections_path=detections_path,
        test_recording_path=rec_path,
        test_schedule_path=sched_path,
    )


def clean_stimulus_config(seed: int = 7, train_epochs: int = 30) -> ExperimentConfig:
    """Video1: no dynamics, default signal-to-noise."""
    return ExperimentConfig(profile="video1", seed=seed, train_epochs=train_epochs)


def confounded_stimulus_config(seed: int = 7, train_epochs: int = 30) -> ExperimentConfig:
    """Video2-N with strong rotation bursts and halved evoked amplitudes."""
    synth = SynthConfig(confound_amp=12.0, erp_amp_true=4.0, erp_amp_error=2.5)
    return ExperimentConfig(
        profile="video2n", seed=seed, train_epochs=train_epochs, synth=synth
    )
