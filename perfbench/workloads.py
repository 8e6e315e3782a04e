"""The benchmark's three workloads, run through the public API of eegtd.

Each workload leans on a different use of the model layer: training at
B=128 (detect_video1), online inference at B=1 (online_video2n) and eval-mode
large-batch scoring plus the input gradient (saliency_video2n). README.md in
this directory says why each was chosen and which metric should move where.

This module imports numpy, so it is only imported by the worker process,
after the BLAS thread count has been pinned.
"""

from __future__ import annotations

import math
import shutil
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from eegtd import analysis, core, dataset, experiment, metrics, stream
from eegtd import model as mdl
from eegtd.seeding import child_seed

from perfbench.stats import due_times, window_ends, window_lags
from perfbench.tracing import Tracer

# A scaled-down A1 run (A1 pools 6 sessions for 30 epochs): training is
# still its largest phase, and three experiments (about 14 s each on a
# 2-core VM) fit in a 50 s run, so wall_s is a median of three.
DETECT_TRAIN_SESSIONS = 2
DETECT_TRAIN_EPOCHS = 3

# The paced online phase replays the first PACED_HEAD_S seconds of the
# session at PACED_SPEED times real time (15 s of wall time). The engine keeps
# up with about 50x on a 2-core VM, so at 8x it is busy about a fifth of the
# time and the lag is mostly the stream path's own: queueing behind the
# engine stays small. At 16x (the engine busy a third of the time or more)
# the p50 lag moved by 25-30 % with the host's speed from run to run; at 8x
# it moved by about half that.
PACED_SPEED = 8.0
PACED_HEAD_S = 120.0
# Full-session unpaced replays per run, at least; wall_s is their median.
MIN_UNPACED = 2

# C8 samples 14 negatives per event (900 windows on video2n). Five give 360
# windows, one full B=256 chunk and a partial one per predict_batch pass, and
# keep a pass near 10.5 s on a 2-core VM, so a 50 s run makes four. With 600
# windows a pass took about 18 s, and a run made one pass or two depending
# on the host's speed.
SALIENCY_NONTARGET_PER_EVENT = 5
ERP_CHANNELS = ("Fz", "Cz", "Pz", "Oz")
SERVER_JOIN_S = 30.0


class CheckFailed(AssertionError):
    """An output of the program under test is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Session:
    """What the always-on probe saw of one replay session."""

    window_len: int
    stride: int
    sends: list[float] = field(default_factory=list)  # send time per block
    pushes: list[tuple[int, int, float]] = field(default_factory=list)
    server: Any = None

    @property
    def paced(self) -> bool:
        return math.isfinite(self.server.speed)

    def windows(self) -> int:
        """How many windows the engine evaluated."""
        return sum(len(window_ends(before, after, self.window_len, self.stride))
                   for before, after, _ in self.pushes)

    def lags_ms(self) -> list[float]:
        """Lag of every evaluated window of a paced session."""
        srv = self.server
        due = due_times(self.sends, srv.chunk_s, srv.speed)
        lags = window_lags(self.pushes, due, srv.chunk_frames, self.window_len,
                           self.stride)
        return [1000.0 * v for v in lags]

    def generator_late_ms(self) -> list[float]:
        """How late the generator sent each block of a paced session."""
        srv = self.server
        due = due_times(self.sends, srv.chunk_s, srv.speed)
        return [1000.0 * (s - d) for s, d in zip(self.sends, due)]


class Probe:
    """The few hooks the end-to-end metrics need, on in every run: block
    send times, engine pushes, model batch-call durations and the
    model the experiment trained. Each costs one clock read and one append."""

    def __init__(self) -> None:
        self.session = Session(0, 1)
        self.batch_ms: list[float] = []
        self.trained: list[Any] = []

    def install(self) -> None:
        """Wrap the hooked names for the rest of the process."""
        encode = stream.encode_message
        push = stream.OnlineEngine.push
        serve_once = stream.ReplayServer.serve_once
        predict_batch = analysis.predict_batch
        pretrain = experiment.pretrain_model

        def encode_message(msg):
            if isinstance(msg, stream.DataMessage):
                self.session.sends.append(time.perf_counter())
            return encode(msg)

        def engine_push(engine, frames):
            before = engine.ring.write_head
            out = push(engine, frames)
            self.session.pushes.append(
                (before, engine.ring.write_head, time.perf_counter())
            )
            return out

        def replay_serve_once(server):
            self.session.server = server
            return serve_once(server)

        def timed_predict_batch(*args, **kwargs):
            t = time.perf_counter()
            out = predict_batch(*args, **kwargs)
            self.batch_ms.append(1000.0 * (time.perf_counter() - t))
            return out

        def pretrain_model(*args, **kwargs):
            out = pretrain(*args, **kwargs)
            self.trained.append(out[0])
            return out

        stream.encode_message = encode_message
        stream.OnlineEngine.push = engine_push
        stream.ReplayServer.serve_once = replay_serve_once
        analysis.predict_batch = timed_predict_batch
        experiment.pretrain_model = pretrain_model

    def new_session(self, window_len: int, stride: int) -> Session:
        self.session = Session(window_len, stride)
        return self.session


@dataclass
class Outcome:
    """Everything a workload run hands back to run.py."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)  # untraced ops, seconds
    traced_walls: list[float] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    traced_sessions: list[tuple[str, Session]] = field(default_factory=list)
    notes: dict[str, float] = field(default_factory=dict)

    def attempt(self, label: str, op: Callable[[], Any],
                check: Callable[[Any], None]) -> tuple[Any, float] | None:
        """Time op(), then check its result outside the timed region. A
        raise from either counts the operation as failed."""
        self.attempted += 1
        try:
            t = time.perf_counter()
            result = op()
            wall = time.perf_counter() - t
            check(result)
        except Exception as exc:  # the run goes on and reports the failure
            self.failed += 1
            self.errors.append(f"{label}: {exc!r}")
            traceback.print_exc(file=sys.stderr)
            return None
        return result, wall


def alternate(seconds: float, tracer: Tracer | None,
              step: Callable[[bool, int], float | None], min_calls: int = 1) -> None:
    """Call step(traced, i) while another call is expected to end within
    `seconds`; step returns its wall time, or None if it failed. At least
    `min_calls` calls are made; a traced run alternates untraced and traced
    calls and makes at least one of each."""
    deadline = time.perf_counter() + seconds
    least = max(min_calls, 2 if tracer is not None else 1)
    walls: list[float] = []
    i = 0
    while True:
        wall = step(tracer is not None and i % 2 == 1, i)
        i += 1
        if wall is not None:
            walls.append(wall)
        if i < least:
            continue
        expected = float(np.median(walls)) if walls else 0.0
        if time.perf_counter() + expected > deadline:
            return


@contextmanager
def traced_op(tracer: Tracer | None, traced: bool, phase: str):
    """Trace one operation under a root span, so that main-thread self
    times add up to the operation's wall time."""
    if not traced:
        yield
        return
    clamps = getattr(mdl, "loss_clamp_count", lambda: 0)
    with tracer.active(phase), tracer.span("bench.op") as root:
        before = clamps()
        yield
        root.info["loss_clamps"] = clamps() - before


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, model_path: Path):
        self.seed = seed
        self.workdir = workdir
        self.model_path = model_path

    def setup(self) -> None:
        """Everything before the first timed call."""

    def run(self, seconds: float, probe: Probe, tracer: Tracer | None) -> Outcome:
        raise NotImplementedError

    def _load_session_and_model(self) -> None:
        self.cfg = experiment.confounded_stimulus_config(seed=self.seed)
        self.rec, self.schedule = experiment.generate_session(
            self.cfg, child_seed(self.seed, "test-session")
        )
        with open(self.model_path, "rb") as fh:
            self.model = mdl.load_model(fh)


class DetectVideo1(Workload):
    """run_detection_experiment on video1 with fewer sessions and epochs
    than A1 and an unpaced stream phase."""

    name = "detect_video1"

    def setup(self) -> None:
        self.cfg = replace(
            experiment.clean_stimulus_config(
                seed=self.seed, train_epochs=DETECT_TRAIN_EPOCHS
            ),
            n_train_sessions=DETECT_TRAIN_SESSIONS,
            stream_speed=math.inf,
        )

    def run(self, seconds: float, probe: Probe, tracer: Tracer | None) -> Outcome:
        out = Outcome()
        workdir = self.workdir / "experiment"

        def step(traced: bool, i: int) -> float | None:
            session = probe.new_session(
                self.cfg.net.window_len, self.cfg.online.infer_stride
            )
            with traced_op(tracer, traced, f"op{i}"):
                done = out.attempt(
                    f"experiment {i}",
                    lambda: experiment.run_detection_experiment(self.cfg, workdir),
                    lambda result: self.check(result, probe.trained[-1]),
                )
            if done is None:
                return None
            result, wall = done
            (out.traced_walls if traced else out.walls).append(wall)
            if traced:
                out.traced_sessions.append((f"op{i}", session))
            else:
                # The experiment is the unit a user of this path waits for.
                # The lag of its unpaced stream phase is set by the saturated
                # receive queue and socket buffers, and varied by 20-40 %
                # from run to run.
                out.latencies_ms.append(1000.0 * wall)
                out.notes["detections"] = len(result.detections)
                out.notes["event_macro_f"] = result.macro_f
            return wall

        alternate(seconds, tracer, step)
        shutil.rmtree(workdir, ignore_errors=True)
        return out

    def check(self, result, trained) -> None:
        with open(result.model_path, "rb") as fh:
            loaded = mdl.load_model(fh)
        rec = core.load_recording(result.test_recording_path)
        w = trained.config.window_len
        starts = np.linspace(0, rec.n_samples - w, 5).astype(int)
        x = np.stack([mdl.standardize(rec.samples[:, s : s + w]) for s in starts])
        _, expected = mdl.predict_batch(trained, x)
        _, got = mdl.predict_batch(loaded, x)
        require(np.array_equal(expected, got),
                "saved model does not reproduce predict_batch")
        with open(result.detections_path, newline="") as fh:
            written = metrics.read_detections_csv(fh)
        require(written == result.detections, "detections CSV differs from the result")
        times = [d.time for d in written]
        require(times == sorted(times), "detections CSV is not time-sorted")
        require(len(result.loss_trace) == self.cfg.train_epochs
                and all(math.isfinite(v) for v in result.loss_trace),
                f"loss trace not finite: {result.loss_trace}")


def session_head(rec: core.Recording, schedule: core.EventSchedule,
                 n_samples: int) -> tuple[core.Recording, core.EventSchedule]:
    """The first n_samples of a session, with the events that end within them."""
    def keep(events):
        return [ev for ev in events if ev.end <= n_samples]

    head = core.Recording(rec.sampling_rate, list(rec.channel_names),
                          rec.samples[:, :n_samples])
    return head, core.EventSchedule(n_samples, schedule.sampling_rate,
                                    keep(schedule.targets), keep(schedule.dynamics))


class OnlineVideo2n(Workload):
    """A held-out confounded video2n session replayed over one loopback TCP
    connection into the online engine: its first PACED_HEAD_S seconds paced,
    then the whole session unpaced, at least MIN_UNPACED times."""

    name = "online_video2n"

    def setup(self) -> None:
        self._load_session_and_model()
        self.head_rec, self.head_schedule = session_head(
            self.rec, self.schedule, int(PACED_HEAD_S * self.rec.sampling_rate)
        )

    def replay(self, rec: core.Recording, schedule: core.EventSchedule,
               speed: float, probe: Probe) -> tuple[list, Any, Session]:
        session = probe.new_session(
            self.model.config.window_len, self.cfg.online.infer_stride
        )
        server = stream.ReplayServer(
            rec, schedule, chunk_ms=self.cfg.chunk_ms, speed=speed
        )
        with server:
            thread = server.serve_in_thread()
            detections, summary = stream.stream_online_inference(
                (server.host, server.port), self.model, self.cfg.online
            )
            thread.join(SERVER_JOIN_S)
        require(not thread.is_alive(), "replay server did not finish")
        require(summary.total_frames == rec.n_samples,
                f"received {summary.total_frames} of {rec.n_samples} frames")
        return detections, summary, session

    def check(self, detections: list, reference: list | None,
              paced: list | None) -> None:
        """An unpaced replay of the whole session: it detects, agrees with
        the first unpaced replay and, the engine being causal, with the
        paced replay of the session's head over that head."""
        require(len(detections) >= 1, "no detection emitted")
        if reference is not None:
            require(detections == reference,
                    "unpaced replays gave different detections")
        if paced is not None:
            head_n = self.head_rec.n_samples
            require([d for d in detections if d.time <= head_n] == paced,
                    "paced and unpaced replays of the head gave different "
                    "detections")

    def run(self, seconds: float, probe: Probe, tracer: Tracer | None) -> Outcome:
        out = Outcome()
        session_s = self.rec.n_samples / self.rec.sampling_rate
        deadline = time.perf_counter() + seconds

        # The paced phase also warms the process up for the unpaced replays.
        # In a traced run its spans carry the phase "paced" under no
        # operation root, so they feed only the paced-phase stream metrics.
        with tracer.active("paced") if tracer is not None else nullcontext():
            done = out.attempt(
                "paced",
                lambda: self.replay(self.head_rec, self.head_schedule,
                                    PACED_SPEED, probe),
                lambda r: None,
            )
        paced: list | None = None
        if done is not None:
            (paced, _, session), _ = done
            if tracer is not None:
                out.traced_sessions.append(("paced", session))
            else:
                out.latencies_ms = session.lags_ms()
                out.notes["generator_late_ms_max"] = max(session.generator_late_ms())
        reference: list | None = None

        def step(traced: bool, i: int) -> float | None:
            nonlocal reference
            label = f"unpaced{i}"
            with traced_op(tracer, traced, label):
                done = out.attempt(
                    label,
                    lambda: self.replay(self.rec, self.schedule, math.inf, probe),
                    lambda r: self.check(r[0], reference, paced),
                )
            if done is None:
                return None
            (detections, _, session), wall = done
            if reference is None:
                reference = detections
            (out.traced_walls if traced else out.walls).append(wall)
            if traced:
                out.traced_sessions.append((label, session))
            out.notes["detections"] = len(detections)
            return wall

        alternate(max(0.0, deadline - time.perf_counter()), tracer, step,
                  min_calls=MIN_UNPACED)
        out.notes["session_s"] = session_s
        if out.walls:
            out.notes["rt_factor"] = session_s / float(np.median(out.walls))
        return out


class SaliencyVideo2n(Workload):
    """Criterion C8's analysis of a held-out confounded video2n session."""

    name = "saliency_video2n"

    def setup(self) -> None:
        self._load_session_and_model()

    def analyse(self) -> dict[str, Any]:
        metric_cfg = metrics.MetricConfig()
        epochs = dataset.build_eval_dataset(
            self.rec, self.schedule,
            dataset.DatasetConfig(nontarget_per_event=SALIENCY_NONTARGET_PER_EVENT),
            seed=self.seed,
        )
        score, _ = analysis.evaluate_epochs(self.model, epochs, metric_cfg)
        occlusion = analysis.occlusion_saliency(self.model, epochs, metric_cfg)
        gradient = analysis.gradient_saliency(self.model, epochs)
        erp = analysis.grand_average_erp(
            self.rec, self.schedule, ERP_CHANNELS, seed=self.seed
        )
        return {"score": score, "occlusion": occlusion, "gradient": gradient,
                "erp": erp, "windows": len(epochs)}

    def check(self, res: dict[str, Any]) -> None:
        n_channels = self.rec.n_channels
        for name, values in (("occlusion", res["occlusion"].importance),
                             ("gradient", res["gradient"])):
            values = np.asarray(values)
            require(values.shape == (n_channels,),
                    f"{name} importances have shape {values.shape}")
            require(bool(np.isfinite(values).all()), f"{name} importances not finite")
        require(res["occlusion"].baseline_score == res["score"],
                f"occlusion baseline {res['occlusion'].baseline_score} != "
                f"evaluate_epochs score {res['score']}")
        require(bool(res["erp"].waves)
                and all(np.isfinite(w).all() for w in res["erp"].waves.values()),
                "grand averages missing or not finite")

    def run(self, seconds: float, probe: Probe, tracer: Tracer | None) -> Outcome:
        out = Outcome()

        def step(traced: bool, i: int) -> float | None:
            calls_before = len(probe.batch_ms)
            with traced_op(tracer, traced, f"op{i}"):
                done = out.attempt(f"analysis {i}", self.analyse, self.check)
            if done is None:
                return None
            res, wall = done
            (out.traced_walls if traced else out.walls).append(wall)
            if not traced:
                out.latencies_ms += probe.batch_ms[calls_before:]
                out.notes["windows"] = res["windows"]
            return wall

        alternate(seconds, tracer, step)
        return out


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (DetectVideo1, OnlineVideo2n, SaliencyVideo2n)
}
