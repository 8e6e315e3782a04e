"""Trace points and per-layer metrics of the traced run.

Every name is patched where its caller looks it up (for example
`eegtd.experiment.train`, not `eegtd.model.train`), and each span is named
after the eegtd module that defines the function: that module is its layer.
"""

from __future__ import annotations

import math
from collections import defaultdict

from eegtd import analysis, dataset, experiment, stream
from eegtd import model as mdl

from perfbench.stats import percentile
from perfbench.tracing import Span, Tracer, self_times

LAYERS = ("synth", "core", "dataset", "model", "stream", "metrics", "analysis",
          "experiment")

# Direct children of run_detection_experiment, by phase. Together with the
# experiment's own self time they partition its wall time.
EXPERIMENT_PHASES = {
    "pretrain_model": ("experiment.pretrain_model",),
    "generate_session": ("experiment.generate_session",),
    "stream": ("stream.stream_online_inference",),
    "score": ("metrics.match_detections", "metrics.macro_f_beta"),
    "io": ("model.save_model", "model.write_loss_trace", "core.save_recording",
           "core.save_schedule", "metrics.write_detections_csv"),
}


def _train_info(span: Span, args: tuple, kwargs: dict, result) -> None:
    epochs_data = args[1] if len(args) > 1 else kwargs["epochs_data"]
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    n = len(epochs_data)
    span.info["steps"] = math.ceil(n / cfg.batch_size) * cfg.epochs
    span.info["window_passes"] = n * cfg.epochs
    span.info["final_loss"] = result[1][-1]


def _length(key: str, of_result: bool):
    def observe(span: Span, args: tuple, kwargs: dict, result) -> None:
        span.info[key] = len(result) if of_result else len(args[1])
    return observe


def _encode_info(span: Span, args: tuple, kwargs: dict, result) -> None:
    span.info["bytes"] = len(result)
    span.info["data"] = isinstance(args[0], stream.DataMessage)


def _detections(span: Span, args: tuple, kwargs: dict, result) -> None:
    span.info["detections"] = len(result[0])


def _bytes(span: Span, args: tuple, kwargs: dict, result) -> None:
    span.info["bytes"] = result


def add_trace_points(tracer: Tracer) -> None:
    add = tracer.add
    # experiment: the detect_video1 path
    add(experiment, "run_detection_experiment", "experiment.run_detection_experiment")
    add(experiment, "pretrain_model", "experiment.pretrain_model")
    add(experiment, "generate_session", "experiment.generate_session")
    add(experiment, "make_schedule", "synth.make_schedule")
    add(experiment, "render_eeg", "synth.render_eeg")
    add(experiment, "build_dataset", "dataset.build_dataset", _length("windows", True))
    add(experiment, "init_model", "model.init_model")
    add(experiment, "train", "model.train", _train_info)
    add(experiment, "save_model", "model.save_model")
    add(experiment, "write_loss_trace", "model.write_loss_trace")
    add(experiment, "save_recording", "core.save_recording", _bytes)
    add(experiment, "save_schedule", "core.save_schedule")
    add(experiment, "stream_online_inference", "stream.stream_online_inference",
        _detections)
    add(experiment, "write_detections_csv", "metrics.write_detections_csv")
    add(experiment, "match_detections", "metrics.match_detections")
    add(experiment, "macro_f_beta", "metrics.macro_f_beta")
    # stream: replay server, receiver and online engine
    add(stream, "stream_online_inference", "stream.stream_online_inference",
        _detections)
    add(stream, "client_receive", "stream.client_receive")
    add(stream, "encode_message", "stream.encode_message", _encode_info)
    add(stream.EspStreamReader, "next_message", "stream.next_message")
    add(stream.OnlineEngine, "push", "stream.push")
    add(stream.ReplayServer, "serve_once", "stream.serve_once")
    add(stream, "forward", "model.forward")
    add(stream, "standardize", "model.standardize")
    # analysis: the saliency_video2n path
    add(dataset, "build_eval_dataset", "dataset.build_eval_dataset")
    add(analysis, "evaluate_epochs", "analysis.evaluate_epochs")
    add(analysis, "occlusion_saliency", "analysis.occlusion_saliency")
    add(analysis, "gradient_saliency", "analysis.gradient_saliency")
    add(analysis, "grand_average_erp", "analysis.grand_average_erp")
    add(analysis, "assign_labels", "dataset.assign_labels")
    add(analysis, "predict_batch", "model.predict_batch", _length("windows", False))
    add(analysis, "_backward_batch", "model.backward_batch")
    add(analysis, "_standardize_batch", "model.standardize_batch")
    add(analysis, "macro_f_beta", "metrics.macro_f_beta")
    # set-up of the online and saliency workloads
    add(mdl, "load_model", "model.load_model")


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _pct(values: list[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def layer_metrics(tracer: Tracer, outcome, main_thread: int) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from one traced run.

    Counts and phase times are per traced operation (an experiment, a replay
    session or an analysis pass); `_s`/`_ms`/`_us` figures of single
    functions are per call. A layer the workload does not exercise reads 0.
    """
    spans = tracer.spans
    ops = [s for s in spans if s.name == "bench.op"]
    n_ops = max(1, len(ops))
    # Spans of the operations; the online paced phase runs under no
    # operation root and feeds only the paced-phase stream metrics.
    op_phases = {s.phase for s in ops}
    measured = [s for s in spans if s.phase in op_phases]

    def named(*names: str, pool=measured) -> list[Span]:
        return [s for s in pool if s.name in names]

    def durations(*names: str, pool=measured, scale: float = 1.0) -> list[float]:
        return [scale * s.duration for s in named(*names, pool=pool)]

    def info_sum(spans_: list[Span], key: str) -> float:
        return sum(s.info.get(key, 0) for s in spans_)

    m: dict[str, float] = {}

    train = named("model.train")
    steps = info_sum(train, "steps")
    m["model.train_ms_per_step"] = (
        1000.0 * sum(s.duration for s in train) / steps if steps else 0.0
    )
    m["model.train_steps"] = steps / n_ops
    m["model.train_window_passes"] = info_sum(train, "window_passes") / n_ops
    m["model.final_loss"] = _mean([s.info["final_loss"] for s in train])
    m["model.loss_clamps"] = info_sum(ops, "loss_clamps") / n_ops

    forward_ms = durations("model.forward", scale=1000.0)
    m["model.online_forward_ms_p50"] = _pct(forward_ms, 50)
    m["model.online_forward_ms_p99"] = _pct(forward_ms, 99)
    m["model.online_forward_calls"] = len(forward_ms) / n_ops

    batches = named("model.predict_batch")
    windows = info_sum(batches, "windows")
    m["model.predict_batch_ms_per_window"] = (
        1000.0 * sum(s.duration for s in batches) / windows if windows else 0.0
    )
    m["model.predict_batch_windows"] = windows / n_ops

    encodes = [s for s in named("stream.encode_message") if s.info["data"]]
    m["stream.encode_us_per_block"] = 1e6 * _mean([s.duration for s in encodes])
    m["stream.next_message_us"] = _mean(durations("stream.next_message", scale=1e6))
    paced = {phase for phase, sess in outcome.traced_sessions if sess.paced}
    busy_pool = [s for s in spans if s.phase in paced] if paced else measured
    pushes = durations("stream.push", pool=busy_pool)
    sessions = durations("stream.stream_online_inference", pool=busy_pool)
    m["stream.push_busy_frac"] = sum(pushes) / sum(sessions) if sessions else 0.0
    m["stream.push_ms_p99"] = _pct([1000.0 * d for d in pushes], 99)
    m["stream.blocks"] = len(encodes) / n_ops
    m["stream.bytes_sent"] = info_sum(named("stream.encode_message"), "bytes") / n_ops
    m["stream.windows_evaluated"] = sum(
        sess.windows() for phase, sess in outcome.traced_sessions if phase in op_phases
    ) / n_ops
    m["stream.detections"] = info_sum(
        named("stream.stream_online_inference"), "detections"
    ) / n_ops

    for name in ("synth.render_eeg", "synth.make_schedule", "dataset.build_dataset",
                 "dataset.build_eval_dataset", "core.save_recording",
                 "model.save_model", "analysis.evaluate_epochs",
                 "analysis.occlusion_saliency", "analysis.gradient_saliency",
                 "analysis.grand_average_erp"):
        # synth also runs in the set-up of online and saliency, and should move it
        m[name + "_s"] = _mean(durations(name, pool=spans))
    m["dataset.build_dataset_windows"] = info_sum(named("dataset.build_dataset"),
                                                  "windows") / n_ops
    m["core.save_recording_bytes"] = _mean(
        [s.info["bytes"] for s in named("core.save_recording")]
    )
    m["metrics.match_detections_ms"] = _mean(
        durations("metrics.match_detections", scale=1000.0))
    m["metrics.macro_f_beta_ms"] = _mean(durations("metrics.macro_f_beta", scale=1000.0))

    m.update(experiment_phases(spans))

    own = self_times(spans)
    per_layer: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, own):
        if s.phase in op_phases and s.thread == main_thread:
            per_layer[s.layer] += t
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = per_layer[layer] / n_ops

    untraced, traced = outcome.walls, outcome.traced_walls
    m["trace.overhead_frac"] = (
        percentile(traced, 50) / percentile(untraced, 50) - 1.0
        if traced and untraced else 0.0
    )
    return m


def experiment_phases(spans: list[Span]) -> dict[str, float]:
    """Phase times per experiment and the share of its wall time they cover."""
    runs = [i for i, s in enumerate(spans)
            if s.name == "experiment.run_detection_experiment"]
    totals = dict.fromkeys(EXPERIMENT_PHASES, 0.0)
    phase_of = {name: phase for phase, names in EXPERIMENT_PHASES.items()
                for name in names}
    run_set = set(runs)
    for s in spans:
        if s.parent in run_set and s.name in phase_of:
            totals[phase_of[s.name]] += s.duration
    wall = sum(spans[i].duration for i in runs)
    n = max(1, len(runs))
    out = {f"experiment.{phase}_s": t / n for phase, t in totals.items()}
    out["experiment.phase_cover_frac"] = sum(totals.values()) / wall if wall else 0.0
    return out
