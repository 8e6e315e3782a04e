"""Single command-line entry point exposing the pipeline as subcommands:
generate, train, calibrate, serve, infer-online, evaluate, analyze-erp,
analyze-saliency, selftest.

Randomness flows from one --seed flag through named sub-streams. A
`--config` file of key=value lines supplies defaults that explicit flags
override. Logs go to stderr as `level ts component message`.
"""

from __future__ import annotations

import argparse
import logging
import sys

from pathlib import Path

import numpy as np

from eegtd import __version__
from eegtd.analysis import (
    CLASS_NAMES, grand_average_erp, gradient_saliency, occlusion_saliency, write_erp_csv,
    write_saliency_csv,
)
from eegtd.core import (
    FormatError,
    load_recording,
    load_schedule,
    save_recording,
    save_schedule,
)
from eegtd.dataset import DatasetConfig, build_dataset, build_eval_dataset
from eegtd.experiment import render_session
from eegtd.metrics import (
    DEFAULT_MATCH_TOLERANCE,
    ConfusionMatrix,
    FBetaForm,
    MetricConfig,
    f_beta,
    macro_f_beta,
    match_detections,
    precision_recall,
    read_detections_csv,
    write_detections_csv,
)
from eegtd.model import (
    NetConfig,
    TrainConfig,
    backward,
    calibrate,
    cross_entropy,
    forward,
    init_model,
    load_model,
    save_model,
    standardize,
    train,
    write_loss_trace,
)
from eegtd.montage import write_layout_csv
from eegtd.seeding import child_seed
from eegtd.stream import (
    DataMessage, EspStreamReader, OnlineConfig, ProtocolError, ReplayServer, StartMessage,
    StopMessage, encode_message, stream_online_inference,
)
from eegtd.synth import SynthConfig, profile_by_name

log = logging.getLogger("eegtd.cli")


def _setup_logging(level: str) -> None:
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level.upper()),
        format="%(levelname)s %(asctime)s %(name)s %(message)s",
        datefmt="%Y-%m-%dT%H:%M:%S",
    )


def _load_config_file(path: str) -> dict[str, str]:
    values = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise FormatError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config_defaults(parser: argparse.ArgumentParser, args: list[str]) -> list[str]:
    """Pull --config out of args and install its values as defaults of each
    subcommand that has a flag of that name."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    found, _ = probe.parse_known_args(args)
    if not found.config:
        return args
    values = _load_config_file(found.config)
    known: set[str] = set()
    for sub_action in parser._subparsers._group_actions:  # noqa: SLF001 - argparse has no public api
        for sub in sub_action.choices.values():
            dests = {action.dest for action in sub._actions}
            known |= dests
            sub.set_defaults(**{k: v for k, v in values.items() if k in dests})
    unknown = set(values) - known
    if unknown:
        raise FormatError(f"unknown config keys: {sorted(unknown)}")
    return args


def cmd_generate(args) -> int:
    profile = profile_by_name(args.profile, args.events_per_class)
    synth = SynthConfig(
        background_sigma=args.background_sigma,
        erp_amp_true=args.erp_amp_true,
        erp_amp_error=args.erp_amp_error,
        confound_amp=args.confound_amp,
    )
    recording, schedule = render_session(profile, synth, args.seed)
    eegr = Path(f"{args.out_prefix}.eegr")
    csv_path = Path(f"{args.out_prefix}.schedule.csv")
    save_recording(recording, eegr)
    save_schedule(schedule, csv_path)
    log.info("wrote %s and %s", eegr, csv_path)
    print(f"{eegr} {csv_path}")
    return 0


def _dataset_config(args, window_len: int, stride: int) -> DatasetConfig:
    return DatasetConfig(
        window_len=window_len,
        stride=stride,
        nontarget_per_event=args.nontarget_per_event,
    )


def _train_config(args, seed: int, epochs: int = TrainConfig.epochs) -> TrainConfig:
    return TrainConfig(
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        weight_decay=args.weight_decay,
        epochs=epochs,
        seed=seed,
    )


def _metric_config(args) -> MetricConfig:
    return MetricConfig(beta=args.beta, form=FBetaForm(args.fbeta_form))


def cmd_train(args) -> int:
    recording = load_recording(args.recording)
    schedule = load_schedule(args.schedule)
    cfg = _dataset_config(args, args.window_len, args.stride)
    windows = build_dataset(recording, schedule, cfg, child_seed(args.seed, "dataset"))
    net = NetConfig(n_channels=recording.n_channels, window_len=cfg.window_len)
    model = init_model(net, child_seed(args.seed, "init"))
    train_cfg = _train_config(args, child_seed(args.seed, "train"), epochs=args.epochs)
    trained, trace = train(model, windows, train_cfg)
    with open(args.out_model, "wb") as fh:
        save_model(trained, fh)
    if args.loss_trace:
        with open(args.loss_trace, "w", newline="") as fh:
            write_loss_trace(trace, fh)
    log.info("trained %d epochs, final mean loss %.6f", len(trace), trace[-1])
    print(f"{args.out_model} final_loss={trace[-1]!r}")
    return 0


def cmd_calibrate(args) -> int:
    with open(args.model, "rb") as fh:
        model = load_model(fh)
    recording = load_recording(args.recording)
    schedule = load_schedule(args.schedule)
    cfg = _dataset_config(args, model.config.window_len, args.stride)
    windows = build_dataset(
        recording, schedule, cfg, child_seed(args.seed, "calibration")
    )
    train_cfg = _train_config(args, child_seed(args.seed, "calibrate"))
    tuned = calibrate(
        model, windows, train_cfg,
        lr_scale=args.lr_scale, epochs=args.calibration_epochs,
    )
    with open(args.out_model, "wb") as fh:
        save_model(tuned, fh)
    print(args.out_model)
    return 0


def cmd_serve(args) -> int:
    recording = load_recording(args.recording)
    schedule = load_schedule(args.schedule)
    server = ReplayServer(
        recording, schedule,
        host=args.host, port=args.port, chunk_ms=args.chunk_ms, speed=args.speed,
    )
    with server:
        print(f"serving on {server.host}:{server.port}", flush=True)
        try:
            summary = server.serve_once()
        except KeyboardInterrupt:
            log.info("interrupted; shutting down")
            return 0
    log.info(
        "session complete: %d blocks, %d frames, %.2fs",
        summary.blocks_sent, summary.frames_sent, summary.wall_seconds,
    )
    return 0


def cmd_infer_online(args) -> int:
    with open(args.model, "rb") as fh:
        model = load_model(fh)
    cfg = OnlineConfig(
        infer_stride=args.infer_stride,
        trigger_threshold=args.threshold,
        consecutive_required=args.consecutive,
        refractory=args.refractory,
    )
    try:
        detections, summary = stream_online_inference(args.connect, model, cfg)
    except KeyboardInterrupt:
        log.info("interrupted; shutting down")
        return 0
    for det in detections:
        print(f"detection time={det.time} class={int(det.class_id)} "
              f"confidence={det.confidence:.4f}")
    print(f"received {summary.total_frames} frames in {summary.wall_seconds:.2f}s, "
          f"{len(detections)} detections")
    if args.emit:
        with open(args.emit, "w", newline="") as fh:
            write_detections_csv(detections, fh)
        log.info("wrote %s", args.emit)
    return 0


def cmd_evaluate(args) -> int:
    with open(args.detections, "r", encoding="utf-8") as fh:
        detections = read_detections_csv(fh)
    schedule = load_schedule(args.schedule)
    cfg = _metric_config(args)
    cm, _ = match_detections(detections, schedule, tolerance=args.tolerance)
    for c in range(3):
        precision, recall = precision_recall(cm, c)
        print(
            f"class {CLASS_NAMES[c]} precision={precision:.6f} "
            f"recall={recall:.6f} f_beta={f_beta(precision, recall, cfg):.6f}"
        )
    print(f"macro_f_beta {macro_f_beta(cm, cfg):.6f}")
    return 0


def cmd_analyze_erp(args) -> int:
    recording = load_recording(args.recording)
    schedule = load_schedule(args.schedule)
    channels = [c.strip() for c in args.channels.split(",") if c.strip()]
    result = grand_average_erp(
        recording, schedule, channels,
        horizon_s=args.horizon_s, baseline_s=args.baseline_s,
        seed=child_seed(args.seed, "erp-baseline"),
    )
    with open(args.out, "w", newline="") as fh:
        write_erp_csv(result, fh)
    for note in result.notes:
        log.info("%s", note)
    for name, n in sorted(result.n_trials.items()):
        skipped = result.n_skipped.get(name, 0)
        print(f"{name}: {n} trials averaged, {skipped} skipped")
    print(args.out)
    return 0


def cmd_analyze_saliency(args) -> int:
    with open(args.model, "rb") as fh:
        model = load_model(fh)
    recording = load_recording(args.recording)
    schedule = load_schedule(args.schedule)
    # Evaluation windows do not slide: one window per event at its onset.
    w = model.config.window_len
    cfg = _dataset_config(args, w, stride=w)
    windows = build_eval_dataset(
        recording, schedule, cfg, child_seed(args.seed, "saliency-eval")
    )
    metric = _metric_config(args)
    occ = occlusion_saliency(model, windows, metric)
    grad = gradient_saliency(model, windows)
    with open(args.out, "w", newline="") as fh:
        write_saliency_csv(recording.channel_names, occ.importance, grad, fh)
    if args.layout_out:
        with open(args.layout_out, "w", newline="") as fh:
            write_layout_csv(fh, recording.channel_names)
    print(f"baseline_macro_f={occ.baseline_score!r}")
    print(args.out)
    return 0


def _selftest_metrics() -> bool:
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        counts = rng.integers(0, 40, size=(3, 3))
        cm = ConfusionMatrix(counts)
        for form in (FBetaForm.RECALL_WEIGHTED, FBetaForm.LITERAL):
            cfg = MetricConfig(beta=2.0, form=form)
            got = macro_f_beta(cm, cfg)
            scores = []
            for c in range(3):
                tp = counts[c, c]
                fn = counts[c, :].sum() - tp
                fp = counts[:, c].sum() - tp
                r = tp / (tp + fn) if tp + fn else 0.0
                p = tp / (tp + fp) if tp + fp else 0.0
                den = 4 * p + r if form == FBetaForm.RECALL_WEIGHTED else 4 * r + p
                scores.append(5 * p * r / den if den else 0.0)
            if abs(got - sum(scores) / 3) >= 1e-9:
                return False
    hand = f_beta(1.0, 0.5, MetricConfig(beta=2.0))
    hand_lit = f_beta(1.0, 0.5, MetricConfig(beta=2.0, form=FBetaForm.LITERAL))
    return abs(hand - 0.555556) < 1e-6 and abs(hand_lit - 0.833333) < 1e-6


def _selftest_gradients() -> bool:
    cfg = NetConfig(
        n_channels=3, window_len=20, temporal_filters=2, deep_filters=(2,),
        kernel_len=3, pool_len=2, dropout_rate=0.0, dense_hidden=4,
    )
    model = init_model(cfg, seed=11)
    rng = np.random.default_rng(42)
    x = standardize(rng.standard_normal((1, 3, 20)))
    h = 1e-4
    for label in (0, 1, 2):
        labels = np.array([label])
        grads, _, _ = backward(model, x, labels)
        for stage_name in ("stage_a", "stage_b"):
            stage = getattr(model, stage_name)
            for name, arr in stage.params.items():
                flat = arr.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    lp = cross_entropy(forward(model, x), labels)[0]
                    flat[i] = orig - h
                    lm = cross_entropy(forward(model, x), labels)[0]
                    flat[i] = orig
                    fd = (lp - lm) / (2 * h)
                    an = grads[stage_name][name].ravel()[i]
                    if abs(an - fd) / (abs(an) + 1e-8) >= 1e-4:
                        return False
    return True


def _selftest_protocol() -> bool:
    frames = np.arange(12, dtype=np.float32).reshape(4, 3)
    messages = [
        StartMessage(250.0, ("a", "b", "c")),
        DataMessage(0, frames, [(2, 1)]),
        DataMessage(1, frames + 1),
        StopMessage(8),
    ]
    blob = b"".join(encode_message(m) for m in messages)
    whole, bytewise = EspStreamReader(), EspStreamReader()
    fed = [msg for i in range(len(blob)) for msg in bytewise.feed(blob[i : i + 1])]
    return (
        whole.feed(blob) == messages == fed
        and whole.feed(b"") == [] == bytewise.feed(b"")
    )


def run_selftest(args) -> int:
    checks = [
        ("metric-oracle", _selftest_metrics),
        ("gradient-check", _selftest_gradients),
        ("protocol-round-trip", _selftest_protocol),
    ]
    failures = 0
    for name, check in checks:
        ok = check()
        print(f"selftest {name} {'PASS' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegtd",
        description="EEG video-target detection pipeline: synthesis, training, "
        "streaming inference, evaluation, analysis.",
    )
    parser.add_argument("--version", action="version", version=f"eegtd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value file of flag defaults")
        p.add_argument("--seed", type=int, default=7,
                       help="master seed for all sub-streams")
        p.add_argument("--log-level", default="info",
                       choices=["debug", "info", "warning", "error"])

    def add_dataset_flags(p):
        p.add_argument("--nontarget-per-event", type=int,
                       default=DatasetConfig.nontarget_per_event)

    def add_train_flags(p):
        p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
        p.add_argument("--learning-rate", type=float,
                       default=TrainConfig.learning_rate)
        p.add_argument("--weight-decay", type=float, default=TrainConfig.weight_decay)
        p.add_argument("--stride", type=int, default=DatasetConfig.stride)
        add_dataset_flags(p)

    def add_metric_flags(p):
        p.add_argument("--fbeta-form", default=MetricConfig.form.value,
                       choices=[form.value for form in FBetaForm])
        p.add_argument("--beta", type=float, default=MetricConfig.beta)

    p = sub.add_parser("generate", help="emit a synthetic EEGR recording plus schedule CSV")
    add_common(p)
    p.add_argument("--profile", required=True, choices=["video1", "video2n"])
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--events-per-class", type=int)
    p.add_argument("--background-sigma", type=float,
                   default=SynthConfig.background_sigma)
    p.add_argument("--erp-amp-true", type=float, default=SynthConfig.erp_amp_true)
    p.add_argument("--erp-amp-error", type=float, default=SynthConfig.erp_amp_error)
    p.add_argument("--confound-amp", type=float, default=12.0,
                   help="rotation burst amplitude, default %(default)s "
                   "(video1 has no rotations)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train the hierarchical model on a recording")
    add_common(p)
    p.add_argument("--recording", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--out-model", required=True)
    p.add_argument("--loss-trace", help="write per-epoch mean loss CSV here")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--window-len", type=int, default=DatasetConfig.window_len)
    add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="fine-tune a pretrained model on calibration data")
    add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--recording", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--out-model", required=True)
    p.add_argument("--calibration-epochs", type=int, default=10)
    p.add_argument("--lr-scale", type=float, default=0.1)
    add_train_flags(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("serve", help="replay a recording over the wire protocol")
    add_common(p)
    p.add_argument("--recording", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--speed", type=float, default=1.0,
                   help="replay speed multiplier; inf disables pacing")
    p.add_argument("--chunk-ms", type=float, default=40.0)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("infer-online", help="stream from a server and emit detections")
    add_common(p)
    p.add_argument("--connect", required=True, help="host:port of the replay server")
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=float, default=OnlineConfig.trigger_threshold)
    p.add_argument("--consecutive", type=int, default=OnlineConfig.consecutive_required)
    p.add_argument("--refractory", type=int, default=OnlineConfig.refractory)
    p.add_argument("--infer-stride", type=int, default=OnlineConfig.infer_stride,
                   help="classify the latest window every this many new samples")
    p.add_argument("--emit", help="write detections CSV here")
    p.set_defaults(func=cmd_infer_online)

    p = sub.add_parser("evaluate", help="score detections against a schedule")
    add_common(p)
    p.add_argument("--detections", required=True)
    p.add_argument("--schedule", required=True)
    add_metric_flags(p)
    p.add_argument("--tolerance", type=int, default=DEFAULT_MATCH_TOLERANCE)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze-erp", help="grand-average evoked waveforms to CSV")
    add_common(p)
    p.add_argument("--recording", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--channels", default="Cz,C3,C4")
    p.add_argument("--horizon-s", type=float, default=3.0)
    p.add_argument("--baseline-s", type=float, default=0.2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze_erp)

    p = sub.add_parser("analyze-saliency", help="per-channel occlusion + gradient importance")
    add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--recording", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--layout-out", help="also write the 2-D montage layout CSV")
    add_metric_flags(p)
    add_dataset_flags(p)
    p.set_defaults(func=cmd_analyze_saliency)

    p = sub.add_parser("selftest", help="metric oracle, gradient check, protocol round trip")
    add_common(p)
    p.set_defaults(func=run_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        argv = _apply_config_defaults(parser, argv)
        args = parser.parse_args(argv)
        _setup_logging(args.log_level)
        return args.func(args)
    except (FormatError, ProtocolError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
