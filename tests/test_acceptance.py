"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The two end-to-end
detection experiments (clean and confounded stimulus) train real models and
stream over TCP, so this module takes tens of minutes; everything else is
fast.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from eegtd.analysis import (
    grand_average_erp,
    gradient_saliency,
    occlusion_saliency,
)
from conftest import windows_end_to_end
from eegtd.core import ClassId, Event, EventSchedule, load_recording
from eegtd.dataset import (
    DatasetConfig,
    assign_labels,
    augment_minority,
    build_eval_dataset,
)
from eegtd.experiment import (
    clean_stimulus_config,
    confounded_stimulus_config,
    run_detection_experiment,
)
from eegtd.metrics import ConfusionMatrix, FBetaForm, MetricConfig, f_beta, macro_f_beta
from eegtd.model import (
    NetConfig,
    TrainConfig,
    backward,
    cross_entropy,
    forward,
    init_model,
    standardize,
    train,
)
from eegtd.montage import FRONTAL_CHANNELS, OCCIPITAL_CHANNELS
from eegtd.stream import DataMessage, ReplayServer, client_receive
from eegtd.synth import (
    StimulusProfile,
    SynthConfig,
    erp_template,
    make_schedule,
    profile_by_name,
    render_eeg,
    rotation_burst,
)

RATE = 250.0
TINY = NetConfig(
    n_channels=3, window_len=20, temporal_filters=2, deep_filters=(2,),
    kernel_len=3, pool_len=2, dropout_rate=0.0, dense_hidden=4,
)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPT {criterion} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion}: {detail}"


# -- shared heavy fixtures ---------------------------------------------------


@pytest.fixture(scope="session")
def a1_result(acceptance_tmp):
    cfg = clean_stimulus_config(seed=7, train_epochs=30)
    started = time.perf_counter()
    result = run_detection_experiment(cfg, acceptance_tmp / "a1")
    result.runtime_s = time.perf_counter() - started
    return result


@pytest.fixture(scope="session")
def a2_result(acceptance_tmp):
    cfg = confounded_stimulus_config(seed=7, train_epochs=30)
    started = time.perf_counter()
    result = run_detection_experiment(cfg, acceptance_tmp / "a2")
    result.runtime_s = time.perf_counter() - started
    return result


# -- criterion 1: metric oracle ----------------------------------------------


def brute_force_macro(counts: np.ndarray, beta: float, literal: bool) -> float:
    scores = []
    for c in range(3):
        tp = counts[c, c]
        fn = counts[c, :].sum() - tp
        fp = counts[:, c].sum() - tp
        recall = tp / (tp + fn) if tp + fn else 0.0
        precision = tp / (tp + fp) if tp + fp else 0.0
        b2 = beta * beta
        den = (b2 * recall + precision) if literal else (b2 * precision + recall)
        scores.append((1 + b2) * recall * precision / den if den else 0.0)
    return sum(scores) / 3.0


def test_criterion_1_metric_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(1000):
        counts = rng.integers(0, 60, size=(3, 3))
        cm = ConfusionMatrix(counts)
        for form, literal in (
            (FBetaForm.RECALL_WEIGHTED, False),
            (FBetaForm.LITERAL, True),
        ):
            got = macro_f_beta(cm, MetricConfig(beta=2.0, form=form))
            want = brute_force_macro(counts, 2.0, literal)
            worst = max(worst, abs(got - want))
    hand_recall = f_beta(1.0, 0.5, MetricConfig(beta=2.0, form=FBetaForm.RECALL_WEIGHTED))
    hand_literal = f_beta(1.0, 0.5, MetricConfig(beta=2.0, form=FBetaForm.LITERAL))
    elapsed = time.perf_counter() - started
    ok = (
        worst < 1e-9
        and round(hand_recall, 6) == 0.555556
        and round(hand_literal, 6) == 0.833333
        and elapsed < 5.0
    )
    report(
        "C1-metric-oracle", ok,
        f"1000 fuzzed matrices max|delta|={worst:.2e}, hand values "
        f"{hand_recall:.6f}/{hand_literal:.6f}, {elapsed:.2f}s",
    )


# -- criterion 2: label/augmentation fidelity ---------------------------------


def test_criterion_2_label_augmentation_fidelity():
    started = time.perf_counter()
    events = []
    for i in range(60):
        onset = 1000 + i * 1900
        cls = ClassId.TRUE_TARGET if i % 2 == 0 else ClassId.ERROR_TARGET
        events.append(Event(onset, cls, 250))
    schedule = EventSchedule(120000, RATE, events, [])
    track = assign_labels(schedule)
    ratio = np.bincount(track, minlength=3) / len(track)
    exact = np.array_equal(ratio, [0.875, 0.0625, 0.0625])

    rng = np.random.default_rng(1)
    rec_samples = rng.standard_normal((4, 120000)).astype(np.float32)
    from eegtd.core import Recording

    rec = Recording(RATE, ["a", "b", "c", "d"], rec_samples)
    epochs = augment_minority(rec, schedule, DatasetConfig())
    per_event = [
        sorted(int(s) for s in epochs.starts if ev.onset <= s < ev.end)
        for ev in schedule.targets
    ]
    ten_each = all(
        starts == list(range(ev.onset, ev.onset + 250, 25))
        for starts, ev in zip(per_event, schedule.targets)
    )
    labels = epochs.labels.tolist()
    counts_ok = (
        labels.count(ClassId.TRUE_TARGET) == 300
        and labels.count(ClassId.ERROR_TARGET) == 300
    )
    elapsed = time.perf_counter() - started
    ok = exact and ten_each and counts_ok and elapsed < 1.0
    report(
        "C2-label-augmentation", ok,
        f"ratio={ratio.tolist()}, 10 windows/event={ten_each}, "
        f"300+300 minority epochs={counts_ok}, {elapsed:.2f}s",
    )


# -- criterion 3: gradient correctness ----------------------------------------


def test_criterion_3_gradient_correctness():
    started = time.perf_counter()
    model = init_model(TINY, seed=11)
    rng = np.random.default_rng(42)
    x = standardize(rng.standard_normal((1, 3, 20)))
    h = 1e-4
    worst = 0.0
    n_checked = 0
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
                    worst = max(worst, abs(an - fd) / (abs(an) + 1e-8))
                    n_checked += 1
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 60.0
    report(
        "C3-gradient-check", ok,
        f"{n_checked} parameter coordinates x 3 labels, worst rel err "
        f"{worst:.2e}, {elapsed:.1f}s",
    )


# -- criterion 4: probability composition -------------------------------------


def test_criterion_4_probability_composition():
    rng = np.random.default_rng(7)
    x = standardize(rng.standard_normal((3, 20)))[None]
    worst_sum = 0.0
    min_entry = 1.0
    for seed in range(10000):
        model = init_model(TINY, seed=seed)
        probs = forward(model, x)[0]
        worst_sum = max(worst_sum, abs(probs.sum() - 1.0))
        min_entry = min(min_entry, probs.min())
    ok = worst_sum <= 1e-6 and min_entry >= 0.0
    report(
        "C4-composition", ok,
        f"10000 draws: max|sum-1|={worst_sum:.2e}, min entry={min_entry:.2e}",
    )


# -- criterion 5: protocol integrity -------------------------------------------


def _stream_once(rec, schedule, speed):
    frames: list[np.ndarray] = []
    markers: list[tuple[int, int]] = []
    seen = [0]

    def sink(burst: list[DataMessage]):
        for msg in burst:
            frames.append(msg.frames)
            for off, code in msg.markers:
                markers.append((seen[0] + off, code))
            seen[0] += msg.n_frames

    server = ReplayServer(rec, schedule, chunk_ms=40.0, speed=speed)
    with server:
        server.serve_in_thread()
        summary = client_receive((server.host, server.port), sink)
    return np.concatenate(frames, axis=0).T, sorted(markers), summary


def test_criterion_5_protocol_integrity():
    from eegtd.core import DynamicsEvent, DynamicsKind

    profile = StimulusProfile("micro", 12.0, events_per_class=1)
    schedule = make_schedule(profile, seed=5)
    schedule.dynamics.append(DynamicsEvent(250, DynamicsKind.CAMERA_ROTATION, 750))
    rec = render_eeg(schedule, SynthConfig(seed=6, confound_amp=3.0))

    paced, markers_paced, summary_paced = _stream_once(rec, schedule, speed=1.0)
    fast, markers_fast, _ = _stream_once(rec, schedule, speed=float("inf"))

    expected_markers = sorted(
        [(ev.onset, int(ev.class_id)) for ev in schedule.targets]
        + [(dyn.onset, 100 + int(dyn.kind)) for dyn in schedule.dynamics]
    )
    bit_exact = np.array_equal(paced, rec.samples) and np.array_equal(fast, rec.samples)
    markers_ok = markers_paced == expected_markers and markers_fast == expected_markers
    paced_realtime = summary_paced.wall_seconds >= 0.9 * 12.0
    ok = bit_exact and markers_ok and summary_paced.gaps == 0 and paced_realtime
    report(
        "C5-protocol-integrity", ok,
        f"bit-exact={bit_exact}, markers={markers_ok}, gaps="
        f"{summary_paced.gaps}, paced wall={summary_paced.wall_seconds:.1f}s of 12s",
    )


# -- criteria 6/7: the clean vs confounded contrast ----------------------------


def event_split(result) -> str:
    """Missed events, false alarms and wrong-class matches from the
    event-level confusion (rows true class, columns detected class)."""
    counts = result.confusion.counts
    missed = int(counts[1:, 0].sum())
    false_alarms = int(counts[0, 1:].sum())
    wrong_class = int(counts[1, 2] + counts[2, 1])
    return f"missed={missed}, false alarms={false_alarms}, wrong class={wrong_class}"


def test_criterion_6_clean_stimulus_performance(a1_result):
    ok = a1_result.macro_f >= 0.60 and a1_result.runtime_s < 900
    report(
        "C6-clean-stimulus(A1)", ok,
        f"event macro F_beta={a1_result.macro_f:.4f} (need >= 0.60), "
        f"{len(a1_result.detections)} detections / {a1_result.n_test_events} events "
        f"({event_split(a1_result)}), "
        f"runtime {a1_result.runtime_s:.0f}s (target < 900s)",
    )


def test_criterion_7_confounded_stimulus_collapse(a1_result, a2_result):
    gap = a1_result.macro_f - a2_result.macro_f
    ok = a2_result.macro_f <= 0.35 and gap >= 0.25 and a2_result.runtime_s < 1200
    report(
        "C7-confounded-collapse(A2)", ok,
        f"A2 macro F_beta={a2_result.macro_f:.4f} (need <= 0.35), "
        f"A1-A2 gap={gap:.4f} (need >= 0.25), "
        f"A1 {event_split(a1_result)}; A2 {event_split(a2_result)}, "
        f"runtime {a2_result.runtime_s:.0f}s",
    )


# -- criterion 8: saliency ------------------------------------------------------


def test_criterion_8_saliency_contrast(a2_result):
    from eegtd.core import load_schedule
    from eegtd.model import load_model

    with open(a2_result.model_path, "rb") as fh:
        model = load_model(fh)
    rec = load_recording(a2_result.test_recording_path)
    schedule = load_schedule(a2_result.test_schedule_path)
    epochs = build_eval_dataset(rec, schedule, DatasetConfig(), seed=7)
    occ = occlusion_saliency(model, epochs, MetricConfig())
    names = rec.channel_names
    occipital = np.mean([occ.importance[names.index(c)] for c in OCCIPITAL_CHANNELS])
    frontal = np.mean([occ.importance[names.index(c)] for c in FRONTAL_CHANNELS])
    confounder_dominant = occipital > frontal

    # constructed ground truth: a single informative channel
    informative = 2
    rng = np.random.default_rng(3)
    t = np.arange(40)
    patterns = {1: np.sin(2 * np.pi * t / 8), 2: -np.sin(2 * np.pi * t / 8)}
    toy_windows, toy_labels = [], []
    for c in (0, 1, 2):
        for _ in range(40):
            data = 0.3 * rng.standard_normal((4, 40))
            if c:
                data[informative] += 3.0 * patterns[c]
            toy_windows.append(data.astype(np.float32))
            toy_labels.append(c)
    toy_epochs = windows_end_to_end(toy_windows, toy_labels)
    toy_net = NetConfig(
        n_channels=4, window_len=40, temporal_filters=2, deep_filters=(2,),
        kernel_len=5, pool_len=2, dropout_rate=0.0, dense_hidden=4,
    )
    toy_model, _ = train(
        init_model(toy_net, seed=4), toy_epochs,
        TrainConfig(batch_size=32, epochs=40, seed=6),
    )
    toy_occ = occlusion_saliency(toy_model, toy_epochs, MetricConfig()).importance
    toy_grad = gradient_saliency(toy_model, toy_epochs)
    occ_argmax = int(np.argmax(toy_occ)) == informative and (
        toy_occ[informative] > np.delete(toy_occ, informative).max()
    )
    grad_argmax = int(np.argmax(toy_grad)) == informative and (
        toy_grad[informative] > np.delete(toy_grad, informative).max()
    )
    ok = confounder_dominant and occ_argmax and grad_argmax
    report(
        "C8-saliency", ok,
        f"A2 occlusion occipital={occipital:+.4f} > frontal={frontal:+.4f}: "
        f"{confounder_dominant}; constructed channel strict argmax "
        f"occlusion={occ_argmax} gradient={grad_argmax}",
    )


# -- criterion 9: evoked-response analysis ---------------------------------------


def test_criterion_9_erp_recovery():
    # (a) grand average over 150 trials correlates with the injected template
    # at every analyzed channel; sigma chosen so the weakly-weighted C3/C4
    # channels have headroom above r=0.9
    cfg = SynthConfig(background_sigma=4.0, seed=31)
    n_trials = 150
    onsets = [1000 + 1000 * i for i in range(n_trials)]
    schedule = EventSchedule(
        onsets[-1] + 1250, RATE,
        [Event(o, ClassId.TRUE_TARGET, 250) for o in onsets], [],
    )
    rec = render_eeg(schedule, cfg)
    channels = ["Cz", "C3", "C4"]
    res = grand_average_erp(rec, schedule, channels, horizon_s=1.0, baseline_s=0.2)
    template = np.zeros(250)
    g = erp_template(cfg, ClassId.TRUE_TARGET)
    template[: len(g)] = g
    correlations = {}
    for idx, name in enumerate(channels):
        wave = res.waves["TrueTarget"][idx]
        correlations[name] = float(np.corrcoef(wave, template)[0, 1])
    corr_ok = all(r > 0.9 for r in correlations.values())

    # (b) rotation pseudo-class shows its burst; targets do not
    v2 = make_schedule(profile_by_name("video2n"), seed=8)
    rec2 = render_eeg(v2, SynthConfig(seed=9, confound_amp=12.0))
    res2 = grand_average_erp(rec2, v2, ["Oz"], horizon_s=3.0, baseline_s=0.2)
    burst = rotation_burst(replace(SynthConfig(), confound_amp=12.0), 1250, 750)
    padded = np.zeros(750)
    padded[:] = burst[:750]

    def corr_with_burst(name):
        if name not in res2.waves:
            return 0.0
        wave = res2.waves[name][0]
        return float(np.corrcoef(wave, padded)[0, 1])

    r_rot = abs(corr_with_burst("CameraRotation"))
    floor = np.sqrt(
        np.mean(
            [
                corr_with_burst(n) ** 2
                for n in ("TrueTarget", "ErrorTarget", "NonTarget")
            ]
        )
    )
    burst_ok = r_rot > 3.0 * floor
    ok = corr_ok and burst_ok
    report(
        "C9-erp-recovery", ok,
        f"template correlations {{{', '.join(f'{k}={v:.3f}' for k, v in correlations.items())}}} "
        f"(need > 0.9); rotation burst r={r_rot:.3f} vs noise floor {floor:.3f} "
        f"(need > 3x)",
    )


# -- criterion 10: determinism ----------------------------------------------------


def test_criterion_10_determinism(a1_result, acceptance_tmp):
    cfg = clean_stimulus_config(seed=7, train_epochs=30)
    repeat = run_detection_experiment(cfg, acceptance_tmp / "a1_repeat")
    model_same = (
        a1_result.model_path.read_bytes() == repeat.model_path.read_bytes()
    )
    detections_same = (
        a1_result.detections_path.read_bytes() == repeat.detections_path.read_bytes()
    )
    ok = model_same and detections_same
    report(
        "C10-determinism", ok,
        f"model bytes identical={model_same}, detection CSV identical={detections_same}",
    )
