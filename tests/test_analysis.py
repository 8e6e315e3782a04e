"""Grand-average waveforms and channel-importance analysis."""

import io

import numpy as np
import pytest

from eegtd import analysis, stream
from eegtd import model as mdl
from conftest import windows_end_to_end
from eegtd.core import ClassId, DynamicsEvent, DynamicsKind, Event, EventSchedule, Windows
from eegtd.analysis import (
    _score_windows,
    grand_average_erp,
    gradient_saliency,
    occlusion_saliency,
    evaluate_epochs,
    write_erp_csv,
    write_saliency_csv,
)
from eegtd.metrics import MetricConfig
from eegtd.model import (
    NetConfig,
    TrainConfig,
    backward,
    cross_entropy,
    cut_windows,
    forward,
    init_model,
    predict_batch,
    train,
)
from eegtd.stream import OnlineConfig, OnlineEngine
from eegtd.synth import SynthConfig, erp_template, make_schedule, profile_by_name, render_eeg

TINY = NetConfig(
    n_channels=4, window_len=40, temporal_filters=2, deep_filters=(2,),
    kernel_len=5, pool_len=2, dropout_rate=0.0, dense_hidden=4,
)


class TestGrandAverage:
    def test_noise_free_single_event_recovers_template(self):
        cfg = SynthConfig(background_sigma=0.0, seed=1)
        sched = EventSchedule(2500, 250.0, [Event(1000, ClassId.TRUE_TARGET, 250)], [])
        rec = render_eeg(sched, cfg)
        res = grand_average_erp(rec, sched, ["Cz"], horizon_s=1.0, baseline_s=0.2)
        template = erp_template(cfg, ClassId.TRUE_TARGET)
        wave = res.waves["TrueTarget"][0]
        assert wave[:len(template)] == pytest.approx(template, abs=1e-5)
        assert res.n_trials["TrueTarget"] == 1

    def test_monte_carlo_correlation_above_0p9(self):
        # Noisy trials at default sigma; correlate over a 1 s horizon. The
        # template's variance over that horizon is 4.51 uV^2 and averaging
        # N trials leaves sigma^2/N of noise, so E[r] ~ sqrt(4.51 / (4.51 +
        # 100/N)): 0.905 at N=100 (the bound would sit at the mean), 0.949
        # at N=200, which leaves headroom above 0.9 for the noise draw.
        n_trials = 200
        cfg = SynthConfig(background_sigma=10.0, seed=3)
        onsets = [1000 + 1000 * i for i in range(n_trials)]
        sched = EventSchedule(
            1000 + 1000 * n_trials + 250, 250.0,
            [Event(o, ClassId.TRUE_TARGET, 250) for o in onsets], [],
        )
        rec = render_eeg(sched, cfg)
        res = grand_average_erp(rec, sched, ["Cz"], horizon_s=1.0, baseline_s=0.2)
        template = np.zeros(250)
        g = erp_template(cfg, ClassId.TRUE_TARGET)
        template[: len(g)] = g
        wave = res.waves["TrueTarget"][0]
        r = np.corrcoef(wave, template)[0, 1]
        assert r > 0.9

    def test_noise_average_shrinks_with_trials(self):
        cfg = SynthConfig(background_sigma=10.0, seed=5)
        sched_small = EventSchedule(
            20000, 250.0,
            [Event(1000 + 1000 * i, ClassId.TRUE_TARGET, 250) for i in range(10)], [],
        )
        sched_large = EventSchedule(
            110000, 250.0,
            [Event(1000 + 1000 * i, ClassId.TRUE_TARGET, 250) for i in range(100)], [],
        )
        template = np.zeros(750)
        g = erp_template(cfg, ClassId.TRUE_TARGET)
        template[: len(g)] = g

        def residual_rms(sched):
            rec = render_eeg(sched, cfg)
            res = grand_average_erp(rec, sched, ["Cz"], horizon_s=3.0)
            return float(np.sqrt(np.mean((res.waves["TrueTarget"][0] - template) ** 2)))

        assert residual_rms(sched_large) < residual_rms(sched_small)

    def test_rotation_pseudo_class_present(self):
        sched = make_schedule(profile_by_name("video2n"), seed=2)
        rec = render_eeg(sched, SynthConfig(seed=4, confound_amp=12.0))
        res = grand_average_erp(rec, sched, ["Oz"], horizon_s=3.0)
        assert "CameraRotation" in res.waves
        # rotation onset 0 lacks a baseline span and is skipped
        assert res.n_skipped["CameraRotation"] == 1
        assert res.n_trials["CameraRotation"] == 95

    def test_zero_events_of_class_noted(self):
        sched = EventSchedule(5000, 250.0, [Event(1000, ClassId.TRUE_TARGET, 250)], [])
        rec = render_eeg(sched, SynthConfig(background_sigma=1.0, seed=1))
        res = grand_average_erp(rec, sched, ["Cz"])
        assert "ErrorTarget" not in res.waves
        assert any("ErrorTarget" in note for note in res.notes)

    def test_unknown_channel(self):
        sched = EventSchedule(5000, 250.0, [], [])
        rec = render_eeg(sched, SynthConfig(background_sigma=1.0, seed=1))
        with pytest.raises(ValueError, match="unknown channel"):
            grand_average_erp(rec, sched, ["Zz9"])

    def test_schedule_length_mismatch(self):
        rec = render_eeg(EventSchedule(2000, 250.0, [], []), SynthConfig(seed=1))
        sched = EventSchedule(1000, 250.0, [Event(100, ClassId.TRUE_TARGET, 250)], [])
        with pytest.raises(ValueError, match="does not match"):
            grand_average_erp(rec, sched, ["Cz"], horizon_s=1.0)

    def test_event_too_close_to_edge_skipped(self):
        sched = EventSchedule(
            5000, 250.0,
            [Event(10, ClassId.TRUE_TARGET, 250), Event(2000, ClassId.TRUE_TARGET, 250)],
            [],
        )
        rec = render_eeg(sched, SynthConfig(background_sigma=1.0, seed=1))
        res = grand_average_erp(rec, sched, ["Cz"], horizon_s=3.0, baseline_s=0.2)
        assert res.n_trials["TrueTarget"] == 1
        assert res.n_skipped["TrueTarget"] == 1

    def test_csv_output_shape(self):
        sched = EventSchedule(5000, 250.0, [Event(1000, ClassId.TRUE_TARGET, 250)], [])
        rec = render_eeg(sched, SynthConfig(background_sigma=1.0, seed=1))
        res = grand_average_erp(rec, sched, ["Cz", "C3"], horizon_s=1.0)
        buf = io.StringIO()
        write_erp_csv(res, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "class,channel,time_s,value_uv"
        # classes present: TrueTarget + NonTarget pseudo-baseline
        assert len(lines) == 1 + len(res.waves) * 2 * 250

    def test_csv_cells_parse_as_floats(self):
        sched = EventSchedule(5000, 250.0, [Event(1000, ClassId.TRUE_TARGET, 250)], [])
        rec = render_eeg(sched, SynthConfig(background_sigma=1.0, seed=1))
        erp, saliency = io.StringIO(), io.StringIO()
        write_erp_csv(grand_average_erp(rec, sched, ["Cz"], horizon_s=0.2), erp)
        write_saliency_csv(["a", "b"], np.array([0.5, -0.25]), np.array([1e-3, 2.0]), saliency)
        # class,channel,... and channel,... lead with that many label cells
        for buf, n_labels in ((erp, 2), (saliency, 1)):
            rows = buf.getvalue().splitlines()[1:]
            assert rows
            for row in rows:
                for cell in row.split(",")[n_labels:]:
                    float(cell)

    def test_horizon_longer_than_recording_rejected(self):
        sched = EventSchedule(1000, 250.0, [Event(300, ClassId.TRUE_TARGET, 250)], [])
        rec = render_eeg(sched, SynthConfig(background_sigma=1.0, seed=1))
        with pytest.raises(ValueError, match="horizon must cover 1 to 950 samples"):
            grand_average_erp(rec, sched, ["Cz"], horizon_s=10.0, baseline_s=0.2)

    @pytest.mark.parametrize("horizon_s, baseline_s", [
        (float("inf"), 0.2),
        (float("nan"), 0.2),
        (1.0, float("inf")),
        (1.0, -0.5),
    ])
    def test_bad_horizon_or_baseline_rejected(self, horizon_s, baseline_s):
        sched = EventSchedule(5000, 250.0, [Event(1000, ClassId.TRUE_TARGET, 250)], [])
        rec = render_eeg(sched, SynthConfig(background_sigma=1.0, seed=1))
        with pytest.raises(ValueError, match="horizon|baseline"):
            grand_average_erp(rec, sched, ["Cz"], horizon_s=horizon_s, baseline_s=baseline_s)


def informative_channel_epochs(channel=2, n_per_class=30, seed=0):
    """Toy set where only one channel carries class information."""
    rng = np.random.default_rng(seed)
    windows, labels = [], []
    t = np.arange(40)
    patterns = {
        1: np.sin(2 * np.pi * t / 8),
        2: -np.sin(2 * np.pi * t / 8),
    }
    for c in (0, 1, 2):
        for _ in range(n_per_class):
            data = 0.3 * rng.standard_normal((4, 40))
            if c != 0:
                data[channel] += 3.0 * patterns[c]
            windows.append(data.astype(np.float32))
            labels.append(c)
    return windows_end_to_end(windows, labels)


@pytest.fixture(scope="module")
def trained_single_channel_model():
    epochs = informative_channel_epochs()
    model = init_model(TINY, seed=4)
    trained, _ = train(model, epochs, TrainConfig(batch_size=32, epochs=40, seed=6))
    return trained, epochs


class TestOcclusionSaliency:
    def test_informative_channel_is_strict_argmax(self, trained_single_channel_model):
        model, epochs = trained_single_channel_model
        result = occlusion_saliency(model, epochs, MetricConfig())
        top = int(np.argmax(result.importance))
        assert top == 2
        others = np.delete(result.importance, top)
        assert result.importance[top] > others.max()

    def test_constant_model_all_zero(self):
        model = init_model(TINY, seed=4)
        for stage in (model.stage_a, model.stage_b):
            for name in stage.params:
                stage.params[name][:] = 0.0
        epochs = informative_channel_epochs(n_per_class=10)
        result = occlusion_saliency(model, epochs, MetricConfig())
        assert np.array_equal(result.importance, np.zeros(4))

    def test_permutation_equivariance(self, trained_single_channel_model):
        model, epochs = trained_single_channel_model
        base = occlusion_saliency(model, epochs, MetricConfig()).importance
        perm = [3, 0, 2, 1]
        permuted_epochs = Windows(epochs.samples[perm], epochs.window_len, epochs.starts,
                                  epochs.labels)
        import copy

        permuted_model = copy.deepcopy(model)
        inverse = np.argsort(perm)
        for stage in (permuted_model.stage_a, permuted_model.stage_b):
            stage.params["w_spat"] = np.ascontiguousarray(
                stage.params["w_spat"][:, :, perm]
            )
        permuted = occlusion_saliency(permuted_model, permuted_epochs, MetricConfig())
        assert permuted.importance == pytest.approx(base[perm], abs=1e-12)

    def test_matches_per_channel_copy_bit_for_bit(self, trained_single_channel_model):
        model, epochs = trained_single_channel_model
        x, y = cut_windows(epochs.samples, epochs.window_len, epochs.starts), epochs.labels
        baseline, _ = _score_windows(model, x, y, MetricConfig())
        expected = []
        for c in range(x.shape[1]):
            ablated = x.copy()
            ablated[:, c, :] = 0.0
            expected.append(baseline - _score_windows(model, ablated, y, MetricConfig())[0])
        result = occlusion_saliency(model, epochs, MetricConfig())
        assert result.baseline_score == baseline
        assert np.array_equal(result.importance, expected)

    def test_empty_set_rejected(self, trained_single_channel_model):
        model, _ = trained_single_channel_model
        with pytest.raises(ValueError, match="empty"):
            occlusion_saliency(model, windows_end_to_end(np.empty((0, 4, 40)), []),
                               MetricConfig())


class TestGradientSaliency:
    def test_informative_channel_ranks_first(self, trained_single_channel_model):
        model, epochs = trained_single_channel_model
        saliency = gradient_saliency(model, epochs)
        assert int(np.argmax(saliency)) == 2
        assert saliency.sum() > 0

    def test_constant_model_all_zero(self):
        model = init_model(TINY, seed=4)
        for stage in (model.stage_a, model.stage_b):
            for name in stage.params:
                stage.params[name][:] = 0.0
        epochs = informative_channel_epochs(n_per_class=5)
        assert np.array_equal(gradient_saliency(model, epochs), np.zeros(4))

    def test_matches_finite_differences_on_coordinates(self, trained_single_channel_model):
        model, epochs = trained_single_channel_model
        one = slice(40, 41)  # a class-1 epoch
        x = cut_windows(epochs.samples, epochs.window_len, epochs.starts[one])
        labels = epochs.labels[one]
        _, _, dx = backward(model, x, labels, need_input_grad=True)
        rng = np.random.default_rng(1)
        h = 1e-4
        for _ in range(3):
            c = int(rng.integers(0, 4))
            t = int(rng.integers(0, 40))
            xp = x.copy(); xp[0, c, t] += h
            xm = x.copy(); xm[0, c, t] -= h
            fd = (cross_entropy(forward(model, xp), labels)[0]
                  - cross_entropy(forward(model, xm), labels)[0]) / (2 * h)
            assert abs(dx[0, c, t] - fd) / (abs(fd) + 1e-8) < 1e-3

    def test_csv_writer(self, trained_single_channel_model):
        model, epochs = trained_single_channel_model
        occ = occlusion_saliency(model, epochs, MetricConfig())
        grad = gradient_saliency(model, epochs)
        buf = io.StringIO()
        write_saliency_csv(["a", "b", "c", "d"], occ.importance, grad, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "channel,occlusion_importance,gradient_saliency"
        assert len(lines) == 5


@pytest.fixture(scope="module")
def converged_single_channel_model():
    # The saliency fixture stops at 40 epochs, mid-descent (loss ~0.66), which
    # is enough for channel 2 to rank first but not to label every window;
    # at 80 epochs the same recipe reaches loss ~0.05 and labels all 90.
    epochs = informative_channel_epochs()
    model = init_model(TINY, seed=4)
    trained, _ = train(model, epochs, TrainConfig(batch_size=32, epochs=80, seed=6))
    return trained, epochs


class TestEvaluateEpochs:
    def test_perfect_model_scores_one(self, converged_single_channel_model):
        model, epochs = converged_single_channel_model
        x = cut_windows(epochs.samples, epochs.window_len, epochs.starts)
        labels, _ = predict_batch(model, x)
        assert labels.tolist() == epochs.labels.tolist()
        macro, cm = evaluate_epochs(model, epochs, MetricConfig())
        assert cm.total() == len(epochs)
        assert macro == 1.0


def push_noise(model, _epochs):
    frames = np.random.default_rng(0).standard_normal((100, model.config.n_channels))
    OnlineEngine(model, OnlineConfig()).push(frames)


@pytest.mark.parametrize("run, module, entry_points, dtype", [
    (lambda m, ep: evaluate_epochs(m, ep, MetricConfig()),
     analysis, ("predict_batch",), np.float32),
    (lambda m, ep: occlusion_saliency(m, ep, MetricConfig()),
     analysis, ("predict_batch", "predict_occluded"), np.float32),
    (push_noise, stream, ("predict_batch",), np.float32),
    (lambda m, ep: train(m, ep, TrainConfig(batch_size=32, epochs=1, seed=1)),
     mdl, ("backward",), np.float64),
    (gradient_saliency, analysis, ("backward",), np.float64),
], ids=["evaluate_epochs", "occlusion_saliency", "OnlineEngine.push", "train",
        "gradient_saliency"])
def test_scoring_passes_float32_and_gradients_float64(
    trained_single_channel_model, monkeypatch, run, module, entry_points, dtype
):
    model, epochs = trained_single_channel_model
    seen = {name: [] for name in entry_points}
    for name in entry_points:
        def spy(m, x, *args, _real=getattr(module, name), _seen=seen[name], **kwargs):
            _seen.append(x.dtype)
            return _real(m, x, *args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    run(model, epochs)
    for name, dtypes in seen.items():
        assert dtypes and set(dtypes) == {np.dtype(dtype)}, name
