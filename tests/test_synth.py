"""Schedule generator and synthetic EEG renderer."""

from dataclasses import replace

import numpy as np
import pytest

from eegtd.core import ClassId, DynamicsKind, Event, EventSchedule
from eegtd.montage import CHANNEL_NAMES, spatial_weights
from eegtd.synth import (
    SPATIAL_SIGMA,
    StimulusProfile,
    SynthConfig,
    SynthError,
    erp_template,
    make_schedule,
    profile_by_name,
    render_eeg,
)


class TestProfiles:
    def test_named_profiles(self):
        v1 = profile_by_name("video1")
        assert (v1.length_s, v1.events_per_class) == (300.0, 20)
        assert v1.rotation_period_s is None and not v1.weather_drift
        v2n = profile_by_name("video2n")
        assert (v2n.length_s, v2n.events_per_class) == (480.0, 30)
        assert v2n.rotation_period_s == 5.0 and v2n.weather_drift
        # no cue model yet: video2ai differs from video2n only in its name
        assert replace(profile_by_name("video2ai"), name="video2n") == v2n

    def test_unknown_profile(self):
        with pytest.raises(SynthError, match="unknown profile"):
            profile_by_name("video9")

    def test_impossible_event_count(self):
        with pytest.raises(ValueError, match="do not fit"):
            StimulusProfile("video1", 300.0, events_per_class=60)


class TestMakeSchedule:
    def test_video2n_shape(self):
        sched = make_schedule(profile_by_name("video2n"), seed=7)
        assert sched.total_samples == 120000
        labels = [ev.class_id for ev in sched.targets]
        assert labels.count(ClassId.TRUE_TARGET) == 30
        assert labels.count(ClassId.ERROR_TARGET) == 30
        rotations = [d for d in sched.dynamics if d.kind == DynamicsKind.CAMERA_ROTATION]
        weather = [d for d in sched.dynamics if d.kind == DynamicsKind.WEATHER_SHIFT]
        assert len(rotations) == 96
        assert len(weather) == 1
        assert weather[0].onset == 60000
        assert weather[0].end == 120000

    def test_rotation_timing(self):
        sched = make_schedule(profile_by_name("video2n"), seed=7)
        rotations = [d for d in sched.dynamics if d.kind == DynamicsKind.CAMERA_ROTATION]
        assert [r.onset for r in rotations[:3]] == [0, 1250, 2500]
        assert all(r.duration == 750 for r in rotations)

    def test_video1_shape(self):
        sched = make_schedule(profile_by_name("video1"), seed=7)
        assert sched.total_samples == 75000
        assert len(sched.targets) == 40
        assert sched.dynamics == []

    def test_separation_and_duration(self):
        sched = make_schedule(profile_by_name("video2n"), seed=21)
        onsets = [ev.onset for ev in sched.targets]
        gaps = np.diff(onsets)
        assert gaps.min() >= 750
        assert all(ev.duration == 250 for ev in sched.targets)

    def test_deterministic(self):
        a = make_schedule(profile_by_name("video1"), seed=5)
        b = make_schedule(profile_by_name("video1"), seed=5)
        assert a.targets == b.targets and a.dynamics == b.dynamics

    def test_different_seeds_differ(self):
        a = make_schedule(profile_by_name("video1"), seed=5)
        b = make_schedule(profile_by_name("video1"), seed=6)
        assert a.targets != b.targets


def single_event_schedule(onset=1000, n=2500, class_id=ClassId.TRUE_TARGET):
    return EventSchedule(n, 250.0, [Event(onset, class_id, 250)], [])


class TestRenderEeg:
    def test_noise_free_peak_at_cz(self):
        cfg = SynthConfig(background_sigma=0.0, seed=5)
        rec = render_eeg(single_event_schedule(), cfg)
        cz = rec.channel_index("Cz")
        # raised-cosine positive bump peaks exactly at onset + 0.3 s
        assert rec.samples[cz, 1075] == pytest.approx(8.0, abs=1e-6)
        assert int(np.argmax(rec.samples[cz])) == 1075

    def test_noise_free_spatial_weighting(self):
        cfg = SynthConfig(background_sigma=0.0, seed=5)
        rec = render_eeg(single_event_schedule(), cfg)
        weights = spatial_weights("Cz", rec.channel_names, SPATIAL_SIGMA)
        peaks = rec.samples[:, 1075]
        assert peaks == pytest.approx(8.0 * weights, abs=1e-5)

    def test_error_class_amplitude(self):
        cfg = SynthConfig(background_sigma=0.0, seed=5)
        rec = render_eeg(
            single_event_schedule(class_id=ClassId.ERROR_TARGET), cfg
        )
        cz = rec.channel_index("Cz")
        assert rec.samples[cz, 1075] == pytest.approx(5.0, abs=1e-6)

    def test_background_std_within_15_percent(self):
        # 60 s of pure background
        sched = EventSchedule(15000, 250.0, [], [])
        rec = render_eeg(sched, SynthConfig(seed=42))
        stds = rec.samples.std(axis=1)
        assert np.all(np.abs(stds - 10.0) / 10.0 < 0.15)

    def test_bit_identical_given_seed(self):
        sched = make_schedule(profile_by_name("video1"), seed=3)
        a = render_eeg(sched, SynthConfig(seed=9))
        b = render_eeg(sched, SynthConfig(seed=9))
        assert np.array_equal(a.samples, b.samples)

    def test_superposition_of_events(self):
        cfg = SynthConfig(background_sigma=0.0, seed=5)
        ev_a = Event(500, ClassId.TRUE_TARGET, 250)
        ev_b = Event(1500, ClassId.ERROR_TARGET, 250)
        both = render_eeg(EventSchedule(2500, 250.0, [ev_a, ev_b], []), cfg)
        only_a = render_eeg(EventSchedule(2500, 250.0, [ev_a], []), cfg)
        only_b = render_eeg(EventSchedule(2500, 250.0, [ev_b], []), cfg)
        assert np.allclose(
            both.samples, only_a.samples + only_b.samples, atol=1e-4
        )

    def test_rotation_burst_occipital(self):
        cfg = SynthConfig(background_sigma=0.0, confound_amp=12.0, seed=5)
        sched = EventSchedule(
            2500, 250.0, [],
            [__import__("eegtd.core", fromlist=["DynamicsEvent"]).DynamicsEvent(
                500, DynamicsKind.CAMERA_ROTATION, 750
            )],
        )
        rec = render_eeg(sched, cfg)
        oz = rec.channel_index("Oz")
        fp1 = rec.channel_index("Fp1")
        burst_rms = rec.samples[oz, 500:1250].std()
        assert burst_rms > 1.0
        assert rec.samples[fp1, 500:1250].std() < 0.2 * burst_rms
        # nothing outside the burst span
        assert np.all(rec.samples[:, :500] == 0)
        assert np.all(rec.samples[:, 1250:] == 0)

    def test_weather_modulates_background_gain(self):
        from eegtd.core import DynamicsEvent

        n = 30000  # 120 s
        dyn = [DynamicsEvent(15000, DynamicsKind.WEATHER_SHIFT, 15000)]
        cfg = SynthConfig(seed=8)
        plain = render_eeg(EventSchedule(n, 250.0, [], []), cfg)
        shifted = render_eeg(EventSchedule(n, 250.0, [], dyn), cfg)
        # 60 s period: gain peaks (+20 %) in the first 30 s after onset
        ratio = (
            shifted.samples[:, 17000:21000].std() / plain.samples[:, 17000:21000].std()
        )
        assert 1.05 < ratio < 1.35
        assert np.array_equal(shifted.samples[:, :15000], plain.samples[:, :15000])

    def test_rate_mismatch(self):
        with pytest.raises(SynthError, match="rate"):
            render_eeg(EventSchedule(1000, 500.0, [], []), SynthConfig())

    def test_full_montage(self):
        rec = render_eeg(EventSchedule(1000, 250.0, [], []), SynthConfig())
        assert rec.channel_names == list(CHANNEL_NAMES)
        assert rec.sampling_rate == 250.0


class TestTemplate:
    def test_n200_and_p300_signs(self):
        cfg = SynthConfig()
        g = erp_template(cfg, ClassId.TRUE_TARGET)
        assert g[50] == pytest.approx(-4.0)  # 0.2 s trough
        assert g[75] == pytest.approx(8.0)  # 0.3 s peak
        assert g[0] == 0.0

    def test_compact_support(self):
        cfg = SynthConfig()
        g = erp_template(cfg, ClassId.TRUE_TARGET)
        # support ends at erp_latency + width = 0.38 s
        assert len(g) == pytest.approx(0.38 * 250 + 1)
        assert abs(g[-1]) < 1e-12

    def test_nontarget_has_no_template(self):
        with pytest.raises(ValueError):
            erp_template(SynthConfig(), ClassId.NON_TARGET)


class TestSynthConfigValidation:
    def test_nonfinite_amp(self):
        with pytest.raises(ValueError):
            SynthConfig(erp_amp_true=float("nan"))
