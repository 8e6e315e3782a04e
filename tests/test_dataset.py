"""Label assignment, augmentation counts, negative sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegtd import dataset
from eegtd.core import ClassId, Event, EventSchedule, Recording, Windows
from eegtd.dataset import (
    DatasetConfig,
    DatasetError,
    assign_labels,
    augment_minority,
    build_dataset,
    build_eval_dataset,
    free_window_starts,
    pool_windows,
    sample_nontarget,
)
from eegtd.model import cut_windows

RATE = 250.0


def flat_recording(n_samples: int, n_channels: int = 4) -> Recording:
    rng = np.random.default_rng(99)
    names = [f"ch{i}" for i in range(n_channels)]
    return Recording(RATE, names, rng.standard_normal((n_channels, n_samples)))


def video2n_shaped_schedule() -> EventSchedule:
    """480 s at 250 Hz, 30 events per target class, 1 s each, evenly spread."""
    events = []
    for i in range(60):
        onset = 1000 + i * 1900
        cls = ClassId.TRUE_TARGET if i % 2 == 0 else ClassId.ERROR_TARGET
        events.append(Event(onset, cls, 250))
    return EventSchedule(120000, RATE, events, [])


def fractions(track):
    """Fractions of the three classes in a label track."""
    return np.bincount(track, minlength=3) / len(track)


def stacked(windows):
    return cut_windows(windows.samples, windows.window_len, windows.starts)


class TestAssignLabels:
    def test_video1_track_length(self):
        sched = EventSchedule(75000, RATE, [], [])
        assert len(assign_labels(sched)) == 75000

    def test_half_open_span(self):
        sched = EventSchedule(75000, RATE, [Event(1000, ClassId.TRUE_TARGET, 250)], [])
        track = assign_labels(sched)
        assert track[999] == 0
        assert track[1000] == 1
        assert track[1249] == 1
        assert track[1250] == 0
        assert int((track == 1).sum()) == 250

    def test_video2n_class_fractions(self):
        ratio = fractions(assign_labels(video2n_shaped_schedule()))
        assert ratio == pytest.approx([0.875, 0.0625, 0.0625], abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(st.integers(0, 90), st.booleans(), max_size=8))
    def test_totality(self, slots):
        events = []
        for slot, is_true in sorted(slots.items()):
            cls = ClassId.TRUE_TARGET if is_true else ClassId.ERROR_TARGET
            events.append(Event(slot * 500, cls, 250))
        sched = EventSchedule(50000, RATE, events, [])
        track = assign_labels(sched)
        counts = np.bincount(track, minlength=3)
        assert counts.sum() == 50000


class TestClassRatio:
    def test_all_nontarget(self):
        track = assign_labels(EventSchedule(1000, RATE, [], []))
        assert fractions(track) == pytest.approx([1.0, 0.0, 0.0])

    def test_counts_vs_linear_scan(self):
        sched = video2n_shaped_schedule()
        track = assign_labels(sched)
        manual = [0, 0, 0]
        for v in track:
            manual[v] += 1
        assert fractions(track) == pytest.approx(np.array(manual) / 120000)
        assert manual[1] == 7500 and manual[2] == 7500


class TestAugmentMinority:
    def test_default_ten_windows_with_expected_starts(self):
        rec = flat_recording(75000)
        sched = EventSchedule(75000, RATE, [Event(1000, ClassId.TRUE_TARGET, 250)], [])
        epochs = augment_minority(rec, sched, DatasetConfig())
        assert epochs.starts.tolist() == list(range(1000, 1250, 25))
        assert all(label == ClassId.TRUE_TARGET for label in epochs.labels)
        assert stacked(epochs).shape[1:] == (4, 250)

    def test_video2n_counts(self):
        rec = flat_recording(120000)
        epochs = augment_minority(rec, video2n_shaped_schedule(), DatasetConfig())
        labels = epochs.labels.tolist()
        assert labels.count(ClassId.TRUE_TARGET) == 300
        assert labels.count(ClassId.ERROR_TARGET) == 300

    def test_degenerate_stride_equals_window(self):
        rec = flat_recording(75000)
        sched = EventSchedule(75000, RATE, [Event(1000, ClassId.TRUE_TARGET, 250)], [])
        epochs = augment_minority(rec, sched, DatasetConfig(stride=250))
        assert len(epochs) == 1
        assert epochs.starts[0] == 1000

    def test_overrun_reports_event_index(self):
        rec = flat_recording(1400)
        sched = EventSchedule(
            1400, RATE,
            [Event(100, ClassId.TRUE_TARGET, 250), Event(1100, ClassId.ERROR_TARGET, 250)],
            [],
        )
        with pytest.raises(DatasetError, match="event 1"):
            augment_minority(rec, sched, DatasetConfig())

    def test_epoch_content_matches_recording(self):
        rec = flat_recording(75000)
        sched = EventSchedule(75000, RATE, [Event(2000, ClassId.ERROR_TARGET, 250)], [])
        epochs = augment_minority(rec, sched, DatasetConfig())
        third = epochs.starts[3]
        assert np.array_equal(epochs.samples[:, third : third + epochs.window_len],
                              rec.samples[:, 2075:2325])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 9))
    def test_starts_within_slide_range(self, idx):
        cfg = DatasetConfig()
        rec = flat_recording(75000)
        sched = EventSchedule(75000, RATE, [Event(5000, ClassId.TRUE_TARGET, 250)], [])
        start = augment_minority(rec, sched, cfg).starts[idx]
        assert 5000 <= start <= 5000 + cfg.window_len - cfg.stride


class TestSampleNontarget:
    def test_spans_disjoint_from_targets(self):
        rec = flat_recording(75000)
        sched = EventSchedule(75000, RATE, [Event(1000, ClassId.TRUE_TARGET, 250)], [])
        epochs = sample_nontarget(rec, sched, DatasetConfig(), seed=7)
        assert len(epochs) == 14
        for start, label in zip(epochs.starts, epochs.labels):
            lo, hi = start, start + 250
            assert hi <= 1000 or lo >= 1250
            assert label == ClassId.NON_TARGET

    def test_deterministic(self):
        rec = flat_recording(75000)
        sched = EventSchedule(75000, RATE, [Event(1000, ClassId.TRUE_TARGET, 250)], [])
        a = sample_nontarget(rec, sched, DatasetConfig(), seed=5)
        b = sample_nontarget(rec, sched, DatasetConfig(), seed=5)
        assert a.starts.tolist() == b.starts.tolist()

    def test_fully_labeled_recording_errors(self):
        rec = flat_recording(500)
        sched = EventSchedule(500, RATE, [Event(0, ClassId.TRUE_TARGET, 500)], [])
        with pytest.raises(DatasetError):
            sample_nontarget(rec, sched, DatasetConfig(), seed=1)

    def test_insufficient_span_errors(self):
        rec = flat_recording(501)
        sched = EventSchedule(501, RATE, [Event(251, ClassId.TRUE_TARGET, 250)], [])
        # exactly two candidate starts (0 and 1) but quota is 14
        with pytest.raises(DatasetError, match="insufficient"):
            sample_nontarget(rec, sched, DatasetConfig(), seed=1)

    def test_length_checked_before_labels_are_built(self, monkeypatch):
        def no_labels(schedule):
            raise AssertionError("label track built before the length check")

        monkeypatch.setattr(dataset, "assign_labels", no_labels)
        rec = flat_recording(2000)
        sched = EventSchedule(1000, RATE, [Event(100, ClassId.TRUE_TARGET, 250)], [])
        with pytest.raises(DatasetError, match="does not match"):
            sample_nontarget(rec, sched, DatasetConfig(), seed=1)


class TestFreeWindowStarts:
    # zeros dominate so that long all-zero spans are common
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0, 0, 0, 1, 2]), max_size=60), st.integers(1, 20))
    def test_matches_brute_force_scan(self, labels, span):
        track = np.array(labels, dtype=np.int8)
        expected = [
            s for s in range(len(labels) - span + 1)
            if not track[s : s + span].any()
        ]
        starts = free_window_starts(track, span)
        assert starts.tolist() == expected


class TestBuildDataset:
    def test_video2n_counts(self):
        rec = flat_recording(120000)
        sched = video2n_shaped_schedule()
        epochs = build_dataset(rec, sched, DatasetConfig(), seed=13)
        labels = epochs.labels.tolist()
        assert labels.count(ClassId.TRUE_TARGET) == 300
        assert labels.count(ClassId.ERROR_TARGET) == 300
        assert labels.count(ClassId.NON_TARGET) == 14 * 60

    def test_empty_schedule_empty_dataset(self):
        rec = flat_recording(10000)
        sched = EventSchedule(10000, RATE, [], [])
        assert len(build_dataset(rec, sched, DatasetConfig(), seed=13)) == 0

    def test_two_seeds_same_multiset_different_order(self):
        rec = flat_recording(120000)
        sched = video2n_shaped_schedule()
        a = build_dataset(rec, sched, DatasetConfig(), seed=13)
        b = build_dataset(rec, sched, DatasetConfig(), seed=14)

        def keys(windows):
            x = stacked(windows)
            return [(int(label), int(start), row.tobytes())
                    for label, start, row in zip(windows.labels, windows.starts, x)]

        # negatives differ between seeds, but the augmented target portion is
        # a fixed multiset; check targets match and orders differ
        ta = sorted(k for k in keys(a) if k[0] != ClassId.NON_TARGET)
        tb = sorted(k for k in keys(b) if k[0] != ClassId.NON_TARGET)
        assert ta == tb
        assert keys(a) != keys(b)

    def test_same_seed_identical(self):
        rec = flat_recording(120000)
        sched = video2n_shaped_schedule()
        a = build_dataset(rec, sched, DatasetConfig(), seed=13)
        b = build_dataset(rec, sched, DatasetConfig(), seed=13)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.starts, b.starts)

    def test_no_nontarget_epoch_intersects_target_span(self):
        rec = flat_recording(120000)
        sched = video2n_shaped_schedule()
        spans = [(ev.onset, ev.end) for ev in sched.targets]
        windows = build_dataset(rec, sched, DatasetConfig(), seed=13)
        for start, label in zip(windows.starts, windows.labels):
            if label == ClassId.NON_TARGET:
                lo, hi = start, start + 250
                assert all(hi <= s or lo >= e for s, e in spans)


class TestEvalDataset:
    def test_one_window_per_event(self):
        rec = flat_recording(120000)
        sched = video2n_shaped_schedule()
        epochs = build_eval_dataset(rec, sched, DatasetConfig(), seed=3)
        target_onsets = epochs.starts[epochs.labels != ClassId.NON_TARGET].tolist()
        assert target_onsets == [ev.onset for ev in sched.targets]

    def test_overrun_reports_event_index(self):
        rec = flat_recording(1400)
        sched = EventSchedule(
            1400, RATE,
            [Event(100, ClassId.TRUE_TARGET, 250), Event(1200, ClassId.ERROR_TARGET, 200)],
            [],
        )
        with pytest.raises(DatasetError, match="event 1 at onset 1200"):
            build_eval_dataset(rec, sched, DatasetConfig(), seed=3)


class TestPoolWindows:
    def sessions(self):
        """Two build_dataset sets of different recordings and lengths."""
        sets = []
        for seed, n_samples, onsets in ((1, 20000, (1000, 9000)),
                                        (2, 16000, (500, 4000, 12000))):
            rng = np.random.default_rng(seed)
            rec = Recording(RATE, ["a", "b", "c"], rng.standard_normal((3, n_samples)))
            events = [Event(o, ClassId(1 + i % 2), 250) for i, o in enumerate(onsets)]
            sched = EventSchedule(n_samples, RATE, events, [])
            sets.append(build_dataset(rec, sched, DatasetConfig(), seed=seed))
        return sets

    def test_stack_equals_per_session_stacks_bit_for_bit(self):
        a, b = self.sessions()
        pooled = pool_windows([a, b])
        assert np.array_equal(stacked(pooled), np.concatenate([stacked(a), stacked(b)]))
        assert pooled.labels.tolist() == a.labels.tolist() + b.labels.tolist()
        assert np.array_equal(pooled.starts[len(a):], b.starts + a.samples.shape[1])

    def test_one_window_len(self):
        a, b = self.sessions()
        shorter = Windows(b.samples, 100, b.starts, b.labels)
        with pytest.raises(ValueError, match="one window_len"):
            pool_windows([a, shorter])


class TestWindowsAreRecordingViews:
    @pytest.mark.parametrize(
        "build",
        [
            lambda rec, sched: augment_minority(rec, sched, DatasetConfig()),
            lambda rec, sched: sample_nontarget(rec, sched, DatasetConfig(), seed=3),
            lambda rec, sched: build_eval_dataset(rec, sched, DatasetConfig(), seed=3),
        ],
        ids=["augment_minority", "sample_nontarget", "build_eval_dataset"],
    )
    def test_read_only_views(self, build):
        rec = flat_recording(120000)
        epochs = build(rec, video2n_shaped_schedule())
        assert len(epochs)
        assert np.shares_memory(epochs.samples, rec.samples)
        with pytest.raises(ValueError):
            epochs.samples[0, epochs.starts[0]] = 0.0
        assert rec.samples.flags.writeable


class TestDatasetConfig:
    def test_stride_must_divide_window(self):
        with pytest.raises(ValueError, match="divide"):
            DatasetConfig(window_len=250, stride=33)

    def test_augment_factor(self):
        assert DatasetConfig().augment_factor == 10
        assert DatasetConfig(window_len=100, stride=100).augment_factor == 1
