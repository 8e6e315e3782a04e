"""Metric family against brute-force oracles and the greedy event matcher."""

import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegtd.core import ClassId, Event, EventSchedule
from eegtd.metrics import (
    ConfusionMatrix,
    Detection,
    FBetaForm,
    MetricConfig,
    f_beta,
    macro_f_beta,
    match_detections,
    precision_recall,
    read_detections_csv,
    window_confusion,
    write_detections_csv,
)

RECALL = MetricConfig(beta=2.0, form=FBetaForm.RECALL_WEIGHTED)
LITERAL = MetricConfig(beta=2.0, form=FBetaForm.LITERAL)


def brute_force_macro(counts: np.ndarray, beta: float, literal: bool) -> float:
    """Independent per-class scorer walking the matrix cell by cell."""
    scores = []
    for c in range(3):
        tp = fp = fn = 0
        for t in range(3):
            for p in range(3):
                n = int(counts[t, p])
                if t == c and p == c:
                    tp += n
                elif p == c:
                    fp += n
                elif t == c:
                    fn += n
        recall = tp / (tp + fn) if tp + fn else 0.0
        precision = tp / (tp + fp) if tp + fp else 0.0
        b2 = beta * beta
        den = (b2 * recall + precision) if literal else (b2 * precision + recall)
        scores.append((1 + b2) * recall * precision / den if den else 0.0)
    return sum(scores) / 3.0


class TestFBeta:
    def test_hand_values_beta2(self):
        assert f_beta(1.0, 0.5, RECALL) == pytest.approx(0.555556, abs=1e-6)
        assert f_beta(1.0, 0.5, LITERAL) == pytest.approx(0.833333, abs=1e-6)

    def test_equal_pr_is_identity(self):
        for x in (0.0, 0.25, 0.7, 1.0):
            assert f_beta(x, x, RECALL) == pytest.approx(x)
            assert f_beta(x, x, LITERAL) == pytest.approx(x)

    def test_zero_denominator(self):
        assert f_beta(0.0, 0.0, RECALL) == 0.0
        assert f_beta(0.0, 0.0, LITERAL) == 0.0

    @given(
        st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
        st.floats(min_value=0.25, max_value=4),
    )
    def test_monotone_in_each_argument(self, p, r, delta, beta):
        for form in (FBetaForm.RECALL_WEIGHTED, FBetaForm.LITERAL):
            cfg = MetricConfig(beta=beta, form=form)
            hi = min(1.0, p + delta)
            assert f_beta(hi, r, cfg) >= f_beta(p, r, cfg) - 1e-12
            hi = min(1.0, r + delta)
            assert f_beta(p, hi, cfg) >= f_beta(p, r, cfg) - 1e-12

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(min_value=0.25, max_value=4))
    def test_forms_are_argument_swaps(self, p, r, beta):
        lhs = f_beta(p, r, MetricConfig(beta=beta, form=FBetaForm.RECALL_WEIGHTED))
        rhs = f_beta(r, p, MetricConfig(beta=beta, form=FBetaForm.LITERAL))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @given(st.floats(0.01, 1), st.floats(0.01, 1))
    def test_beta_one_is_harmonic_mean(self, p, r):
        expected = 2 * p * r / (p + r)
        for form in (FBetaForm.RECALL_WEIGHTED, FBetaForm.LITERAL):
            assert f_beta(p, r, MetricConfig(beta=1.0, form=form)) == pytest.approx(expected)


class TestMetricConfig:
    @pytest.mark.parametrize("beta", [np.inf, -np.inf, np.nan, 0.0])
    def test_beta_must_be_finite_and_positive(self, beta):
        # beta=inf used to be accepted and score every class NaN.
        with pytest.raises(ValueError, match="beta must be finite and positive"):
            MetricConfig(beta=beta)


class TestPrecisionRecall:
    def test_diagonal(self):
        cm = ConfusionMatrix(np.diag([5, 3, 2]))
        for c in range(3):
            assert precision_recall(cm, c) == (1.0, 1.0)

    def test_hand_counts(self):
        cm = ConfusionMatrix(np.array([[5, 1, 0], [2, 3, 0], [0, 0, 4]]))
        precision, recall = precision_recall(cm, 1)
        assert recall == pytest.approx(3 / 5)
        assert precision == pytest.approx(3 / 4)

    def test_empty_row_scores_zero(self):
        cm = ConfusionMatrix(np.array([[5, 0, 0], [0, 0, 0], [0, 0, 4]]))
        precision, recall = precision_recall(cm, 1)
        assert (precision, recall) == (0.0, 0.0)


class TestMacroFBeta:
    def test_perfect_diagonal(self):
        assert macro_f_beta(ConfusionMatrix(np.diag([7, 8, 9])), RECALL) == 1.0

    def test_all_predicted_nontarget(self):
        cm = ConfusionMatrix(np.array([[10, 0, 0], [4, 0, 0], [4, 0, 0]]))
        f0 = f_beta(*precision_recall(cm, 0), RECALL)
        assert macro_f_beta(cm, RECALL) == pytest.approx(f0 / 3)

    def test_oracle_on_hand_matrix(self):
        counts = np.array([[5, 1, 0], [2, 3, 0], [0, 0, 4]])
        cm = ConfusionMatrix(counts)
        for cfg, literal in ((RECALL, False), (LITERAL, True)):
            assert macro_f_beta(cm, cfg) == pytest.approx(
                brute_force_macro(counts, 2.0, literal), abs=1e-12
            )

    def test_oracle_on_fuzzed_matrices(self):
        rng = np.random.default_rng(20240917)
        for _ in range(1000):
            counts = rng.integers(0, 50, size=(3, 3))
            cm = ConfusionMatrix(counts)
            for beta in (0.5, 1.0, 2.0):
                for form, literal in (
                    (FBetaForm.RECALL_WEIGHTED, False),
                    (FBetaForm.LITERAL, True),
                ):
                    cfg = MetricConfig(beta=beta, form=form)
                    got = macro_f_beta(cm, cfg)
                    want = brute_force_macro(counts, beta, literal)
                    assert abs(got - want) < 1e-9
                    assert 0.0 <= got <= 1.0


class TestWindowConfusion:
    def test_identical_tracks_diagonal(self):
        track = np.array([0, 0, 1, 1, 2], dtype=np.int8)
        cm = window_confusion(track, track)
        assert np.array_equal(cm.counts, np.diag([2, 2, 1]))

    def test_disjoint_constant_tracks(self):
        truth = np.zeros(5, dtype=np.int8)
        pred = np.full(5, 2, dtype=np.int8)
        cm = window_confusion(truth, pred)
        expected = np.zeros((3, 3), dtype=np.int64)
        expected[0, 2] = 5
        assert np.array_equal(cm.counts, expected)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            window_confusion(np.zeros(4, dtype=np.int8), np.zeros(5, dtype=np.int8))

    def test_random_tracks_vs_linear_scan(self):
        rng = np.random.default_rng(3)
        truth = rng.integers(0, 3, 500).astype(np.int8)
        pred = rng.integers(0, 3, 500).astype(np.int8)
        cm = window_confusion(truth, pred)
        manual = np.zeros((3, 3), dtype=np.int64)
        for t, p in zip(truth, pred):
            manual[t, p] += 1
        assert np.array_equal(cm.counts, manual)


def one_event_schedule(onset=1000, class_id=ClassId.TRUE_TARGET):
    return EventSchedule(75000, 250.0, [Event(onset, class_id, 250)], [])


class TestMatchDetections:
    def test_direct_match(self):
        cm, pairs = match_detections(
            [Detection(1100, ClassId.TRUE_TARGET, 0.9)], one_event_schedule()
        )
        assert cm.counts[1, 1] == 1
        assert int(cm.counts.sum()) == 1
        assert pairs == [(0, 0)]

    def test_outside_tolerance(self):
        cm, pairs = match_detections(
            [Detection(1400, ClassId.TRUE_TARGET, 0.9)], one_event_schedule(), tolerance=375
        )
        assert pairs == []
        assert cm.counts[0, 1] == 1  # false positive
        assert cm.counts[1, 0] == 1  # missed event

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            match_detections(
                [Detection(1000, ClassId.TRUE_TARGET, 0.9)], one_event_schedule(), tolerance=-1
            )

    def test_boundary_inclusive(self):
        cm, pairs = match_detections(
            [Detection(1375, ClassId.TRUE_TARGET, 0.9)], one_event_schedule(), tolerance=375
        )
        assert pairs == [(0, 0)]

    def test_two_detections_one_event(self):
        dets = [
            Detection(1050, ClassId.TRUE_TARGET, 0.9),
            Detection(1200, ClassId.TRUE_TARGET, 0.8),
        ]
        cm, pairs = match_detections(dets, one_event_schedule())
        assert cm.counts[1, 1] == 1
        assert cm.counts[0, 1] == 1
        assert len(pairs) == 1

    def test_class_mismatch_counts_off_diagonal(self):
        cm, _ = match_detections(
            [Detection(1100, ClassId.ERROR_TARGET, 0.9)], one_event_schedule()
        )
        assert cm.counts[1, 2] == 1

    def test_unsorted_rejected(self):
        dets = [
            Detection(1200, ClassId.TRUE_TARGET, 0.9),
            Detection(1100, ClassId.TRUE_TARGET, 0.9),
        ]
        with pytest.raises(ValueError, match="sorted"):
            match_detections(dets, one_event_schedule())

    @staticmethod
    def _max_matching(det_times, onsets, tolerance):
        """Exhaustive maximum one-to-one matching size."""
        best = 0
        n = len(det_times)
        for assignment in itertools.product(range(-1, len(onsets)), repeat=n):
            used = [a for a in assignment if a >= 0]
            if len(used) != len(set(used)):
                continue
            if any(
                a >= 0 and not (onsets[a] <= t <= onsets[a] + tolerance)
                for t, a in zip(det_times, assignment)
            ):
                continue
            best = max(best, len(used))
        return best

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(0, 4000), min_size=0, max_size=5),
        st.lists(st.integers(0, 3), min_size=1, max_size=4),
    )
    def test_greedy_is_maximum_and_conserves(self, times, event_slots):
        onsets = sorted(set(1000 * s for s in event_slots))
        schedule = EventSchedule(
            10**6, 250.0,
            [Event(o, ClassId.TRUE_TARGET, 250) for o in onsets], [],
        )
        dets = [Detection(t, ClassId.TRUE_TARGET, 0.5) for t in sorted(times)]
        cm, pairs = match_detections(dets, schedule, tolerance=375)
        assert int(cm.counts.sum()) == len(onsets) + (len(dets) - len(pairs))
        assert len(pairs) == self._max_matching(
            [d.time for d in dets], onsets, 375
        )


class TestDetectionsCsv:
    def test_round_trip(self):
        dets = [
            Detection(1100, ClassId.TRUE_TARGET, 0.875),
            Detection(2400, ClassId.ERROR_TARGET, 0.5),
        ]
        buf = io.StringIO()
        write_detections_csv(dets, buf)
        assert read_detections_csv(io.StringIO(buf.getvalue())) == dets

    def test_bad_header(self):
        from eegtd.core import FormatError

        with pytest.raises(FormatError, match="header"):
            read_detections_csv(io.StringIO("a,b,c\n"))

    @pytest.mark.parametrize("row", ["300,1,0.5,junk", "300,1"])
    def test_row_without_three_cells_names_the_row(self, row):
        from eegtd.core import FormatError

        text = f"time,class,confidence\n100,1,0.5\n{row}\n"
        with pytest.raises(FormatError, match="row 2 has"):
            read_detections_csv(io.StringIO(text))

    @pytest.mark.parametrize("raw", [
        b"time,class,confidence\n100,1,0." + b"5" * 131_073 + b"\n",
        b"time,class,confidence\n100,1,0.5\xff\n",
    ], ids=["field-over-csv-limit", "non-utf8-row"])
    def test_text_errors_are_format_errors(self, raw):
        from eegtd.core import FormatError

        with pytest.raises(FormatError, match="detections CSV"):
            read_detections_csv(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
