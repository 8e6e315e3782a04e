"""Tests of the benchmark's own helpers: lag computation, percentiles with
their counts, and span self-time subtraction.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import math
import threading
import time

import pytest

from perfbench.stats import due_times, percentile, quantile, window_ends, window_lags
from perfbench.tracing import Span, Tracer, self_times


# -- lag ---------------------------------------------------------------------


def test_due_times_follow_the_schedule_from_block_zero():
    sends = [10.0, 10.5, 10.9, 11.0]  # the generator ran late on block 1
    assert due_times(sends, chunk_s=0.04, speed=0.1) == pytest.approx(
        [10.0, 10.4, 10.8, 11.2]
    )
    with pytest.raises(ValueError):
        due_times(sends, chunk_s=0.04, speed=math.inf)


def test_window_lags_against_a_synthetic_timeline():
    # Blocks of 10 frames, windows of 25 frames evaluated every 5 frames:
    # windows end at samples 25, 30, 35, 40, ...
    chunk_frames, window_len, stride = 10, 25, 5
    due = [float(k) for k in range(6)]  # block k due at t = k
    pushes = [
        (0, 10, 0.5),  # no window complete yet
        (10, 20, 1.5),
        (20, 30, 2.25),  # windows ending at 25 and 30, both completed by block 2
        (30, 40, 3.5),  # windows ending at 35 and 40 (block 3)
        (40, 60, 5.75),  # two blocks in one push: 45, 50 (block 4), 55, 60 (block 5)
    ]
    lags = window_lags(pushes, due, chunk_frames, window_len, stride)
    assert lags == pytest.approx([0.25, 0.25, 0.5, 0.5, 1.75, 1.75, 0.75, 0.75])


def test_every_window_is_counted_once_for_any_block_size():
    due = [0.0] * 100
    for block in (1, 3, 7, 10, 25, 40):
        pushes = [(lo, min(lo + block, 500), 1.0) for lo in range(0, 500, block)]
        ends = [e for b, a, _ in pushes for e in window_ends(b, a, 250, 25)]
        assert ends == list(range(250, 501, 25))
        assert len(window_lags(pushes, due, 10, 250, 25)) == len(ends)


# -- percentiles -------------------------------------------------------------


def test_percentile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 100) == 4.0
    assert percentile([7.0], 99) == 7.0


def test_percentile_rejects_no_values_and_bad_q():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_quantile_reports_sample_count_and_tail():
    values = [float(v) for v in range(1, 1001)]
    q = quantile(values, 99)
    assert q.n == 1000
    assert q.value == pytest.approx(990.01)
    assert q.beyond == 10
    assert q.resolved
    small = quantile(values[:34], 99)
    assert small.n == 34 and small.beyond == 1 and not small.resolved
    assert quantile(values[:3], 50).resolved


# -- self time ---------------------------------------------------------------


def _span(name, start, end, parent):
    return Span(name, start, end, parent, thread=1, phase="op")


def test_self_times_subtract_direct_children_only():
    spans = [
        _span("experiment.run", 0.0, 10.0, -1),
        _span("experiment.pretrain", 1.0, 7.0, 0),
        _span("model.train", 2.0, 6.0, 1),
        _span("stream.stream", 7.0, 9.5, 0),
    ]
    assert self_times(spans) == pytest.approx([1.5, 2.0, 4.0, 2.5])
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_tracer_nests_spans_per_thread_and_restores_patches():
    class Owner:
        @staticmethod
        def leaf():
            time.sleep(0.01)

        @staticmethod
        def outer():
            Owner.leaf()

    leaf = Owner.leaf
    tracer = Tracer()
    tracer.add(Owner, "outer", "a.outer")
    tracer.add(Owner, "leaf", "b.leaf")
    tracer.add(Owner, "absent", "c.absent")
    with tracer.active("op"):
        Owner.outer()
        worker = threading.Thread(target=Owner.leaf)
        worker.start()
        worker.join(5)
    assert not worker.is_alive()
    assert Owner.leaf is leaf
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("a.outer", -1), ("b.leaf", 0), ("b.leaf", -1)]
    assert tracer.spans[2].thread != tracer.spans[0].thread
    own = self_times(tracer.spans)
    assert own[0] == pytest.approx(tracer.spans[0].duration - tracer.spans[1].duration)
    assert all(t >= 0 for t in own)
