"""Tests of the workloads' own plumbing: the head of a session that the
online workload paces, and how many operations a run makes.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

# eegtd is imported from this tree's src/, as the worker process does.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from eegtd.core import ClassId, DynamicsEvent, DynamicsKind, Event, EventSchedule, Recording  # noqa: E402

from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import alternate, session_head  # noqa: E402


def test_session_head_keeps_the_events_that_end_within_it():
    samples = np.arange(200, dtype=np.float32).reshape(2, 100)
    rec = Recording(250.0, ["Cz", "Pz"], samples)
    schedule = EventSchedule(
        100, 250.0,
        targets=[Event(10, ClassId.TRUE_TARGET, 20), Event(50, ClassId.ERROR_TARGET, 20)],
        dynamics=[DynamicsEvent(40, DynamicsKind.CAMERA_ROTATION, 30)],
    )
    head, head_schedule = session_head(rec, schedule, 60)
    assert head.channel_names == ["Cz", "Pz"]
    np.testing.assert_array_equal(head.samples, samples[:, :60])
    assert head_schedule.total_samples == 60
    assert head_schedule.targets == [Event(10, ClassId.TRUE_TARGET, 20)]
    assert head_schedule.dynamics == []


def test_alternate_makes_the_least_number_of_calls_asked_for():
    calls: list[bool] = []

    def step(traced: bool, i: int) -> float:
        calls.append(traced)
        return 1.0

    alternate(0.0, None, step, min_calls=2)
    assert calls == [False, False]
    calls.clear()
    alternate(0.0, None, step)
    assert calls == [False]
    calls.clear()
    alternate(0.0, Tracer(), step)
    assert calls == [False, True]
