"""The names the benchmark's always-on probe wraps.

`perfbench/workloads.py:Probe.install` replaces module attributes for a
whole benchmark run: `stream.OnlineEngine.push`, which it reads
`engine.ring.write_head` around; `analysis.predict_batch`, each call of which
is one latency sample of `saliency_video2n`; `stream.encode_message`, which
stamps each Data block's send time; and `stream.ReplayServer.serve_once`. If
a refactor renames one of these, or stops calling it through the module
attribute, the probe sees nothing and every benchmark operation fails. These
tests pin each hook on a tiny model.
"""

import numpy as np

from conftest import windows_end_to_end
from eegtd import analysis, stream
from eegtd.core import ClassId, Event, EventSchedule, Recording
from eegtd.metrics import MetricConfig
from eegtd.model import NetConfig, init_model
from eegtd.stream import DataMessage, OnlineConfig, OnlineEngine, ReplayServer

TINY = NetConfig(
    n_channels=2, window_len=40, temporal_filters=2, deep_filters=(2,),
    kernel_len=5, pool_len=2, dropout_rate=0.0, dense_hidden=4,
)


def counting(monkeypatch, owner, name: str) -> list:
    """Wrap owner.name so each call appends its arguments to the list returned."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_ring_write_head_counts_the_frames_pushed():
    engine = OnlineEngine(init_model(TINY, seed=1), OnlineConfig(infer_stride=5))
    rng = np.random.default_rng(0)
    pushed = 0
    for n in (1, 39, 3, 120, 7):
        engine.push(rng.standard_normal((n, TINY.n_channels)))
        pushed += n
        assert engine.ring.write_head == pushed


def test_window_scoring_calls_the_analysis_predict_batch_attribute(monkeypatch):
    model = init_model(TINY, seed=1)
    rng = np.random.default_rng(0)
    windows = windows_end_to_end(rng.standard_normal((6, TINY.n_channels, TINY.window_len)),
                                 np.array([0, 1, 2, 0, 1, 2], np.int8))
    calls = counting(monkeypatch, analysis, "predict_batch")
    analysis.evaluate_epochs(model, windows, MetricConfig())
    assert len(calls) == 1
    analysis.occlusion_saliency(model, windows, MetricConfig())
    assert len(calls) == 2


def test_serve_once_encodes_each_data_block_through_the_stream_attribute(monkeypatch):
    n_samples, chunk_ms = 1010, 40.0  # 10 frames a block at 250 Hz
    rec = Recording(250.0, ["a", "b"],
                    np.random.default_rng(0).standard_normal((2, n_samples)))
    schedule = EventSchedule(n_samples, 250.0, [Event(300, ClassId.TRUE_TARGET, 250)], [])
    encoded = counting(monkeypatch, stream, "encode_message")
    served = counting(monkeypatch, stream.ReplayServer, "serve_once")
    pushes = counting(monkeypatch, stream.OnlineEngine, "push")
    with ReplayServer(rec, schedule, chunk_ms=chunk_ms, speed=float("inf")) as server:
        thread = server.serve_in_thread()
        _, summary = stream.stream_online_inference(
            (server.host, server.port), init_model(TINY, seed=1), OnlineConfig()
        )
        thread.join(timeout=10.0)
    assert not thread.is_alive()
    blocks = [args[0] for args in encoded if isinstance(args[0], DataMessage)]
    assert summary.total_frames == n_samples
    assert len(blocks) == -(-n_samples // 10) == 101
    assert len(served) == 1
    assert sum(len(args[1]) for args in pushes) == n_samples
