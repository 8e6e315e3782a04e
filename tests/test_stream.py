"""ESP codec, frame tail, replay server/client over localhost, the
online engine and its debouncer."""

import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegtd import stream
from eegtd.core import ClassId, DynamicsEvent, DynamicsKind, Event, EventSchedule, Recording
from eegtd.model import NetConfig, forward, init_model, standardize
from eegtd.stream import (
    ConnectionLost,
    DataMessage,
    Debouncer,
    EspStreamReader,
    FrameTail,
    MAX_BLOCK_FRAMES,
    MAX_CHANNELS,
    MAX_START_PAYLOAD,
    OnlineConfig,
    OnlineEngine,
    ProtocolError,
    RECV_BYTES,
    ReplayServer,
    StartMessage,
    StopMessage,
    StreamSummary,
    client_receive,
    encode_message,
    stream_online_inference,
)


def make_recording(n_samples=1000, n_channels=3, seed=0) -> Recording:
    rng = np.random.default_rng(seed)
    names = [f"ch{i}" for i in range(n_channels)]
    return Recording(250.0, names, rng.standard_normal((n_channels, n_samples)))


def decode(data: bytes) -> list:
    """The messages one reader returns for `data` fed whole."""
    return EspStreamReader().feed(data)


class TestCodec:
    START = StartMessage(250.0, ("a", "b", "c"))

    def test_start_round_trip(self):
        msg = StartMessage(250.0, ("Cz", "Oz"))
        assert decode(encode_message(msg)) == [msg]

    def test_data_round_trip(self):
        frames = np.arange(12, dtype=np.float32).reshape(4, 3)
        msg = DataMessage(0, frames, [(1, 1), (3, 100)])
        assert decode(encode_message(self.START) + encode_message(msg)) == [self.START, msg]

    def test_stop_round_trip(self):
        start = StartMessage(250.0, ("a",))
        blob = encode_message(start) + encode_message(StopMessage(12345))
        reader = EspStreamReader()
        assert reader.feed(blob) == [start, StopMessage(12345)]
        # After Stop, a close and any further bytes decode to nothing.
        assert reader.feed(b"") == []
        assert reader.feed(blob) == []

    def test_bad_magic(self):
        with pytest.raises(ProtocolError, match="magic"):
            decode(b"XSP1" + b"\x00" * 20)

    def test_truncated_data(self):
        frames = np.zeros((4, 3), dtype=np.float32)
        blob = encode_message(self.START) + encode_message(DataMessage(0, frames))[:-6]
        reader = EspStreamReader()
        assert reader.feed(blob) == [self.START]
        with pytest.raises(ConnectionLost):
            reader.feed(b"")

    def test_close_before_any_byte_is_clean(self):
        assert EspStreamReader().feed(b"") == []

    def test_close_mid_header_is_connection_lost(self):
        reader = EspStreamReader()
        assert reader.feed(b"ESP1") == []
        with pytest.raises(ConnectionLost):
            reader.feed(b"")

    def test_block_skip_rejected(self):
        start = StartMessage(250.0, ("a",))
        frames = np.zeros((2, 1), dtype=np.float32)
        blob = (
            encode_message(start)
            + encode_message(DataMessage(0, frames))
            + encode_message(DataMessage(2, frames))
        )
        with pytest.raises(ProtocolError, match="block index"):
            decode(blob)

    def test_data_before_start(self):
        frames = np.zeros((2, 1), dtype=np.float32)
        with pytest.raises(ProtocolError, match="before Start"):
            decode(encode_message(DataMessage(0, frames)))

    def test_duplicate_start(self):
        start = StartMessage(250.0, ("a",))
        with pytest.raises(ProtocolError, match="duplicate"):
            decode(encode_message(start) * 2)

    def test_marker_outside_block(self):
        start = StartMessage(250.0, ("a",))
        frames = np.zeros((2, 1), dtype=np.float32)
        blob = encode_message(start) + encode_message(DataMessage(0, frames, [(5, 1)]))
        with pytest.raises(ProtocolError, match="marker"):
            decode(blob)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, value):
        blocks = [np.zeros((4, 3), dtype=np.float32) for _ in range(2)]
        blocks[1][2, 1] = value
        blob = encode_message(self.START) + b"".join(
            encode_message(DataMessage(k, frames)) for k, frames in enumerate(blocks)
        )
        with pytest.raises(ProtocolError, match="non-finite sample in block 1"):
            decode(blob)


class TestPayloadBounds:
    START = encode_message(StartMessage(250.0, ("a", "b")))
    DATA_BOUND = 16 + MAX_BLOCK_FRAMES * (4 * 2 + 8)

    @pytest.mark.parametrize("mtype, length, ceiling", [
        (1, 1 << 40, 1 << 20),       # Start
        (2, 1 << 40, DATA_BOUND),    # Data, two channels
        (2, DATA_BOUND + 1, DATA_BOUND),
        (3, 1 << 33, 8),             # Stop is exactly 8 bytes
        (3, 9, 8),
    ])
    def test_oversized_payload_rejected_before_read(self, mtype, length, ceiling):
        # Only the header is fed, so the rejection comes before any payload.
        reader = EspStreamReader()
        if mtype != 1:
            reader.feed(self.START)
        with pytest.raises(ProtocolError, match=f"limit {ceiling}$"):
            reader.feed(b"ESP1" + struct.pack("<IQ", mtype, length))

    def test_largest_block_accepted(self):
        frames = np.ones((MAX_BLOCK_FRAMES, 2), dtype=np.float32)
        _, block = decode(self.START + encode_message(DataMessage(0, frames)))
        assert block.n_frames == MAX_BLOCK_FRAMES

    def test_zero_channel_start_rejected(self):
        # encode_message refuses to build it, so the frame is built by hand.
        with pytest.raises(ProtocolError, match="0 channels"):
            decode(start_frame(struct.pack("<dI", 250.0, 0)))


def start_frame(payload: bytes) -> bytes:
    """A Start message carrying `payload` as is."""
    return b"ESP1" + struct.pack("<IQ", 1, len(payload)) + payload


# Channel name lists the reader rejects: too many, none, and a payload of
# 12 + 600 * (2 + 2001) = 1,201,812 bytes, over MAX_START_PAYLOAD.
UNREADABLE_STARTS = [
    pytest.param([f"c{i}" for i in range(MAX_CHANNELS + 1)], "1025 channels, expected 1 to 1024",
                 id="1025-channels"),
    pytest.param([], "0 channels, expected 1 to 1024", id="no-channels"),
    pytest.param([f"{i:04d}" + "x" * 1997 for i in range(600)],
                 f"1201812 bytes, limit {MAX_START_PAYLOAD}", id="payload-over-limit"),
]


class TestStartLimits:
    """The sender checks the reader's limits, from the same constants."""

    @pytest.mark.parametrize("names, message", UNREADABLE_STARTS)
    def test_encode_rejects_what_the_reader_rejects(self, names, message):
        with pytest.raises(ValueError, match=message):
            encode_message(StartMessage(250.0, tuple(names)))

    @pytest.mark.parametrize("names, message", UNREADABLE_STARTS)
    def test_replay_server_rejects_before_binding(self, names, message, monkeypatch):
        schedule = EventSchedule(10, 250.0, [], [])

        def no_socket(*args, **kwargs):
            raise AssertionError("socket opened")

        monkeypatch.setattr(stream.socket, "socket", no_socket)
        if not names:  # no Recording has zero channels to serve
            message = "recording has zero channels"
        with pytest.raises(ValueError, match=message):
            ReplayServer(Recording(250.0, names, np.zeros((len(names), 10))), schedule)

    def test_most_channels_round_trip(self):
        msg = StartMessage(250.0, tuple(f"ch{i}" for i in range(MAX_CHANNELS)))
        assert decode(encode_message(msg)) == [msg]


class TestStartMessage:
    def test_channel_count_is_the_names(self):
        msg = StartMessage(250.0, ("Cz", "Oz", "Pz"))
        assert msg.n_channels == 3
        assert encode_message(msg)[24:28] == struct.pack("<I", 3)

    def test_longest_name_round_trips(self):
        msg = StartMessage(250.0, ("Cz", "é" * 32767 + "x"))
        assert len(msg.channel_names[1].encode("utf-8")) == 0xFFFF
        assert decode(encode_message(msg)) == [msg]

    def test_name_past_limit_rejected(self):
        with pytest.raises(ValueError, match="channel name 1 is 65536 bytes, limit 65535"):
            encode_message(StartMessage(250.0, ("Cz", "x" * 0x10000)))

    @pytest.mark.parametrize("body, message", [
        (b"\x05", "truncated input reading name length 0"),
        (struct.pack("<H", 5) + b"ab", "truncated input reading channel name 0"),
        (struct.pack("<H", 2) + b"\xff\xfe", "channel name 0 is not valid UTF-8"),
        (struct.pack("<H", 1) + b"a!", "trailing bytes"),
    ])
    def test_malformed_names(self, body, message):
        with pytest.raises(ProtocolError, match=message):
            decode(start_frame(struct.pack("<dI", 250.0, 1) + body))

    @pytest.mark.parametrize("rate", [0.0, np.nan, np.inf])
    def test_invalid_rate(self, rate):
        with pytest.raises(ProtocolError, match="invalid sampling rate"):
            decode(encode_message(StartMessage(rate, ("a",))))

    def test_stop_before_start(self):
        with pytest.raises(ProtocolError, match="Stop before Start"):
            decode(encode_message(StopMessage(0)))

    def test_unknown_type(self):
        with pytest.raises(ProtocolError, match="unknown message type 9$"):
            decode(b"ESP1" + struct.pack("<IQ", 9, 0))


class TestFrameTail:
    def test_append_returns_tail_then_frames(self):
        tail = FrameTail(2, 3)
        frames = np.arange(24, dtype=np.float32).reshape(12, 2)
        first, x = tail.append(frames[:10])
        assert first == 0
        assert np.array_equal(x, frames[:10].T)
        assert np.array_equal(tail.samples, frames[7:10].T)
        first, x = tail.append(frames[10:])
        assert first == 7
        assert np.array_equal(x, frames[7:].T)
        assert tail.write_head == 12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 12), st.lists(st.integers(0, 15), max_size=20))
    def test_matches_shadow_list(self, keep, sizes):
        tail = FrameTail(2, keep)
        shadow = np.zeros((0, 2))
        for k in sizes:
            total = len(shadow) + k
            frames = np.arange(2 * len(shadow), 2 * total, dtype=np.float64).reshape(k, 2)
            shadow = np.concatenate((shadow, frames))
            first, x = tail.append(frames)
            assert first == max(total - k - keep, 0)
            assert x.dtype == np.float32
            assert np.array_equal(x, shadow[first:].T)
            assert np.array_equal(tail.samples, shadow[total - min(keep, total) :].T)
            assert not np.shares_memory(tail.samples, x)
            assert tail.write_head == total


class TestReplayServer:
    def collect_stream(self, rec, schedule, speed, chunk_ms=40.0):
        server = ReplayServer(rec, schedule, chunk_ms=chunk_ms, speed=speed)
        frames: list[np.ndarray] = []
        markers: list[tuple[int, int]] = []
        offset = [0]

        def sink(burst: list[DataMessage]):
            for msg in burst:
                frames.append(msg.frames)
                for off, code in msg.markers:
                    markers.append((offset[0] + off, code))
                offset[0] += msg.n_frames

        with server:
            server.serve_in_thread()
            summary = client_receive((server.host, server.port), sink)
        return np.concatenate(frames, axis=0), markers, summary

    def test_block_arithmetic_one_second(self, monkeypatch):
        readers = []

        class Recorded(EspStreamReader):
            def __init__(self):
                super().__init__()
                readers.append(self)

        monkeypatch.setattr(stream, "EspStreamReader", Recorded)
        rec = make_recording(250)
        schedule = EventSchedule(250, 250.0, [], [])
        frames, _, summary = self.collect_stream(rec, schedule, speed=float("inf"))
        assert summary.n_blocks == readers[0].blocks_delivered == 25
        assert summary.total_frames == 250
        assert frames.shape == (250, 3)

    def test_payload_identical_across_speeds(self):
        rec = make_recording(500, seed=3)
        schedule = EventSchedule(
            500, 250.0, [Event(100, ClassId.TRUE_TARGET, 250)], []
        )
        fast, markers_fast, _ = self.collect_stream(rec, schedule, speed=float("inf"))
        paced, markers_paced, summary = self.collect_stream(rec, schedule, speed=4.0)
        assert np.array_equal(fast, paced)
        assert markers_fast == markers_paced
        # 2 s of data at 4x speed should take roughly 0.5 s
        assert summary.wall_seconds >= 0.4

    def test_frames_bit_exact_and_markers_at_onsets(self):
        rec = make_recording(1010, seed=4)
        schedule = EventSchedule(
            1010, 250.0,
            [Event(1000, ClassId.TRUE_TARGET, 10)],
            [DynamicsEvent(130, DynamicsKind.CAMERA_ROTATION, 100)],
        )
        frames, markers, summary = self.collect_stream(rec, schedule, speed=float("inf"))
        assert np.array_equal(frames.T, rec.samples)
        assert (1000, 1) in markers and (130, 100) in markers
        assert summary.gaps == 0

    def test_marker_block_offset_arithmetic(self):
        # chunk of 10 frames: onset 1010 lands in block 101 at offset 0
        rec = make_recording(1011)
        schedule = EventSchedule(1011, 250.0, [Event(1010, ClassId.TRUE_TARGET, 1)], [])
        server = ReplayServer(rec, schedule, chunk_ms=40.0, speed=float("inf"))
        marker_blocks = {}

        def sink(burst):
            for msg in burst:
                for off, code in msg.markers:
                    marker_blocks[msg.block_index] = (off, code)

        with server:
            server.serve_in_thread()
            client_receive((server.host, server.port), sink)
        assert marker_blocks == {101: (0, 1)}

    def test_chunk_too_small(self):
        rec = make_recording(100)
        schedule = EventSchedule(100, 250.0, [], [])
        with pytest.raises(ValueError, match="chunk"):
            ReplayServer(rec, schedule, chunk_ms=1.0)
        for chunk_ms in (np.inf, np.nan):
            with pytest.raises(ValueError, match="chunk_ms must be finite and positive"):
                ReplayServer(rec, schedule, chunk_ms=chunk_ms)

    def test_client_disconnect_logged_not_raised(self):
        rec = make_recording(5000, seed=5)
        schedule = EventSchedule(5000, 250.0, [], [])
        server = ReplayServer(rec, schedule, chunk_ms=40.0, speed=1.0)

        def rude_client():
            sock = socket.create_connection((server.host, server.port))
            sock.recv(64)
            sock.close()

        with server:
            t = threading.Thread(target=rude_client)
            t.start()
            summary = server.serve_once()
            t.join()
        assert not summary.completed

    def test_server_killed_mid_stream(self):
        rec = make_recording(50000, seed=6)
        schedule = EventSchedule(50000, 250.0, [], [])
        server = ReplayServer(rec, schedule, chunk_ms=40.0, speed=float("inf"))

        received = []

        def sink(burst):
            for msg in burst:
                received.append(msg.n_frames)
                if len(received) == 3:
                    raise KeyboardInterrupt  # simulate local abort -> socket close

        with server:
            server.serve_in_thread()
            with pytest.raises(KeyboardInterrupt):
                client_receive((server.host, server.port), sink)

    def test_length_mismatch_rejected(self):
        rec = make_recording(100)
        schedule = EventSchedule(99, 250.0, [], [])
        with pytest.raises(ValueError, match="schedule length does not match"):
            ReplayServer(rec, schedule)


def one_shot_peer(behaviour) -> tuple[tuple[str, int], threading.Thread]:
    """A loopback listener that hands its first connection to `behaviour` in
    a thread; returns the endpoint and the thread."""
    listener = socket.create_server(("127.0.0.1", 0))

    def run():
        with listener:
            conn, _ = listener.accept()
            with conn:
                behaviour(conn)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return listener.getsockname()[:2], thread


class TestTransportErrors:
    START = encode_message(StartMessage(250.0, ("Cz", "Oz")))
    BLOCK = encode_message(DataMessage(0, np.zeros((10, 2), dtype=np.float32)))

    def test_reset_after_start_is_connection_lost(self):
        received = threading.Event()

        def reset(conn):
            conn.sendall(self.START + self.BLOCK)
            received.wait(10.0)
            # linger 0: close sends RST instead of FIN
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))

        endpoint, thread = one_shot_peer(reset)
        with pytest.raises(ConnectionLost) as info:
            client_receive(endpoint, lambda msg: received.set(), timeout_s=10.0)
        thread.join(10.0)
        assert info.value.frames_received == 10

    def test_stall_past_timeout_is_connection_lost(self):
        release = threading.Event()

        def stall(conn):
            conn.sendall(self.START + self.BLOCK)
            release.wait(10.0)

        bursts = []
        endpoint, thread = one_shot_peer(stall)
        try:
            with pytest.raises(ConnectionLost) as info:
                client_receive(endpoint, bursts.append, timeout_s=0.3)
        finally:
            release.set()
            thread.join(10.0)
        assert info.value.frames_received == 10
        # The block is handed over before the recv that stalls.
        assert [msg.n_frames for burst in bursts for msg in burst] == [10]

    def test_sink_errors_are_not_mapped(self):
        def send_all(conn):
            conn.sendall(self.START + self.BLOCK)

        def sink(msg):
            raise OSError("sink failed")

        endpoint, thread = one_shot_peer(send_all)
        with pytest.raises(OSError, match="sink failed") as info:
            client_receive(endpoint, sink, timeout_s=10.0)
        thread.join(10.0)
        assert not isinstance(info.value, ProtocolError)


class TestPeerClose:
    def test_close_before_any_byte_is_protocol_error(self):
        endpoint, thread = one_shot_peer(lambda conn: None)
        with pytest.raises(ProtocolError, match="did not begin with Start"):
            client_receive(endpoint, lambda burst: None, timeout_s=10.0)
        thread.join(10.0)

    def test_close_after_start_is_connection_lost(self):
        start = encode_message(StartMessage(250.0, ("Cz", "Oz")))
        block = encode_message(DataMessage(0, np.zeros((10, 2), dtype=np.float32)))
        endpoint, thread = one_shot_peer(lambda conn: conn.sendall(start + block))
        with pytest.raises(ConnectionLost) as info:
            client_receive(endpoint, lambda burst: None, timeout_s=10.0)
        thread.join(10.0)
        assert info.value.frames_received == 10


class TestBursts:
    def receive(self, wire: bytes) -> tuple[list[list[DataMessage]], StreamSummary]:
        """Send `wire` in one sendall; return the sink's bursts and the summary."""
        bursts: list[list[DataMessage]] = []
        endpoint, thread = one_shot_peer(lambda conn: conn.sendall(wire))
        summary = client_receive(endpoint, bursts.append, timeout_s=10.0)
        thread.join(10.0)
        assert not thread.is_alive()
        return bursts, summary

    def test_blocks_sent_at_once_arrive_in_order_in_bursts(self):
        blocks = [
            DataMessage(k, np.full((10, 2), k, dtype=np.float32), [(k % 10, 1)])
            for k in range(2000)
        ]
        encoded = [encode_message(msg) for msg in blocks]
        start = encode_message(StartMessage(250.0, ("Cz", "Oz")))
        stop = encode_message(StopMessage(10 * len(blocks)))
        assert sum(map(len, encoded)) > 3 * RECV_BYTES
        bursts, summary = self.receive(start + b"".join(encoded) + stop)
        assert [msg for burst in bursts for msg in burst] == blocks
        assert summary.n_blocks == len(blocks)
        assert len(bursts) < len(blocks)
        # A burst holds what one recv completes: at most RECV_BYTES plus
        # the block that straddles the previous recv.
        assert max(map(len, bursts)) * len(encoded[0]) <= RECV_BYTES + len(encoded[0])

    def test_block_larger_than_one_recv(self):
        frames = np.random.default_rng(0).standard_normal((MAX_BLOCK_FRAMES, 32))
        block = DataMessage(0, frames.astype(np.float32), [(4095, 2)])
        encoded = encode_message(block)
        assert len(encoded) > RECV_BYTES
        start = encode_message(StartMessage(250.0, tuple(f"c{i}" for i in range(32))))
        bursts, summary = self.receive(
            start + encoded + encode_message(StopMessage(MAX_BLOCK_FRAMES))
        )
        assert bursts == [[block]]
        assert summary.total_frames == MAX_BLOCK_FRAMES


def flag_rows(n: int, spans: list[tuple[int, int]],
              on=(0.0, 1.0, 0.0), off=(1.0, 0.0, 0.0)) -> list[tuple[int, np.ndarray]]:
    """(end, probs) for the windows of 250 samples ending at
    range(250, n + 1, 25): `on` when the window's first sample lies inside
    a span, `off` otherwise."""
    return [
        (end, np.array(on if any(lo <= end - 250 < hi for lo, hi in spans) else off))
        for end in range(250, n + 1, 25)
    ]


def debounce(rows, cfg: OnlineConfig) -> list:
    """The detections one Debouncer emits over `rows`, fed in order."""
    debouncer = Debouncer(cfg)
    dets = [debouncer.step(end, probs) for end, probs in rows]
    return [det for det in dets if det is not None]


class TestOnlineEngine:
    CFG = OnlineConfig(infer_stride=25, trigger_threshold=0.7,
                       consecutive_required=3, refractory=250)

    def test_single_event_detection_window(self):
        dets = debounce(flag_rows(2500, [(1000, 1250)]), self.CFG)
        assert len(dets) == 1
        det = dets[0]
        # triggers start at window [1000, 1250); third trigger at 1300
        assert 1250 <= det.time <= 1300
        assert det.class_id == ClassId.TRUE_TARGET
        assert det.confidence == pytest.approx(1.0)

    def test_unreachable_threshold_never_fires(self):
        cfg = OnlineConfig(trigger_threshold=0.999999, consecutive_required=3)
        rows = flag_rows(2500, [], off=(0.5, 0.3, 0.2))
        assert debounce(rows, cfg) == []

    def test_refractory_exactly_expires(self):
        # two adjacent event spans 250 samples apart with refractory 250
        dets = debounce(flag_rows(3000, [(1000, 1250), (1250, 1500)]), self.CFG)
        assert len(dets) == 2
        assert dets[1].time - dets[0].time == 250

    def test_detection_count_bound(self):
        dets = debounce(flag_rows(10000, [(250, 10000)]), self.CFG)
        assert len(dets) <= int(np.ceil(10000 / self.CFG.refractory))
        gaps = np.diff([d.time for d in dets])
        assert np.all(gaps >= self.CFG.refractory)

    def test_deterministic_across_chunkings(self):
        # At threshold 0.5 the untrained model's runs are broken by
        # sub-threshold windows, so the debounce state crosses push
        # boundaries in every chunking.
        rec = make_recording(4000, n_channels=2, seed=0)
        model = init_model(NetConfig(n_channels=2), seed=2)
        cfg = OnlineConfig(trigger_threshold=0.5, consecutive_required=3, refractory=250)
        frames = rec.samples.T
        runs = []
        for chunk in (7, 113, 1):
            engine = OnlineEngine(model, cfg)
            for lo in range(0, frames.shape[0], chunk):
                engine.push(frames[lo : lo + chunk])
            runs.append(engine.detections)
        a, b, c = runs
        assert a == b == c
        assert len(a) >= 5

    def test_holds_at_most_w_minus_1_frames(self):
        engine = OnlineEngine(init_model(NetConfig(n_channels=2), seed=2), OnlineConfig())
        w = engine.window_len
        rng = np.random.default_rng(0)
        for n in (1, 7, 113, 5 * w):
            engine.push(rng.standard_normal((n, 2)))
            assert engine.ring.samples.shape[1] <= w - 1
        assert engine.ring.write_head == 121 + 5 * w

    @pytest.mark.parametrize("bad, match", [
        (np.zeros(2), "real \\(n, 2\\) array"),
        (np.zeros((3, 2, 1)), "real \\(n, 2\\) array"),
        (np.array([["a", "b"]]), "real \\(n, 2\\) array"),
        (np.full((300, 2), np.nan), "non-finite"),
        (np.array([[0.0, 1.0], [np.inf, 0.0]]), "non-finite"),
    ])
    def test_malformed_frames_rejected_before_buffering(self, bad, match):
        engine = OnlineEngine(init_model(NetConfig(n_channels=2), seed=2), OnlineConfig())
        engine.push(np.zeros((10, 2)))
        with pytest.raises(ProtocolError, match=match):
            engine.push(bad)
        assert engine.ring.write_head == 10

    def test_class_attribution_sums_over_run(self):
        rows = flag_rows(2500, [(1000, 1250)], on=(0.1, 0.4, 0.5))
        dets = debounce(rows, self.CFG)
        assert len(dets) == 1
        assert dets[0].class_id == ClassId.ERROR_TARGET
        assert dets[0].confidence == pytest.approx(0.9)

    def test_run_broken_by_nontrigger(self):
        # two separated single-window flags never make 3 consecutive
        assert debounce(flag_rows(2500, [(1000, 1025), (1100, 1125)]), self.CFG) == []

    def test_confidence_equals_offline_forward_exactly(self, monkeypatch):
        # The engine classifies the same C-ordered window an offline slice
        # gives, standardized in float64 and scored in float32. With
        # one-window runs and no refractory hold, each confidence is
        # bit-equal to the offline float32 forward pass over the samples that
        # end at the detection, however the frames are split into pushes.
        rec = make_recording(3000, n_channels=4, seed=3)
        model = init_model(NetConfig(n_channels=4), seed=2)
        # Weights 4x the init scale make the output depend on the last bits
        # of the standardized window.
        for stage in (model.stage_a, model.stage_b):
            for value in stage.params.values():
                value *= 4.0
        cfg = OnlineConfig(trigger_threshold=0.01, consecutive_required=1, refractory=1)
        w = model.config.window_len
        batches = []
        predict_batch = stream.predict_batch

        def counted(model, x):
            batches.append(len(x))
            return predict_batch(model, x)

        monkeypatch.setattr(stream, "predict_batch", counted)
        frames = rec.samples.T
        chunks = (10, 113, len(frames))
        runs = {}
        for chunk in chunks:
            engine = OnlineEngine(model, cfg)
            for lo in range(0, frames.shape[0], chunk):
                before = len(batches)
                hi = min(lo + chunk, len(frames))
                completed = sum(1 for end in range(w, hi + 1, cfg.infer_stride) if end > lo)
                engine.push(frames[lo:hi])
                # The windows a push completes are scored in one batch.
                assert batches[before:] == ([completed] if completed else [])
            runs[chunk] = engine.detections
        assert batches[-1] == (len(frames) - w) // cfg.infer_stride + 1
        assert all(runs[chunk] == runs[10] for chunk in chunks)
        assert len(runs[10]) >= 5
        for det in runs[10]:
            window = standardize(rec.samples[None, :, det.time - w : det.time])
            # float() keeps the subtraction and the == in float64, as the
            # Debouncer computes it; a float32 scalar would round both.
            p_nontarget = float(forward(model, window.astype(np.float32))[0, 0])
            assert det.confidence == 1.0 - p_nontarget

    def test_first_detection_after_refractory_votes_over_the_held_run(self):
        # The run keeps growing while the refractory interval holds emission,
        # so the detection that ends the hold averages every window since the
        # last emission (refractory / infer_stride of them), not only the
        # last consecutive_required.
        p_nontarget = np.linspace(0.0, 0.2, 1000)
        rows = [
            (end, np.array([p_nontarget[end - 1], 1.0 - p_nontarget[end - 1], 0.0]))
            for end in range(250, 1001, 25)
        ]
        cfg = OnlineConfig(trigger_threshold=0.5, consecutive_required=1, refractory=250)
        first, second = debounce(rows, cfg)[:2]
        assert (first.time, second.time) == (250, 500)
        held = range(275, 501, cfg.infer_stride)
        assert len(held) == cfg.refractory // cfg.infer_stride
        p_target = [1.0 - p_nontarget[end - 1] for end in held]
        assert second.confidence == pytest.approx(np.mean(p_target), rel=1e-12)
        assert second.confidence != pytest.approx(p_target[-1], rel=1e-3)

    def test_online_infer_helper(self):
        assert len(debounce(flag_rows(2500, [(1000, 1250)]), self.CFG)) == 1


class TestStreamOnlineInference:
    MODEL = init_model(NetConfig(n_channels=2), seed=2)
    # A threshold this low makes the untrained model detect.
    CFG = OnlineConfig(trigger_threshold=0.01, consecutive_required=1)

    def test_detections_through_tcp(self):
        rec = make_recording(2500, n_channels=2, seed=7)
        schedule = EventSchedule(2500, 250.0, [Event(1000, ClassId.TRUE_TARGET, 250)], [])
        server = ReplayServer(rec, schedule, chunk_ms=40.0, speed=float("inf"))
        with server:
            server.serve_in_thread()
            dets, summary = stream_online_inference(
                (server.host, server.port), self.MODEL, self.CFG
            )
        assert summary.total_frames == 2500
        engine = OnlineEngine(self.MODEL, self.CFG)
        engine.push(rec.samples.T)
        assert dets == engine.detections
        assert len(dets) >= 1

    def test_predictor_error_reaches_caller_and_receiver_exits(self, monkeypatch):
        n = 50_000  # thousands of blocks
        rec = make_recording(n, n_channels=2)
        schedule = EventSchedule(n, 250.0, [], [])

        def broken(model, x):
            raise RuntimeError("predictor failed")

        monkeypatch.setattr(stream, "predict_batch", broken)
        before = set(threading.enumerate())
        server = ReplayServer(rec, schedule, chunk_ms=40.0, speed=float("inf"))
        with server:
            server_thread = server.serve_in_thread()
            with pytest.raises(RuntimeError, match="predictor failed"):
                stream_online_inference(
                    (server.host, server.port), self.MODEL, OnlineConfig(),
                    timeout_s=10.0,
                )
            server_thread.join(10.0)
        left = [t for t in threading.enumerate() if t not in before and t.is_alive()]
        assert left == []

    def test_runs_in_the_callers_thread(self, monkeypatch):
        rec = make_recording(2500, n_channels=2, seed=7)
        schedule = EventSchedule(2500, 250.0, [Event(1000, ClassId.TRUE_TARGET, 250)], [])
        predict_batch = stream.predict_batch
        seen = []

        def recording_threads(model, x):
            seen.append((threading.current_thread(), set(threading.enumerate())))
            return predict_batch(model, x)

        monkeypatch.setattr(stream, "predict_batch", recording_threads)
        server = ReplayServer(rec, schedule, chunk_ms=40.0, speed=float("inf"))
        with server:
            server_thread = server.serve_in_thread()
            before = set(threading.enumerate())
            dets, _ = stream_online_inference(
                (server.host, server.port), self.MODEL, self.CFG, timeout_s=10.0,
            )
            server_thread.join(10.0)
        assert not server_thread.is_alive()
        assert len(dets) >= 1
        # The replay server may finish early, so compare threads, not counts.
        assert seen
        for current, alive in seen:
            assert current is threading.main_thread()
            assert alive <= before

    def test_channel_count_mismatch_is_protocol_error(self):
        rec = make_recording(2500, n_channels=3)
        schedule = EventSchedule(2500, 250.0, [], [])
        server = ReplayServer(rec, schedule, chunk_ms=40.0, speed=float("inf"))
        with server:
            server_thread = server.serve_in_thread()
            with pytest.raises(ProtocolError, match="stream has 3 channels, model 2"):
                stream_online_inference(
                    (server.host, server.port), self.MODEL, OnlineConfig(),
                    timeout_s=10.0,
                )
            server_thread.join(10.0)
        assert not server_thread.is_alive()


@st.composite
def esp_streams(draw) -> bytes:
    """A valid encoded session: Start, a few small Data blocks, Stop."""
    n_channels = draw(st.integers(1, 3))
    names = tuple(draw(st.text(max_size=4)) for _ in range(n_channels))
    parts = [encode_message(StartMessage(250.0, names))]
    total = 0
    for k in range(draw(st.integers(0, 3))):
        n_frames = draw(st.integers(1, 3))
        frames = draw(st.lists(
            st.floats(width=32, allow_nan=False, allow_infinity=False),
            min_size=n_frames * n_channels, max_size=n_frames * n_channels,
        ))
        markers = draw(st.lists(
            st.tuples(st.integers(0, n_frames - 1), st.sampled_from([1, 2, 100, 101])),
            max_size=2,
        ))
        frames = np.array(frames, dtype=np.float32).reshape(n_frames, n_channels)
        parts.append(encode_message(DataMessage(k, frames, markers)))
        total += n_frames
    parts.append(encode_message(StopMessage(total)))
    return b"".join(parts)


def pieces(data, blob: bytes) -> list[bytes]:
    """`blob` split at drawn cut points into non-empty pieces (an empty
    feed means the peer closed)."""
    cuts = sorted(data.draw(st.lists(st.integers(0, len(blob)), max_size=8)))
    bounds = zip([0] + cuts, cuts + [len(blob)])
    return [blob[lo:hi] for lo, hi in bounds if hi > lo]


class TestSplitFeeds:
    @settings(max_examples=200, deadline=None)
    @given(esp_streams(), st.data())
    def test_any_split_decodes_like_one_feed(self, blob, data):
        whole = decode(blob)
        assert isinstance(whole[0], StartMessage) and isinstance(whole[-1], StopMessage)
        reader = EspStreamReader()
        fed = [msg for piece in pieces(data, blob) + [b""] for msg in reader.feed(piece)]
        assert fed == whole


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(esp_streams(), st.data())
    def test_mutated_streams_fail_only_with_protocol_error(self, blob, data):
        edit = data.draw(st.sampled_from(["truncate", "flip", "splice"]))
        if edit == "truncate":
            blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
        elif edit == "flip":
            mutable = bytearray(blob)
            for _ in range(data.draw(st.integers(1, 4))):
                pos = data.draw(st.integers(0, len(blob) - 1))
                mutable[pos] ^= data.draw(st.integers(1, 255))
            blob = bytes(mutable)
        else:
            cut = data.draw(st.integers(0, len(blob)))
            lo = data.draw(st.integers(0, len(blob)))
            hi = data.draw(st.integers(lo, len(blob)))
            blob = blob[:cut] + blob[lo:hi] + blob[cut:]
        reader = EspStreamReader()
        try:
            for piece in pieces(data, blob) + [b""]:
                reader.feed(piece)
        except ProtocolError:
            pass
