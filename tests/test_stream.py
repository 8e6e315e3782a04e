"""ESP codec, ring buffer, replay server/client over localhost, and the
online detection automaton."""

import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegtd.core import ClassId, DynamicsEvent, DynamicsKind, Event, EventSchedule, Recording
from eegtd.stream import (
    ConnectionLost,
    DataMessage,
    EspStreamReader,
    MAX_BLOCK_FRAMES,
    MAX_CHANNELS,
    OnlineConfig,
    OnlineEngine,
    ProtocolError,
    ReplayServer,
    RingBuffer,
    StartMessage,
    StopMessage,
    client_receive,
    encode_message,
    stream_online_inference,
)


def reader_over(data: bytes, ceiling: int | None = None) -> EspStreamReader:
    """A reader over `data`. With a ceiling, read(n) fails if n exceeds both
    it and the whole stream, so an oversized length is caught unallocated."""
    view = memoryview(data)
    pos = [0]

    def read(n):
        if ceiling is not None:
            assert n <= max(ceiling, len(data)), f"reader asked for {n} bytes"
        chunk = view[pos[0] : pos[0] + n]
        pos[0] += len(chunk)
        return bytes(chunk)

    return EspStreamReader(read)


def make_recording(n_samples=1000, n_channels=3, seed=0) -> Recording:
    rng = np.random.default_rng(seed)
    names = [f"ch{i}" for i in range(n_channels)]
    return Recording(250.0, names, rng.standard_normal((n_channels, n_samples)))


class TestCodec:
    def test_start_round_trip(self):
        msg = StartMessage(250.0, 2, ("Cz", "Oz"))
        reader = reader_over(encode_message(msg))
        assert reader.next_message() == msg

    def test_data_round_trip(self):
        start = StartMessage(250.0, 3, ("a", "b", "c"))
        frames = np.arange(12, dtype=np.float32).reshape(4, 3)
        msg = DataMessage(0, frames, [(1, 1), (3, 100)])
        reader = reader_over(encode_message(start) + encode_message(msg))
        reader.next_message()
        back = reader.next_message()
        assert back == msg

    def test_stop_round_trip(self):
        start = StartMessage(250.0, 1, ("a",))
        blob = encode_message(start) + encode_message(StopMessage(12345))
        reader = reader_over(blob)
        reader.next_message()
        assert reader.next_message() == StopMessage(12345)
        assert reader.next_message() is None

    def test_bad_magic(self):
        reader = reader_over(b"XSP1" + b"\x00" * 20)
        with pytest.raises(ProtocolError, match="magic"):
            reader.next_message()

    def test_truncated_data(self):
        start = StartMessage(250.0, 3, ("a", "b", "c"))
        frames = np.zeros((4, 3), dtype=np.float32)
        blob = encode_message(start) + encode_message(DataMessage(0, frames))[:-6]
        reader = reader_over(blob)
        reader.next_message()
        with pytest.raises(ConnectionLost):
            reader.next_message()

    def test_block_skip_rejected(self):
        start = StartMessage(250.0, 1, ("a",))
        frames = np.zeros((2, 1), dtype=np.float32)
        blob = (
            encode_message(start)
            + encode_message(DataMessage(0, frames))
            + encode_message(DataMessage(2, frames))
        )
        reader = reader_over(blob)
        reader.next_message()
        reader.next_message()
        with pytest.raises(ProtocolError, match="block index"):
            reader.next_message()

    def test_data_before_start(self):
        frames = np.zeros((2, 1), dtype=np.float32)
        reader = reader_over(encode_message(DataMessage(0, frames)))
        with pytest.raises(ProtocolError, match="before Start"):
            reader.next_message()

    def test_duplicate_start(self):
        start = StartMessage(250.0, 1, ("a",))
        reader = reader_over(encode_message(start) * 2)
        reader.next_message()
        with pytest.raises(ProtocolError, match="duplicate"):
            reader.next_message()

    def test_marker_outside_block(self):
        start = StartMessage(250.0, 1, ("a",))
        frames = np.zeros((2, 1), dtype=np.float32)
        blob = encode_message(start) + encode_message(DataMessage(0, frames, [(5, 1)]))
        reader = reader_over(blob)
        reader.next_message()
        with pytest.raises(ProtocolError, match="marker"):
            reader.next_message()


class TestPayloadBounds:
    START = encode_message(StartMessage(250.0, 2, ("a", "b")))
    DATA_BOUND = 16 + MAX_BLOCK_FRAMES * (4 * 2 + 8)

    @pytest.mark.parametrize("mtype, length, ceiling", [
        (1, 1 << 40, 1 << 20),       # Start
        (2, 1 << 40, DATA_BOUND),    # Data, two channels
        (2, DATA_BOUND + 1, DATA_BOUND),
        (3, 1 << 33, 8),             # Stop is exactly 8 bytes
        (3, 9, 8),
    ])
    def test_oversized_payload_rejected_before_read(self, mtype, length, ceiling):
        prefix = b"" if mtype == 1 else self.START
        blob = prefix + b"ESP1" + struct.pack("<IQ", mtype, length)
        reader = reader_over(blob, ceiling)
        if prefix:
            reader.next_message()
        with pytest.raises(ProtocolError, match="limit"):
            reader.next_message()

    def test_largest_block_accepted(self):
        frames = np.ones((MAX_BLOCK_FRAMES, 2), dtype=np.float32)
        blob = self.START + encode_message(DataMessage(0, frames))
        reader = reader_over(blob, self.DATA_BOUND)
        reader.next_message()
        assert reader.next_message().n_frames == MAX_BLOCK_FRAMES

    def test_zero_channel_start_rejected(self):
        reader = reader_over(encode_message(StartMessage(250.0, 0, ())))
        with pytest.raises(ProtocolError, match="0 channels"):
            reader.next_message()


class TestRingBuffer:
    def test_read_back_recent(self):
        ring = RingBuffer(2, 8)
        frames = np.arange(20, dtype=np.float32).reshape(10, 2)
        ring.write(frames)
        out = ring.read_last(8)
        assert np.array_equal(out, frames[-8:].T)
        assert ring.write_head == 10

    def test_read_more_than_written(self):
        ring = RingBuffer(1, 8)
        ring.write(np.ones((3, 1), dtype=np.float32))
        with pytest.raises(ValueError):
            ring.read_last(4)

    def test_read_more_than_capacity(self):
        ring = RingBuffer(1, 4)
        ring.write(np.ones((8, 1), dtype=np.float32))
        with pytest.raises(ValueError):
            ring.read_last(5)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("write"), st.integers(1, 7)),
                st.tuples(st.just("read"), st.integers(1, 10)),
            ),
            max_size=30,
        )
    )
    def test_matches_shadow_list(self, ops):
        capacity = 10
        ring = RingBuffer(2, capacity)
        shadow: list[np.ndarray] = []
        counter = [0]
        for op, n in ops:
            if op == "write":
                block = np.arange(counter[0], counter[0] + 2 * n, dtype=np.float32)
                counter[0] += 2 * n
                frames = block.reshape(n, 2)
                ring.write(frames)
                shadow.extend(frames)
            else:
                avail = min(len(shadow), capacity)
                if n > avail:
                    with pytest.raises(ValueError):
                        ring.read_last(n)
                else:
                    expected = np.stack(shadow[-n:]).T
                    assert np.array_equal(ring.read_last(n), expected)


class TestReplayServer:
    def collect_stream(self, rec, schedule, speed, chunk_ms=40.0):
        server = ReplayServer(rec, schedule, chunk_ms=chunk_ms, speed=speed)
        frames: list[np.ndarray] = []
        markers: list[tuple[int, int]] = []
        offset = [0]

        def sink(msg: DataMessage):
            frames.append(msg.frames)
            for off, code in msg.markers:
                markers.append((offset[0] + off, code))
            offset[0] += msg.n_frames

        with server:
            server.serve_in_thread()
            summary = client_receive((server.host, server.port), sink)
        return np.concatenate(frames, axis=0), markers, summary

    def test_block_arithmetic_one_second(self):
        rec = make_recording(250)
        schedule = EventSchedule(250, 250.0, [], [])
        frames, _, summary = self.collect_stream(rec, schedule, speed=float("inf"))
        assert summary.n_blocks == 25
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

        def sink(msg):
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

        def sink(msg):
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
        with pytest.raises(ValueError, match="lengths"):
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
    START = encode_message(StartMessage(250.0, 2, ("Cz", "Oz")))
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

        endpoint, thread = one_shot_peer(stall)
        try:
            with pytest.raises(ConnectionLost) as info:
                client_receive(endpoint, lambda msg: None, timeout_s=0.3)
        finally:
            release.set()
            thread.join(10.0)
        assert info.value.frames_received == 10

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


def step_stub(recording: Recording):
    """Probs (0,1,0) iff the window's first sample sits inside an event span
    (channel 0 of the recording carries a 1.0 flag there)."""

    def predict(window: np.ndarray) -> np.ndarray:
        if window[0, 0] == 1.0:
            return np.array([0.0, 1.0, 0.0])
        return np.array([1.0, 0.0, 0.0])

    return predict


def flag_recording(total: int, spans: list[tuple[int, int]]) -> Recording:
    samples = np.zeros((2, total), dtype=np.float32)
    for lo, hi in spans:
        samples[0, lo:hi] = 1.0
    return Recording(250.0, ["f", "g"], samples)


class TestOnlineEngine:
    CFG = OnlineConfig(infer_stride=25, trigger_threshold=0.7,
                       consecutive_required=3, refractory=250)

    def run_engine(self, rec, cfg=None, chunk=10):
        engine = OnlineEngine(
            step_stub(rec), cfg or self.CFG, window_len=250, n_channels=2
        )
        frames = rec.samples.T
        for lo in range(0, frames.shape[0], chunk):
            engine.push(frames[lo : lo + chunk])
        return engine.detections

    def test_single_event_detection_window(self):
        rec = flag_recording(2500, [(1000, 1250)])
        dets = self.run_engine(rec)
        assert len(dets) == 1
        det = dets[0]
        # triggers start at window [1000, 1250); third trigger at 1300
        assert 1250 <= det.time <= 1300
        assert det.class_id == ClassId.TRUE_TARGET
        assert det.confidence == pytest.approx(1.0)

    def test_unreachable_threshold_never_fires(self):
        rec = flag_recording(2500, [(1000, 1250)])
        cfg = OnlineConfig(trigger_threshold=0.999999, consecutive_required=3)
        engine = OnlineEngine(
            lambda w: np.array([0.5, 0.3, 0.2]), cfg, window_len=250, n_channels=2
        )
        engine.push(rec.samples.T)
        assert engine.detections == []

    def test_refractory_exactly_expires(self):
        # two adjacent event spans 250 samples apart with refractory 250
        rec = flag_recording(3000, [(1000, 1250), (1250, 1500)])
        dets = self.run_engine(rec)
        assert len(dets) == 2
        assert dets[1].time - dets[0].time == 250

    def test_detection_count_bound(self):
        rec = flag_recording(10000, [(250, 10000)])
        dets = self.run_engine(rec)
        assert len(dets) <= int(np.ceil(10000 / self.CFG.refractory))
        gaps = np.diff([d.time for d in dets])
        assert np.all(gaps >= self.CFG.refractory)

    def test_deterministic_across_chunkings(self):
        rec = flag_recording(4000, [(700, 950), (2000, 2250)])
        a = self.run_engine(rec, chunk=7)
        b = self.run_engine(rec, chunk=113)
        c = self.run_engine(rec, chunk=1)
        assert a == b == c

    def test_class_attribution_sums_over_run(self):
        rec = flag_recording(2500, [(1000, 1250)])

        def error_leaning(window):
            if window[0, 0] == 1.0:
                return np.array([0.1, 0.4, 0.5])
            return np.array([1.0, 0.0, 0.0])

        engine = OnlineEngine(error_leaning, self.CFG, window_len=250, n_channels=2)
        engine.push(rec.samples.T)
        assert len(engine.detections) == 1
        assert engine.detections[0].class_id == ClassId.ERROR_TARGET
        assert engine.detections[0].confidence == pytest.approx(0.9)

    def test_run_broken_by_nontrigger(self):
        # two separated single-window flags never make 3 consecutive
        rec = flag_recording(2500, [(1000, 1025), (1100, 1125)])
        assert self.run_engine(rec) == []

    def test_online_infer_helper(self):
        rec = flag_recording(2500, [(1000, 1250)])
        engine = OnlineEngine(step_stub(rec), self.CFG, window_len=250, n_channels=2)
        frames = rec.samples.T
        for i in range(0, 2500, 50):
            engine.push(frames[i : i + 50])
        assert len(engine.detections) == 1


class TestStreamOnlineInference:
    def test_detections_through_tcp(self):
        rec = flag_recording(2500, [(1000, 1250)])
        schedule = EventSchedule(2500, 250.0, [Event(1000, ClassId.TRUE_TARGET, 250)], [])
        server = ReplayServer(rec, schedule, chunk_ms=40.0, speed=float("inf"))
        with server:
            server.serve_in_thread()
            dets, summary = stream_online_inference(
                (server.host, server.port),
                step_stub(rec),
                OnlineConfig(),
                window_len=250,
                n_channels=2,
            )
        assert summary.total_frames == 2500
        assert len(dets) == 1
        assert 1250 <= dets[0].time <= 1300

    def test_predictor_error_reaches_caller_and_receiver_exits(self):
        n = 50_000  # thousands of blocks
        rec = flag_recording(n, [])
        schedule = EventSchedule(n, 250.0, [], [])

        def broken(window):
            raise RuntimeError("predictor failed")

        before = set(threading.enumerate())
        server = ReplayServer(rec, schedule, chunk_ms=40.0, speed=float("inf"))
        with server:
            server_thread = server.serve_in_thread()
            with pytest.raises(RuntimeError, match="predictor failed"):
                stream_online_inference(
                    (server.host, server.port), broken, OnlineConfig(),
                    window_len=250, n_channels=2, timeout_s=10.0,
                )
            server_thread.join(10.0)
        left = [t for t in threading.enumerate() if t not in before and t.is_alive()]
        assert left == []

    def test_runs_in_the_callers_thread(self):
        rec = flag_recording(2500, [(1000, 1250)])
        schedule = EventSchedule(2500, 250.0, [Event(1000, ClassId.TRUE_TARGET, 250)], [])
        predict = step_stub(rec)
        seen = []

        def recording_threads(window):
            seen.append((threading.current_thread(), set(threading.enumerate())))
            return predict(window)

        server = ReplayServer(rec, schedule, chunk_ms=40.0, speed=float("inf"))
        with server:
            server_thread = server.serve_in_thread()
            before = set(threading.enumerate())
            dets, _ = stream_online_inference(
                (server.host, server.port), recording_threads, OnlineConfig(),
                window_len=250, n_channels=2, timeout_s=10.0,
            )
            server_thread.join(10.0)
        assert not server_thread.is_alive()
        assert len(dets) == 1
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
                    (server.host, server.port), lambda w: np.array([1.0, 0.0, 0.0]),
                    OnlineConfig(), window_len=250, n_channels=2, timeout_s=10.0,
                )
            server_thread.join(10.0)
        assert not server_thread.is_alive()


@st.composite
def esp_streams(draw) -> bytes:
    """A valid encoded session: Start, a few small Data blocks, Stop."""
    n_channels = draw(st.integers(1, 3))
    names = tuple(draw(st.text(max_size=4)) for _ in range(n_channels))
    parts = [encode_message(StartMessage(250.0, n_channels, names))]
    total = 0
    for k in range(draw(st.integers(0, 3))):
        n_frames = draw(st.integers(1, 3))
        frames = draw(st.lists(
            st.floats(width=32), min_size=n_frames * n_channels,
            max_size=n_frames * n_channels,
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


class TestFuzz:
    # The largest payload any legal header may declare; the reader must never
    # ask for more, whatever the bytes say.
    CEILING = 16 + MAX_BLOCK_FRAMES * (4 * MAX_CHANNELS + 8)

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
        reader = reader_over(blob, self.CEILING)
        try:
            while reader.next_message() is not None:
                pass
        except ProtocolError:
            pass
