"""Asynchronous real-time layer: the ESP wire protocol for streamed EEG
with event markers, a wall-clock-paced replay server, a validating client,
and the debounced online inference engine.

The client runs in one thread: it decodes each Data block and pushes it
into the engine before reading the next. The socket buffer holds the
backlog; once it is full, the server's `sendall` blocks, so no frame is
dropped.

ESP framing (little-endian): magic "ESP1" | type u32 (1=Start, 2=Data,
3=Stop) | payload_len u64 | payload. Start carries rate and channel names;
Data carries a strictly increasing block index, sample-major f32 frames,
and (frame_offset, class_code) markers; Stop carries the total sample
count. Transport is any reliable ordered byte stream (TCP here).
"""

from __future__ import annotations

import logging
import math
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from eegtd.core import KIND_TO_CSV, ClassId, EventSchedule, Recording
from eegtd.metrics import Detection
from eegtd.model import HierarchicalModel, forward, standardize

log = logging.getLogger("eegtd.stream")

ESP_MAGIC = b"ESP1"
MSG_START, MSG_DATA, MSG_STOP = 1, 2, 3
# Ceilings that bound every payload before it is read. The replay server
# sends 10 frames per block at 250 Hz and 40 ms; 4096 frames of 1024
# channels still fit in 17 MB.
MAX_START_PAYLOAD = 1 << 20
MAX_CHANNELS = 1024
MAX_BLOCK_FRAMES = 4096


class ProtocolError(RuntimeError):
    """Bytes or message order violating the ESP protocol."""


class ConnectionLost(ProtocolError):
    """Peer vanished mid-stream; `frames_received` counts delivered frames."""

    def __init__(self, message: str, frames_received: int = 0):
        super().__init__(message)
        self.frames_received = frames_received


@dataclass(frozen=True)
class StartMessage:
    sampling_rate: float
    n_channels: int
    channel_names: tuple[str, ...]


@dataclass
class DataMessage:
    block_index: int
    frames: np.ndarray  # (n_frames, n_channels) float32, sample-major
    markers: list[tuple[int, int]] = field(default_factory=list)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataMessage):
            return NotImplemented
        return (
            self.block_index == other.block_index
            and self.markers == other.markers
            and np.array_equal(self.frames, other.frames)
        )


@dataclass(frozen=True)
class StopMessage:
    total_samples: int


EspMessage = Union[StartMessage, DataMessage, StopMessage]


def encode_message(msg: EspMessage) -> bytes:
    if isinstance(msg, StartMessage):
        payload = struct.pack("<dI", msg.sampling_rate, msg.n_channels)
        for name in msg.channel_names:
            raw = name.encode("utf-8")
            payload += struct.pack("<H", len(raw)) + raw
        mtype = MSG_START
    elif isinstance(msg, DataMessage):
        frames = np.ascontiguousarray(msg.frames, dtype="<f4")
        if frames.ndim != 2 or frames.shape[0] == 0:
            raise ValueError("Data frames must be a non-empty (n_frames, n_channels) array")
        payload = struct.pack("<QI", msg.block_index, frames.shape[0])
        payload += frames.tobytes()
        payload += struct.pack("<I", len(msg.markers))
        for offset, code in msg.markers:
            payload += struct.pack("<II", offset, code)
        mtype = MSG_DATA
    elif isinstance(msg, StopMessage):
        payload = struct.pack("<Q", msg.total_samples)
        mtype = MSG_STOP
    else:
        raise ValueError(f"unknown message {msg!r}")
    return ESP_MAGIC + struct.pack("<IQ", mtype, len(payload)) + payload


def _decode_start(payload: bytes) -> StartMessage:
    if len(payload) < 12:
        raise ProtocolError("Start payload too short")
    rate, n_channels = struct.unpack_from("<dI", payload, 0)
    if not 1 <= n_channels <= MAX_CHANNELS:
        raise ProtocolError(
            f"Start declares {n_channels} channels, expected 1 to {MAX_CHANNELS}"
        )
    pos = 12
    names = []
    for i in range(n_channels):
        if pos + 2 > len(payload):
            raise ProtocolError(f"Start payload truncated at channel {i}")
        (name_len,) = struct.unpack_from("<H", payload, pos)
        pos += 2
        if pos + name_len > len(payload):
            raise ProtocolError(f"Start payload truncated in channel name {i}")
        try:
            names.append(payload[pos : pos + name_len].decode("utf-8"))
        except UnicodeDecodeError:
            raise ProtocolError(f"channel name {i} is not UTF-8") from None
        pos += name_len
    if pos != len(payload):
        raise ProtocolError("Start payload has trailing bytes")
    if not rate > 0 or not math.isfinite(rate):
        raise ProtocolError(f"invalid sampling rate {rate}")
    return StartMessage(rate, n_channels, tuple(names))


def _decode_data(payload: bytes, n_channels: int) -> DataMessage:
    if len(payload) < 12:
        raise ProtocolError("Data payload too short")
    block_index, n_frames = struct.unpack_from("<QI", payload, 0)
    if n_frames == 0:
        raise ProtocolError("Data block with zero frames")
    pos = 12
    nbytes = 4 * n_frames * n_channels
    if pos + nbytes + 4 > len(payload):
        raise ProtocolError(f"Data payload truncated in block {block_index}")
    frames = (
        np.frombuffer(payload, dtype="<f4", count=n_frames * n_channels, offset=pos)
        .reshape(n_frames, n_channels)
        .copy()
    )
    pos += nbytes
    (n_markers,) = struct.unpack_from("<I", payload, pos)
    pos += 4
    if pos + 8 * n_markers != len(payload):
        raise ProtocolError(f"Data payload length mismatch in block {block_index}")
    markers = []
    for _ in range(n_markers):
        offset, code = struct.unpack_from("<II", payload, pos)
        if offset >= n_frames:
            raise ProtocolError(f"marker offset {offset} outside block {block_index}")
        markers.append((offset, code))
        pos += 8
    return DataMessage(block_index, frames, markers)


def _decode_stop(payload: bytes) -> StopMessage:
    if len(payload) != 8:
        raise ProtocolError("Stop payload must be exactly 8 bytes")
    return StopMessage(struct.unpack("<Q", payload)[0])


class EspStreamReader:
    """Stateful decoder over a read(n) callable enforcing message order and
    block continuity."""

    def __init__(self, read: Callable[[int], bytes]):
        self._read = read
        self._started = False
        self._stopped = False
        self._next_block = 0
        self._n_channels: int | None = None
        self.frames_delivered = 0

    def _read_exact(self, n: int, what: str) -> bytes:
        chunks = []
        remaining = n
        while remaining > 0:
            chunk = self._read(remaining)
            if not chunk:
                raise ConnectionLost(
                    f"connection lost reading {what}", self.frames_delivered
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def next_message(self) -> EspMessage | None:
        """The next validated message, or None at a clean end of stream."""
        if self._stopped:
            return None
        first = self._read(4)
        if not first and not self._started:
            return None
        if not first:
            raise ConnectionLost("connection lost before Stop", self.frames_delivered)
        if len(first) < 4:
            first += self._read_exact(4 - len(first), "magic")
        if first != ESP_MAGIC:
            raise ProtocolError(f"bad magic {first!r}")
        mtype, length = struct.unpack("<IQ", self._read_exact(12, "frame header"))
        # Order, type and length are checked before the payload is read, so
        # a malformed header never makes the reader ask for a huge buffer.
        if mtype == MSG_START:
            if self._started:
                raise ProtocolError("duplicate Start message")
            limit = MAX_START_PAYLOAD
        elif mtype == MSG_DATA:
            if not self._started:
                raise ProtocolError("Data before Start")
            # header, frames, marker count, up to one marker per frame
            limit = 16 + MAX_BLOCK_FRAMES * (4 * self._n_channels + 8)
        elif mtype == MSG_STOP:
            if not self._started:
                raise ProtocolError("Stop before Start")
            limit = 8
        else:
            raise ProtocolError(f"unknown message type {mtype}")
        if length > limit:
            raise ProtocolError(
                f"message type {mtype} declares {length} payload bytes, limit {limit}"
            )
        payload = self._read_exact(length, f"payload of type {mtype}") if length else b""
        if mtype == MSG_START:
            msg = _decode_start(payload)
            self._started = True
            self._n_channels = msg.n_channels
            return msg
        if mtype == MSG_DATA:
            msg = _decode_data(payload, self._n_channels)
            if msg.block_index != self._next_block:
                raise ProtocolError(
                    f"block index {msg.block_index}, expected {self._next_block}"
                )
            self._next_block += 1
            self.frames_delivered += msg.n_frames
            return msg
        self._stopped = True
        return _decode_stop(payload)


def _schedule_markers(schedule: EventSchedule) -> list[tuple[int, int]]:
    """(onset, class_code) for every target and dynamics event."""
    markers = [(ev.onset, int(ev.class_id)) for ev in schedule.targets]
    markers += [(dyn.onset, KIND_TO_CSV[dyn.kind]) for dyn in schedule.dynamics]
    markers.sort()
    return markers


@dataclass
class ReplaySummary:
    blocks_sent: int
    frames_sent: int
    completed: bool
    wall_seconds: float


class ReplayServer:
    """Streams one recording to one client, paced against the wall clock.

    Block k is never emitted earlier than k * chunk_ms / speed after Start;
    speed=inf disables pacing entirely.
    """

    def __init__(
        self,
        recording: Recording,
        schedule: EventSchedule,
        host: str = "127.0.0.1",
        port: int = 0,
        chunk_ms: float = 40.0,
        speed: float = 1.0,
    ):
        if schedule.total_samples != recording.n_samples:
            raise ValueError("schedule and recording lengths differ")
        if not speed > 0:
            raise ValueError("speed must be positive (use inf to disable pacing)")
        self.chunk_frames = int(chunk_ms * recording.sampling_rate / 1000.0)
        if not 1 <= self.chunk_frames <= MAX_BLOCK_FRAMES:
            raise ValueError(
                f"chunk of {chunk_ms} ms holds {self.chunk_frames} frames at "
                f"{recording.sampling_rate} Hz, expected 1 to {MAX_BLOCK_FRAMES}"
            )
        self.recording = recording
        self.schedule = schedule
        self.speed = speed
        self.chunk_s = self.chunk_frames / recording.sampling_rate
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(1)
        self.host, self.port = self._sock.getsockname()[:2]

    def __enter__(self) -> "ReplayServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._sock.close()

    def serve_once(self) -> ReplaySummary:
        """Accept one client, stream the full session, and return a summary."""
        rec = self.recording
        frames_all = rec.samples.T  # (n_samples, n_channels) sample-major
        block_markers: dict[int, list[tuple[int, int]]] = {}
        for onset, code in _schedule_markers(self.schedule):
            block = onset // self.chunk_frames
            block_markers.setdefault(block, []).append(
                (onset % self.chunk_frames, code)
            )
        conn, addr = self._sock.accept()
        log.info("replay session for %s:%s", *addr[:2])
        t_start = time.monotonic()
        blocks_sent = frames_sent = 0
        paced = math.isfinite(self.speed)
        try:
            conn.sendall(
                encode_message(
                    StartMessage(
                        rec.sampling_rate, rec.n_channels, tuple(rec.channel_names)
                    )
                )
            )
            t0 = time.monotonic()
            n_blocks = (rec.n_samples + self.chunk_frames - 1) // self.chunk_frames
            for k in range(n_blocks):
                if paced:
                    target = t0 + k * self.chunk_s / self.speed
                    delay = target - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                lo = k * self.chunk_frames
                hi = min(lo + self.chunk_frames, rec.n_samples)
                msg = DataMessage(k, frames_all[lo:hi], block_markers.get(k, []))
                conn.sendall(encode_message(msg))
                blocks_sent += 1
                frames_sent += hi - lo
            conn.sendall(encode_message(StopMessage(rec.n_samples)))
            completed = True
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            log.warning("client disconnected mid-session: %s", exc)
            completed = False
        finally:
            conn.close()
        return ReplaySummary(
            blocks_sent, frames_sent, completed, time.monotonic() - t_start
        )

    def serve_in_thread(self) -> "threading.Thread":
        thread = threading.Thread(target=self.serve_once, daemon=True)
        thread.start()
        return thread


@dataclass
class StreamSummary:
    total_frames: int
    n_blocks: int
    gaps: int
    wall_seconds: float


def _parse_endpoint(endpoint: str | tuple[str, int]) -> tuple[str, int]:
    if isinstance(endpoint, tuple):
        return endpoint
    host, _, port = endpoint.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"endpoint must be host:port, got {endpoint!r}")
    return host, int(port)


def client_receive(
    endpoint: str | tuple[str, int],
    sink: Callable[[DataMessage], None],
    timeout_s: float = 30.0,
) -> StreamSummary:
    """Receive one full session, validating order and continuity; every Data
    block is handed to `sink` in order. A reset or stalled connection raises
    ConnectionLost; an error raised by `sink` propagates unchanged."""
    host, port = _parse_endpoint(endpoint)
    t_start = time.monotonic()
    with socket.create_connection((host, port), timeout=timeout_s) as sock:

        def recv(n: int) -> bytes:
            try:
                return sock.recv(n)
            except OSError as exc:  # a reset, or a peer silent past timeout_s
                raise ConnectionLost(
                    f"connection lost: {exc}", reader.frames_delivered
                ) from exc

        reader = EspStreamReader(recv)
        if not isinstance(reader.next_message(), StartMessage):
            raise ProtocolError("stream did not begin with Start")
        n_blocks = 0
        stop: StopMessage | None = None
        while True:
            msg = reader.next_message()
            if msg is None:
                break
            if isinstance(msg, DataMessage):
                n_blocks += 1
                sink(msg)
            elif isinstance(msg, StopMessage):
                stop = msg
    if stop is None:
        raise ConnectionLost("stream ended without Stop", reader.frames_delivered)
    if stop.total_samples != reader.frames_delivered:
        raise ProtocolError(
            f"Stop declares {stop.total_samples} samples, received "
            f"{reader.frames_delivered}"
        )
    return StreamSummary(
        total_frames=reader.frames_delivered,
        n_blocks=n_blocks,
        gaps=0,
        wall_seconds=time.monotonic() - t_start,
    )


class RingBuffer:
    """Per-channel circular storage with an absolute write head."""

    def __init__(self, n_channels: int, capacity: int):
        if capacity < 1 or n_channels < 1:
            raise ValueError("capacity and n_channels must be >= 1")
        self.capacity = capacity
        self._buf = np.zeros((n_channels, capacity), dtype=np.float32)
        self.write_head = 0

    def write(self, frames: np.ndarray) -> None:
        """Append sample-major frames (k, n_channels)."""
        frames = np.asarray(frames)
        k = frames.shape[0]
        if k == 0:
            return
        if k > self.capacity:
            frames = frames[-self.capacity :]
            self.write_head += k - self.capacity
            k = self.capacity
        pos = (self.write_head + np.arange(k)) % self.capacity
        self._buf[:, pos] = frames.T
        self.write_head += k

    def read_last(self, k: int) -> np.ndarray:
        """The most recent k samples, oldest first, as (n_channels, k)."""
        if k > self.capacity:
            raise ValueError(f"cannot read {k} samples from capacity {self.capacity}")
        if k > self.write_head:
            raise ValueError(f"only {self.write_head} samples written, wanted {k}")
        pos = (self.write_head - k + np.arange(k)) % self.capacity
        return self._buf[:, pos]


@dataclass(frozen=True)
class OnlineConfig:
    infer_stride: int = 25
    trigger_threshold: float = 0.7
    consecutive_required: int = 3
    refractory: int = 250

    def __post_init__(self) -> None:
        if min(self.infer_stride, self.consecutive_required, self.refractory) < 1:
            raise ValueError("stride, consecutive_required and refractory must be >= 1")
        if not 0.0 < self.trigger_threshold < 1.0:
            raise ValueError("trigger_threshold must lie in (0, 1)")


class OnlineEngine:
    """Debounced sliding-window detector over an incoming frame stream.

    Every `infer_stride` new frames (once a full window is buffered) the
    latest window is classified. Windows with target probability
    1 - p(non-target) at or above the trigger threshold extend the current
    run; any other window clears it. Once the run holds
    `consecutive_required` windows and the refractory interval from the last
    emission has fully elapsed, a Detection is emitted at the current stream
    position with the class whose summed probability over the run is larger
    (ties favor the true-target class) and the run resets.

    `model` may be a HierarchicalModel (windows are standardized before the
    forward pass) or any callable mapping a raw (n_channels, window_len)
    array to a 3-probability vector.
    """

    def __init__(
        self,
        model,
        cfg: OnlineConfig,
        window_len: int | None = None,
        n_channels: int | None = None,
    ):
        if isinstance(model, HierarchicalModel):
            window_len = model.config.window_len
            n_channels = model.config.n_channels
            self._predict = lambda w: forward(model, standardize(w))
        elif callable(model):
            if window_len is None or n_channels is None:
                raise ValueError(
                    "callable predictors need explicit window_len and n_channels"
                )
            self._predict = model
        else:
            raise TypeError(f"unsupported model {model!r}")
        self.cfg = cfg
        self.window_len = window_len
        self.n_channels = n_channels
        self.ring = RingBuffer(n_channels, 4 * window_len)
        self._next_eval = window_len
        self._run: list[tuple[float, float, float]] = []
        self._refractory_until = 0
        self.detections: list[Detection] = []

    def push(self, frames: np.ndarray) -> list[Detection]:
        """Feed sample-major frames; returns detections emitted by this call.

        Frames whose channel count differs from the model's raise
        ProtocolError before any of them is buffered.
        """
        frames = np.asarray(frames)
        if frames.shape[1] != self.n_channels:
            raise ProtocolError(
                f"stream has {frames.shape[1]} channels, model {self.n_channels}"
            )
        emitted: list[Detection] = []
        pos = 0
        while pos < frames.shape[0]:
            take = min(frames.shape[0] - pos, self._next_eval - self.ring.write_head)
            self.ring.write(frames[pos : pos + take])
            pos += take
            if self.ring.write_head == self._next_eval:
                det = self._evaluate(self._next_eval)
                if det is not None:
                    emitted.append(det)
                self._next_eval += self.cfg.infer_stride
        self.detections.extend(emitted)
        return emitted

    def _evaluate(self, now: int) -> Detection | None:
        window = self.ring.read_last(self.window_len)
        probs = self._predict(window)
        p_target = 1.0 - float(probs[0])
        if p_target >= self.cfg.trigger_threshold:
            self._run.append((float(probs[1]), float(probs[2]), p_target))
        else:
            self._run.clear()
        if (
            len(self._run) >= self.cfg.consecutive_required
            and now >= self._refractory_until
        ):
            sums = np.sum([(p1, p2) for p1, p2, _ in self._run], axis=0)
            class_id = (
                ClassId.TRUE_TARGET if sums[0] >= sums[1] else ClassId.ERROR_TARGET
            )
            confidence = float(np.mean([pt for _, _, pt in self._run]))
            self._run.clear()
            self._refractory_until = now + self.cfg.refractory
            return Detection(now, class_id, min(confidence, 1.0))
        return None


def stream_online_inference(
    endpoint: str | tuple[str, int],
    model,
    cfg: OnlineConfig,
    window_len: int | None = None,
    n_channels: int | None = None,
    timeout_s: float = 60.0,
) -> tuple[list[Detection], StreamSummary]:
    """Receive a session and run online inference on it, in the caller's
    thread; returns the detections in time order and the stream summary.

    Each Data block is pushed into the engine as soon as it is decoded.
    While the engine works, later blocks wait in the socket buffer; once
    that is full, the server's `sendall` blocks, so no frame is dropped. An
    engine error propagates to the caller, and `client_receive` closes the
    connection on the way out.
    """
    engine = OnlineEngine(model, cfg, window_len, n_channels)

    def sink(msg: DataMessage) -> None:
        for det in engine.push(msg.frames):
            log.info(
                "detection time=%d class=%d confidence=%.3f",
                det.time, int(det.class_id), det.confidence,
            )

    summary = client_receive(endpoint, sink, timeout_s=timeout_s)
    return engine.detections, summary
