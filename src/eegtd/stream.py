"""Asynchronous real-time layer: the ESP wire protocol for streamed EEG
with event markers, a wall-clock-paced replay server, a validating client,
and online inference: `OnlineEngine` scores the sliding windows of one
`HierarchicalModel` from a `FrameTail` of the stream's last w - 1 frames,
and its `Debouncer` turns the scores into detections.

The client runs in one thread. It feeds each socket read (up to
RECV_BYTES) to a byte-fed `EspStreamReader` and hands its sink the Data
blocks that read completes as one burst. `stream_online_inference` pushes
each burst into the engine, which scores all the windows the burst
completes in one batched forward pass. The socket buffer holds the
backlog; once it is full, the server's `sendall` blocks, so no frame is
dropped.

ESP framing (little-endian): magic "ESP1" | type u32 (1=Start, 2=Data,
3=Stop) | payload_len u64 | payload. Start carries the rate f64, the
channel count u32 and the channel names, packed by `core.pack_names` as in
EEGR; a `StartMessage` derives its channel count from its names. Data
carries a strictly increasing block index, sample-major f32 frames, and
(frame_offset, class_code) markers; Stop carries the total sample count.
Transport is any reliable ordered byte stream (TCP here).
"""

from __future__ import annotations

import io
import logging
import math
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from eegtd.core import (
    KIND_TO_CSV, ClassId, EventSchedule, FormatError, Recording, pack_names, read_end, read_names,
)
from eegtd.dataset import check_same_length
from eegtd.metrics import Detection
from eegtd.model import HierarchicalModel, cut_windows, predict_batch

log = logging.getLogger("eegtd.stream")

ESP_MAGIC = b"ESP1"
MSG_START, MSG_DATA, MSG_STOP = 1, 2, 3
# Ceilings that bound every payload before it is read. The replay server
# sends 10 frames per block at 250 Hz and 40 ms; 4096 frames of 1024
# channels still fit in 17 MB.
MAX_START_PAYLOAD = 1 << 20
MAX_CHANNELS = 1024
MAX_BLOCK_FRAMES = 4096
# Bytes the client asks of the socket at a time. A burst holds the blocks
# one such read completes, which bounds the engine's batch: about 50 default
# blocks (500 frames of 32 channels, 20 windows).
RECV_BYTES = 1 << 16


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
    channel_names: tuple[str, ...]

    @property
    def n_channels(self) -> int:
        return len(self.channel_names)


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
        # The reader's limits: a Start it would reject is not sent.
        if not 1 <= msg.n_channels <= MAX_CHANNELS:
            raise ValueError(
                f"Start has {msg.n_channels} channels, expected 1 to {MAX_CHANNELS}"
            )
        payload = struct.pack("<dI", msg.sampling_rate, msg.n_channels)
        payload += pack_names(msg.channel_names)
        if len(payload) > MAX_START_PAYLOAD:
            raise ValueError(
                f"Start payload is {len(payload)} bytes, limit {MAX_START_PAYLOAD}"
            )
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
    body = io.BytesIO(payload[12:])
    try:
        names = read_names(body, n_channels)
        read_end(body, "channel names")
    except FormatError as exc:
        raise ProtocolError(f"Start payload: {exc}") from None
    if not rate > 0 or not math.isfinite(rate):
        raise ProtocolError(f"invalid sampling rate {rate}")
    return StartMessage(rate, tuple(names))


def _decode_data(payload: bytearray, n_channels: int) -> DataMessage:
    """The Data message in `payload`; its frames are a view of `payload`,
    which the reader's `_take` gives each message as its own copy."""
    if len(payload) < 12:
        raise ProtocolError("Data payload too short")
    block_index, n_frames = struct.unpack_from("<QI", payload, 0)
    if n_frames == 0:
        raise ProtocolError("Data block with zero frames")
    pos = 12
    nbytes = 4 * n_frames * n_channels
    if pos + nbytes + 4 > len(payload):
        raise ProtocolError(f"Data payload truncated in block {block_index}")
    frames = np.frombuffer(
        payload, dtype="<f4", count=n_frames * n_channels, offset=pos
    ).reshape(n_frames, n_channels)
    if not np.isfinite(frames).all():
        raise ProtocolError(f"non-finite sample in block {block_index}")
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
    """Byte-fed ESP decoder enforcing message order, block continuity and
    the payload limits: `feed` takes the bytes as they arrive and returns
    the messages they complete. A header's magic, order and payload limit
    are checked as soon as its 16 bytes arrive, before any of its payload
    is waited for."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._started = False
        self._stopped = False
        self.blocks_delivered = 0
        self._n_channels = 0
        self.frames_delivered = 0

    def feed(self, data: bytes) -> list[EspMessage]:
        """The messages that the buffered bytes and `data` complete, in order.

        `feed(b"")` means the peer closed: it raises ConnectionLost after
        Start or with bytes still buffered, and returns [] before any byte.
        After Stop it returns [] and ignores any further bytes.
        """
        if self._stopped:
            return []
        if not data and (self._started or self._buf):
            raise ConnectionLost(
                f"connection lost before Stop, {len(self._buf)} bytes pending",
                self.frames_delivered,
            )
        self._buf += data
        messages: list[EspMessage] = []
        while not self._stopped and len(self._buf) >= 16:
            magic, mtype, length = struct.unpack_from("<4sIQ", self._buf)
            if magic != ESP_MAGIC:
                raise ProtocolError(f"bad magic {magic!r}")
            if mtype == MSG_START:
                if self._started:
                    raise ProtocolError("duplicate Start message")
                if (payload := self._take(mtype, length, MAX_START_PAYLOAD)) is None:
                    break
                msg = _decode_start(payload)
                self._started = True
                self._n_channels = msg.n_channels
            elif mtype == MSG_DATA:
                if not self._started:
                    raise ProtocolError("Data before Start")
                # header, frames, marker count, up to one marker per frame
                limit = 16 + MAX_BLOCK_FRAMES * (4 * self._n_channels + 8)
                if (payload := self._take(mtype, length, limit)) is None:
                    break
                msg = _decode_data(payload, self._n_channels)
                if msg.block_index != self.blocks_delivered:
                    raise ProtocolError(
                        f"block index {msg.block_index}, expected {self.blocks_delivered}"
                    )
                self.blocks_delivered += 1
                self.frames_delivered += msg.n_frames
            elif mtype == MSG_STOP:
                if not self._started:
                    raise ProtocolError("Stop before Start")
                if (payload := self._take(mtype, length, 8)) is None:
                    break
                msg = _decode_stop(payload)
                self._stopped = True
            else:
                raise ProtocolError(f"unknown message type {mtype}")
            messages.append(msg)
        return messages

    def _take(self, mtype: int, length: int, limit: int) -> bytearray | None:
        """The buffered message's payload, removed from the buffer, or None
        until all of it has arrived; ProtocolError at once if `length`
        exceeds `limit`."""
        if length > limit:
            raise ProtocolError(
                f"message type {mtype} declares {length} payload bytes, limit {limit}"
            )
        if len(self._buf) < 16 + length:
            return None
        payload = self._buf[16 : 16 + length]
        del self._buf[: 16 + length]
        return payload


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
        check_same_length(recording, schedule)
        _check_port(port)
        if not speed > 0:
            raise ValueError("speed must be positive (use inf to disable pacing)")
        if not (math.isfinite(chunk_ms) and chunk_ms > 0):
            raise ValueError(f"chunk_ms must be finite and positive, got {chunk_ms}")
        self.chunk_frames = int(chunk_ms * recording.sampling_rate / 1000.0)
        if not 1 <= self.chunk_frames <= MAX_BLOCK_FRAMES:
            raise ValueError(
                f"chunk of {chunk_ms} ms holds {self.chunk_frames} frames at "
                f"{recording.sampling_rate} Hz, expected 1 to {MAX_BLOCK_FRAMES}"
            )
        # Encoded before binding, so a Start the client would reject fails
        # here and not after a client connects.
        self._start = encode_message(
            StartMessage(recording.sampling_rate, tuple(recording.channel_names))
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
            conn.sendall(self._start)
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
        except OSError as exc:
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


def _check_port(port: int) -> int:
    """`port`, or ValueError if it lies outside 0 to 65535."""
    if not 0 <= port <= 65535:
        raise ValueError(f"port must lie in 0 to 65535, got {port}")
    return port


def _parse_endpoint(endpoint: str | tuple[str, int]) -> tuple[str, int]:
    if isinstance(endpoint, tuple):
        return endpoint
    host, _, port = endpoint.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"endpoint must be host:port, got {endpoint!r}")
    return host, _check_port(int(port))


def client_receive(
    endpoint: str | tuple[str, int],
    sink: Callable[[list[DataMessage]], None],
    timeout_s: float = 30.0,
) -> StreamSummary:
    """Receive one full session, validating order and continuity.

    Each `recv` of up to RECV_BYTES is fed to an `EspStreamReader`. A burst
    is what one `recv` completes: its Data blocks reach `sink` as one list,
    in order, before the next `recv` may block. A reset, stalled or closed
    connection raises ConnectionLost; an error raised by `sink` propagates
    unchanged.
    """
    host, port = _parse_endpoint(endpoint)
    t_start = time.monotonic()
    reader = EspStreamReader()
    messages: list[EspMessage] = []
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        while not (messages and isinstance(messages[-1], StopMessage)):
            try:
                data = sock.recv(RECV_BYTES)
            except OSError as exc:  # a reset, or a peer silent past timeout_s
                raise ConnectionLost(
                    f"connection lost: {exc}", reader.frames_delivered
                ) from exc
            messages = reader.feed(data)
            if not data:  # the peer closed before sending a byte
                raise ProtocolError("stream did not begin with Start")
            burst = [msg for msg in messages if isinstance(msg, DataMessage)]
            if burst:
                sink(burst)
    stop = messages[-1]
    if stop.total_samples != reader.frames_delivered:
        raise ProtocolError(
            f"Stop declares {stop.total_samples} samples, received "
            f"{reader.frames_delivered}"
        )
    return StreamSummary(
        total_frames=reader.frames_delivered,
        n_blocks=reader.blocks_delivered,
        gaps=0,
        wall_seconds=time.monotonic() - t_start,
    )


class FrameTail:
    """The last `keep` frames of a stream, channel-major, and the count of
    every frame appended."""

    def __init__(self, n_channels: int, keep: int):
        self.keep = keep
        self.samples = np.zeros((n_channels, 0), dtype=np.float32)
        self.write_head = 0

    def append(self, frames: np.ndarray) -> tuple[int, np.ndarray]:
        """(first, x): the kept frames followed by sample-major `frames` as
        one (n_channels, kept + k) float32 array, and the stream index of
        x's first column. The last `keep` columns of x are kept, copied."""
        x = np.concatenate((self.samples, frames.T), axis=1, dtype=np.float32)
        first = self.write_head - self.samples.shape[1]
        self.write_head += frames.shape[0]
        self.samples = x[:, max(x.shape[1] - self.keep, 0) :].copy()
        return first, x


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


class Debouncer:
    """The debounce policy that turns scored windows, fed in stream order,
    into detections.

    Windows with target probability 1 - p(non-target) at or above the
    trigger threshold extend the current run; any other window clears it.
    Once the run holds `consecutive_required` windows and the refractory
    interval from the last emission has fully elapsed, a Detection is
    emitted at the window's stream position with the class whose summed
    probability over the run is larger (ties favor the true-target class)
    and the run resets. The run keeps growing while the refractory interval
    holds emission, so the first detection after a refractory averages its
    confidence and votes its class over every window of the run, up to
    refractory / infer_stride windows, not only the last
    `consecutive_required`.
    """

    def __init__(self, cfg: OnlineConfig):
        self.cfg = cfg
        self._run: list[tuple[float, float, float]] = []
        self._refractory_until = 0

    def step(self, now: int, probs: np.ndarray) -> Detection | None:
        """Debounce the 3-probability row of the window ending at `now`."""
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


class OnlineEngine:
    """Sliding-window detector over an incoming frame stream.

    Every `infer_stride` new frames (once a full window is buffered) the
    latest window is scored. Between pushes the engine holds at most
    w - 1 frames, the most a window completed by later frames can reach
    back. A `push` appends its frames to that tail, cuts every window they
    complete with `cut_windows`, which standardizes as training and
    analysis do, and scores them in one `predict_batch`, whose rows do not
    depend on the batch, so neither do the detections on how the stream is
    split into pushes. Windows are standardized in float64 and scored in
    float32; the model's gradients (training) stay float64. The rows then
    go through the engine's `Debouncer` in stream order.
    """

    def __init__(self, model: HierarchicalModel, cfg: OnlineConfig):
        self.model = model
        self.cfg = cfg
        self.window_len = model.config.window_len
        self.n_channels = model.config.n_channels
        # Named `ring` because perfbench's probe reads `ring.write_head`.
        self.ring = FrameTail(self.n_channels, self.window_len - 1)
        self._next_eval = self.window_len
        self._debouncer = Debouncer(cfg)
        self.detections: list[Detection] = []

    def push(self, frames: np.ndarray) -> list[Detection]:
        """Feed sample-major frames; returns detections emitted by this call.

        Frames that are not a finite real 2-D (n, n_channels) array raise
        ProtocolError before any of them is buffered. The windows this call
        scores are held at once, so its memory grows with the frames pushed.
        """
        frames = np.asarray(frames)
        if frames.ndim != 2 or frames.dtype.kind not in "biuf":
            raise ProtocolError(f"frames must be a real (n, {self.n_channels}) array, "
                                f"got {frames.dtype} of shape {frames.shape}")
        if frames.shape[1] != self.n_channels:
            raise ProtocolError(f"stream has {frames.shape[1]} channels, model {self.n_channels}")
        if not np.isfinite(frames).all():
            raise ProtocolError("non-finite sample in frames")
        w, stride = self.window_len, self.cfg.infer_stride
        first, x = self.ring.append(frames)
        ends = range(self._next_eval, self.ring.write_head + 1, stride)
        if not ends:
            return []
        self._next_eval = ends[-1] + stride
        starts = np.array(ends) - w - first
        probs = predict_batch(self.model, cut_windows(x, w, starts, np.float32))[1]
        emitted = []
        for now, row in zip(ends, probs):
            det = self._debouncer.step(now, row)
            if det is not None:
                emitted.append(det)
        self.detections.extend(emitted)
        return emitted


def stream_online_inference(
    endpoint: str | tuple[str, int],
    model: HierarchicalModel,
    cfg: OnlineConfig,
    timeout_s: float = 60.0,
) -> tuple[list[Detection], StreamSummary]:
    """Receive a session and run online inference on it, in the caller's
    thread; returns the detections in time order and the stream summary.

    Each burst of Data blocks `client_receive` hands over (the blocks one
    `recv` completes) is pushed into the engine as one run of frames, so
    the windows it completes are scored in one batch. While the engine
    works, later blocks wait in the socket buffer; once that is full, the
    server's `sendall` blocks, so no frame is dropped. An engine error
    propagates to the caller, and `client_receive` closes the connection on
    the way out.
    """
    engine = OnlineEngine(model, cfg)

    def sink(burst: list[DataMessage]) -> None:
        frames = np.concatenate([msg.frames for msg in burst])
        for det in engine.push(frames):
            log.info(
                "detection time=%d class=%d confidence=%.3f",
                det.time, int(det.class_id), det.confidence,
            )

    summary = client_receive(endpoint, sink, timeout_s=timeout_s)
    return engine.detections, summary
