"""Domain types shared across the pipeline plus the EEGR recording format
and the schedule CSV format.

EEGR layout (little-endian throughout):
    magic "EEGR" | version u32 | sampling_rate f64 | n_channels u32 |
    n_samples u64 | per channel: name_len u16 + UTF-8 name |
    samples as f32, sample-major (all channels of t0, then t1, ...)

The channel-name rule (a u16 byte length, then the UTF-8 bytes, so at most
65,535 bytes a name) lives in `pack_names` and `read_names`; the ESP Start
message packs its names with the same pair.

Schedule CSV: one metadata comment line, then header ``onset,class,duration``.
Target rows use class 1 (true target) or 2 (error target); dynamics rows use
100 (camera rotation) or 101 (weather shift).
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import BinaryIO, Sequence, TextIO

import numpy as np

EEGR_MAGIC = b"EEGR"
EEGR_VERSION = 1
# version, sampling_rate, n_channels, n_samples (after the magic).
EEGR_HEADER = struct.Struct("<IdIQ")
# Byte length that precedes each UTF-8 channel name.
NAME_LEN = struct.Struct("<H")

ROTATION_CSV_CODE = 100
WEATHER_CSV_CODE = 101
# Largest single request of `read_exact`: a header that declares a huge
# payload costs memory only for the bytes that actually arrive.
READ_CHUNK = 1 << 20


class FormatError(ValueError):
    """Serialized bytes or CSV rows violate a file format."""


class ClassId(IntEnum):
    NON_TARGET = 0
    TRUE_TARGET = 1
    ERROR_TARGET = 2


class DynamicsKind(IntEnum):
    CAMERA_ROTATION = 0
    WEATHER_SHIFT = 1


KIND_TO_CSV = {
    DynamicsKind.CAMERA_ROTATION: ROTATION_CSV_CODE,
    DynamicsKind.WEATHER_SHIFT: WEATHER_CSV_CODE,
}
_CSV_TO_KIND = {v: k for k, v in KIND_TO_CSV.items()}


@dataclass
class Recording:
    """Multichannel sampled EEG in microvolts, channel-major in memory."""

    sampling_rate: float
    channel_names: list[str]
    samples: np.ndarray  # (n_channels, n_samples) float32

    def __post_init__(self) -> None:
        self.samples = np.ascontiguousarray(self.samples, dtype=np.float32)
        if self.samples.ndim != 2:
            raise ValueError("samples must be a 2-D [n_channels x n_samples] matrix")
        if self.samples.shape[0] == 0:
            raise ValueError("recording has zero channels")
        if not (np.isfinite(self.sampling_rate) and self.sampling_rate > 0):
            raise ValueError(f"sampling_rate must be positive, got {self.sampling_rate}")
        if len(set(self.channel_names)) != len(self.channel_names):
            raise ValueError("channel names must be unique")
        if len(self.channel_names) != self.samples.shape[0]:
            raise ValueError(
                f"{len(self.channel_names)} channel names for "
                f"{self.samples.shape[0]} sample rows"
            )
        if not np.isfinite(self.samples).all():
            raise ValueError("samples contain non-finite values")

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    def channel_index(self, name: str) -> int:
        try:
            return self.channel_names.index(name)
        except ValueError:
            raise ValueError(f"unknown channel label {name!r}") from None


@dataclass(frozen=True)
class Event:
    """One 1-second (by default) target appearance."""

    onset: int
    class_id: ClassId
    duration: int

    def __post_init__(self) -> None:
        if self.onset < 0:
            raise ValueError(f"event onset must be >= 0, got {self.onset}")
        if self.duration <= 0:
            raise ValueError(f"event duration must be > 0, got {self.duration}")
        if self.class_id == ClassId.NON_TARGET:
            raise ValueError("target events cannot carry the non-target class")

    @property
    def end(self) -> int:
        return self.onset + self.duration


@dataclass(frozen=True)
class DynamicsEvent:
    """A stimulus dynamics (confounder) span: camera rotation or weather shift."""

    onset: int
    kind: DynamicsKind
    duration: int

    def __post_init__(self) -> None:
        if self.onset < 0:
            raise ValueError(f"dynamics onset must be >= 0, got {self.onset}")
        if self.duration <= 0:
            raise ValueError(f"dynamics duration must be > 0, got {self.duration}")

    @property
    def end(self) -> int:
        return self.onset + self.duration


@dataclass
class EventSchedule:
    """Timed target events plus dynamics events for one stimulus video."""

    total_samples: int
    sampling_rate: float
    targets: list[Event] = field(default_factory=list)
    dynamics: list[DynamicsEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.total_samples <= 0:
            raise ValueError("total_samples must be > 0")
        if not (np.isfinite(self.sampling_rate) and self.sampling_rate > 0):
            raise ValueError("sampling_rate must be positive")
        self.targets = sorted(self.targets, key=lambda e: e.onset)
        self.dynamics = sorted(self.dynamics, key=lambda e: e.onset)
        prev_end = 0
        for ev in self.targets:
            if ev.onset < prev_end:
                raise ValueError(
                    f"target spans overlap near sample {ev.onset} "
                    f"(previous span ends at {prev_end})"
                )
            prev_end = ev.end
        for ev in [*self.targets, *self.dynamics]:
            if ev.end > self.total_samples:
                raise ValueError(
                    f"event span [{ev.onset}, {ev.end}) exceeds "
                    f"total_samples {self.total_samples}"
                )


@dataclass(frozen=True, eq=False)
class Windows:
    """Labeled windows of one channels x time array: window i is
    samples[:, starts[i] : starts[i] + window_len], of class labels[i].
    `samples` is a read-only float32 view of the array given, not a copy, so
    sets cut by `dataset` share their recording's samples; the caller's
    array keeps its own writeable flag."""

    samples: np.ndarray  # (n_channels, n_samples) float32
    window_len: int
    starts: np.ndarray  # (n_windows,) int64
    labels: np.ndarray  # (n_windows,) int64 ClassId values

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float32).view()
        samples.flags.writeable = False
        starts = np.asarray(self.starts, dtype=np.int64)
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "labels", labels)
        if samples.ndim != 2 or starts.ndim != 1 or starts.shape != labels.shape:
            raise ValueError("windows need 2-D samples and 1-D starts and labels of one length")
        last = samples.shape[1] - self.window_len
        if self.window_len < 1 or len(starts) and not 0 <= starts.min() <= starts.max() <= last:
            raise ValueError(f"windows of {self.window_len} samples must start in [0, {last}]")

    def __len__(self) -> int:
        return len(self.starts)


def read_exact(source: BinaryIO, n: int, what: str) -> bytes:
    """Exactly n bytes of `source`, requested at most READ_CHUNK at a time;
    FormatError if the input ends first."""
    parts = []
    got = 0
    while got < n:
        buf = source.read(min(n - got, READ_CHUNK))
        if not buf:
            raise FormatError(
                f"truncated input reading {what}: wanted {n} bytes, got {got}"
            )
        parts.append(buf)
        got += len(buf)
    return b"".join(parts)


def read_end(source: BinaryIO, what: str) -> None:
    """FormatError unless `source` ends here, after a complete `what`."""
    if source.read(1):
        raise FormatError(f"trailing bytes after the {what}")


def pack_names(names: Sequence[str]) -> bytes:
    """Each name as its u16 byte length and UTF-8 bytes; ValueError, before
    any name is packed, if one exceeds 65,535 bytes."""
    encoded = [name.encode("utf-8") for name in names]
    for i, raw in enumerate(encoded):
        if len(raw) > 0xFFFF:
            raise ValueError(f"channel name {i} is {len(raw)} bytes, limit 65535")
    return b"".join(NAME_LEN.pack(len(raw)) + raw for raw in encoded)


def read_names(source: BinaryIO, n: int) -> list[str]:
    """The next n names packed by `pack_names`; FormatError if `source`
    ends first or a name is not UTF-8."""
    names = []
    for i in range(n):
        (length,) = NAME_LEN.unpack(read_exact(source, NAME_LEN.size, f"name length {i}"))
        raw = read_exact(source, length, f"channel name {i}")
        try:
            names.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"channel name {i} is not valid UTF-8") from exc
    return names


def write_recording(rec: Recording, destination: BinaryIO) -> int:
    """Serialize `rec` as EEGR; returns the number of bytes written."""
    header = EEGR_MAGIC + EEGR_HEADER.pack(
        EEGR_VERSION, rec.sampling_rate, rec.n_channels, rec.n_samples
    )
    written = destination.write(header + pack_names(rec.channel_names))
    payload = np.ascontiguousarray(rec.samples.T, dtype="<f4").tobytes()
    written += destination.write(payload)
    return written


def read_recording(source: BinaryIO) -> Recording:
    """Parse an EEGR byte stream, validating every header field."""
    magic = read_exact(source, 4, "magic")
    if magic != EEGR_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {EEGR_MAGIC!r}")
    version, rate, n_channels, n_samples = EEGR_HEADER.unpack(
        read_exact(source, EEGR_HEADER.size, "header")
    )
    if version != EEGR_VERSION:
        raise FormatError(f"unsupported EEGR version {version}")
    if not (np.isfinite(rate) and rate > 0):
        raise FormatError(f"invalid sampling rate {rate}")
    names = read_names(source, n_channels)
    payload = read_exact(source, 4 * n_channels * n_samples, "sample payload")
    read_end(source, "sample payload")
    # With zero channels nothing is read, and a huge n_samples fails here.
    try:
        samples = np.frombuffer(payload, "<f4").reshape(n_samples, n_channels).T.copy()
        return Recording(rate, names, samples)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_schedule(schedule: EventSchedule, destination: TextIO) -> None:
    """Write the schedule CSV (metadata comment, header, then event rows)."""
    destination.write(
        f"# total_samples={schedule.total_samples} "
        f"sampling_rate={schedule.sampling_rate!r}\n"
    )
    destination.write("onset,class,duration\n")
    for ev in schedule.targets:
        destination.write(f"{ev.onset},{int(ev.class_id)},{ev.duration}\n")
    for dyn in schedule.dynamics:
        destination.write(f"{dyn.onset},{KIND_TO_CSV[dyn.kind]},{dyn.duration}\n")


def read_schedule(source: TextIO) -> EventSchedule:
    """Parse a schedule CSV; its metadata comment supplies total_samples and
    sampling_rate. Every malformed input raises FormatError."""
    total_samples = sampling_rate = None
    lines = iter(source)
    header = None
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                key, _, value = token.partition("=")
                try:
                    if key == "total_samples":
                        total_samples = int(value)
                    elif key == "sampling_rate":
                        sampling_rate = float(value)
                except ValueError as exc:
                    raise FormatError(f"bad schedule metadata {token!r}") from exc
            continue
        header = line
        break
    if header != "onset,class,duration":
        raise FormatError(f"bad schedule header {header!r}")
    if total_samples is None or sampling_rate is None:
        raise FormatError(
            "schedule metadata missing: the '#' comment line must give "
            "total_samples and sampling_rate"
        )
    targets: list[Event] = []
    dynamics: list[DynamicsEvent] = []
    for row_no, row in enumerate(csv.reader(lines), start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        try:
            onset, code, duration = (int(cell) for cell in row)
        except (ValueError, TypeError) as exc:
            raise FormatError(f"unparsable schedule row {row_no}: {row!r}") from exc
        try:
            if code in (int(ClassId.TRUE_TARGET), int(ClassId.ERROR_TARGET)):
                targets.append(Event(onset, ClassId(code), duration))
            elif code in _CSV_TO_KIND:
                dynamics.append(DynamicsEvent(onset, _CSV_TO_KIND[code], duration))
            else:
                raise FormatError(f"class code {code} not in {{1,2,100,101}}")
        except ValueError as exc:
            raise FormatError(f"row {row_no}: {exc}") from exc
    try:
        return EventSchedule(total_samples, sampling_rate, targets, dynamics)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def load_recording(path) -> Recording:
    with open(path, "rb") as fh:
        return read_recording(fh)


def save_recording(rec: Recording, path) -> int:
    with open(path, "wb") as fh:
        return write_recording(rec, fh)


def load_schedule(path) -> EventSchedule:
    with open(path, "r", encoding="utf-8") as fh:
        return read_schedule(fh)


def save_schedule(schedule: EventSchedule, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_schedule(schedule, fh)
