"""Recording/schedule types and their file formats."""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegtd.core import (
    ClassId,
    DynamicsEvent,
    DynamicsKind,
    Event,
    EventSchedule,
    FormatError,
    Recording,
    Windows,
    read_recording,
    read_schedule,
    write_recording,
    write_schedule,
)
from eegtd.model import HMDL_MAGIC, HMDL_VERSION, load_model


def small_recording() -> Recording:
    samples = np.arange(8, dtype=np.float32).reshape(2, 4)
    return Recording(250.0, ["Cz", "Oz"], samples)


class TestRecordingType:
    def test_valid(self):
        rec = small_recording()
        assert rec.n_channels == 2
        assert rec.n_samples == 4

    def test_nan_rejected(self):
        samples = np.array([[1.0, np.nan]], dtype=np.float32)
        with pytest.raises(ValueError, match="non-finite"):
            Recording(250.0, ["Cz"], samples)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Recording(250.0, ["Cz", "Cz"], np.zeros((2, 4)))

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            Recording(0.0, ["Cz"], np.zeros((1, 4)))

    def test_name_count_mismatch(self):
        with pytest.raises(ValueError):
            Recording(250.0, ["Cz"], np.zeros((2, 4)))


class TestEpochType:
    """`Windows`, the labeled set of epochs cut from one sample array."""

    def test_read_only_view_leaves_caller_array_writeable(self):
        samples = np.zeros((2, 10), dtype=np.float32)
        ws = Windows(samples[:, 2:7], 5, [0], [ClassId.TRUE_TARGET])
        assert np.shares_memory(ws.samples, samples)
        with pytest.raises(ValueError):
            ws.samples[0, 0] = 1.0
        assert samples.flags.writeable
        samples[0, 2] = 3.0
        assert ws.samples[0, 0] == 3.0

    def test_float64_input_cast_to_float32(self):
        ws = Windows(np.ones((2, 5)), 5, [0], [ClassId.NON_TARGET])
        assert ws.samples.dtype == np.float32
        assert ws.starts.dtype == ws.labels.dtype == np.int64

    @pytest.mark.parametrize("start", [-1, 6])
    def test_window_outside_samples_rejected(self, start):
        with pytest.raises(ValueError, match=r"start in \[0, 5\]"):
            Windows(np.ones((2, 10)), 5, [0, start], [0, 0])

    def test_starts_and_labels_of_one_length(self):
        with pytest.raises(ValueError, match="one length"):
            Windows(np.ones((2, 10)), 5, [0, 1], [0])
        assert len(Windows(np.ones((2, 10)), 5, [0, 1, 5], [0, 1, 2])) == 3


class TestEegrFormat:
    def test_size_arithmetic(self):
        # header 28 + 2 names (2+2 each) + 2*4 samples * 4 bytes
        rec = small_recording()
        buf = io.BytesIO()
        n = write_recording(rec, buf)
        expected = 28 + (2 + 2) * 2 + 2 * 4 * 4
        assert n == expected
        assert len(buf.getvalue()) == expected

    def test_round_trip_identity(self):
        rec = small_recording()
        buf = io.BytesIO()
        write_recording(rec, buf)
        buf.seek(0)
        back = read_recording(buf)
        assert back.sampling_rate == rec.sampling_rate
        assert back.channel_names == rec.channel_names
        assert np.array_equal(back.samples, rec.samples)

    def test_write_read_write_byte_exact(self):
        rec = small_recording()
        buf = io.BytesIO()
        write_recording(rec, buf)
        again = io.BytesIO()
        buf.seek(0)
        write_recording(read_recording(buf), again)
        assert buf.getvalue() == again.getvalue()

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            read_recording(io.BytesIO(b"XXXX" + b"\x00" * 64))

    def test_truncated_payload(self):
        buf = io.BytesIO()
        write_recording(small_recording(), buf)
        data = buf.getvalue()
        with pytest.raises(FormatError, match="truncated"):
            read_recording(io.BytesIO(data[:-5]))

    def test_version_mismatch(self):
        buf = io.BytesIO()
        write_recording(small_recording(), buf)
        data = bytearray(buf.getvalue())
        data[4] = 9
        with pytest.raises(FormatError, match="version"):
            read_recording(io.BytesIO(bytes(data)))

    def test_nan_payload_rejected(self):
        buf = io.BytesIO()
        write_recording(small_recording(), buf)
        data = bytearray(buf.getvalue())
        data[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        with pytest.raises(FormatError):
            read_recording(io.BytesIO(bytes(data)))

    @settings(max_examples=200, deadline=None)
    @given(st.binary(min_size=0, max_size=200))
    def test_fuzz_only_typed_errors(self, blob):
        try:
            read_recording(io.BytesIO(blob))
        except FormatError:
            pass

    def test_longest_name_round_trips(self):
        rec = Recording(250.0, ["é" * 32767 + "x"], np.zeros((1, 3), np.float32))
        assert len(rec.channel_names[0].encode("utf-8")) == 0xFFFF
        buf = io.BytesIO()
        write_recording(rec, buf)
        buf.seek(0)
        assert read_recording(buf).channel_names == rec.channel_names

    def test_name_past_limit_rejected_before_any_byte(self):
        rec = Recording(250.0, ["Cz", "x" * 0x10000], np.zeros((2, 3), np.float32))
        buf = io.BytesIO()
        with pytest.raises(ValueError, match="channel name 1 is 65536 bytes, limit 65535"):
            write_recording(rec, buf)
        assert buf.getvalue() == b""


class CappedReader(io.BytesIO):
    """A file that fails any single read of more than 16 MiB: a reader that
    trusts a declared length would ask for all of it at once."""

    CAP = 16 << 20

    def read(self, n=-1):
        assert 0 <= n <= self.CAP, f"read({n}) exceeds the cap"
        return super().read(n)


def hmdl_header(n_channels: int, n_blocks: int) -> bytes:
    head = HMDL_MAGIC + struct.pack(
        "<IIIIIIIdI", HMDL_VERSION, n_channels, 250, 8, 10, 3, 32, 0.1, n_blocks
    )
    return head + struct.pack("<2I", 8, 16)


class TestBoundedReads:
    @pytest.mark.parametrize("n_samples", [1 << 40, 1 << 62])
    def test_eegr_huge_sample_count(self, n_samples):
        header = b"EEGR" + struct.pack("<IdIQ", 1, 250.0, 1, n_samples)
        blob = header + struct.pack("<H", 2) + b"Cz" + b"\x00" * 64
        with pytest.raises(FormatError, match="truncated"):
            read_recording(CappedReader(blob))

    @pytest.mark.parametrize(
        "n_channels, n_blocks", [(1 << 31, 2), (32, (1 << 32) - 1)]
    )
    def test_hmdl_huge_declared_size(self, n_channels, n_blocks):
        blob = hmdl_header(n_channels, n_blocks) + b"\x00" * 4096
        with pytest.raises(FormatError, match="truncated"):
            load_model(CappedReader(blob))

    def test_short_reads_are_joined(self):
        class Trickle(io.BytesIO):
            def read(self, n=-1):
                return super().read(min(n, 3))

        buf = io.BytesIO()
        write_recording(small_recording(), buf)
        back = read_recording(Trickle(buf.getvalue()))
        assert np.array_equal(back.samples, small_recording().samples)


class TestScheduleTypes:
    def test_event_invariants(self):
        with pytest.raises(ValueError):
            Event(-1, ClassId.TRUE_TARGET, 250)
        with pytest.raises(ValueError):
            Event(0, ClassId.TRUE_TARGET, 0)
        with pytest.raises(ValueError):
            Event(0, ClassId.NON_TARGET, 250)

    def test_overlap_rejected(self):
        events = [
            Event(1000, ClassId.TRUE_TARGET, 250),
            Event(1100, ClassId.ERROR_TARGET, 250),
        ]
        with pytest.raises(ValueError, match="overlap"):
            EventSchedule(75000, 250.0, events, [])

    def test_touching_spans_allowed(self):
        events = [
            Event(1000, ClassId.TRUE_TARGET, 250),
            Event(1250, ClassId.ERROR_TARGET, 250),
        ]
        sched = EventSchedule(75000, 250.0, events, [])
        assert len(sched.targets) == 2

    def test_span_exceeding_total_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            EventSchedule(1000, 250.0, [Event(900, ClassId.TRUE_TARGET, 250)], [])

    def test_targets_sorted_on_construction(self):
        events = [
            Event(2000, ClassId.ERROR_TARGET, 250),
            Event(1000, ClassId.TRUE_TARGET, 250),
        ]
        sched = EventSchedule(75000, 250.0, events, [])
        assert [e.onset for e in sched.targets] == [1000, 2000]


class TestScheduleCsv:
    def test_parse_target_row(self):
        text = "# total_samples=75000 sampling_rate=250.0\nonset,class,duration\n1000,1,250\n"
        sched = read_schedule(io.StringIO(text))
        assert sched.targets == [Event(1000, ClassId.TRUE_TARGET, 250)]
        assert sched.sampling_rate == 250.0

    def test_round_trip(self):
        sched = EventSchedule(
            75000,
            250.0,
            [Event(1000, ClassId.TRUE_TARGET, 250), Event(2000, ClassId.ERROR_TARGET, 250)],
            [DynamicsEvent(0, DynamicsKind.CAMERA_ROTATION, 750),
             DynamicsEvent(5000, DynamicsKind.WEATHER_SHIFT, 60000)],
        )
        buf = io.StringIO()
        write_schedule(sched, buf)
        back = read_schedule(io.StringIO(buf.getvalue()))
        assert back.total_samples == sched.total_samples
        assert back.sampling_rate == sched.sampling_rate
        assert back.targets == sched.targets
        assert back.dynamics == sched.dynamics

    def test_overlap_error(self):
        text = (
            "# total_samples=75000 sampling_rate=250.0\n"
            "onset,class,duration\n1000,1,250\n1100,2,250\n"
        )
        with pytest.raises(ValueError, match="overlap"):
            read_schedule(io.StringIO(text))

    def test_empty_targets_valid(self):
        text = "# total_samples=75000 sampling_rate=250.0\nonset,class,duration\n"
        sched = read_schedule(io.StringIO(text))
        assert sched.targets == []
        assert sched.dynamics == []

    def test_bad_class_code(self):
        text = "# total_samples=75000 sampling_rate=250.0\nonset,class,duration\n10,7,250\n"
        with pytest.raises(FormatError, match="class code"):
            read_schedule(io.StringIO(text))

    def test_unparsable_row(self):
        text = "# total_samples=75000 sampling_rate=250.0\nonset,class,duration\nfoo,1,250\n"
        with pytest.raises(FormatError, match="unparsable"):
            read_schedule(io.StringIO(text))

    def test_missing_metadata(self):
        with pytest.raises(FormatError, match="metadata"):
            read_schedule(io.StringIO("onset,class,duration\n1000,1,250\n"))

    @pytest.mark.parametrize(
        "meta, row, message",
        [
            ("total_samples=many sampling_rate=250.0", "", "metadata"),
            ("total_samples=75000 sampling_rate=250.0", "-5,1,250", "row 1: event onset"),
            ("total_samples=75000 sampling_rate=250.0", "1000,101,0", "row 1: dynamics duration"),
            ("total_samples=2000 sampling_rate=250.0", "1900,1,250", "exceeds"),
            ("total_samples=0 sampling_rate=250.0", "", "total_samples"),
            ("total_samples=75000 sampling_rate=nan", "", "sampling_rate"),
        ],
    )
    def test_invalid_content_is_format_error(self, meta, row, message):
        text = f"# {meta}\nonset,class,duration\n{row}\n"
        with pytest.raises(FormatError, match=message):
            read_schedule(io.StringIO(text))

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=300))
    def test_fuzz_only_typed_errors(self, text):
        try:
            read_schedule(io.StringIO(text))
        except FormatError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(-3, 3000), st.sampled_from([1, 2, 7, 100, 101]),
        st.integers(-3, 3000), st.sampled_from(["2500", "0", "-1", "x"]),
        st.sampled_from(["250.0", "0", "nan", "inf", "y"]),
    )
    def test_fuzz_rows_only_format_errors(self, onset, code, duration, total, rate):
        text = (
            f"# total_samples={total} sampling_rate={rate}\n"
            f"onset,class,duration\n{onset},{code},{duration}\n"
        )
        try:
            read_schedule(io.StringIO(text))
        except FormatError:
            pass
