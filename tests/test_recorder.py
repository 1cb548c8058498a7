"""Seed/trace containers: sizes, round trips, and corruption detection."""

import struct

import pytest

from vmxrr.recorder import (
    FLAG_GPR,
    FLAG_VMCS_READ,
    FLAG_VMCS_WRITE,
    SEED_ENTRY_SIZE,
    BadMagic,
    BadVersion,
    ExitFrame,
    FieldTableMismatch,
    Trace,
    TraceCorrupt,
    TraceFormatError,
    TraceTruncated,
    load_snapshot,
    load_trace,
    record,
    save_snapshot,
    save_trace,
    seal,
    seed_payload_bytes,
    seed_payload_size,
    snapshot_from_bytes,
    snapshot_to_bytes,
    trace_from_bytes,
    trace_to_bytes,
)
from vmxrr.guest import GuestOp
from vmxrr.hypervisor import CrashInfo
from vmxrr.rng import RNG_ALGORITHM
from vmxrr.session import SessionSnapshot, prepare_session
from vmxrr.vmx import (
    CR0_ET,
    CR0_PE,
    CR0_PG,
    GUEST_CS_SELECTOR,
    GUEST_GDTR_LIMIT,
    GUEST_RIP,
    ExitReason,
)

_FRAME_FIXED_SIZE = 13   # reason u16 + three u8 counts + cycle_cost u64
_COVERAGE_SIZE = 19

_CACHE = {}


def _trace_bytes():
    if "data" not in _CACHE:
        outcome = record("CpuBound", 5, 120)
        assert outcome.result.ok
        _CACHE["outcome"] = outcome
        _CACHE["data"] = trace_to_bytes(outcome.trace)
    return _CACHE["data"]


def _outcome():
    _trace_bytes()
    return _CACHE["outcome"]


_RNG_TAG_OFFSET = 4 + 2 + 8 + 8 + 8    # magic, version, table hash, cr0, seed


def _header_size(trace: Trace) -> int:
    return _RNG_TAG_OFFSET + 1 + len(RNG_ALGORITHM) + 1 + len(trace.profile) + 4


def _rehash(data: bytes) -> bytes:
    return seal(data[:-8])


def _mutate(data: bytes, offset: int, value: int) -> bytes:
    buf = bytearray(data)
    buf[offset] = value
    return _rehash(bytes(buf))


# ---------------------------------------------------------------------------
# Entry and payload sizes
# ---------------------------------------------------------------------------

def test_seed_entry_is_ten_bytes():
    frame = ExitFrame(int(ExitReason.RDTSC), 0, 0, reads=((7, 0x1122334455667788),))
    packed = seed_payload_bytes(frame)
    assert SEED_ENTRY_SIZE == 10
    assert len(packed) == 10
    assert packed == struct.pack("<BBQ", 0x02, 7, 0x1122334455667788)
    assert (FLAG_GPR, FLAG_VMCS_READ, FLAG_VMCS_WRITE) == (0x01, 0x02, 0x03)


def test_seed_payload_size_law():
    for k in range(33):
        frame = ExitFrame(
            int(ExitReason.RDTSC),
            0,
            0,
            (0,) * 15,
            ((100, 0),) * k,
        )
        assert seed_payload_size(frame) == 10 * (15 + k)
        assert len(seed_payload_bytes(frame)) == 10 * (15 + k)
    assert 10 * (15 + 32) == 470


def test_recorded_frames_obey_the_payload_law():
    trace = _outcome().trace
    assert len(trace.frames) == 120
    for frame in trace.frames:
        assert len(frame.gprs) == 15
        assert len(frame.reads) >= 1     # dispatch reads the exit reason
        assert seed_payload_size(frame) == 10 * (15 + len(frame.reads))
        payload = seed_payload_bytes(frame)
        assert payload == b"".join(
            [struct.pack("<BBQ", FLAG_GPR, i, v) for i, v in enumerate(frame.gprs)]
            + [struct.pack("<BBQ", FLAG_VMCS_READ, e, v) for e, v in frame.reads]
        )


def test_entry_checks_leave_no_reads():
    # Validity checks run on the hardware path; selector and GDTR fields
    # would show up in every frame if they went through vmread.
    for frame in _outcome().trace.frames:
        encodings = {encoding for encoding, _ in frame.reads}
        assert GUEST_CS_SELECTOR not in encodings
        assert GUEST_GDTR_LIMIT not in encodings


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

def test_trace_round_trip_is_bit_exact():
    data = _trace_bytes()
    trace = trace_from_bytes(data)
    assert trace_to_bytes(trace) == data
    assert trace.profile == "CpuBound"
    assert trace.workload_seed == 5
    tag = data[_RNG_TAG_OFFSET + 1:_RNG_TAG_OFFSET + 1 + data[_RNG_TAG_OFFSET]]
    assert tag == b"splitmix64"
    assert trace.initial_cr0 == CR0_PE | CR0_PG


def test_trace_file_round_trip(tmp_path):
    path = tmp_path / "t.iris"
    save_trace(_outcome().trace, path)
    assert path.read_bytes() == _trace_bytes()
    loaded = load_trace(path)
    assert trace_to_bytes(loaded) == _trace_bytes()


def test_snapshot_round_trip(tmp_path):
    snap = _outcome().start_snapshot
    data = snapshot_to_bytes(snap)
    back = snapshot_from_bytes(data)
    assert snapshot_to_bytes(back) == data
    assert back.vmcs_values == snap.vmcs_values
    assert back.gprs == snap.gprs
    assert back.tsc == snap.tsc
    assert back.virtual_clock == snap.virtual_clock
    assert back.total_exits == snap.total_exits
    assert back.coverage_union == snap.coverage_union
    path = tmp_path / "s.irisnap"
    save_snapshot(snap, path)
    assert snapshot_to_bytes(load_snapshot(path)) == data


def test_osboot_trace_starts_at_reset_cr0():
    outcome = record("OsBoot", 3, 10)
    assert outcome.trace.initial_cr0 == CR0_ET


# ---------------------------------------------------------------------------
# Format errors, each with its own type
# ---------------------------------------------------------------------------

def test_bad_magic():
    data = _trace_bytes()
    with pytest.raises(BadMagic):
        trace_from_bytes(b"XXXX" + data[4:])
    with pytest.raises(BadMagic):
        snapshot_from_bytes(data)    # trace fed to the snapshot loader
    with pytest.raises(BadMagic):
        trace_from_bytes(snapshot_to_bytes(_outcome().start_snapshot))


def test_bad_version():
    data = bytearray(_trace_bytes())
    struct.pack_into("<H", data, 4, 2)
    with pytest.raises(BadVersion):
        trace_from_bytes(_rehash(bytes(data)))


def test_field_table_mismatch():
    data = bytearray(_trace_bytes())
    struct.pack_into("<Q", data, 6, 0xDEADBEEF)
    with pytest.raises(FieldTableMismatch):
        trace_from_bytes(_rehash(bytes(data)))


def test_corrupt_body_is_detected():
    data = bytearray(_trace_bytes())
    data[len(data) // 2] ^= 0xFF
    with pytest.raises(TraceCorrupt):
        trace_from_bytes(bytes(data))


def test_truncation_is_detected():
    with pytest.raises(TraceTruncated):
        trace_from_bytes(b"IRIS\x01")
    # A rehashed cut passes the envelope and dies in the frame cursor.
    cut = _rehash(_trace_bytes()[:-50])
    with pytest.raises(TraceTruncated):
        trace_from_bytes(cut)


def test_trailing_bytes_are_detected():
    data = _trace_bytes()
    padded = _rehash(data[:-8] + b"\x00" * 10)
    with pytest.raises(TraceCorrupt):
        trace_from_bytes(padded)


def test_frame_gpr_count_must_be_fifteen():
    data = _trace_bytes()
    offset = _header_size(_outcome().trace) + 2    # first frame's gpr_count
    with pytest.raises(TraceFormatError, match="expected 15"):
        trace_from_bytes(_mutate(data, offset, 14))


def test_bad_entry_flag_is_rejected():
    data = _trace_bytes()
    first_entry = _header_size(_outcome().trace) + _FRAME_FIXED_SIZE + _COVERAGE_SIZE
    with pytest.raises(TraceFormatError, match="flag"):
        trace_from_bytes(_mutate(data, first_entry, 0x07))


def test_entry_flag_must_match_its_section():
    data = _trace_bytes()
    first_entry = _header_size(_outcome().trace) + _FRAME_FIXED_SIZE + _COVERAGE_SIZE
    with pytest.raises(TraceFormatError, match="section"):
        trace_from_bytes(_mutate(data, first_entry, FLAG_VMCS_READ))
    first_read = first_entry + 15 * SEED_ENTRY_SIZE
    with pytest.raises(TraceFormatError, match="section"):
        trace_from_bytes(_mutate(data, first_read, FLAG_VMCS_WRITE))


def test_gpr_encodings_must_be_in_register_order():
    data = bytearray(_trace_bytes())
    first_entry = _header_size(_outcome().trace) + _FRAME_FIXED_SIZE + _COVERAGE_SIZE
    data[first_entry + 1] = 1                      # RAX's slot claims RCX
    data[first_entry + SEED_ENTRY_SIZE + 1] = 0    # and RCX's slot claims RAX
    with pytest.raises(TraceFormatError, match="gpr entry 0 carries encoding 1"):
        trace_from_bytes(_rehash(bytes(data)))


def test_unknown_field_encoding_is_rejected():
    data = _trace_bytes()
    first_read = (
        _header_size(_outcome().trace) + _FRAME_FIXED_SIZE + _COVERAGE_SIZE
        + 15 * SEED_ENTRY_SIZE
    )
    with pytest.raises(TraceFormatError, match="146"):
        trace_from_bytes(_mutate(data, first_read + 1, 146))


def test_snapshot_bad_launch_state():
    data = snapshot_to_bytes(_outcome().start_snapshot)
    with pytest.raises(TraceFormatError, match="launch state"):
        snapshot_from_bytes(_mutate(data, 4 + 2 + 8, 7))
    with pytest.raises(TraceFormatError, match="launch state"):
        snapshot_from_bytes(_mutate(data, 4 + 2 + 8, 0))


def test_snapshot_missing_a_field_is_rejected():
    snap = _outcome().start_snapshot
    values = dict(snap.vmcs_values)
    del values[GUEST_RIP]
    partial = SessionSnapshot(
        values, snap.launch_state, snap.gprs, snap.tsc, snap.coverage_union,
        snap.virtual_clock, snap.total_exits,
    )
    with pytest.raises(TraceFormatError, match="lacks field GUEST_RIP"):
        snapshot_from_bytes(snapshot_to_bytes(partial))


def test_foreign_rng_tag_is_rejected():
    data = _trace_bytes()
    start = _RNG_TAG_OFFSET + 1
    foreign = _rehash(data[:start] + b"mersenne19" + data[start + len(RNG_ALGORITHM):])
    with pytest.raises(TraceFormatError, match="rng 'mersenne19'"):
        trace_from_bytes(foreign)


def test_non_utf8_container_strings_name_their_field():
    data = _trace_bytes()
    rng_at = _RNG_TAG_OFFSET + 1
    profile_at = rng_at + len(RNG_ALGORITHM) + 1
    for offset, name in ((rng_at, "rng tag"), (profile_at, "profile")):
        with pytest.raises(TraceFormatError, match=f"trace {name} is not UTF-8"):
            trace_from_bytes(_mutate(data, offset, 0xFF))


def test_resealed_byte_flips_load_or_raise_a_format_error():
    """Self-fuzz of the loaders: every byte before the trailer of a 3-exit
    trace and its snapshot, XORed with 0x01 and then with 0x80, re-sealed."""
    outcome = record("CpuBound", 5, 3)
    for load, data in (
        (trace_from_bytes, trace_to_bytes(outcome.trace)),
        (snapshot_from_bytes, snapshot_to_bytes(outcome.start_snapshot)),
    ):
        for offset in range(len(data) - 8):
            for mask in (0x01, 0x80):
                buf = bytearray(data[:-8])
                buf[offset] ^= mask
                try:
                    load(seal(buf))
                except TraceFormatError:
                    pass


def _snapshot_with_entries(entries) -> bytes:
    """The test snapshot with its (encoding, value) entries replaced."""
    data = snapshot_to_bytes(_outcome().start_snapshot)
    count_at = 4 + 2 + 8 + 1 + 3 * 8 + _COVERAGE_SIZE + 15 * 8    # the u16 field count
    body = data[:count_at] + struct.pack("<H", len(entries))
    body += b"".join(struct.pack("<BQ", enc, value) for enc, value in entries)
    return seal(body)


def test_snapshot_fields_must_ascend_once_each():
    items = sorted(_outcome().start_snapshot.vmcs_values.items())
    assert snapshot_from_bytes(_snapshot_with_entries(items)).vmcs_values == dict(items)
    with pytest.raises(TraceFormatError, match="GUEST_RIP repeated or out of order"):
        snapshot_from_bytes(_snapshot_with_entries(items + [(GUEST_RIP, 0xDEAD)]))
    swapped = items[:3] + [items[4], items[3]] + items[5:]
    with pytest.raises(TraceFormatError, match="out of order"):
        snapshot_from_bytes(_snapshot_with_entries(swapped))


def test_unpackable_values_leave_no_file(tmp_path):
    with pytest.raises(struct.error):
        save_trace(Trace("CpuBound", -1, 0), tmp_path / "t.iris")
    assert not (tmp_path / "t.iris").exists()


def test_overlong_profile_name_is_rejected():
    trace = Trace("x" * 300, 0, 0)
    with pytest.raises(ValueError):
        trace_to_bytes(trace)


# ---------------------------------------------------------------------------
# Live recording
# ---------------------------------------------------------------------------

def test_record_captures_from_the_start_state():
    assert record("CpuBound", 1, 10).trace.initial_cr0 == CR0_PE | CR0_PG
    session, _ = prepare_session("CpuBound", 1, 10)
    session.capture = []
    with pytest.raises(RuntimeError):
        session.auto_boot(1)
    assert session.capture == []


def test_session_run_stops_at_the_first_crashing_exit():
    session, _ = prepare_session("CpuBound", 1, 10)
    session.capture = []
    timer = GuestOp(ExitReason.PREEMPTION_TIMER, 0)
    result = session.run([timer, GuestOp(ExitReason.TRIPLE_FAULT, 0), timer])
    assert result.completed == 2
    assert result.crash == CrashInfo("VmCrash", "triple fault: guest shutdown")
    assert [f.reason for f in session.capture] == [
        ExitReason.PREEMPTION_TIMER, ExitReason.TRIPLE_FAULT,
    ]


def test_record_cycles_equal_the_frame_costs():
    outcome = _outcome()
    assert outcome.record_cycles == sum(f.cycle_cost for f in outcome.trace.frames)


def test_noise_adds_whole_extra_exits():
    clean = record("CpuBound", 9, 200)
    noisy = record("CpuBound", 9, 200, noise_probability=0.3)
    assert len(clean.trace.frames) == 200
    extra = len(noisy.trace.frames) - 200
    assert extra > 20
    assert noisy.result.completed == len(noisy.trace.frames)
    # The injections are whole external-interrupt frames on the same script.
    def _count(outcome):
        return sum(
            1 for f in outcome.trace.frames
            if f.reason == ExitReason.EXTERNAL_INTERRUPT
        )
    assert _count(noisy) == _count(clean) + extra
    assert noisy.record_cycles == sum(f.cycle_cost for f in noisy.trace.frames)
