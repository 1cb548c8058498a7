"""Recording: per-exit seeds, metrics frames, and the binary containers.

A recorded exit has two halves. The seed is the input: the fifteen
general-purpose registers saved on exit plus every vmread the handler issued,
in order. The metrics are the output: the vmwrites, the coverage bitmap, and
the cycle cost. Replaying the seed must regenerate the metrics.

In memory a seed is a tuple of register values indexed by GprId plus a tuple
of (field encoding, value) pairs for the reads; the writes are pairs too.
Flags and the 10-byte entry exist only on disk: trace_to_bytes and
seed_payload_bytes build them, trace_from_bytes checks and drops them.
The session's exit loop builds the frames (session.ExitFrame); record() runs
a session with capture on and wraps the frames in a Trace.

Both containers share one envelope; all integers are little-endian:

    magic (4 bytes) | version u16 | field_table_hash u64 | body... | trailer u64

seal() appends the trailer, the fnv1a64 of everything before it. A loader
checks length, magic, version, trailer and field-table hash, in that order,
before it parses the body at integer offsets.

Trace (.iris), magic "IRIS", after the envelope header:

    initial_cr0 u64 | workload_seed u64 | algo: len u8 + utf8 |
    profile: len u8 + utf8 | frame_count u32 | frames...

    frame: reason u16 | gpr_count u8 | read_count u8 | write_count u8 |
           cycle_cost u64 | coverage bitmap (19 bytes raw) | entries...
    entry: flag u8 | encoding u8 | value u64            (10 bytes)

The frame header's reason is the reason the recorder dispatched (the low 16
bits of the EXIT_REASON read at record time). Replay dispatches on the seed's
EXIT_REASON read, and a crash artifact's mutated read may differ from its
header, so the loader does not compare the two.

The algo string must be the RNG_ALGORITHM tag; the loader rejects any other,
and names the algo or profile string when it is not UTF-8.

Snapshot (.irisnap), magic "IRSN", resumable session state after the header:

    launch_state u8 | tsc u64 | virtual_clock u64 | total_exits u64 |
    coverage (19 bytes) | 15 gprs u64 | field_count u16 | fields...
    field: encoding u8 | value u64, every VMCS field once, in strictly
           ascending encoding order (the loader rejects repeats and disorder)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

from .hypervisor import COVERAGE_BYTES
from .rng import RNG_ALGORITHM
from .session import (
    ExitFrame,
    NoiseInjector,
    SessionResult,
    SessionSnapshot,
    prepare_session,
)
from .vmx import (
    FIELD_TABLE,
    FIELD_TABLE_HASH,
    GPR_COUNT,
    LaunchState,
    fnv1a64,
    guest_cr0_view,
)

TRACE_MAGIC = b"IRIS"
SNAPSHOT_MAGIC = b"IRSN"
FORMAT_VERSION = 1

FLAG_GPR = 0x01
FLAG_VMCS_READ = 0x02
FLAG_VMCS_WRITE = 0x03
_VALID_FLAGS = (FLAG_GPR, FLAG_VMCS_READ, FLAG_VMCS_WRITE)

# Every container starts with the envelope and ends with a u64 trailer.
_ENVELOPE = struct.Struct("<4sHQ")    # magic, version, field-table hash
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")
_TRACE_HEAD = struct.Struct("<QQ")    # initial_cr0, workload_seed
_FRAME_HEAD = struct.Struct(f"<HBBBQ{COVERAGE_BYTES}s")
_ENTRY = struct.Struct("<BBQ")
_SNAPSHOT_HEAD = struct.Struct(f"<BQQQ{COVERAGE_BYTES}s{GPR_COUNT}QH")
_SNAPSHOT_FIELD = struct.Struct("<BQ")
SEED_ENTRY_SIZE = _ENTRY.size        # 10 bytes

# A snapshot is taken of a powered-on VMCS, so it is never INACTIVE.
_SNAPSHOT_LAUNCH_STATES = (
    LaunchState.ACTIVE_CURRENT_CLEAR,
    LaunchState.ACTIVE_CURRENT_LAUNCHED,
)


class TraceFormatError(Exception):
    pass


class BadMagic(TraceFormatError):
    pass


class BadVersion(TraceFormatError):
    pass


class FieldTableMismatch(TraceFormatError):
    pass


class TraceCorrupt(TraceFormatError):
    pass


class TraceTruncated(TraceFormatError):
    pass


@dataclass
class Trace:
    profile: str
    workload_seed: int
    initial_cr0: int
    frames: list[ExitFrame] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 255:
        raise ValueError("string too long for container")
    return bytes([len(raw)]) + raw


def _pack_seed(out: bytearray, frame: ExitFrame) -> None:
    pack = _ENTRY.pack
    for idx, value in enumerate(frame.gprs):
        out += pack(FLAG_GPR, idx, value)
    for encoding, value in frame.reads:
        out += pack(FLAG_VMCS_READ, encoding, value)


def seed_payload_size(frame: ExitFrame) -> int:
    return SEED_ENTRY_SIZE * (len(frame.gprs) + len(frame.reads))


def seed_payload_bytes(frame: ExitFrame) -> bytes:
    out = bytearray()
    _pack_seed(out, frame)
    return bytes(out)


def seal(body: bytes) -> bytes:
    """The container: its body followed by the trailer, fnv1a64 of the body."""
    return b"".join((body, _U64.pack(fnv1a64(body))))    # one copy of the body


def _envelope(magic: bytes) -> bytearray:
    return bytearray(_ENVELOPE.pack(magic, FORMAT_VERSION, FIELD_TABLE_HASH))


def trace_to_bytes(trace: Trace) -> bytes:
    out = _envelope(TRACE_MAGIC)
    out += _TRACE_HEAD.pack(trace.initial_cr0, trace.workload_seed)
    out += _pack_str(RNG_ALGORITHM)
    out += _pack_str(trace.profile)
    out += _U32.pack(len(trace.frames))
    pack = _ENTRY.pack
    for frame in trace.frames:
        out += _FRAME_HEAD.pack(
            frame.reason, len(frame.gprs), len(frame.reads), len(frame.writes),
            frame.cycle_cost, frame.coverage_mask.to_bytes(COVERAGE_BYTES, "little"),
        )
        _pack_seed(out, frame)
        for encoding, value in frame.writes:
            out += pack(FLAG_VMCS_WRITE, encoding, value)
    return seal(out)


def snapshot_to_bytes(snap: SessionSnapshot) -> bytes:
    if len(snap.gprs) != GPR_COUNT:
        raise ValueError(f"snapshot carries {len(snap.gprs)} registers")
    items = sorted(snap.vmcs_values.items())
    out = _envelope(SNAPSHOT_MAGIC)
    out += _SNAPSHOT_HEAD.pack(
        snap.launch_state, snap.tsc, snap.virtual_clock, snap.total_exits,
        snap.coverage_union.to_bytes(COVERAGE_BYTES, "little"), *snap.gprs, len(items),
    )
    for enc, value in items:
        out += _SNAPSHOT_FIELD.pack(enc, value)
    return seal(out)


def _open(data: bytes, magic: bytes, what: str) -> bytes:
    """Check the envelope and the trailer; return the body before the trailer."""
    if len(data) < _ENVELOPE.size + _U64.size:
        raise TraceTruncated(f"{what} shorter than its envelope")
    found, version, table_hash = _ENVELOPE.unpack_from(data)
    if found != magic:
        raise BadMagic(f"not a {what}: magic {found!r}")
    if version != FORMAT_VERSION:
        raise BadVersion(f"{what} version {version}, expected {FORMAT_VERSION}")
    body = data[:-_U64.size]
    if _U64.unpack_from(data, len(body))[0] != fnv1a64(body):
        raise TraceCorrupt(f"{what} integrity hash mismatch")
    if table_hash != FIELD_TABLE_HASH:
        raise FieldTableMismatch(
            f"{what} field table {table_hash:#x} differs from {FIELD_TABLE_HASH:#x}"
        )
    return body


def _need(body: bytes, pos: int, n: int) -> int:
    """The offset past n bytes at pos; TraceTruncated if the body ends first."""
    if pos + n > len(body):
        raise TraceTruncated(f"need {n} bytes at offset {pos}, have {len(body) - pos}")
    return pos + n


def _unpack(st: struct.Struct, body: bytes, pos: int) -> tuple[tuple, int]:
    """The fields of st at pos, and the offset past them."""
    end = _need(body, pos, st.size)
    return st.unpack_from(body, pos), end


def _string(body: bytes, pos: int, what: str) -> tuple[str, int]:
    """The length-prefixed string at pos, and the offset past it."""
    start = _need(body, pos, 1)
    end = _need(body, start, body[pos])
    try:
        return body[start:end].decode("utf-8"), end
    except UnicodeDecodeError:
        raise TraceFormatError(f"trace {what} is not UTF-8") from None


def _flag_error(flag: int) -> TraceFormatError:
    if flag not in _VALID_FLAGS:
        return TraceFormatError(f"bad seed entry flag {flag:#x}")
    return TraceFormatError(f"seed entry flag {flag:#x} does not match its section")


def _parse_gprs(block: bytes) -> tuple[int, ...]:
    values = []
    for idx, (flag, encoding, value) in enumerate(_ENTRY.iter_unpack(block)):
        if flag != FLAG_GPR:
            raise _flag_error(flag)
        if encoding != idx:
            raise TraceFormatError(f"gpr entry {idx} carries encoding {encoding}")
        values.append(value)
    return tuple(values)


def _parse_fields(block: bytes, section_flag: int) -> tuple[tuple[int, int], ...]:
    pairs = []
    for flag, encoding, value in _ENTRY.iter_unpack(block):
        if flag != section_flag:
            raise _flag_error(flag)
        if encoding not in FIELD_TABLE:
            raise TraceFormatError(f"seed entry field encoding {encoding} unknown")
        pairs.append((encoding, value))
    return tuple(pairs)


def trace_from_bytes(data: bytes) -> Trace:
    body = _open(data, TRACE_MAGIC, "trace")
    (initial_cr0, workload_seed), pos = _unpack(_TRACE_HEAD, body, _ENVELOPE.size)
    algorithm, pos = _string(body, pos, "rng tag")
    if algorithm != RNG_ALGORITHM:
        raise TraceFormatError(f"trace rng {algorithm!r}, expected {RNG_ALGORITHM!r}")
    profile, pos = _string(body, pos, "profile")
    (frame_count,), pos = _unpack(_U32, body, pos)
    frames: list[ExitFrame] = []
    for _ in range(frame_count):
        (reason, n_gpr, n_read, n_write, cycle_cost, coverage), start = _unpack(
            _FRAME_HEAD, body, pos
        )
        if n_gpr != GPR_COUNT:
            raise TraceFormatError(f"frame carries {n_gpr} gpr entries, expected {GPR_COUNT}")
        reads_at = start + GPR_COUNT * SEED_ENTRY_SIZE
        writes_at = reads_at + n_read * SEED_ENTRY_SIZE
        pos = _need(body, start, (GPR_COUNT + n_read + n_write) * SEED_ENTRY_SIZE)
        frames.append(ExitFrame(
            reason, cycle_cost, int.from_bytes(coverage, "little"),
            _parse_gprs(body[start:reads_at]),
            _parse_fields(body[reads_at:writes_at], FLAG_VMCS_READ),
            _parse_fields(body[writes_at:pos], FLAG_VMCS_WRITE),
        ))
    if pos != len(body):
        raise TraceCorrupt(f"{len(body) - pos} trailing bytes after last frame")
    return Trace(profile, workload_seed, initial_cr0, frames)


def snapshot_from_bytes(data: bytes) -> SessionSnapshot:
    body = _open(data, SNAPSHOT_MAGIC, "snapshot")
    (launch, tsc, virtual_clock, total_exits, coverage, *gprs, count), pos = _unpack(
        _SNAPSHOT_HEAD, body, _ENVELOPE.size
    )
    if launch not in _SNAPSHOT_LAUNCH_STATES:
        raise TraceFormatError(f"bad launch state {launch}")
    end = _need(body, pos, count * _SNAPSHOT_FIELD.size)
    values: dict[int, int] = {}
    previous = -1
    for enc, value in _SNAPSHOT_FIELD.iter_unpack(body[pos:end]):
        if enc not in FIELD_TABLE:
            raise TraceFormatError(f"snapshot field encoding {enc} unknown")
        if enc <= previous:
            raise TraceFormatError(
                f"snapshot field {FIELD_TABLE[enc]} repeated or out of order"
            )
        previous = enc
        values[enc] = value
    missing = FIELD_TABLE.keys() - values.keys()
    if missing:
        raise TraceFormatError(f"snapshot lacks field {FIELD_TABLE[min(missing)]}")
    if end != len(body):
        raise TraceCorrupt(f"{len(body) - end} trailing bytes in snapshot")
    return SessionSnapshot(
        values, LaunchState(launch), gprs, tsc, int.from_bytes(coverage, "little"),
        virtual_clock, total_exits,
    )


def save_trace(trace: Trace, path) -> None:
    Path(path).write_bytes(trace_to_bytes(trace))    # packed first: a failure leaves no file


def load_trace(path) -> Trace:
    return trace_from_bytes(Path(path).read_bytes())


def save_snapshot(snap: SessionSnapshot, path) -> None:
    Path(path).write_bytes(snapshot_to_bytes(snap))    # packed first: a failure leaves no file


def load_snapshot(path) -> SessionSnapshot:
    return snapshot_from_bytes(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# Live recording
# ---------------------------------------------------------------------------

@dataclass
class RecordingOutcome:
    trace: Trace
    start_snapshot: SessionSnapshot
    result: SessionResult
    record_cycles: int


def record(
    profile_name: str,
    workload_seed: int,
    n_exits: int,
    noise_probability: float = 0.0,
) -> RecordingOutcome:
    """Record a full session: boot or restore, then run it with capture on.

    The start snapshot is taken before capture begins; replaying the trace
    from it reproduces the recording's TSC and CR state exactly.
    """
    session, program = prepare_session(profile_name, workload_seed, n_exits)
    start_snapshot = session.snapshot()
    trace = Trace(profile_name, workload_seed, guest_cr0_view(session.vmcs))
    session.capture = trace.frames
    if noise_probability > 0.0:
        session.noise = NoiseInjector(workload_seed, noise_probability)
    result = session.run(program)
    return RecordingOutcome(
        trace=trace,
        start_snapshot=start_snapshot,
        result=result,
        record_cycles=session.virtual_clock - start_snapshot.virtual_clock,
    )
