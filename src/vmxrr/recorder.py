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

Trace container (.iris), all integers little-endian:

    magic "IRIS" | version u16 | field_table_hash u64 | initial_cr0 u64 |
    workload_seed u64 | algo: len u8 + utf8 | profile: len u8 + utf8 |
    frame_count u32 | frames... | fnv1a64 trailer over everything before it

    frame: reason u16 | gpr_count u8 | read_count u8 | write_count u8 |
           cycle_cost u64 | coverage bitmap (19 bytes raw) | entries...
    entry: flag u8 | encoding u8 | value u64            (10 bytes)

The frame header's reason is the reason the recorder dispatched (the low 16
bits of the EXIT_REASON read at record time). Replay dispatches on the seed's
EXIT_REASON read, and a crash artifact's mutated read may differ from its
header, so the loader does not compare the two.

The algo string must be the RNG_ALGORITHM tag; the loader rejects any other.

Snapshot container (.irisnap) carries resumable session state under the same
integrity scheme with magic "IRSN": every VMCS field once, in strictly
ascending encoding order (the loader rejects repeats and disorder).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

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

_ENTRY = struct.Struct("<BBQ")
_FRAME_FIXED = struct.Struct("<HBBBQ")
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


def trace_to_bytes(trace: Trace) -> bytes:
    out = bytearray()
    out += TRACE_MAGIC
    out += struct.pack("<H", FORMAT_VERSION)
    out += struct.pack("<Q", FIELD_TABLE_HASH)
    out += struct.pack("<Q", trace.initial_cr0)
    out += struct.pack("<Q", trace.workload_seed)
    out += _pack_str(RNG_ALGORITHM)
    out += _pack_str(trace.profile)
    out += struct.pack("<I", len(trace.frames))
    pack = _ENTRY.pack
    for frame in trace.frames:
        out += _FRAME_FIXED.pack(
            frame.reason,
            len(frame.gprs),
            len(frame.reads),
            len(frame.writes),
            frame.cycle_cost,
        )
        out += frame.coverage_mask.to_bytes(COVERAGE_BYTES, "little")
        _pack_seed(out, frame)
        for encoding, value in frame.writes:
            out += pack(FLAG_VMCS_WRITE, encoding, value)
    out += struct.pack("<Q", fnv1a64(bytes(out)))
    return bytes(out)


class _Cursor:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TraceTruncated(
                f"need {n} bytes at offset {self.pos}, have {len(self.data) - self.pos}"
            )
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def string(self) -> str:
        return self.take(self.u8()).decode("utf-8")


def _check_envelope(data: bytes, magic: bytes, what: str) -> bytes:
    """Validate magic, version, and trailer; return the body after them."""
    if len(data) < len(magic) + 2 + 8:
        raise TraceTruncated(f"{what} shorter than its envelope")
    if data[: len(magic)] != magic:
        raise BadMagic(f"not a {what}: magic {data[:4]!r}")
    version = struct.unpack_from("<H", data, len(magic))[0]
    if version != FORMAT_VERSION:
        raise BadVersion(f"{what} version {version}, expected {FORMAT_VERSION}")
    body, trailer = data[:-8], data[-8:]
    if struct.unpack("<Q", trailer)[0] != fnv1a64(body):
        raise TraceCorrupt(f"{what} integrity hash mismatch")
    return body


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
    body = _check_envelope(data, TRACE_MAGIC, "trace")
    cur = _Cursor(body)
    cur.take(len(TRACE_MAGIC))
    cur.u16()
    table_hash = cur.u64()
    if table_hash != FIELD_TABLE_HASH:
        raise FieldTableMismatch(
            f"trace field table {table_hash:#x} differs from {FIELD_TABLE_HASH:#x}"
        )
    initial_cr0 = cur.u64()
    workload_seed = cur.u64()
    algorithm = cur.string()
    if algorithm != RNG_ALGORITHM:
        raise TraceFormatError(f"trace rng {algorithm!r}, expected {RNG_ALGORITHM!r}")
    profile = cur.string()
    frame_count = cur.u32()
    frames: list[ExitFrame] = []
    for _ in range(frame_count):
        reason, n_gpr, n_read, n_write, cycle_cost = _FRAME_FIXED.unpack(
            cur.take(_FRAME_FIXED.size)
        )
        if n_gpr != GPR_COUNT:
            raise TraceFormatError(f"frame carries {n_gpr} gpr entries, expected {GPR_COUNT}")
        coverage = int.from_bytes(cur.take(COVERAGE_BYTES), "little")
        gprs = _parse_gprs(cur.take(n_gpr * SEED_ENTRY_SIZE))
        reads = _parse_fields(cur.take(n_read * SEED_ENTRY_SIZE), FLAG_VMCS_READ)
        writes = _parse_fields(cur.take(n_write * SEED_ENTRY_SIZE), FLAG_VMCS_WRITE)
        frames.append(ExitFrame(reason, cycle_cost, coverage, gprs, reads, writes))
    if cur.pos != len(body):
        raise TraceCorrupt(f"{len(body) - cur.pos} trailing bytes after last frame")
    return Trace(profile, workload_seed, initial_cr0, frames)


def save_trace(trace: Trace, path) -> None:
    data = trace_to_bytes(trace)    # packed before open: a failure leaves no file
    with open(path, "wb") as fh:
        fh.write(data)


def load_trace(path) -> Trace:
    with open(path, "rb") as fh:
        return trace_from_bytes(fh.read())


def snapshot_to_bytes(snap: SessionSnapshot) -> bytes:
    out = bytearray()
    out += SNAPSHOT_MAGIC
    out += struct.pack("<H", FORMAT_VERSION)
    out += struct.pack("<Q", FIELD_TABLE_HASH)
    out += struct.pack("<B", snap.launch_state)
    out += struct.pack("<QQQ", snap.tsc, snap.virtual_clock, snap.total_exits)
    out += snap.coverage_union.to_bytes(COVERAGE_BYTES, "little")
    if len(snap.gprs) != GPR_COUNT:
        raise ValueError(f"snapshot carries {len(snap.gprs)} registers")
    out += struct.pack(f"<{GPR_COUNT}Q", *snap.gprs)
    items = sorted(snap.vmcs_values.items())
    out += struct.pack("<H", len(items))
    for enc, value in items:
        out += struct.pack("<BQ", enc, value)
    out += struct.pack("<Q", fnv1a64(bytes(out)))
    return bytes(out)


def snapshot_from_bytes(data: bytes) -> SessionSnapshot:
    body = _check_envelope(data, SNAPSHOT_MAGIC, "snapshot")
    cur = _Cursor(body)
    cur.take(len(SNAPSHOT_MAGIC))
    cur.u16()
    table_hash = cur.u64()
    if table_hash != FIELD_TABLE_HASH:
        raise FieldTableMismatch(
            f"snapshot field table {table_hash:#x} differs from {FIELD_TABLE_HASH:#x}"
        )
    launch = cur.u8()
    if launch not in _SNAPSHOT_LAUNCH_STATES:
        raise TraceFormatError(f"bad launch state {launch}")
    tsc = cur.u64()
    virtual_clock = cur.u64()
    total_exits = cur.u64()
    coverage = int.from_bytes(cur.take(COVERAGE_BYTES), "little")
    gprs = list(struct.unpack(f"<{GPR_COUNT}Q", cur.take(8 * GPR_COUNT)))
    values: dict[int, int] = {}
    previous = -1
    for _ in range(cur.u16()):
        enc = cur.u8()
        if enc not in FIELD_TABLE:
            raise TraceFormatError(f"snapshot field encoding {enc} unknown")
        if enc <= previous:
            raise TraceFormatError(
                f"snapshot field {FIELD_TABLE[enc].name} repeated or out of order"
            )
        previous = enc
        values[enc] = cur.u64()
    missing = FIELD_TABLE.keys() - values.keys()
    if missing:
        raise TraceFormatError(f"snapshot lacks field {FIELD_TABLE[min(missing)].name}")
    if cur.pos != len(body):
        raise TraceCorrupt(f"{len(body) - cur.pos} trailing bytes in snapshot")
    return SessionSnapshot(
        vmcs_values=values,
        launch_state=LaunchState(launch),
        gprs=gprs,
        tsc=tsc,
        coverage_union=coverage,
        virtual_clock=virtual_clock,
        total_exits=total_exits,
    )


def save_snapshot(snap: SessionSnapshot, path) -> None:
    data = snapshot_to_bytes(snap)    # packed before open: a failure leaves no file
    with open(path, "wb") as fh:
        fh.write(data)


def load_snapshot(path) -> SessionSnapshot:
    with open(path, "rb") as fh:
        return snapshot_from_bytes(fh.read())


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
    trace = Trace(profile_name, workload_seed, guest_cr0_view(session.vm.vmcs))
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
