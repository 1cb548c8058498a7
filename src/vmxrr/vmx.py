"""Core VT-x state model: VMCS fields, GPR file, CPU modes, VM-entry checks.

The model is deliberately flat. A VMCS is a map from compact one-byte field
encodings to 64-bit values plus a launch-state machine; every architectural
rule the rest of the package relies on (field access classes, CR0 mode
classification, entry validity) is a pure function over that map.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

MASK64 = (1 << 64) - 1

# ---------------------------------------------------------------------------
# CR0 bits (SDM Vol. 3, 2.5)
# ---------------------------------------------------------------------------

CR0_PE = 1 << 0
CR0_MP = 1 << 1
CR0_EM = 1 << 2
CR0_TS = 1 << 3
CR0_ET = 1 << 4
CR0_NE = 1 << 5
CR0_WP = 1 << 16
CR0_AM = 1 << 18
CR0_NW = 1 << 29
CR0_CD = 1 << 30
CR0_PG = 1 << 31

# Every architecturally defined CR0 bit; anything outside is reserved and must
# be zero at VM entry.
CR0_KNOWN_BITS = (
    CR0_PE | CR0_MP | CR0_EM | CR0_TS | CR0_ET | CR0_NE
    | CR0_WP | CR0_AM | CR0_NW | CR0_CD | CR0_PG
)

REAL_MODE_RIP_LIMIT = 1 << 20   # 1 MiB window while PE=0
PROT_MODE_RIP_LIMIT = 1 << 32   # 32-bit guests everywhere else
GDTR_LIMIT_MAX = 0xFFFF


class ExitReason(IntEnum):
    """Basic VM-exit reason codes (low 16 bits of the exit-reason field)."""

    EXTERNAL_INTERRUPT = 1
    TRIPLE_FAULT = 2
    INTERRUPT_WINDOW = 7
    CPUID = 10
    HLT = 12
    RDTSC = 16
    VMCALL = 18
    CR_ACCESS = 28
    IO_INSTRUCTION = 30
    RDMSR = 31
    WRMSR = 32
    EPT_VIOLATION = 48
    PREEMPTION_TIMER = 52


def reason_name(reason: int) -> str:
    try:
        return ExitReason(reason).name
    except ValueError:
        return f"REASON_{reason}"


class FieldArea(Enum):
    GUEST_STATE = "GuestState"
    HOST_STATE = "HostState"
    CONTROL = "Control"
    EXIT_INFO = "ExitInfo"


class FieldAccess(Enum):
    READ_WRITE = "ReadWrite"
    READ_ONLY = "ReadOnly"


@dataclass(frozen=True)
class VmcsFieldSpec:
    encoding: int
    name: str
    area: FieldArea
    access: FieldAccess


# One-byte compact encoding space; seed entries carry the encoding in a single
# byte so nothing above 146 is ever assignable.
ENCODING_SPACE = 147

# Guest-state area ----------------------------------------------------------
GUEST_CR0 = 0
GUEST_CR3 = 1
GUEST_CR4 = 2
GUEST_RIP = 3
GUEST_RSP = 4
GUEST_RFLAGS = 5
GUEST_CS_SELECTOR = 6
GUEST_CS_BASE = 7
GUEST_CS_LIMIT = 8
GUEST_DS_SELECTOR = 9
GUEST_DS_BASE = 10
GUEST_DS_LIMIT = 11
GUEST_SS_SELECTOR = 12
GUEST_SS_BASE = 13
GUEST_SS_LIMIT = 14
GUEST_GDTR_BASE = 15
GUEST_GDTR_LIMIT = 16
GUEST_LDTR_BASE = 17
GUEST_LDTR_LIMIT = 18
GUEST_ACTIVITY_STATE = 19

# Host-state area -----------------------------------------------------------
HOST_CR0 = 40
HOST_CR3 = 41
HOST_RIP = 42
HOST_RSP = 43

# Control area --------------------------------------------------------------
CR0_GUEST_HOST_MASK = 60
CR0_READ_SHADOW = 61
CR4_GUEST_HOST_MASK = 62
CR4_READ_SHADOW = 63
TSC_OFFSET = 64
VMX_PREEMPTION_TIMER_VALUE = 65
PIN_BASED_CONTROLS = 66
PROC_BASED_CONTROLS = 67
VM_ENTRY_CONTROLS = 68
VM_EXIT_CONTROLS = 69
EXCEPTION_BITMAP = 70

# Exit-info area (read-only to handler code) --------------------------------
EXIT_REASON = 100
EXIT_QUALIFICATION = 101
GUEST_LINEAR_ADDRESS = 102
GUEST_PHYSICAL_ADDRESS = 103
VM_EXIT_INSTRUCTION_LEN = 104
VM_EXIT_INTERRUPTION_INFO = 105
IDT_VECTORING_INFO = 106
VM_INSTRUCTION_ERROR = 107


def _build_field_table() -> dict[int, VmcsFieldSpec]:
    guest = [
        (GUEST_CR0, "GUEST_CR0"),
        (GUEST_CR3, "GUEST_CR3"),
        (GUEST_CR4, "GUEST_CR4"),
        (GUEST_RIP, "GUEST_RIP"),
        (GUEST_RSP, "GUEST_RSP"),
        (GUEST_RFLAGS, "GUEST_RFLAGS"),
        (GUEST_CS_SELECTOR, "GUEST_CS_SELECTOR"),
        (GUEST_CS_BASE, "GUEST_CS_BASE"),
        (GUEST_CS_LIMIT, "GUEST_CS_LIMIT"),
        (GUEST_DS_SELECTOR, "GUEST_DS_SELECTOR"),
        (GUEST_DS_BASE, "GUEST_DS_BASE"),
        (GUEST_DS_LIMIT, "GUEST_DS_LIMIT"),
        (GUEST_SS_SELECTOR, "GUEST_SS_SELECTOR"),
        (GUEST_SS_BASE, "GUEST_SS_BASE"),
        (GUEST_SS_LIMIT, "GUEST_SS_LIMIT"),
        (GUEST_GDTR_BASE, "GUEST_GDTR_BASE"),
        (GUEST_GDTR_LIMIT, "GUEST_GDTR_LIMIT"),
        (GUEST_LDTR_BASE, "GUEST_LDTR_BASE"),
        (GUEST_LDTR_LIMIT, "GUEST_LDTR_LIMIT"),
        (GUEST_ACTIVITY_STATE, "GUEST_ACTIVITY_STATE"),
    ]
    host = [
        (HOST_CR0, "HOST_CR0"),
        (HOST_CR3, "HOST_CR3"),
        (HOST_RIP, "HOST_RIP"),
        (HOST_RSP, "HOST_RSP"),
    ]
    control = [
        (CR0_GUEST_HOST_MASK, "CR0_GUEST_HOST_MASK"),
        (CR0_READ_SHADOW, "CR0_READ_SHADOW"),
        (CR4_GUEST_HOST_MASK, "CR4_GUEST_HOST_MASK"),
        (CR4_READ_SHADOW, "CR4_READ_SHADOW"),
        (TSC_OFFSET, "TSC_OFFSET"),
        (VMX_PREEMPTION_TIMER_VALUE, "VMX_PREEMPTION_TIMER_VALUE"),
        (PIN_BASED_CONTROLS, "PIN_BASED_CONTROLS"),
        (PROC_BASED_CONTROLS, "PROC_BASED_CONTROLS"),
        (VM_ENTRY_CONTROLS, "VM_ENTRY_CONTROLS"),
        (VM_EXIT_CONTROLS, "VM_EXIT_CONTROLS"),
        (EXCEPTION_BITMAP, "EXCEPTION_BITMAP"),
    ]
    exit_info = [
        (EXIT_REASON, "EXIT_REASON"),
        (EXIT_QUALIFICATION, "EXIT_QUALIFICATION"),
        (GUEST_LINEAR_ADDRESS, "GUEST_LINEAR_ADDRESS"),
        (GUEST_PHYSICAL_ADDRESS, "GUEST_PHYSICAL_ADDRESS"),
        (VM_EXIT_INSTRUCTION_LEN, "VM_EXIT_INSTRUCTION_LEN"),
        (VM_EXIT_INTERRUPTION_INFO, "VM_EXIT_INTERRUPTION_INFO"),
        (IDT_VECTORING_INFO, "IDT_VECTORING_INFO"),
        (VM_INSTRUCTION_ERROR, "VM_INSTRUCTION_ERROR"),
    ]
    table: dict[int, VmcsFieldSpec] = {}
    for encs, area, access in (
        (guest, FieldArea.GUEST_STATE, FieldAccess.READ_WRITE),
        (host, FieldArea.HOST_STATE, FieldAccess.READ_WRITE),
        (control, FieldArea.CONTROL, FieldAccess.READ_WRITE),
        (exit_info, FieldArea.EXIT_INFO, FieldAccess.READ_ONLY),
    ):
        for enc, name in encs:
            assert 0 <= enc < ENCODING_SPACE
            table[enc] = VmcsFieldSpec(enc, name, area, access)
    return table


FIELD_TABLE: dict[int, VmcsFieldSpec] = _build_field_table()


# ---------------------------------------------------------------------------
# Canonical CSV exports and the field-table hash carried in trace headers
# ---------------------------------------------------------------------------

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    h = FNV64_OFFSET
    for b in data:
        h = ((h ^ b) * FNV64_PRIME) & MASK64
    return h


def field_table_csv() -> bytes:
    """Canonical field table: UTF-8, header row, LF endings, encoding order."""
    lines = ["compact_encoding,name,area,access"]
    for enc in sorted(FIELD_TABLE):
        s = FIELD_TABLE[enc]
        lines.append(f"{s.encoding},{s.name},{s.area.value},{s.access.value}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def exit_reason_csv() -> bytes:
    lines = ["name,code"]
    for reason in sorted(ExitReason, key=lambda r: r.value):
        lines.append(f"{reason.name},{reason.value}")
    return ("\n".join(lines) + "\n").encode("utf-8")


FIELD_TABLE_HASH = fnv1a64(field_table_csv())


# ---------------------------------------------------------------------------
# Register file (RSP is guest state in the VMCS, so 15 registers, not 16)
# ---------------------------------------------------------------------------

class GprId(IntEnum):
    RAX = 0
    RBX = 1
    RCX = 2
    RDX = 3
    RSI = 4
    RDI = 5
    RBP = 6
    R8 = 7
    R9 = 8
    R10 = 9
    R11 = 10
    R12 = 11
    R13 = 12
    R14 = 13
    R15 = 14


GPR_COUNT = 15
GPR_NAMES = tuple(g.name for g in GprId)


class GprFile:
    """The 15 general-purpose registers a VM exit saves outside the VMCS."""

    __slots__ = ("regs",)

    def __init__(self, values=None) -> None:
        self.regs: list[int] = [0] * GPR_COUNT if values is None else list(values)
        if len(self.regs) != GPR_COUNT:
            raise ValueError(f"expected {GPR_COUNT} registers")

    def read(self, gpr: int) -> int:
        return self.regs[gpr]

    def write(self, gpr: int, value: int) -> None:
        self.regs[gpr] = value & MASK64

    def __repr__(self) -> str:
        pairs = ", ".join(f"{n}={v:#x}" for n, v in zip(GPR_NAMES, self.regs))
        return f"GprFile({pairs})"


# ---------------------------------------------------------------------------
# VMCS
# ---------------------------------------------------------------------------

class LaunchState(IntEnum):
    INACTIVE = 0
    ACTIVE_CURRENT_CLEAR = 1
    ACTIVE_CURRENT_LAUNCHED = 2


class VmxError(Exception):
    pass


class UnknownField(VmxError):
    def __init__(self, encoding: int) -> None:
        super().__init__(f"unknown VMCS field encoding {encoding}")
        self.encoding = encoding


class ReadOnlyField(VmxError):
    def __init__(self, encoding: int) -> None:
        name = FIELD_TABLE[encoding].name if encoding in FIELD_TABLE else encoding
        super().__init__(f"vmwrite to read-only field {name}")
        self.encoding = encoding


class LifecycleError(VmxError):
    pass


class Vmcs:
    """Flat VMCS: values by compact encoding plus the launch-state machine.

    vmread/vmwrite are the handler-facing operations; while `reads`/`writes`
    is a list, each appends its (encoding, value) there. hw_set/hw_get are the
    context-save/machinery path and bypass both the logs and the access class,
    the way hardware does.
    """

    __slots__ = ("values", "launch_state", "reads", "writes", "read_override")

    def __init__(self) -> None:
        self.values: dict[int, int] = {}
        self.launch_state = LaunchState.INACTIVE
        self.reads: list[tuple[int, int]] | None = None    # vmread log, or None
        self.writes: list[tuple[int, int]] | None = None   # vmwrite log, or None
        self.read_override = None  # callable(encoding) -> value, RO fields only

    # lifecycle -------------------------------------------------------------
    def vmclear(self) -> None:
        """Zero every assigned field and enter ActiveCurrentClear."""
        self.values = {enc: 0 for enc in FIELD_TABLE}
        self.launch_state = LaunchState.ACTIVE_CURRENT_CLEAR

    def vmptrld(self) -> None:
        if self.launch_state is LaunchState.INACTIVE:
            self.values = {enc: 0 for enc in FIELD_TABLE}
            self.launch_state = LaunchState.ACTIVE_CURRENT_CLEAR

    def vmlaunch(self) -> None:
        if self.launch_state is not LaunchState.ACTIVE_CURRENT_CLEAR:
            raise LifecycleError(
                f"vmlaunch from {self.launch_state.name}; need ACTIVE_CURRENT_CLEAR"
            )
        self.launch_state = LaunchState.ACTIVE_CURRENT_LAUNCHED

    # handler-facing access --------------------------------------------------
    def vmread(self, encoding: int) -> int:
        spec = FIELD_TABLE.get(encoding)
        if spec is None:
            raise UnknownField(encoding)
        if spec.access is FieldAccess.READ_ONLY and self.read_override is not None:
            value = self.read_override(encoding)
        else:
            value = self.values[encoding]
        if self.reads is not None:
            self.reads.append((encoding, value))
        return value

    def vmwrite(self, encoding: int, value: int) -> None:
        spec = FIELD_TABLE.get(encoding)
        if spec is None:
            raise UnknownField(encoding)
        if spec.access is FieldAccess.READ_ONLY:
            raise ReadOnlyField(encoding)
        value &= MASK64
        self.values[encoding] = value
        if self.writes is not None:
            self.writes.append((encoding, value))

    # machinery access (context save, entry checks, seed injection) ----------
    def hw_set(self, encoding: int, value: int) -> None:
        if encoding not in FIELD_TABLE:
            raise UnknownField(encoding)
        self.values[encoding] = value & MASK64

    def hw_get(self, encoding: int) -> int:
        if encoding not in FIELD_TABLE:
            raise UnknownField(encoding)
        return self.values[encoding]


# ---------------------------------------------------------------------------
# CPU mode classification
# ---------------------------------------------------------------------------

class CpuMode(IntEnum):
    """CR0-derived execution modes; log lines use the zero-based index."""

    MODE1 = 1   # real mode
    MODE2 = 2   # protected mode, paging off
    MODE3 = 3   # protected mode with paging
    MODE4 = 4   # Mode3 + alignment checking, caching state unconfirmed
    MODE5 = 5   # Mode4 + task-switch flag
    MODE6 = 6   # Mode4 with caching confirmed enabled (CD=0, NW=0)
    MODE7 = 7   # Mode5 + caching disabled


def classify_cr0_mode(cr0: int) -> CpuMode:
    """Total classification of a CR0 value into the seven modes.

    Priority tree: PE, then PG, then AM gate the first three modes; with AM
    set, TS=0 splits on the caching bits (CD=0 and NW=0 is the confirmed
    Mode6), and TS=1 splits on CD for Mode5 vs Mode7.
    """
    if not cr0 & CR0_PE:
        return CpuMode.MODE1
    if not cr0 & CR0_PG:
        return CpuMode.MODE2
    if not cr0 & CR0_AM:
        return CpuMode.MODE3
    if not cr0 & CR0_TS:
        if not cr0 & CR0_CD and not cr0 & CR0_NW:
            return CpuMode.MODE6
        return CpuMode.MODE4
    if cr0 & CR0_CD:
        return CpuMode.MODE7
    return CpuMode.MODE5


def guest_cr0_view(vmcs: Vmcs) -> int:
    """CR0 as the guest observes it: masked bits come from the read shadow."""
    mask = vmcs.hw_get(CR0_GUEST_HOST_MASK)
    return (vmcs.hw_get(GUEST_CR0) & ~mask) | (vmcs.hw_get(CR0_READ_SHADOW) & mask)


# ---------------------------------------------------------------------------
# VM-entry validity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    check: str
    log: str


def vm_entry_check(vmcs: Vmcs) -> list[Violation]:
    """Ordered guest-state validity checks; empty list means entry is legal.

    The first violation's log line is what a failed entry reports, so check
    order is part of the contract.
    """
    if vmcs.launch_state is LaunchState.INACTIVE:
        raise LifecycleError("vm_entry_check on an inactive VMCS")

    view = guest_cr0_view(vmcs)
    rip = vmcs.hw_get(GUEST_RIP)
    mode = classify_cr0_mode(view)
    out: list[Violation] = []

    if (view & CR0_PG) and not (view & CR0_PE):
        out.append(Violation("Cr0PgWithoutPe", "CR0.PG set while CR0.PE clear"))

    limit = REAL_MODE_RIP_LIMIT if mode is CpuMode.MODE1 else PROT_MODE_RIP_LIMIT
    if rip >= limit:
        out.append(Violation("BadRipForMode", f"bad RIP for mode {mode - 1}"))

    if view & ~CR0_KNOWN_BITS:
        out.append(Violation("Cr0ReservedBits", "reserved CR0 bits set"))

    if (view & CR0_NW) and not (view & CR0_CD):
        out.append(Violation("Cr0NwWithoutCd", "CR0.NW set while CR0.CD clear"))

    if mode is CpuMode.MODE1:
        cs = vmcs.hw_get(GUEST_CS_SELECTOR)
        if cs * 16 + rip >= REAL_MODE_RIP_LIMIT:
            out.append(
                Violation("RealModeCsRange", f"bad CS:IP for mode 0 ({cs:#x}:{rip:#x})")
            )

    gdtr_limit = vmcs.hw_get(GUEST_GDTR_LIMIT)
    if gdtr_limit > GDTR_LIMIT_MAX:
        out.append(
            Violation("GdtrLimitOverflow", f"GDTR limit {gdtr_limit:#x} exceeds 16 bits")
        )

    return out
