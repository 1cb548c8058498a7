"""Exit handlers, dispatch, block coverage, and the cycle cost model.

Handlers observe guest state only through vmread and the register file, and
publish results only through vmwrite and register writes. That discipline is
what lets a recorded exit replay bit-for-bit: inject the same reads and
registers, get the same writes and the same coverage. A handler must never
vmread a field it already vmwrote in the same exit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

from .vmx import (
    CR0_CD,
    CR0_KNOWN_BITS,
    CR0_GUEST_HOST_MASK,
    CR0_NW,
    CR0_PE,
    CR0_PG,
    CR0_READ_SHADOW,
    CR0_TS,
    CR4_READ_SHADOW,
    EXIT_QUALIFICATION,
    EXIT_REASON,
    GPR_COUNT,
    GUEST_ACTIVITY_STATE,
    GUEST_CR0,
    GUEST_CR3,
    GUEST_CR4,
    GUEST_GDTR_BASE,
    GUEST_GDTR_LIMIT,
    GUEST_LINEAR_ADDRESS,
    GUEST_PHYSICAL_ADDRESS,
    GUEST_RFLAGS,
    GUEST_RIP,
    GUEST_RSP,
    MASK64,
    PIN_BASED_CONTROLS,
    PROC_BASED_CONTROLS,
    TSC_OFFSET,
    VMX_PREEMPTION_TIMER_VALUE,
    VM_EXIT_INSTRUCTION_LEN,
    VM_EXIT_INTERRUPTION_INFO,
    ExitReason,
    GprFile,
    GprId,
    Vmcs,
    classify_cr0_mode,
    vm_entry_check,
)

log = logging.getLogger(__name__)

RFLAGS_IF = 1 << 9
PROC_IW_EXITING = 1 << 2
PIN_EXTINT_EXITING = 1 << 0

# Platform port 0x92 doubles as a descriptor-table load service when the
# written byte is this magic; RBX carries the base, RCX the limit.
PORT_PLATFORM = 0x92
GDT_LOAD_MAGIC = 0xD7

FAULT_VECTOR_BASE = 0xF000   # injected faults land at base + vector * 16
VEC_UD = 6
VEC_GP = 13

RAM_TOP = 0x0800_0000        # 128 MiB of guest RAM
APIC_PAGE_BASE = 0xFEE0_0000
MMIO_HIGH_BASE = 0xFEC0_0000

DEFAULT_PAT = 0x0007_0406_0007_0406


# ---------------------------------------------------------------------------
# Coverage block registry: registration order fixes the block ids for good,
# so the shipped CSV, the trace bitmaps, and the fuzzer deltas all agree.
# ---------------------------------------------------------------------------

_BLOCK_LABELS: list[str] = []


def _block(label: str) -> int:
    _BLOCK_LABELS.append(label)
    return len(_BLOCK_LABELS) - 1


B_DISPATCH_ENTRY = _block("dispatch.entry")
B_DISPATCH_KNOWN = _block("dispatch.known_reason")
B_DISPATCH_UNKNOWN = _block("dispatch.unknown_reason")

B_EXTINT_ENTRY = _block("extint.entry")
B_EXTINT_VALID = _block("extint.info_valid")
B_EXTINT_SPURIOUS = _block("extint.spurious")
B_EXTINT_VEC_EXCEPTION = _block("extint.vector_exception_range")
B_EXTINT_VEC_PIC = _block("extint.vector_pic_range")
B_EXTINT_VEC_TIMER = _block("extint.vector_timer")
B_EXTINT_VEC_HIGH = _block("extint.vector_high")
B_EXTINT_RAX_TAGGED = _block("extint.rax_poison_tag")
B_EXTINT_WAKE = _block("extint.wake_guest")
B_EXTINT_NO_WAKE = _block("extint.already_running")

B_IW_ENTRY = _block("intwin.entry")
B_IW_IF_OPEN = _block("intwin.if_open")
B_IW_IF_SHUT = _block("intwin.if_shut")
B_IW_REQ_WIDE = _block("intwin.request_wide")
B_IW_MASK_REQ = _block("intwin.mask_request")
B_IW_OPEN_REQ = _block("intwin.open_request")
B_IW_BAD_REQ = _block("intwin.bad_request")
B_IW_ARMED = _block("intwin.exiting_armed")
B_IW_UNARMED = _block("intwin.exiting_unarmed")
B_IW_WAKE = _block("intwin.wake_guest")

B_TF_ENTRY = _block("triple_fault.entry")
B_TF_LOG = _block("triple_fault.logged")

B_CPUID_ENTRY = _block("cpuid.entry")
B_CPUID_LEAF0 = _block("cpuid.leaf0_vendor")
B_CPUID_LEAF1 = _block("cpuid.leaf1_features")
B_CPUID_OSXSAVE_ON = _block("cpuid.leaf1_osxsave_on")
B_CPUID_OSXSAVE_OFF = _block("cpuid.leaf1_osxsave_off")
B_CPUID_LEAF7 = _block("cpuid.leaf7_structured")
B_CPUID_SUBLEAF0 = _block("cpuid.leaf7_subleaf0")
B_CPUID_SUBLEAF_HIGH = _block("cpuid.leaf7_subleaf_high")
B_CPUID_HV_LEAF = _block("cpuid.hypervisor_leaf")
B_CPUID_EXT_LEAF = _block("cpuid.extended_leaf")
B_CPUID_UNKNOWN_LEAF = _block("cpuid.unknown_leaf")

B_HLT_ENTRY = _block("hlt.entry")
B_HLT_FROM_ACTIVE = _block("hlt.from_active")
B_HLT_ALREADY_IDLE = _block("hlt.already_idle")
B_HLT_IF_OPEN = _block("hlt.if_open")
B_HLT_IF_SHUT = _block("hlt.if_shut")
B_HLT_PLAIN = _block("hlt.plain")
B_HLT_MWAIT_HINT = _block("hlt.mwait_hint")
B_HLT_PARKED = _block("hlt.parked")
B_HLT_WAKE_ARMED = _block("hlt.wake_armed")

B_RDTSC_ENTRY = _block("rdtsc.entry")
B_RDTSC_OFFSET_ZERO = _block("rdtsc.offset_zero")
B_RDTSC_OFFSET_SET = _block("rdtsc.offset_set")
B_RDTSC_EVEN = _block("rdtsc.value_even")
B_RDTSC_ODD = _block("rdtsc.value_odd")
B_RDTSC_NARROW = _block("rdtsc.value_narrow")
B_RDTSC_WIDE = _block("rdtsc.value_wide")
B_RDTSC_BACKWARDS = _block("rdtsc.went_backwards")
B_RDTSC_MONOTONE = _block("rdtsc.monotone")

B_VMCALL_ENTRY = _block("vmcall.entry")
B_VMCALL_ALIGNED = _block("vmcall.stack_aligned")
B_VMCALL_UNALIGNED = _block("vmcall.stack_unaligned")
B_VMCALL_ARG_WIDE = _block("vmcall.arg_wide")
B_VMCALL_KNOWN = _block("vmcall.known_index")
B_VMCALL_PING = _block("vmcall.ping")
B_VMCALL_GETTSC = _block("vmcall.get_tsc")
B_VMCALL_LOG = _block("vmcall.log_message")
B_VMCALL_RESERVED = _block("vmcall.reserved_index")
B_VMCALL_PRIVATE = _block("vmcall.private_range")
B_VMCALL_GP = _block("vmcall.inject_gp")
B_VMCALL_OOB = _block("vmcall.index_out_of_table")

B_CR_ENTRY = _block("cr.entry")
B_CR_CR0 = _block("cr.cr0")
B_CR_CR4 = _block("cr.cr4")
B_CR_CR3 = _block("cr.cr3")
B_CR_BAD_CR = _block("cr.bad_register")
B_CR_MOV_TO = _block("cr.mov_to")
B_CR_GIDX_OOB = _block("cr.gpr_index_out_of_range")
B_CR0_PE_SET = _block("cr.cr0_pe_set")
B_CR0_PE_CLEAR = _block("cr.cr0_pe_clear")
B_CR0_PG_SET = _block("cr.cr0_pg_set")
B_CR0_PG_CLEAR = _block("cr.cr0_pg_clear")
B_CR0_PG_NO_PE = _block("cr.cr0_pg_without_pe")
B_CR0_RESERVED = _block("cr.cr0_reserved_bits")
B_CR0_NW_NO_CD = _block("cr.cr0_nw_without_cd")
B_CR0_MODE_CHANGE = _block("cr.cr0_mode_change")
B_CR0_MODE_SAME = _block("cr.cr0_mode_same")
B_CR4_WRITE = _block("cr.cr4_write")
B_CR4_OSXSAVE_ON = _block("cr.cr4_osxsave_on")
B_CR3_WRITE = _block("cr.cr3_write")
B_CR_MOV_FROM = _block("cr.mov_from")
B_CR_CLTS = _block("cr.clts")
B_CR_LMSW = _block("cr.lmsw_unsupported")

B_IO_ENTRY = _block("io.entry")
B_IO_IN = _block("io.direction_in")
B_IO_OUT = _block("io.direction_out")
B_IO_STRING = _block("io.string_op")
B_IO_PIC = _block("io.port_pic")
B_IO_PLATFORM = _block("io.port_platform")
B_IO_GDT_LOAD = _block("io.platform_gdt_load")
B_IO_A20 = _block("io.platform_a20")
B_IO_KBD = _block("io.port_keyboard")
B_IO_SERIAL = _block("io.port_serial")
B_IO_LEGACY_OTHER = _block("io.port_legacy_other")
B_IO_HIGH_PORT = _block("io.port_high")
B_IO_SIZE_DWORD = _block("io.size_dword")
B_IO_RAX_WIDE = _block("io.out_value_wide")
B_IO_REP_DONE = _block("io.rep_done")
B_IO_REP_MORE = _block("io.rep_more")

B_RDMSR_ENTRY = _block("rdmsr.entry")
B_RDMSR_RCX_WIDE = _block("rdmsr.index_wide")
B_RDMSR_TSC = _block("rdmsr.tsc")
B_RDMSR_OFF_ZERO = _block("rdmsr.tsc_offset_zero")
B_RDMSR_OFF_SET = _block("rdmsr.tsc_offset_set")
B_RDMSR_APIC = _block("rdmsr.apic_base")
B_RDMSR_EFER = _block("rdmsr.efer")
B_RDMSR_SYSENTER = _block("rdmsr.sysenter")
B_RDMSR_PAT = _block("rdmsr.pat")
B_RDMSR_HYPERV = _block("rdmsr.synthetic_range")
B_RDMSR_UNKNOWN = _block("rdmsr.unknown")
B_RDMSR_GP = _block("rdmsr.inject_gp")

B_WRMSR_ENTRY = _block("wrmsr.entry")
B_WRMSR_RCX_WIDE = _block("wrmsr.index_wide")
B_WRMSR_TSC = _block("wrmsr.tsc")
B_WRMSR_TSC_FWD = _block("wrmsr.tsc_forward")
B_WRMSR_TSC_BACK = _block("wrmsr.tsc_backward")
B_WRMSR_APIC = _block("wrmsr.apic_base")
B_WRMSR_APIC_ENABLE = _block("wrmsr.apic_enable")
B_WRMSR_APIC_DISABLE = _block("wrmsr.apic_disable")
B_WRMSR_EFER = _block("wrmsr.efer")
B_WRMSR_EFER_LME = _block("wrmsr.efer_lme_rejected")
B_WRMSR_SYSENTER = _block("wrmsr.sysenter")
B_WRMSR_UNKNOWN = _block("wrmsr.unknown")
B_WRMSR_GP = _block("wrmsr.inject_gp")

B_EPT_ENTRY = _block("ept.entry")
B_EPT_READ = _block("ept.access_read")
B_EPT_WRITE = _block("ept.access_write")
B_EPT_EXEC = _block("ept.access_exec")
B_EPT_NO_ACCESS = _block("ept.access_none")
B_EPT_GLA_VALID = _block("ept.gla_valid")
B_EPT_GLA_NONE = _block("ept.gla_none")
B_EPT_LOW_RAM = _block("ept.gpa_low_ram")
B_EPT_MMIO_LEGACY = _block("ept.gpa_legacy_hole")
B_EPT_RAM = _block("ept.gpa_ram")
B_EPT_APIC_PAGE = _block("ept.gpa_apic_page")
B_EPT_MMIO_HIGH = _block("ept.gpa_mmio_high")
B_EPT_UNMAPPED = _block("ept.gpa_unmapped")
B_EPT_RSI_WIDE = _block("ept.rsi_wide")
B_EPT_PAGE_TAIL = _block("ept.page_tail")
B_EPT_EXEC_W_COMBO = _block("ept.write_exec_combo")

B_TIMER_ENTRY = _block("timer.entry")
B_TIMER_ZERO = _block("timer.value_zero")
B_TIMER_LATE = _block("timer.value_late")
B_TIMER_REARM = _block("timer.rearmed")

B_ASYNC_PIC_RAISE = _block("async.pic_line_raise")
B_ASYNC_LAPIC_TIMER = _block("async.lapic_timer_fire")

BLOCK_COUNT = len(_BLOCK_LABELS)
BLOCK_LABELS: tuple[str, ...] = tuple(_BLOCK_LABELS)
ASYNC_BLOCKS = frozenset({B_ASYNC_PIC_RAISE, B_ASYNC_LAPIC_TIMER})
COVERAGE_BYTES = (BLOCK_COUNT + 7) // 8


def coverage_blocks_csv() -> bytes:
    lines = ["block_id,label"]
    for i, label in enumerate(BLOCK_LABELS):
        lines.append(f"{i},{label}")
    return ("\n".join(lines) + "\n").encode("utf-8")


class CoverageBitmap:
    """Per-exit block hits plus the cumulative union over a run.

    The frame mask is what a recorded exit carries; the caller decides frame
    boundaries via begin_frame/end_frame so recording never changes when bits
    are cleared.
    """

    __slots__ = ("frame_mask", "union_mask")

    def __init__(self) -> None:
        self.frame_mask = 0
        self.union_mask = 0

    def hit(self, block_id: int) -> None:
        self.frame_mask |= 1 << block_id

    def begin_frame(self) -> None:
        self.frame_mask = 0

    def end_frame(self) -> int:
        mask = self.frame_mask
        self.union_mask |= mask
        return mask


# ---------------------------------------------------------------------------
# Cost model (virtual cycles)
# ---------------------------------------------------------------------------

DISPATCH_COST = 2000
OTHER_HANDLER_COST = 3000
HANDLER_COST: dict[int, int] = {
    ExitReason.RDTSC: 1500,
    ExitReason.CR_ACCESS: 6000,
    ExitReason.IO_INSTRUCTION: 8000,
}

# Recording adds 1.1% of the exit's base cost, floored; the remainder comes
# out between 1.02% and 1.25% for every base in the cost table.
OVERHEAD_NUM = 11
OVERHEAD_DEN = 1000


def base_exit_cost(reason: int) -> int:
    return DISPATCH_COST + HANDLER_COST.get(reason, OTHER_HANDLER_COST)


def recording_overhead(base_cost: int) -> int:
    return base_cost * OVERHEAD_NUM // OVERHEAD_DEN


# ---------------------------------------------------------------------------
# Dispatch results
# ---------------------------------------------------------------------------

class ExitOutcome(Enum):
    RESUME = "Resume"
    VM_CRASH = "VmCrash"
    HYP_CRASH = "HypCrash"


@dataclass(frozen=True)
class CrashInfo:
    kind: str      # "VmCrash" or "HypCrash"
    detail: str


@dataclass(frozen=True)
class DispatchResult:
    outcome: ExitOutcome
    reason: int
    base_cost: int
    crash: CrashInfo | None = None


class HypervisorBug(Exception):
    """A handler walked off its own tables; on hardware this is a host crash."""


class Hypervisor:
    """Dispatches exits on the current VMCS + register file, tracks coverage."""

    def __init__(self, vmcs: Vmcs, gprs: GprFile) -> None:
        self.vmcs = vmcs
        self.gprs = gprs
        self.cov = CoverageBitmap()
        self.tsc = 0
        self._handlers = {
            ExitReason.EXTERNAL_INTERRUPT: self._handle_external_interrupt,
            ExitReason.TRIPLE_FAULT: self._handle_triple_fault,
            ExitReason.INTERRUPT_WINDOW: self._handle_interrupt_window,
            ExitReason.CPUID: self._handle_cpuid,
            ExitReason.HLT: self._handle_hlt,
            ExitReason.RDTSC: self._handle_rdtsc,
            ExitReason.VMCALL: self._handle_vmcall,
            ExitReason.CR_ACCESS: self._handle_cr_access,
            ExitReason.IO_INSTRUCTION: self._handle_io,
            ExitReason.RDMSR: self._handle_rdmsr,
            ExitReason.WRMSR: self._handle_wrmsr,
            ExitReason.EPT_VIOLATION: self._handle_ept_violation,
            ExitReason.PREEMPTION_TIMER: self._handle_preemption_timer,
        }

    # -- plumbing -------------------------------------------------------------

    def _advance_rip(self) -> None:
        rip = self.vmcs.vmread(GUEST_RIP)
        length = self.vmcs.vmread(VM_EXIT_INSTRUCTION_LEN)
        self.vmcs.vmwrite(GUEST_RIP, rip + length)

    def _inject_fault(self, vector: int) -> None:
        # Emulated fault delivery: redirect the guest to its vector stub.
        self.vmcs.vmwrite(GUEST_RIP, FAULT_VECTOR_BASE + vector * 16)

    def handle_exit(self) -> DispatchResult:
        hit = self.cov.hit
        hit(B_DISPATCH_ENTRY)
        reason = self.vmcs.vmread(EXIT_REASON) & 0xFFFF
        handler = self._handlers.get(reason)
        if handler is None:
            hit(B_DISPATCH_UNKNOWN)
            crash = CrashInfo("HypCrash", f"unhandled exit reason {reason}")
            self.tsc += DISPATCH_COST
            return DispatchResult(ExitOutcome.HYP_CRASH, reason, DISPATCH_COST, crash)
        hit(B_DISPATCH_KNOWN)
        base = base_exit_cost(reason)
        try:
            fatal = handler()
        except HypervisorBug as exc:
            self.tsc += base
            crash = CrashInfo("HypCrash", str(exc))
            log.debug("hypervisor crash on reason %d: %s", reason, exc)
            return DispatchResult(ExitOutcome.HYP_CRASH, reason, base, crash)
        self.tsc += base
        if fatal is not None:
            crash = CrashInfo("VmCrash", fatal)
            return DispatchResult(ExitOutcome.VM_CRASH, reason, base, crash)
        violations = vm_entry_check(self.vmcs)
        if violations:
            crash = CrashInfo("VmCrash", violations[0].log)
            log.debug("entry check failed after reason %d: %s", reason, crash.detail)
            return DispatchResult(ExitOutcome.VM_CRASH, reason, base, crash)
        return DispatchResult(ExitOutcome.RESUME, reason, base)

    # -- handlers ---------------------------------------------------------------

    def _handle_external_interrupt(self) -> str | None:
        hit, vmcs = self.cov.hit, self.vmcs
        hit(B_EXTINT_ENTRY)
        info = vmcs.vmread(VM_EXIT_INTERRUPTION_INFO)
        hit(B_EXTINT_VALID if info & (1 << 31) else B_EXTINT_SPURIOUS)
        vector = info & 0xFF
        if vector < 0x20:
            hit(B_EXTINT_VEC_EXCEPTION)
        elif vector < 0x30:
            hit(B_EXTINT_VEC_PIC)
            if vector == 0x20:
                hit(B_EXTINT_VEC_TIMER)
        else:
            hit(B_EXTINT_VEC_HIGH)
        if self.gprs.read(GprId.RAX) >> 63:
            hit(B_EXTINT_RAX_TAGGED)
        if vmcs.vmread(GUEST_ACTIVITY_STATE):
            hit(B_EXTINT_WAKE)
            vmcs.vmwrite(GUEST_ACTIVITY_STATE, 0)
        else:
            hit(B_EXTINT_NO_WAKE)
        return None

    def _handle_triple_fault(self) -> str | None:
        self.cov.hit(B_TF_ENTRY)
        self.cov.hit(B_TF_LOG)
        return "triple fault: guest shutdown"

    def _handle_interrupt_window(self) -> str | None:
        hit, vmcs = self.cov.hit, self.vmcs
        hit(B_IW_ENTRY)
        rflags = vmcs.vmread(GUEST_RFLAGS)
        hit(B_IW_IF_OPEN if rflags & RFLAGS_IF else B_IW_IF_SHUT)
        rdx = self.gprs.read(GprId.RDX)
        if rdx >> 32:
            hit(B_IW_REQ_WIDE)
        if rdx == 0:
            hit(B_IW_MASK_REQ)
            vmcs.vmwrite(GUEST_RFLAGS, rflags & ~RFLAGS_IF)
        elif rdx == 1:
            hit(B_IW_OPEN_REQ)
            vmcs.vmwrite(GUEST_RFLAGS, rflags | RFLAGS_IF)
        else:
            hit(B_IW_BAD_REQ)
        proc = vmcs.vmread(PROC_BASED_CONTROLS)
        if proc & PROC_IW_EXITING:
            hit(B_IW_ARMED)
            vmcs.vmwrite(PROC_BASED_CONTROLS, proc & ~PROC_IW_EXITING)
        else:
            hit(B_IW_UNARMED)
        if vmcs.vmread(GUEST_ACTIVITY_STATE):
            hit(B_IW_WAKE)
            vmcs.vmwrite(GUEST_ACTIVITY_STATE, 0)
        return None

    def _handle_cpuid(self) -> str | None:
        hit, gprs = self.cov.hit, self.gprs
        hit(B_CPUID_ENTRY)
        leaf = gprs.read(GprId.RAX)
        subleaf = gprs.read(GprId.RCX)
        if leaf == 0:
            hit(B_CPUID_LEAF0)
            gprs.write(GprId.RAX, 7)
            gprs.write(GprId.RBX, 0x73697249)          # "Iris"
            gprs.write(GprId.RDX, 0x6F736956)          # "Viso"
            gprs.write(GprId.RCX, 0x20202072)          # "r   "
        elif leaf == 1:
            hit(B_CPUID_LEAF1)
            features = 1 << 31                          # hypervisor present
            if self.vmcs.vmread(GUEST_CR4) & (1 << 18):
                hit(B_CPUID_OSXSAVE_ON)
                features |= 1 << 27
            else:
                hit(B_CPUID_OSXSAVE_OFF)
            gprs.write(GprId.RAX, 0x000306A9)
            gprs.write(GprId.RBX, 0)
            gprs.write(GprId.RCX, features)
            gprs.write(GprId.RDX, 0)
        elif leaf == 7:
            hit(B_CPUID_LEAF7)
            if subleaf == 0:
                hit(B_CPUID_SUBLEAF0)
                gprs.write(GprId.RBX, 1 << 9)
            else:
                hit(B_CPUID_SUBLEAF_HIGH)
                gprs.write(GprId.RBX, 0)
            gprs.write(GprId.RAX, 0)
            gprs.write(GprId.RCX, 0)
            gprs.write(GprId.RDX, 0)
        elif 0x4000_0000 <= leaf <= 0x4000_FFFF:
            hit(B_CPUID_HV_LEAF)
            gprs.write(GprId.RAX, 0x4000_0001)
            gprs.write(GprId.RBX, 0x73697249)
            gprs.write(GprId.RCX, 0)
            gprs.write(GprId.RDX, 0)
        elif leaf >= 0x8000_0000:
            hit(B_CPUID_EXT_LEAF)
            gprs.write(GprId.RAX, 0x8000_0008)
            gprs.write(GprId.RBX, 0)
            gprs.write(GprId.RCX, 0)
            gprs.write(GprId.RDX, 0)
        else:
            hit(B_CPUID_UNKNOWN_LEAF)
            for reg in (GprId.RAX, GprId.RBX, GprId.RCX, GprId.RDX):
                gprs.write(reg, 0)
        self._advance_rip()
        return None

    def _handle_hlt(self) -> str | None:
        hit, vmcs = self.cov.hit, self.vmcs
        hit(B_HLT_ENTRY)
        hit(B_HLT_ALREADY_IDLE if vmcs.vmread(GUEST_ACTIVITY_STATE) else B_HLT_FROM_ACTIVE)
        hit(B_HLT_IF_OPEN if vmcs.vmread(GUEST_RFLAGS) & RFLAGS_IF else B_HLT_IF_SHUT)
        hit(B_HLT_MWAIT_HINT if self.gprs.read(GprId.RAX) else B_HLT_PLAIN)
        vmcs.vmwrite(GUEST_ACTIVITY_STATE, 1)
        hit(B_HLT_PARKED)
        if vmcs.vmread(PIN_BASED_CONTROLS) & PIN_EXTINT_EXITING:
            hit(B_HLT_WAKE_ARMED)
        self._advance_rip()
        return None

    def _handle_rdtsc(self) -> str | None:
        hit, gprs = self.cov.hit, self.gprs
        hit(B_RDTSC_ENTRY)
        offset = self.vmcs.vmread(TSC_OFFSET)
        hit(B_RDTSC_OFFSET_ZERO if offset == 0 else B_RDTSC_OFFSET_SET)
        value = (self.tsc + offset) & MASK64
        hit(B_RDTSC_ODD if value & 1 else B_RDTSC_EVEN)
        hit(B_RDTSC_NARROW if value < (1 << 32) else B_RDTSC_WIDE)
        hit(B_RDTSC_BACKWARDS if gprs.read(GprId.RCX) > value else B_RDTSC_MONOTONE)
        gprs.write(GprId.RAX, value & 0xFFFFFFFF)
        gprs.write(GprId.RDX, value >> 32)
        self._advance_rip()
        return None

    def _handle_vmcall(self) -> str | None:
        hit, gprs = self.cov.hit, self.gprs
        hit(B_VMCALL_ENTRY)
        index = gprs.read(GprId.RAX)
        hit(B_VMCALL_UNALIGNED if self.vmcs.vmread(GUEST_RSP) & 0xF else B_VMCALL_ALIGNED)
        if gprs.read(GprId.RBX) >> 48:
            hit(B_VMCALL_ARG_WIDE)
        if index < 8:
            hit(B_VMCALL_KNOWN)
            if index == 0:
                hit(B_VMCALL_PING)
                gprs.write(GprId.RAX, 0)
            elif index == 1:
                hit(B_VMCALL_GETTSC)
                gprs.write(GprId.RAX, self.tsc)
            elif index == 2:
                hit(B_VMCALL_LOG)
                gprs.write(GprId.RAX, 0)
            else:
                hit(B_VMCALL_RESERVED)
                gprs.write(GprId.RAX, MASK64)
        elif index < 16:
            hit(B_VMCALL_PRIVATE)
            hit(B_VMCALL_GP)
            self._inject_fault(VEC_GP)
            return None
        else:
            hit(B_VMCALL_OOB)
            raise HypervisorBug(f"vmcall index {index} out of table")
        self._advance_rip()
        return None

    def _handle_cr_access(self) -> str | None:
        hit, vmcs, gprs = self.cov.hit, self.vmcs, self.gprs
        hit(B_CR_ENTRY)
        qual = vmcs.vmread(EXIT_QUALIFICATION)
        cr = qual & 0xF
        access = (qual >> 4) & 0x3
        gidx = (qual >> 8) & 0xF
        if cr == 0:
            hit(B_CR_CR0)
        elif cr == 4:
            hit(B_CR_CR4)
        elif cr == 3:
            hit(B_CR_CR3)
        else:
            hit(B_CR_BAD_CR)
            self._inject_fault(VEC_UD)
            return None

        if access == 2:
            hit(B_CR_CLTS)
            cr0 = vmcs.vmread(GUEST_CR0)
            shadow = vmcs.vmread(CR0_READ_SHADOW)
            vmcs.vmwrite(GUEST_CR0, cr0 & ~CR0_TS)
            vmcs.vmwrite(CR0_READ_SHADOW, shadow & ~CR0_TS)
            self._advance_rip()
            return None
        if access == 3:
            hit(B_CR_LMSW)
            self._inject_fault(VEC_UD)
            return None

        if access == 1:
            hit(B_CR_MOV_FROM)
            if gidx >= GPR_COUNT:
                hit(B_CR_GIDX_OOB)
                raise HypervisorBug(f"cr access gpr index {gidx} out of range")
            if cr == 0:
                mask = vmcs.vmread(CR0_GUEST_HOST_MASK)
                value = (vmcs.vmread(GUEST_CR0) & ~mask) | (
                    vmcs.vmread(CR0_READ_SHADOW) & mask
                )
            elif cr == 4:
                value = vmcs.vmread(GUEST_CR4)
            else:
                value = vmcs.vmread(GUEST_CR3)
            gprs.write(gidx, value)
            self._advance_rip()
            return None

        hit(B_CR_MOV_TO)
        if gidx >= GPR_COUNT:
            hit(B_CR_GIDX_OOB)
            raise HypervisorBug(f"cr access gpr index {gidx} out of range")
        value = gprs.read(gidx)

        if cr == 3:
            hit(B_CR3_WRITE)
            vmcs.vmwrite(GUEST_CR3, value)
            self._advance_rip()
            return None
        if cr == 4:
            hit(B_CR4_WRITE)
            if value & (1 << 18):
                hit(B_CR4_OSXSAVE_ON)
            vmcs.vmwrite(CR4_READ_SHADOW, value)
            vmcs.vmwrite(GUEST_CR4, value)
            self._advance_rip()
            return None

        mask = vmcs.vmread(CR0_GUEST_HOST_MASK)
        shadow = vmcs.vmread(CR0_READ_SHADOW)
        cr0 = vmcs.vmread(GUEST_CR0)
        old_view = (cr0 & ~mask) | (shadow & mask)

        if value & ~CR0_KNOWN_BITS:
            hit(B_CR0_RESERVED)
            self._inject_fault(VEC_GP)
            return None
        if (value & CR0_PG) and not (value & CR0_PE):
            hit(B_CR0_PG_NO_PE)
            self._inject_fault(VEC_GP)
            return None
        if (value & CR0_NW) and not (value & CR0_CD):
            hit(B_CR0_NW_NO_CD)
            self._inject_fault(VEC_GP)
            return None

        if value & CR0_PE and not old_view & CR0_PE:
            hit(B_CR0_PE_SET)
        if old_view & CR0_PE and not value & CR0_PE:
            hit(B_CR0_PE_CLEAR)
        if value & CR0_PG and not old_view & CR0_PG:
            hit(B_CR0_PG_SET)
        if old_view & CR0_PG and not value & CR0_PG:
            hit(B_CR0_PG_CLEAR)
        old_mode = classify_cr0_mode(old_view)
        new_mode = classify_cr0_mode(value)
        hit(B_CR0_MODE_CHANGE if new_mode is not old_mode else B_CR0_MODE_SAME)

        # Trap-and-emulate commit: the shadow is what the guest reads back,
        # the guest field is synced to the full new value so the next entry
        # check sees the state the guest believes it is in.
        vmcs.vmwrite(CR0_READ_SHADOW, value)
        vmcs.vmwrite(GUEST_CR0, value)
        self._advance_rip()
        return None

    @staticmethod
    def _port_in_value(port: int, size_code: int) -> int:
        width = {0: 1, 1: 2, 3: 4}.get(size_code, 4)
        return ((port * 0x9E3779B9) >> 8) & ((1 << (8 * width)) - 1)

    def _handle_io(self) -> str | None:
        hit, vmcs, gprs = self.cov.hit, self.vmcs, self.gprs
        hit(B_IO_ENTRY)
        qual = vmcs.vmread(EXIT_QUALIFICATION)
        size_code = qual & 0x7
        direction_in = bool(qual & (1 << 3))
        is_string = bool(qual & (1 << 4))
        is_rep = bool(qual & (1 << 5))
        port = (qual >> 16) & 0xFFFF
        hit(B_IO_IN if direction_in else B_IO_OUT)
        if is_string:
            hit(B_IO_STRING)
            vmcs.vmread(GUEST_LINEAR_ADDRESS)
        rax = gprs.read(GprId.RAX)
        if port in (0x20, 0x21, 0xA0, 0xA1):
            hit(B_IO_PIC)
        elif port == PORT_PLATFORM:
            hit(B_IO_PLATFORM)
            if not direction_in and (rax & 0xFF) == GDT_LOAD_MAGIC:
                hit(B_IO_GDT_LOAD)
                vmcs.vmwrite(GUEST_GDTR_BASE, gprs.read(GprId.RBX))
                vmcs.vmwrite(GUEST_GDTR_LIMIT, gprs.read(GprId.RCX))
            else:
                hit(B_IO_A20)
        elif port in (0x60, 0x64):
            hit(B_IO_KBD)
        elif 0x3F8 <= port <= 0x3FF:
            hit(B_IO_SERIAL)
        elif port < 0x100:
            hit(B_IO_LEGACY_OTHER)
        else:
            hit(B_IO_HIGH_PORT)
        if size_code == 3:
            hit(B_IO_SIZE_DWORD)
        if direction_in:
            gprs.write(GprId.RAX, self._port_in_value(port, size_code))
        elif rax >> 32:
            hit(B_IO_RAX_WIDE)
        if is_rep:
            count = gprs.read(GprId.RCX)
            if count == 0:
                hit(B_IO_REP_DONE)
                self._advance_rip()
            else:
                hit(B_IO_REP_MORE)
                gprs.write(GprId.RCX, count - 1)
        else:
            self._advance_rip()
        return None

    def _handle_rdmsr(self) -> str | None:
        hit, gprs = self.cov.hit, self.gprs
        hit(B_RDMSR_ENTRY)
        msr = gprs.read(GprId.RCX)
        if msr >> 32:
            hit(B_RDMSR_RCX_WIDE)
            hit(B_RDMSR_GP)
            self._inject_fault(VEC_GP)
            return None
        if msr == 0x10:
            hit(B_RDMSR_TSC)
            offset = self.vmcs.vmread(TSC_OFFSET)
            hit(B_RDMSR_OFF_ZERO if offset == 0 else B_RDMSR_OFF_SET)
            value = (self.tsc + offset) & MASK64
        elif msr == 0x1B:
            hit(B_RDMSR_APIC)
            value = APIC_PAGE_BASE | (1 << 11)
        elif msr == 0xC000_0080:
            hit(B_RDMSR_EFER)
            value = 0
        elif 0x174 <= msr <= 0x176:
            hit(B_RDMSR_SYSENTER)
            value = 0
        elif msr == 0x277:
            hit(B_RDMSR_PAT)
            value = DEFAULT_PAT
        elif 0x4000_0000 <= msr <= 0x4000_00FF:
            hit(B_RDMSR_HYPERV)
            value = 0x7669736F
        else:
            hit(B_RDMSR_UNKNOWN)
            hit(B_RDMSR_GP)
            self._inject_fault(VEC_GP)
            return None
        gprs.write(GprId.RAX, value & 0xFFFFFFFF)
        gprs.write(GprId.RDX, value >> 32)
        self._advance_rip()
        return None

    def _handle_wrmsr(self) -> str | None:
        hit, gprs = self.cov.hit, self.gprs
        hit(B_WRMSR_ENTRY)
        msr = gprs.read(GprId.RCX)
        value = ((gprs.read(GprId.RDX) & 0xFFFFFFFF) << 32) | (
            gprs.read(GprId.RAX) & 0xFFFFFFFF
        )
        if msr >> 32:
            hit(B_WRMSR_RCX_WIDE)
            hit(B_WRMSR_GP)
            self._inject_fault(VEC_GP)
            return None
        if msr == 0x10:
            hit(B_WRMSR_TSC)
            hit(B_WRMSR_TSC_FWD if value >= self.tsc else B_WRMSR_TSC_BACK)
            self.vmcs.vmwrite(TSC_OFFSET, value - self.tsc)
        elif msr == 0x1B:
            hit(B_WRMSR_APIC)
            hit(B_WRMSR_APIC_ENABLE if value & (1 << 11) else B_WRMSR_APIC_DISABLE)
        elif msr == 0xC000_0080:
            hit(B_WRMSR_EFER)
            if value & (1 << 8):
                hit(B_WRMSR_EFER_LME)
                hit(B_WRMSR_GP)
                self._inject_fault(VEC_GP)
                return None
        elif 0x174 <= msr <= 0x176:
            hit(B_WRMSR_SYSENTER)
        else:
            hit(B_WRMSR_UNKNOWN)
            hit(B_WRMSR_GP)
            self._inject_fault(VEC_GP)
            return None
        self._advance_rip()
        return None

    def _handle_ept_violation(self) -> str | None:
        hit, vmcs = self.cov.hit, self.vmcs
        hit(B_EPT_ENTRY)
        qual = vmcs.vmread(EXIT_QUALIFICATION)
        if (qual & 0x2) and (qual & 0x4):
            hit(B_EPT_EXEC_W_COMBO)
        if qual & 0x1:
            hit(B_EPT_READ)
        elif qual & 0x2:
            hit(B_EPT_WRITE)
        elif qual & 0x4:
            hit(B_EPT_EXEC)
        else:
            hit(B_EPT_NO_ACCESS)
        if qual & (1 << 7):
            hit(B_EPT_GLA_VALID)
            vmcs.vmread(GUEST_LINEAR_ADDRESS)
        else:
            hit(B_EPT_GLA_NONE)
        gpa = vmcs.vmread(GUEST_PHYSICAL_ADDRESS)
        if gpa < 0xA0000:
            hit(B_EPT_LOW_RAM)
        elif gpa < 0x100000:
            hit(B_EPT_MMIO_LEGACY)
        elif gpa < RAM_TOP:
            hit(B_EPT_RAM)
            if (gpa & 0xFFF) >= 0xFF8:
                hit(B_EPT_PAGE_TAIL)
        elif APIC_PAGE_BASE <= gpa < APIC_PAGE_BASE + 0x1000:
            hit(B_EPT_APIC_PAGE)
        elif MMIO_HIGH_BASE <= gpa < APIC_PAGE_BASE:
            hit(B_EPT_MMIO_HIGH)
        else:
            hit(B_EPT_UNMAPPED)
            return f"ept violation at unmapped gpa {gpa:#x}"
        if self.gprs.read(GprId.RSI) >> 48:
            hit(B_EPT_RSI_WIDE)
        self._advance_rip()
        return None

    def _handle_preemption_timer(self) -> str | None:
        hit, vmcs = self.cov.hit, self.vmcs
        hit(B_TIMER_ENTRY)
        hit(B_TIMER_ZERO if vmcs.vmread(VMX_PREEMPTION_TIMER_VALUE) == 0 else B_TIMER_LATE)
        vmcs.vmwrite(VMX_PREEMPTION_TIMER_VALUE, 0)
        hit(B_TIMER_REARM)
        return None
