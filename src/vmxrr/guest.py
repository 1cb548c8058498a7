"""Synthetic guest workloads: exit scripts, boot prologue, and raising exits.

A workload is a deterministic list of exit descriptions generated from a
profile and an RNG seed. The guest "runs" by raising each described exit:
registers and exit-info fields are set, the hypervisor handles the exit, and
any post-exit guest state change (a far jump the handler never sees) is
applied directly to the VMCS afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rng import SplitMix64
from .vmx import (
    CR0_ET,
    CR0_PE,
    CR0_PG,
    EXIT_QUALIFICATION,
    EXIT_REASON,
    GUEST_ACTIVITY_STATE,
    GUEST_CR0,
    GUEST_CR3,
    GUEST_CR4,
    GUEST_CS_BASE,
    GUEST_CS_LIMIT,
    GUEST_CS_SELECTOR,
    GUEST_DS_LIMIT,
    GUEST_GDTR_BASE,
    GUEST_GDTR_LIMIT,
    GUEST_LINEAR_ADDRESS,
    GUEST_PHYSICAL_ADDRESS,
    GUEST_RFLAGS,
    GUEST_RIP,
    GUEST_RSP,
    GUEST_SS_LIMIT,
    CR0_GUEST_HOST_MASK,
    CR0_READ_SHADOW,
    HOST_CR0,
    HOST_CR3,
    HOST_RIP,
    HOST_RSP,
    PIN_BASED_CONTROLS,
    READ_ONLY_FIELDS,
    VM_EXIT_INSTRUCTION_LEN,
    VM_EXIT_INTERRUPTION_INFO,
    ExitReason,
    GprFile,
    GprId,
    Vmcs,
)

R = ExitReason


@dataclass(frozen=True)
class WorkloadProfile:
    name: str
    mix: tuple[tuple[ExitReason, float], ...]
    compute_range: tuple[int, int]
    boot: bool


PROFILES: dict[str, WorkloadProfile] = {
    "OsBoot": WorkloadProfile(
        "OsBoot",
        (
            (R.IO_INSTRUCTION, 0.45),
            (R.CR_ACCESS, 0.20),
            (R.CPUID, 0.10),
            (R.RDMSR, 0.05),
            (R.WRMSR, 0.05),
            (R.EPT_VIOLATION, 0.10),
            (R.EXTERNAL_INTERRUPT, 0.05),
        ),
        (50, 200),
        boot=True,
    ),
    "CpuBound": WorkloadProfile(
        "CpuBound",
        (
            (R.RDTSC, 0.80),
            (R.CPUID, 0.08),
            (R.EXTERNAL_INTERRUPT, 0.06),
            (R.INTERRUPT_WINDOW, 0.03),
            (R.VMCALL, 0.03),
        ),
        (500, 2000),
        boot=False,
    ),
    "MemBound": WorkloadProfile(
        "MemBound",
        (
            (R.RDTSC, 0.78),
            (R.EPT_VIOLATION, 0.10),
            (R.EXTERNAL_INTERRUPT, 0.06),
            (R.INTERRUPT_WINDOW, 0.03),
            (R.VMCALL, 0.03),
        ),
        (2000, 8000),
        boot=False,
    ),
    "IoBound": WorkloadProfile(
        "IoBound",
        (
            (R.RDTSC, 0.78),
            (R.IO_INSTRUCTION, 0.10),
            (R.EXTERNAL_INTERRUPT, 0.06),
            (R.INTERRUPT_WINDOW, 0.03),
            (R.VMCALL, 0.03),
        ),
        (1000, 4000),
        boot=False,
    ),
    "Idle": WorkloadProfile(
        "Idle",
        (
            (R.RDTSC, 0.80),
            (R.HLT, 0.10),
            (R.EXTERNAL_INTERRUPT, 0.07),
            (R.INTERRUPT_WINDOW, 0.03),
        ),
        (50_000, 200_000),
        boot=False,
    ),
}


def workload_profiles_csv() -> bytes:
    lines = ["profile,exit_reason,weight,compute_lo,compute_hi,boot"]
    for prof in PROFILES.values():
        lo, hi = prof.compute_range
        for reason, weight in prof.mix:
            lines.append(
                f"{prof.name},{reason.name},{weight},{lo},{hi},{int(prof.boot)}"
            )
    return ("\n".join(lines) + "\n").encode("utf-8")


# Reported instruction length for synchronous exits; asynchronous exits carry
# zero because there is no instruction to skip.
INSTR_LEN: dict[int, int] = {
    R.CPUID: 2,
    R.HLT: 1,
    R.RDTSC: 2,
    R.VMCALL: 3,
    R.CR_ACCESS: 3,
    R.IO_INSTRUCTION: 2,
    R.RDMSR: 2,
    R.WRMSR: 2,
    R.EPT_VIOLATION: 4,
}


@dataclass
class GuestOp:
    """One scripted VM exit: what the guest state looks like when it fires."""

    reason: ExitReason
    compute_cycles: int
    exit_fields: dict[int, int] = field(default_factory=dict)
    gpr_values: dict[int, int] = field(default_factory=dict)
    post_guest: dict[int, int] = field(default_factory=dict)


# Reset-vector state; the mask traps PE and PG so every mode change below
# goes through the CR0 exit handler.
BOOT_STATE: dict[int, int] = {
    GUEST_CR0: CR0_ET,
    GUEST_CR3: 0,
    GUEST_CR4: 0,
    GUEST_RIP: 0xFFF0,
    GUEST_RSP: 0x7C00,
    GUEST_RFLAGS: 0x202,
    GUEST_CS_SELECTOR: 0xF000,
    GUEST_CS_BASE: 0xF0000,
    GUEST_CS_LIMIT: 0xFFFF,
    GUEST_DS_LIMIT: 0xFFFF,
    GUEST_SS_LIMIT: 0xFFFF,
    GUEST_GDTR_BASE: 0,
    GUEST_GDTR_LIMIT: 0,
    GUEST_ACTIVITY_STATE: 0,
    CR0_GUEST_HOST_MASK: CR0_PE | CR0_PG,
    CR0_READ_SHADOW: 0,
    PIN_BASED_CONTROLS: 0x1,
    HOST_CR0: 0x8005_0033,
    HOST_CR3: 0x1000,
    HOST_RIP: 0xFFFF_FFFF_8100_0000,
    HOST_RSP: 0xFFFF_8800_0000_0000,
}

GDT_BASE = 0x500
GDT_LIMIT = 0x27
PROT_ENTRY_POINT = 0x0010_0000


def boot_prologue(rng: SplitMix64, compute_range: tuple[int, int]) -> list[GuestOp]:
    """Real mode to protected-paged mode in six exits.

    cli; mask the PIC; load a GDT through the platform port service; set
    CR0.PE; rewrite CR0 once more while the far jump to the 32-bit entry
    point lands; set CR0.PG.
    """
    lo, hi = compute_range

    def cycles() -> int:
        return rng.randint(lo, hi)

    return [
        GuestOp(R.INTERRUPT_WINDOW, cycles(), gpr_values={GprId.RDX: 0}),
        GuestOp(
            R.IO_INSTRUCTION,
            cycles(),
            exit_fields={EXIT_QUALIFICATION: 0x21 << 16},
            gpr_values={GprId.RAX: 0xFF},
        ),
        GuestOp(
            R.IO_INSTRUCTION,
            cycles(),
            exit_fields={EXIT_QUALIFICATION: 0x92 << 16},
            gpr_values={GprId.RAX: 0xD7, GprId.RBX: GDT_BASE, GprId.RCX: GDT_LIMIT},
        ),
        GuestOp(
            R.CR_ACCESS,
            cycles(),
            exit_fields={EXIT_QUALIFICATION: GprId.R8 << 8},
            gpr_values={GprId.R8: CR0_PE},
        ),
        GuestOp(
            R.CR_ACCESS,
            cycles(),
            exit_fields={EXIT_QUALIFICATION: GprId.R8 << 8},
            gpr_values={GprId.R8: CR0_PE},
            post_guest={GUEST_CS_SELECTOR: 0x10, GUEST_RIP: PROT_ENTRY_POINT},
        ),
        GuestOp(
            R.CR_ACCESS,
            cycles(),
            exit_fields={EXIT_QUALIFICATION: GprId.R8 << 8},
            gpr_values={GprId.R8: CR0_PE | CR0_PG},
        ),
    ]


class GuestProgram:
    """Deterministic exit script for one profile, seed, and length."""

    def __init__(self, profile: WorkloadProfile, seed: int, n_exits: int) -> None:
        self.profile = profile
        rng = SplitMix64(seed)
        ops: list[GuestOp] = []
        if profile.boot:
            ops.extend(boot_prologue(rng, profile.compute_range))
        self._cr0_view = CR0_PE | CR0_PG    # after the boot prologue or auto_boot
        while len(ops) < n_exits:
            reason = rng.weighted(profile.mix)
            ops.append(self._synth(reason, rng))
        _order_wakeups(ops)
        self.ops = ops[:n_exits]

    def _synth(self, reason: ExitReason, rng: SplitMix64) -> GuestOp:
        lo, hi = self.profile.compute_range
        op = GuestOp(reason, rng.randint(lo, hi))
        fields = op.exit_fields
        gprs = op.gpr_values
        if reason is R.RDTSC:
            gprs[GprId.RCX] = 0
        elif reason is R.CPUID:
            gprs[GprId.RAX] = rng.weighted(
                [(0, 0.10), (1, 0.50), (7, 0.15), (0x4000_0000, 0.10),
                 (0x8000_0000, 0.10), (0x2F, 0.05)]
            )
            gprs[GprId.RCX] = rng.weighted([(0, 0.8), (1, 0.2)])
        elif reason is R.EXTERNAL_INTERRUPT:
            vector = rng.weighted(
                [(0x20, 0.30), (0x21, 0.25), (0x28 + rng.below(8), 0.30),
                 (0x0E, 0.05), (0x72, 0.10)]
            )
            fields[VM_EXIT_INTERRUPTION_INFO] = (1 << 31) | vector
        elif reason is R.INTERRUPT_WINDOW:
            gprs[GprId.RDX] = rng.below(2)
        elif reason is R.HLT:
            gprs[GprId.RAX] = 0
        elif reason is R.VMCALL:
            gprs[GprId.RAX] = rng.weighted(
                [(0, 0.30), (1, 0.30), (2, 0.25), (3 + rng.below(5), 0.15)]
            )
            gprs[GprId.RBX] = rng.below(1 << 16)
        elif reason is R.CR_ACCESS:
            self._synth_cr(rng, fields, gprs)
        elif reason is R.IO_INSTRUCTION:
            self._synth_io(rng, fields, gprs)
        elif reason is R.RDMSR:
            gprs[GprId.RCX] = rng.weighted(
                [(0x10, 0.25), (0x1B, 0.15), (0xC000_0080, 0.15), (0x174, 0.10),
                 (0x277, 0.10), (0x4000_0001, 0.10), (0x3A, 0.15)]
            )
        elif reason is R.WRMSR:
            msr = rng.weighted(
                [(0x10, 0.30), (0x1B, 0.25), (0xC000_0080, 0.15), (0x174, 0.15),
                 (0x999, 0.15)]
            )
            gprs[GprId.RCX] = msr
            if msr == 0xC000_0080:
                gprs[GprId.RAX] = rng.below(0x100)     # never LME
                gprs[GprId.RDX] = 0
            else:
                gprs[GprId.RAX] = rng.below(1 << 30)
                gprs[GprId.RDX] = 0 if rng.chance(0.7) else rng.below(1 << 16)
        elif reason is R.EPT_VIOLATION:
            self._synth_ept(rng, fields, gprs)
        else:
            raise ValueError(f"no synthesis for exit reason {reason.name}")
        return op

    def _synth_cr(self, rng: SplitMix64, fields: dict, gprs: dict) -> None:
        kind = rng.weighted(
            [("to_cr0", 0.35), ("from_cr0", 0.15), ("clts", 0.10),
             ("to_cr4", 0.15), ("from_cr4", 0.05), ("to_cr3", 0.15),
             ("from_cr3", 0.05)]
        )
        reg = rng.choice((GprId.R8, GprId.R9, GprId.R10, GprId.RBX))
        if kind == "clts":
            fields[EXIT_QUALIFICATION] = 2 << 4
            return
        cr = {"cr0": 0, "cr3": 3, "cr4": 4}[kind[-3:]]
        access = 0 if kind.startswith("to") else 1
        fields[EXIT_QUALIFICATION] = cr | (access << 4) | (reg << 8)
        if access == 1:
            return
        if cr == 0:
            # Toggle only bits that never change the execution mode, so the
            # whole mode trajectory stays owned by the boot prologue.
            self._cr0_view ^= rng.choice((1 << 1, 1 << 5, 1 << 16))   # MP, NE, WP
            gprs[reg] = self._cr0_view
        elif cr == 4:
            gprs[reg] = rng.weighted([(0, 0.4), (1 << 18, 0.4), (1 << 9, 0.2)])
        else:
            gprs[reg] = rng.below(1 << 32) & ~0xFFF

    @staticmethod
    def _synth_io(rng: SplitMix64, fields: dict, gprs: dict) -> None:
        kind = rng.weighted(
            [("serial_out", 0.30), ("pic_out", 0.10), ("kbd_in", 0.10),
             ("disk_out", 0.15), ("disk_in", 0.10), ("serial_rep", 0.15),
             ("cmos_out", 0.05), ("a20_out", 0.05)]
        )
        port, size, direction_in, string, rep = {
            "serial_out": (0x3F8, 0, False, False, False),
            "pic_out": (0x21, 0, False, False, False),
            "kbd_in": (0x64, 0, True, False, False),
            "disk_out": (0x1F0, 3, False, False, False),
            "disk_in": (0x1F0, 3, True, False, False),
            "serial_rep": (0x3F8, 0, False, True, True),
            "cmos_out": (0x70, 0, False, False, False),
            "a20_out": (0x92, 0, False, False, False),
        }[kind]
        qual = size | (direction_in << 3) | (string << 4) | (rep << 5) | (port << 16)
        fields[EXIT_QUALIFICATION] = qual
        if kind == "serial_out":
            gprs[GprId.RAX] = 0x20 + rng.below(0x5F)
        elif kind == "pic_out":
            gprs[GprId.RAX] = rng.below(0x100)
        elif kind == "disk_out":
            gprs[GprId.RAX] = rng.below(1 << 32)
        elif kind == "serial_rep":
            gprs[GprId.RAX] = 0x20 + rng.below(0x5F)
            gprs[GprId.RCX] = 1 + rng.below(4)
            fields[GUEST_LINEAR_ADDRESS] = 0x7000 + rng.below(0x1000)
        elif kind == "cmos_out":
            gprs[GprId.RAX] = rng.below(0x100)
        elif kind == "a20_out":
            gprs[GprId.RAX] = 0x02

    @staticmethod
    def _synth_ept(rng: SplitMix64, fields: dict, gprs: dict) -> None:
        access = rng.weighted([(0x1, 0.4), (0x2, 0.4), (0x4, 0.2)])
        qual = access
        if rng.chance(0.5):
            qual |= 1 << 7
            fields[GUEST_LINEAR_ADDRESS] = 0xC000_0000 | rng.below(1 << 20)
        gpa_kind = rng.weighted(
            [("ram", 0.50), ("low", 0.10), ("legacy", 0.15), ("apic", 0.15),
             ("mmio", 0.10)]
        )
        if gpa_kind == "ram":
            gpa = 0x20_0000 + rng.below(0x0800_0000 - 0x20_0000)
        elif gpa_kind == "low":
            gpa = rng.below(0xA0000)
        elif gpa_kind == "legacy":
            gpa = 0xA0000 + rng.below(0x60000)
        elif gpa_kind == "apic":
            gpa = 0xFEE0_0000 + rng.below(0x200) * 8
        else:
            gpa = 0xFEC0_0000 + rng.below(0x1000)
        fields[EXIT_QUALIFICATION] = qual
        fields[GUEST_PHYSICAL_ADDRESS] = gpa
        gprs[GprId.RSI] = rng.below(1 << 32)

    def __iter__(self):
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self.ops)


def _order_wakeups(ops: list[GuestOp]) -> None:
    """Best effort: follow each HLT with an external interrupt so the guest
    wakes before its next synchronous exit. Swaps only, the reason multiset
    is untouched."""
    for i, op in enumerate(ops):
        if op.reason is not R.HLT or i + 1 >= len(ops):
            continue
        if ops[i + 1].reason is R.EXTERNAL_INTERRUPT:
            continue
        for j in range(i + 2, len(ops)):
            if ops[j].reason is R.EXTERNAL_INTERRUPT:
                ops[i + 1], ops[j] = ops[j], ops[i + 1]
                break


def power_on(vmcs: Vmcs) -> None:
    vmcs.vmclear()
    for enc, value in BOOT_STATE.items():
        vmcs.hw_set(enc, value)
    vmcs.vmlaunch()


def raise_exit(vmcs: Vmcs, gprs: GprFile, op: GuestOp) -> None:
    for enc in READ_ONLY_FIELDS:
        vmcs.hw_set(enc, 0)
    vmcs.hw_set(EXIT_REASON, op.reason)
    vmcs.hw_set(VM_EXIT_INSTRUCTION_LEN, INSTR_LEN.get(op.reason, 0))
    for enc, value in op.exit_fields.items():
        vmcs.hw_set(enc, value)
    for gpr, value in op.gpr_values.items():
        gprs.write(gpr, value)


def apply_post(vmcs: Vmcs, op: GuestOp) -> None:
    for enc, value in op.post_guest.items():
        vmcs.hw_set(enc, value)
