"""Exit dispatch, handler contracts, coverage blocks, and the cost model."""

import pytest

from vmxrr.guest import GuestOp, GuestVm
from vmxrr.hypervisor import (
    ASYNC_BLOCKS,
    BLOCK_COUNT,
    BLOCK_LABELS,
    COVERAGE_BYTES,
    DISPATCH_COST,
    FAULT_VECTOR_BASE,
    HANDLER_COST,
    OTHER_HANDLER_COST,
    VEC_GP,
    VEC_UD,
    CoverageBitmap,
    ExitOutcome,
    Hypervisor,
    base_exit_cost,
    coverage_blocks_csv,
    recording_overhead,
)
from vmxrr.vmx import (
    CR0_ET,
    CR0_PE,
    CR0_PG,
    CR0_READ_SHADOW,
    CR0_TS,
    EXIT_QUALIFICATION,
    EXIT_REASON,
    GUEST_ACTIVITY_STATE,
    GUEST_CR0,
    GUEST_GDTR_BASE,
    GUEST_GDTR_LIMIT,
    GUEST_PHYSICAL_ADDRESS,
    GUEST_RIP,
    MASK64,
    TSC_OFFSET,
    VMX_PREEMPTION_TIMER_VALUE,
    VM_EXIT_INTERRUPTION_INFO,
    CpuMode,
    ExitReason,
    GprId,
    classify_cr0_mode,
    guest_cr0_view,
)

R = ExitReason

GP_STUB = FAULT_VECTOR_BASE + VEC_GP * 16
UD_STUB = FAULT_VECTOR_BASE + VEC_UD * 16


def _fresh():
    vm = GuestVm()
    vm.power_on()
    return vm, Hypervisor(vm.vmcs, vm.gprs)


def _drive(vm, hyp, op):
    vm.raise_exit(op)
    hyp.cov.begin_frame()
    result = hyp.handle_exit()
    hyp.cov.end_frame()
    if result.outcome is ExitOutcome.RESUME:
        vm.apply_post(op)
    return result


def _cr0_write_op(value, post_guest=None):
    return GuestOp(
        R.CR_ACCESS,
        0,
        exit_fields={EXIT_QUALIFICATION: GprId.R8 << 8},
        gpr_values={GprId.R8: value},
        post_guest=post_guest or {},
    )


def _to_protected(vm, hyp):
    result = _drive(vm, hyp, _cr0_write_op(CR0_PE | CR0_PG))
    assert result.outcome is ExitOutcome.RESUME


def _blocks_of(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _labels(mask):
    return {BLOCK_LABELS[i] for i in _blocks_of(mask)}


# ---------------------------------------------------------------------------
# Block registry and coverage bitmap
# ---------------------------------------------------------------------------

def test_block_registry_shape():
    assert BLOCK_COUNT == 151
    assert COVERAGE_BYTES == 19
    assert len(BLOCK_LABELS) == BLOCK_COUNT
    assert len(set(BLOCK_LABELS)) == BLOCK_COUNT
    assert {BLOCK_LABELS[b] for b in ASYNC_BLOCKS} == {
        "async.pic_line_raise",
        "async.lapic_timer_fire",
    }


def test_coverage_blocks_csv_shape():
    lines = coverage_blocks_csv().decode("utf-8").splitlines()
    assert lines[0] == "block_id,label"
    assert len(lines) == 1 + BLOCK_COUNT
    assert lines[1] == "0,dispatch.entry"
    assert lines[-1] == f"{BLOCK_COUNT - 1},async.lapic_timer_fire"


def test_coverage_bitmap_frame_and_union():
    cov = CoverageBitmap()
    cov.hit(0)
    cov.hit(5)
    assert cov.end_frame() == 0b100001
    assert cov.union_mask == 0b100001
    cov.begin_frame()
    cov.hit(1)
    assert cov.frame_mask == 0b10
    assert cov.end_frame() == 0b10
    assert cov.union_mask == 0b100011
    assert BLOCK_COUNT <= 8 * COVERAGE_BYTES     # every mask fits the trace bitmap


def test_blocks_of_lists_the_set_bits():
    mask = (1 << 150) | (1 << 7) | 1
    assert _blocks_of(mask) == [0, 7, 150]
    assert _blocks_of(0) == []


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------

def test_cost_table():
    assert DISPATCH_COST == 2000
    assert base_exit_cost(R.RDTSC) == 3500
    assert base_exit_cost(R.CR_ACCESS) == 8000
    assert base_exit_cost(R.IO_INSTRUCTION) == 10000
    assert base_exit_cost(R.CPUID) == DISPATCH_COST + OTHER_HANDLER_COST


def test_recording_overhead_band():
    bases = {DISPATCH_COST + c for c in HANDLER_COST.values()}
    bases.add(DISPATCH_COST + OTHER_HANDLER_COST)
    for base in bases:
        overhead = recording_overhead(base)
        assert overhead == base * 11 // 1000
        pct = 100.0 * overhead / base
        assert 1.02 <= pct <= 1.25, base


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def test_unknown_reason_is_a_hypervisor_crash():
    vm, hyp = _fresh()
    vm.vmcs.hw_set(EXIT_REASON, 33)
    result = hyp.handle_exit()
    assert result.outcome is ExitOutcome.HYP_CRASH
    assert result.crash.kind == "HypCrash"
    assert result.crash.detail == "unhandled exit reason 33"
    assert result.base_cost == DISPATCH_COST
    assert "dispatch.unknown_reason" in _labels(hyp.cov.frame_mask)


def test_exit_reason_is_truncated_to_16_bits():
    vm, hyp = _fresh()
    vm.raise_exit(GuestOp(R.RDTSC, 0, gpr_values={GprId.RCX: 0}))
    vm.vmcs.hw_set(EXIT_REASON, (1 << 16) | int(R.RDTSC))
    result = hyp.handle_exit()
    assert result.reason == R.RDTSC
    assert result.outcome is ExitOutcome.RESUME


def test_tsc_advances_by_base_cost_only():
    vm, hyp = _fresh()
    _drive(vm, hyp, GuestOp(R.RDTSC, 12345, gpr_values={GprId.RCX: 0}))
    _drive(vm, hyp, GuestOp(R.CPUID, 999, gpr_values={GprId.RAX: 0, GprId.RCX: 0}))
    assert hyp.tsc == base_exit_cost(R.RDTSC) + base_exit_cost(R.CPUID)


def test_coverage_is_deterministic():
    ops = [
        GuestOp(R.RDTSC, 0, gpr_values={GprId.RCX: 0}),
        GuestOp(R.CPUID, 0, gpr_values={GprId.RAX: 1, GprId.RCX: 0}),
        GuestOp(R.HLT, 0, gpr_values={GprId.RAX: 0}),
    ]
    masks = []
    for _ in range(2):
        vm, hyp = _fresh()
        for op in ops:
            _drive(vm, hyp, op)
        masks.append(hyp.cov.union_mask)
    assert masks[0] == masks[1]


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

def test_rdtsc_returns_the_virtual_tsc():
    vm, hyp = _fresh()
    hyp.tsc = 0x1_2345_6789
    rip = vm.vmcs.hw_get(GUEST_RIP)
    result = _drive(vm, hyp, GuestOp(R.RDTSC, 0, gpr_values={GprId.RCX: 0}))
    assert result.outcome is ExitOutcome.RESUME
    assert result.base_cost == 3500
    assert vm.gprs.read(GprId.RAX) == 0x2345_6789
    assert vm.gprs.read(GprId.RDX) == 0x1
    assert vm.vmcs.hw_get(GUEST_RIP) == rip + 2
    assert hyp.tsc == 0x1_2345_6789 + 3500
    labels = _labels(hyp.cov.union_mask)
    assert "rdtsc.offset_zero" in labels
    assert "rdtsc.monotone" in labels


def test_rdtsc_applies_the_tsc_offset():
    vm, hyp = _fresh()
    hyp.tsc = 100
    vm.vmcs.hw_set(TSC_OFFSET, 1000)
    _drive(vm, hyp, GuestOp(R.RDTSC, 0, gpr_values={GprId.RCX: 0}))
    assert vm.gprs.read(GprId.RAX) == 1100
    assert "rdtsc.offset_set" in _labels(hyp.cov.union_mask)


def test_hlt_parks_and_an_interrupt_wakes():
    vm, hyp = _fresh()
    rip = vm.vmcs.hw_get(GUEST_RIP)
    _drive(vm, hyp, GuestOp(R.HLT, 0, gpr_values={GprId.RAX: 0}))
    assert vm.vmcs.hw_get(GUEST_ACTIVITY_STATE) == 1
    assert vm.vmcs.hw_get(GUEST_RIP) == rip + 1
    _drive(vm, hyp, GuestOp(
        R.EXTERNAL_INTERRUPT, 0,
        exit_fields={VM_EXIT_INTERRUPTION_INFO: (1 << 31) | 0x21},
    ))
    assert vm.vmcs.hw_get(GUEST_ACTIVITY_STATE) == 0
    assert "extint.wake_guest" in _labels(hyp.cov.union_mask)


def test_cpuid_vendor_leaf():
    vm, hyp = _fresh()
    _drive(vm, hyp, GuestOp(R.CPUID, 0, gpr_values={GprId.RAX: 0, GprId.RCX: 0}))
    vendor = b"".join(
        vm.gprs.read(r).to_bytes(4, "little")
        for r in (GprId.RBX, GprId.RDX, GprId.RCX)
    )
    assert vendor == b"IrisVisor   "


def test_cpuid_leaf1_reports_a_hypervisor():
    vm, hyp = _fresh()
    _drive(vm, hyp, GuestOp(R.CPUID, 0, gpr_values={GprId.RAX: 1, GprId.RCX: 0}))
    assert vm.gprs.read(GprId.RCX) & (1 << 31)


def test_vmcall_get_tsc():
    vm, hyp = _fresh()
    hyp.tsc = 777
    _drive(vm, hyp, GuestOp(R.VMCALL, 0, gpr_values={GprId.RAX: 1}))
    assert vm.gprs.read(GprId.RAX) == 777


def test_vmcall_private_range_injects_gp():
    vm, hyp = _fresh()
    result = _drive(vm, hyp, GuestOp(R.VMCALL, 0, gpr_values={GprId.RAX: 9}))
    assert result.outcome is ExitOutcome.RESUME
    assert vm.vmcs.hw_get(GUEST_RIP) == GP_STUB


def test_vmcall_out_of_table_is_a_hypervisor_crash():
    vm, hyp = _fresh()
    result = _drive(vm, hyp, GuestOp(R.VMCALL, 0, gpr_values={GprId.RAX: 16}))
    assert result.outcome is ExitOutcome.HYP_CRASH
    assert result.crash.detail == "vmcall index 16 out of table"


def test_cr0_write_commits_shadow_and_guest_field():
    vm, hyp = _fresh()
    _to_protected(vm, hyp)
    assert vm.vmcs.hw_get(GUEST_CR0) == CR0_PE | CR0_PG
    assert vm.vmcs.hw_get(CR0_READ_SHADOW) == CR0_PE | CR0_PG
    assert classify_cr0_mode(guest_cr0_view(vm.vmcs)) is CpuMode.MODE3
    labels = _labels(hyp.cov.union_mask)
    assert "cr.cr0_pe_set" in labels
    assert "cr.cr0_pg_set" in labels
    assert "cr.cr0_mode_change" in labels


def test_cr0_guards_reject_bad_values():
    vm, hyp = _fresh()
    before = vm.vmcs.hw_get(GUEST_CR0)
    result = _drive(vm, hyp, _cr0_write_op(CR0_PG))   # PG without PE
    assert result.outcome is ExitOutcome.RESUME
    assert vm.vmcs.hw_get(GUEST_RIP) == GP_STUB
    assert vm.vmcs.hw_get(GUEST_CR0) == before        # nothing committed
    assert "cr.cr0_pg_without_pe" in _labels(hyp.cov.union_mask)


def test_cr0_reserved_bits_inject_gp():
    vm, hyp = _fresh()
    result = _drive(vm, hyp, _cr0_write_op(CR0_PE | (1 << 12)))
    assert result.outcome is ExitOutcome.RESUME
    assert vm.vmcs.hw_get(GUEST_RIP) == GP_STUB
    assert "cr.cr0_reserved_bits" in _labels(hyp.cov.union_mask)


def test_cr_mov_from_reads_the_masked_view():
    vm, hyp = _fresh()
    # GUEST_CR0 holds ET; PE and PG are masked and read from the zero shadow.
    op = GuestOp(
        R.CR_ACCESS, 0,
        exit_fields={EXIT_QUALIFICATION: (GprId.RDI << 8) | (1 << 4)},
    )
    _drive(vm, hyp, op)
    assert vm.gprs.read(GprId.RDI) == CR0_ET


def test_clts_clears_task_switched():
    vm, hyp = _fresh()
    vm.vmcs.hw_set(GUEST_CR0, CR0_ET | CR0_TS)
    vm.vmcs.hw_set(CR0_READ_SHADOW, CR0_TS)
    _drive(vm, hyp, GuestOp(R.CR_ACCESS, 0, exit_fields={EXIT_QUALIFICATION: 2 << 4}))
    assert not vm.vmcs.hw_get(GUEST_CR0) & CR0_TS
    assert not vm.vmcs.hw_get(CR0_READ_SHADOW) & CR0_TS


def test_cr_gpr_index_out_of_range_is_a_hypervisor_crash():
    vm, hyp = _fresh()
    op = GuestOp(R.CR_ACCESS, 0, exit_fields={EXIT_QUALIFICATION: 15 << 8})
    result = _drive(vm, hyp, op)
    assert result.outcome is ExitOutcome.HYP_CRASH
    assert result.crash.detail == "cr access gpr index 15 out of range"
    assert "cr.gpr_index_out_of_range" in _labels(hyp.cov.union_mask)


def test_unhandled_control_register_injects_ud():
    vm, hyp = _fresh()
    result = _drive(vm, hyp, GuestOp(R.CR_ACCESS, 0, exit_fields={EXIT_QUALIFICATION: 5}))
    assert result.outcome is ExitOutcome.RESUME
    assert vm.vmcs.hw_get(GUEST_RIP) == UD_STUB


def test_lmsw_injects_ud():
    vm, hyp = _fresh()
    _drive(vm, hyp, GuestOp(R.CR_ACCESS, 0, exit_fields={EXIT_QUALIFICATION: 3 << 4}))
    assert vm.vmcs.hw_get(GUEST_RIP) == UD_STUB


def test_mode_drop_with_wide_rip_fails_the_entry_check():
    # Leaving protected mode while RIP sits above 1 MiB is the canonical
    # way a replay without its snapshot dies.
    vm, hyp = _fresh()
    _to_protected(vm, hyp)
    _drive(vm, hyp, _cr0_write_op(
        CR0_PE | CR0_PG,
        post_guest={GUEST_RIP: 0x0010_0000},
    ))
    result = _drive(vm, hyp, _cr0_write_op(CR0_ET))
    assert result.outcome is ExitOutcome.VM_CRASH
    assert result.crash.detail == "bad RIP for mode 0"


def test_io_gdt_load_through_the_platform_port():
    vm, hyp = _fresh()
    op = GuestOp(
        R.IO_INSTRUCTION, 0,
        exit_fields={EXIT_QUALIFICATION: 0x92 << 16},
        gpr_values={GprId.RAX: 0xD7, GprId.RBX: 0x500, GprId.RCX: 0x27},
    )
    _drive(vm, hyp, op)
    assert vm.vmcs.hw_get(GUEST_GDTR_BASE) == 0x500
    assert vm.vmcs.hw_get(GUEST_GDTR_LIMIT) == 0x27
    assert "io.platform_gdt_load" in _labels(hyp.cov.union_mask)


def test_io_in_value_is_deterministic():
    values = []
    for _ in range(2):
        vm, hyp = _fresh()
        op = GuestOp(
            R.IO_INSTRUCTION, 0,
            exit_fields={EXIT_QUALIFICATION: (0x3F8 << 16) | (1 << 3) | 3},
        )
        _drive(vm, hyp, op)
        values.append(vm.gprs.read(GprId.RAX))
    assert values[0] == values[1]
    assert values[0] == Hypervisor._port_in_value(0x3F8, 3)
    assert values[0] < (1 << 32)


def test_io_rep_holds_rip_until_the_count_drains():
    vm, hyp = _fresh()
    rip = vm.vmcs.hw_get(GUEST_RIP)
    qual = (0x60 << 16) | (1 << 5)
    _drive(vm, hyp, GuestOp(R.IO_INSTRUCTION, 0,
                            exit_fields={EXIT_QUALIFICATION: qual},
                            gpr_values={GprId.RCX: 2}))
    assert vm.gprs.read(GprId.RCX) == 1
    assert vm.vmcs.hw_get(GUEST_RIP) == rip
    _drive(vm, hyp, GuestOp(R.IO_INSTRUCTION, 0,
                            exit_fields={EXIT_QUALIFICATION: qual}))
    assert vm.gprs.read(GprId.RCX) == 0
    assert vm.vmcs.hw_get(GUEST_RIP) == rip
    _drive(vm, hyp, GuestOp(R.IO_INSTRUCTION, 0,
                            exit_fields={EXIT_QUALIFICATION: qual}))
    assert vm.vmcs.hw_get(GUEST_RIP) == rip + 2
    assert "io.rep_done" in _labels(hyp.cov.union_mask)


def test_rdmsr_tsc_splits_across_rax_rdx():
    vm, hyp = _fresh()
    hyp.tsc = (3 << 32) | 9
    _drive(vm, hyp, GuestOp(R.RDMSR, 0, gpr_values={GprId.RCX: 0x10}))
    assert vm.gprs.read(GprId.RAX) == 9
    assert vm.gprs.read(GprId.RDX) == 3


def test_rdmsr_unknown_injects_gp():
    vm, hyp = _fresh()
    result = _drive(vm, hyp, GuestOp(R.RDMSR, 0, gpr_values={GprId.RCX: 0x1234}))
    assert result.outcome is ExitOutcome.RESUME
    assert vm.vmcs.hw_get(GUEST_RIP) == GP_STUB


def test_wrmsr_tsc_sets_the_offset():
    vm, hyp = _fresh()
    hyp.tsc = 5000
    _drive(vm, hyp, GuestOp(R.WRMSR, 0, gpr_values={
        GprId.RCX: 0x10, GprId.RAX: 100, GprId.RDX: 0,
    }))
    assert vm.vmcs.hw_get(TSC_OFFSET) == (100 - 5000) & MASK64
    assert "wrmsr.tsc_backward" in _labels(hyp.cov.union_mask)


def test_wrmsr_rejects_long_mode_enable():
    vm, hyp = _fresh()
    _drive(vm, hyp, GuestOp(R.WRMSR, 0, gpr_values={
        GprId.RCX: 0xC000_0080, GprId.RAX: 1 << 8, GprId.RDX: 0,
    }))
    assert vm.vmcs.hw_get(GUEST_RIP) == GP_STUB


def test_ept_ram_access_resumes():
    vm, hyp = _fresh()
    rip = vm.vmcs.hw_get(GUEST_RIP)
    op = GuestOp(R.EPT_VIOLATION, 0, exit_fields={
        EXIT_QUALIFICATION: 0x1,
        GUEST_PHYSICAL_ADDRESS: 0x20_0000,
    })
    result = _drive(vm, hyp, op)
    assert result.outcome is ExitOutcome.RESUME
    assert vm.vmcs.hw_get(GUEST_RIP) == rip + 4
    assert "ept.gpa_ram" in _labels(hyp.cov.union_mask)


def test_ept_unmapped_gpa_crashes_the_vm():
    vm, hyp = _fresh()
    op = GuestOp(R.EPT_VIOLATION, 0, exit_fields={
        EXIT_QUALIFICATION: 0x2,
        GUEST_PHYSICAL_ADDRESS: 1 << 32,
    })
    result = _drive(vm, hyp, op)
    assert result.outcome is ExitOutcome.VM_CRASH
    assert result.crash.kind == "VmCrash"
    assert result.crash.detail == "ept violation at unmapped gpa 0x100000000"


def test_preemption_timer_rearms_at_zero():
    vm, hyp = _fresh()
    result = _drive(vm, hyp, GuestOp(R.PREEMPTION_TIMER, 0))
    assert result.outcome is ExitOutcome.RESUME
    assert vm.vmcs.hw_get(VMX_PREEMPTION_TIMER_VALUE) == 0
    assert "timer.value_zero" in _labels(hyp.cov.union_mask)
    assert "timer.rearmed" in _labels(hyp.cov.union_mask)


def test_triple_fault_is_fatal():
    vm, hyp = _fresh()
    result = _drive(vm, hyp, GuestOp(R.TRIPLE_FAULT, 0))
    assert result.outcome is ExitOutcome.VM_CRASH
    assert result.crash.detail == "triple fault: guest shutdown"
