"""Workload profiles, scripted exit programs, and the dummy guest VM."""

from collections import Counter

from vmxrr.guest import (
    BOOT_STATE,
    INSTR_LEN,
    PROFILES,
    PROT_ENTRY_POINT,
    GuestOp,
    GuestProgram,
    _order_wakeups,
    boot_prologue,
    raise_exit,
    workload_profiles_csv,
)
from vmxrr.rng import SplitMix64
from vmxrr.session import Session
from vmxrr.vmx import (
    CR0_PE,
    CR0_PG,
    EXIT_QUALIFICATION,
    EXIT_REASON,
    GUEST_CS_SELECTOR,
    GUEST_RIP,
    VM_EXIT_INSTRUCTION_LEN,
    CpuMode,
    ExitReason,
    GprId,
    LaunchState,
    classify_cr0_mode,
    guest_cr0_view,
)

R = ExitReason


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

def test_profiles_present():
    assert set(PROFILES) == {"OsBoot", "CpuBound", "MemBound", "IoBound", "Idle"}
    assert [p for p in PROFILES.values() if p.boot] == [PROFILES["OsBoot"]]


def test_profile_mixes_sum_to_one():
    for prof in PROFILES.values():
        total = sum(weight for _, weight in prof.mix)
        assert abs(total - 1.0) < 1e-9, prof.name
        assert all(weight > 0 for _, weight in prof.mix)
        lo, hi = prof.compute_range
        assert 0 < lo <= hi


def test_workload_profiles_csv_shape():
    text = workload_profiles_csv().decode("utf-8")
    lines = text.splitlines()
    assert lines[0] == "profile,exit_reason,weight,compute_lo,compute_hi,boot"
    assert len(lines) == 1 + sum(len(p.mix) for p in PROFILES.values())
    assert text.endswith("\n")
    boot_flags = {line.split(",")[0]: line.split(",")[5] for line in lines[1:]}
    assert boot_flags["OsBoot"] == "1"
    assert boot_flags["Idle"] == "0"


# ---------------------------------------------------------------------------
# Program synthesis
# ---------------------------------------------------------------------------

def _op_tuple(op: GuestOp):
    return (
        op.reason,
        op.compute_cycles,
        sorted(op.exit_fields.items()),
        sorted(op.gpr_values.items()),
        sorted(op.post_guest.items()),
    )


def test_program_is_deterministic():
    for name in ("CpuBound", "OsBoot", "Idle"):
        prof = PROFILES[name]
        a = GuestProgram(prof, 42, 300)
        b = GuestProgram(prof, 42, 300)
        assert [_op_tuple(x) for x in a] == [_op_tuple(y) for y in b]
        c = GuestProgram(prof, 43, 300)
        assert [_op_tuple(x) for x in a] != [_op_tuple(z) for z in c]


def test_program_length_is_exact():
    for n in (0, 1, 5, 6, 7, 100):
        assert len(GuestProgram(PROFILES["CpuBound"], 1, n)) == n
        # A boot profile truncates its prologue when asked for fewer exits.
        assert len(GuestProgram(PROFILES["OsBoot"], 1, n)) == n


def test_program_frequencies_track_the_mix():
    # Deterministic: the band was chosen with margin over the observed
    # deviation (worst 0.015 at this seed and length).
    for prof in PROFILES.values():
        prog = GuestProgram(prof, 7, 5000)
        ops = prog.ops[6:] if prof.boot else prog.ops
        counts = Counter(op.reason for op in ops)
        for reason, weight in prof.mix:
            freq = counts[reason] / len(ops)
            assert abs(freq - weight) < 0.03, (prof.name, reason.name)


def test_cpubound_rdtsc_share():
    prog = GuestProgram(PROFILES["CpuBound"], 42, 5000)
    n = sum(1 for op in prog.ops if op.reason is R.RDTSC)
    assert 3850 <= n <= 4150
    assert n == 4044


def test_compute_cycles_stay_in_range():
    for prof in PROFILES.values():
        lo, hi = prof.compute_range
        for op in GuestProgram(prof, 11, 400):
            assert lo <= op.compute_cycles <= hi


def test_rdtsc_ops_request_plain_tsc():
    for op in GuestProgram(PROFILES["CpuBound"], 3, 500):
        if op.reason is R.RDTSC:
            assert op.gpr_values[GprId.RCX] == 0


# ---------------------------------------------------------------------------
# Boot prologue
# ---------------------------------------------------------------------------

def test_boot_prologue_shape():
    ops = boot_prologue(SplitMix64(1), (50, 200))
    assert [op.reason for op in ops] == [
        R.INTERRUPT_WINDOW,
        R.IO_INSTRUCTION,
        R.IO_INSTRUCTION,
        R.CR_ACCESS,
        R.CR_ACCESS,
        R.CR_ACCESS,
    ]
    assert all(50 <= op.compute_cycles <= 200 for op in ops)
    # PE first, then the far jump into the 32-bit entry point, then PG.
    assert ops[3].gpr_values[GprId.R8] == CR0_PE
    assert ops[4].post_guest[GUEST_RIP] == PROT_ENTRY_POINT
    assert ops[4].post_guest[GUEST_CS_SELECTOR] == 0x10
    assert ops[5].gpr_values[GprId.R8] == CR0_PE | CR0_PG


def test_osboot_program_starts_with_the_prologue():
    prog = GuestProgram(PROFILES["OsBoot"], 9, 50)
    cr_writes = [
        op.gpr_values[GprId.R8]
        for op in prog.ops[:6]
        if op.reason is R.CR_ACCESS
    ]
    assert cr_writes == [CR0_PE, CR0_PE, CR0_PE | CR0_PG]


# ---------------------------------------------------------------------------
# Wakeup ordering
# ---------------------------------------------------------------------------

def _mk(reasons):
    return [GuestOp(r, 100) for r in reasons]


def test_order_wakeups_pulls_an_interrupt_after_hlt():
    ops = _mk([R.HLT, R.RDTSC, R.EXTERNAL_INTERRUPT])
    _order_wakeups(ops)
    assert [op.reason for op in ops] == [R.HLT, R.EXTERNAL_INTERRUPT, R.RDTSC]


def test_order_wakeups_leaves_satisfied_hlt_alone():
    ops = _mk([R.HLT, R.EXTERNAL_INTERRUPT, R.RDTSC])
    _order_wakeups(ops)
    assert [op.reason for op in ops] == [R.HLT, R.EXTERNAL_INTERRUPT, R.RDTSC]


def test_order_wakeups_without_interrupts_is_a_noop():
    ops = _mk([R.HLT, R.RDTSC, R.RDTSC, R.HLT])
    _order_wakeups(ops)
    assert [op.reason for op in ops] == [R.HLT, R.RDTSC, R.RDTSC, R.HLT]


def test_order_wakeups_preserves_the_reason_multiset():
    rng = SplitMix64(77)
    pool = [R.HLT, R.RDTSC, R.EXTERNAL_INTERRUPT, R.CPUID]
    for _ in range(50):
        reasons = [rng.choice(pool) for _ in range(rng.randint(1, 40))]
        ops = _mk(reasons)
        _order_wakeups(ops)
        assert Counter(op.reason for op in ops) == Counter(reasons)
        # Post-pass invariant: an unsatisfied HLT means no interrupt was
        # left anywhere after its successor.
        seq = [op.reason for op in ops]
        for i, reason in enumerate(seq[:-1]):
            if reason is R.HLT and seq[i + 1] is not R.EXTERNAL_INTERRUPT:
                assert R.EXTERNAL_INTERRUPT not in seq[i + 2:]


def test_idle_program_mostly_wakes_after_hlt():
    prog = GuestProgram(PROFILES["Idle"], 5, 2000)
    seq = [op.reason for op in prog.ops]
    for i, reason in enumerate(seq[:-1]):
        if reason is R.HLT and seq[i + 1] is not R.EXTERNAL_INTERRUPT:
            assert R.EXTERNAL_INTERRUPT not in seq[i + 2:]


# ---------------------------------------------------------------------------
# Guest VM
# ---------------------------------------------------------------------------

def test_power_on_lands_at_the_reset_vector():
    vmcs = Session().vmcs
    assert vmcs.launch_state is LaunchState.ACTIVE_CURRENT_LAUNCHED
    assert vmcs.hw_get(GUEST_RIP) == 0xFFF0
    assert vmcs.hw_get(GUEST_CS_SELECTOR) == 0xF000
    assert classify_cr0_mode(guest_cr0_view(vmcs)) is CpuMode.MODE1


def test_raise_exit_resets_stale_exit_info():
    session = Session()
    vmcs = session.vmcs
    io = GuestOp(R.IO_INSTRUCTION, 100, exit_fields={EXIT_QUALIFICATION: 0x21 << 16})
    raise_exit(vmcs, session.gprs, io)
    assert vmcs.hw_get(EXIT_QUALIFICATION) == 0x21 << 16
    raise_exit(vmcs, session.gprs, GuestOp(R.RDTSC, 100, gpr_values={GprId.RCX: 0}))
    assert vmcs.hw_get(EXIT_REASON) == R.RDTSC
    assert vmcs.hw_get(VM_EXIT_INSTRUCTION_LEN) == INSTR_LEN[R.RDTSC]
    assert vmcs.hw_get(EXIT_QUALIFICATION) == 0


def test_instruction_lengths_only_for_synchronous_exits():
    assert R.EXTERNAL_INTERRUPT not in INSTR_LEN
    assert R.INTERRUPT_WINDOW not in INSTR_LEN
    assert R.PREEMPTION_TIMER not in INSTR_LEN
    assert INSTR_LEN[R.HLT] == 1
    assert INSTR_LEN[R.VMCALL] == 3


def test_boot_state_traps_mode_bits():
    from vmxrr.vmx import CR0_GUEST_HOST_MASK
    assert BOOT_STATE[CR0_GUEST_HOST_MASK] == CR0_PE | CR0_PG
