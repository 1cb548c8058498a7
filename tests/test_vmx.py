"""Field table, VMCS lifecycle, CR0 mode classification, and entry checks."""

import pytest

from vmxrr.rng import SplitMix64
from vmxrr.vmx import (
    CR0_AM,
    CR0_CD,
    CR0_ET,
    CR0_GUEST_HOST_MASK,
    CR0_KNOWN_BITS,
    CR0_MP,
    CR0_NE,
    CR0_NW,
    CR0_PE,
    CR0_PG,
    CR0_READ_SHADOW,
    CR0_TS,
    CR0_WP,
    ENCODING_SPACE,
    EXIT_REASON,
    FIELD_TABLE,
    FIELD_TABLE_HASH,
    GDTR_LIMIT_MAX,
    GUEST_CR0,
    GUEST_CS_SELECTOR,
    GUEST_GDTR_LIMIT,
    GUEST_RIP,
    VM_INSTRUCTION_ERROR,
    CpuMode,
    ExitReason,
    FieldAccess,
    GprFile,
    GprId,
    LaunchState,
    LifecycleError,
    ReadOnlyField,
    UnknownField,
    Vmcs,
    classify_cr0_mode,
    exit_reason_csv,
    field_table_csv,
    fnv1a64,
    guest_cr0_view,
    vm_entry_check,
)


# ---------------------------------------------------------------------------
# FNV-1a 64
# ---------------------------------------------------------------------------

def test_fnv1a64_reference_vectors():
    # Published test vectors for 64-bit FNV-1a.
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_field_table_hash_is_frozen():
    # The hash travels in every trace header; a change here breaks every
    # existing .iris file, so it must be deliberate.
    assert fnv1a64(field_table_csv()) == FIELD_TABLE_HASH
    assert FIELD_TABLE_HASH == 0x9A33AE24D222AA91


# ---------------------------------------------------------------------------
# Field table CSVs
# ---------------------------------------------------------------------------

def test_field_table_csv_shape():
    text = field_table_csv().decode("utf-8")
    lines = text.splitlines()
    assert lines[0] == "compact_encoding,name,area,access"
    assert len(lines) == 1 + len(FIELD_TABLE)
    assert text.endswith("\n")
    assert "\r" not in text
    encodings = [int(line.split(",")[0]) for line in lines[1:]]
    assert encodings == sorted(encodings)
    assert all(0 <= enc < ENCODING_SPACE for enc in encodings)


def test_exit_reason_csv_shape():
    lines = exit_reason_csv().decode("utf-8").splitlines()
    assert lines[0] == "name,code"
    assert len(lines) == 1 + len(ExitReason)
    assert f"CPUID,{int(ExitReason.CPUID)}" in lines


def test_exit_reason_codes_track_the_architecture():
    assert ExitReason.EXTERNAL_INTERRUPT == 1
    assert ExitReason.CPUID == 10
    assert ExitReason.HLT == 12
    assert ExitReason.RDTSC == 16
    assert ExitReason.VMCALL == 18
    assert ExitReason.CR_ACCESS == 28
    assert ExitReason.IO_INSTRUCTION == 30
    assert ExitReason.EPT_VIOLATION == 48
    assert ExitReason.PREEMPTION_TIMER == 52


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------

def test_lifecycle_clear_load_launch():
    vmcs = Vmcs()
    assert vmcs.launch_state is LaunchState.INACTIVE
    vmcs.vmclear()
    assert vmcs.launch_state is LaunchState.ACTIVE_CURRENT_CLEAR
    assert all(v == 0 for v in vmcs.values.values())
    vmcs.vmlaunch()
    assert vmcs.launch_state is LaunchState.ACTIVE_CURRENT_LAUNCHED


def test_vmptrld_initializes_once_then_preserves():
    vmcs = Vmcs()
    vmcs.vmptrld()
    assert vmcs.launch_state is LaunchState.ACTIVE_CURRENT_CLEAR
    vmcs.hw_set(GUEST_RIP, 42)
    vmcs.vmptrld()    # already active: keep state and values
    assert vmcs.hw_get(GUEST_RIP) == 42
    assert vmcs.launch_state is LaunchState.ACTIVE_CURRENT_CLEAR


def test_vmlaunch_twice_is_a_lifecycle_error():
    vmcs = Vmcs()
    vmcs.vmclear()
    vmcs.vmlaunch()
    with pytest.raises(LifecycleError):
        vmcs.vmlaunch()


def test_vmlaunch_without_clear_is_a_lifecycle_error():
    with pytest.raises(LifecycleError):
        Vmcs().vmlaunch()


def test_unknown_encoding_rejected():
    vmcs = Vmcs()
    vmcs.vmclear()
    for encoding in (146, ENCODING_SPACE - 1, 9999):
        if encoding in FIELD_TABLE:
            continue
        with pytest.raises(UnknownField):
            vmcs.vmread(encoding)
        with pytest.raises(UnknownField):
            vmcs.vmwrite(encoding, 1)


def test_read_only_fields_reject_vmwrite():
    vmcs = Vmcs()
    vmcs.vmclear()
    for enc, spec in FIELD_TABLE.items():
        if spec.access is FieldAccess.READ_ONLY:
            with pytest.raises(ReadOnlyField):
                vmcs.vmwrite(enc, 1)
    # hw_set is the hardware path and may set anything.
    vmcs.hw_set(EXIT_REASON, 10)
    assert vmcs.vmread(EXIT_REASON) == 10


def test_vmwrite_masks_to_64_bits():
    vmcs = Vmcs()
    vmcs.vmclear()
    vmcs.vmwrite(GUEST_RIP, (1 << 70) | 5)
    assert vmcs.vmread(GUEST_RIP) == 5


def test_read_override_applies_only_to_read_only_fields():
    vmcs = Vmcs()
    vmcs.vmclear()
    vmcs.hw_set(EXIT_REASON, 1)
    vmcs.hw_set(GUEST_RIP, 0x1000)
    vmcs.read_override = lambda enc: 0xAB
    assert vmcs.vmread(EXIT_REASON) == 0xAB
    assert vmcs.vmread(GUEST_RIP) == 0x1000
    assert vmcs.vmread(VM_INSTRUCTION_ERROR) == 0xAB


def test_access_logs_keep_handler_accesses_in_order():
    vmcs = Vmcs()
    vmcs.vmclear()
    vmcs.reads, vmcs.writes = [], []
    vmcs.vmwrite(GUEST_RIP, 7)
    vmcs.vmread(GUEST_RIP)
    vmcs.vmwrite(GUEST_RIP, 8)
    vmcs.vmread(EXIT_REASON)
    vmcs.hw_set(GUEST_RIP, 9)     # hardware path must stay invisible
    vmcs.hw_get(GUEST_RIP)
    assert vmcs.writes == [(GUEST_RIP, 7), (GUEST_RIP, 8)]
    assert vmcs.reads == [(GUEST_RIP, 7), (EXIT_REASON, 0)]
    vmcs.reads = vmcs.writes = None
    vmcs.vmwrite(GUEST_RIP, 10)
    assert vmcs.vmread(GUEST_RIP) == 10
    assert vmcs.reads is None and vmcs.writes is None


# ---------------------------------------------------------------------------
# GPR file
# ---------------------------------------------------------------------------

def test_gpr_file_excludes_rsp():
    assert len(GprFile().regs) == 15
    assert not hasattr(GprId, "RSP")


def test_gpr_write_masks_to_64_bits():
    gprs = GprFile()
    gprs.write(GprId.RAX, 1 << 70)
    assert gprs.read(GprId.RAX) == 0


# ---------------------------------------------------------------------------
# CR0 mode classification
# ---------------------------------------------------------------------------

def _expected_mode(cr0: int) -> CpuMode:
    """Independent rendering of the documented decision tree."""
    pe = bool(cr0 & CR0_PE)
    pg = bool(cr0 & CR0_PG)
    am = bool(cr0 & CR0_AM)
    ts = bool(cr0 & CR0_TS)
    cd = bool(cr0 & CR0_CD)
    nw = bool(cr0 & CR0_NW)
    if not pe:
        return CpuMode.MODE1
    if not pg:
        return CpuMode.MODE2
    if not am:
        return CpuMode.MODE3
    if not ts:
        return CpuMode.MODE6 if (not cd and not nw) else CpuMode.MODE4
    return CpuMode.MODE7 if cd else CpuMode.MODE5


def test_mode_classifier_truth_table():
    relevant = (CR0_PE, CR0_PG, CR0_AM, CR0_TS, CR0_CD, CR0_NW)
    irrelevant = (CR0_MP, 1 << 2, CR0_ET, CR0_NE, CR0_WP)
    rng = SplitMix64(101)
    for combo in range(64):
        cr0 = 0
        for i, bit in enumerate(relevant):
            if combo & (1 << i):
                cr0 |= bit
        assert classify_cr0_mode(cr0) is _expected_mode(cr0)
        # Bits outside the tree must not affect the mode.
        noise = cr0
        for bit in irrelevant:
            if rng.chance(0.5):
                noise |= bit
        assert classify_cr0_mode(noise) is _expected_mode(cr0)


def test_mode_examples_by_name():
    assert classify_cr0_mode(CR0_ET) is CpuMode.MODE1
    assert classify_cr0_mode(CR0_PE) is CpuMode.MODE2
    assert classify_cr0_mode(CR0_PE | CR0_PG) is CpuMode.MODE3
    assert classify_cr0_mode(CR0_PE | CR0_PG | CR0_AM) is CpuMode.MODE6
    assert classify_cr0_mode(CR0_PE | CR0_PG | CR0_AM | CR0_CD) is CpuMode.MODE4
    assert classify_cr0_mode(CR0_PE | CR0_PG | CR0_AM | CR0_TS) is CpuMode.MODE5
    assert classify_cr0_mode(CR0_PE | CR0_PG | CR0_AM | CR0_TS | CR0_CD) is CpuMode.MODE7


# ---------------------------------------------------------------------------
# Guest CR0 view
# ---------------------------------------------------------------------------

def test_guest_cr0_view_formula():
    vmcs = Vmcs()
    vmcs.vmclear()
    rng = SplitMix64(55)
    for _ in range(500):
        cr0 = rng.next_u64()
        mask = rng.next_u64()
        shadow = rng.next_u64()
        vmcs.hw_set(GUEST_CR0, cr0)
        vmcs.hw_set(CR0_GUEST_HOST_MASK, mask)
        vmcs.hw_set(CR0_READ_SHADOW, shadow)
        assert guest_cr0_view(vmcs) == (cr0 & ~mask) | (shadow & mask)


# ---------------------------------------------------------------------------
# VM-entry checks
# ---------------------------------------------------------------------------

def _entry_vmcs() -> Vmcs:
    vmcs = Vmcs()
    vmcs.vmclear()
    vmcs.hw_set(GUEST_CR0, CR0_PE | CR0_PG)
    vmcs.hw_set(GUEST_RIP, 0x1000)
    vmcs.vmlaunch()
    return vmcs


def test_entry_check_passes_on_sane_state():
    assert vm_entry_check(_entry_vmcs()) == []


def test_entry_check_requires_active_vmcs():
    with pytest.raises(LifecycleError):
        vm_entry_check(Vmcs())


def test_entry_check_pg_requires_pe():
    vmcs = _entry_vmcs()
    vmcs.hw_set(GUEST_CR0, CR0_PG)
    violations = vm_entry_check(vmcs)
    assert violations[0].check == "Cr0PgWithoutPe"
    assert violations[0].log == "CR0.PG set while CR0.PE clear"


def test_entry_check_rip_limit_depends_on_mode():
    # Real mode: 20-bit limit, log names mode 0.
    vmcs = _entry_vmcs()
    vmcs.hw_set(GUEST_CR0, 0)
    vmcs.hw_set(GUEST_RIP, 1 << 20)
    violations = vm_entry_check(vmcs)
    assert violations[0].check == "BadRipForMode"
    assert violations[0].log == "bad RIP for mode 0"
    # Protected mode: 32-bit limit, the same RIP is fine.
    vmcs = _entry_vmcs()
    vmcs.hw_set(GUEST_RIP, 1 << 20)
    assert vm_entry_check(vmcs) == []
    vmcs.hw_set(GUEST_RIP, 1 << 32)
    assert vm_entry_check(vmcs)[0].log == "bad RIP for mode 2"


def test_entry_check_reserved_cr0_bits():
    vmcs = _entry_vmcs()
    vmcs.hw_set(GUEST_CR0, CR0_PE | CR0_PG | (1 << 12))
    assert vm_entry_check(vmcs)[0].check == "Cr0ReservedBits"


def test_entry_check_nw_needs_cd():
    vmcs = _entry_vmcs()
    vmcs.hw_set(GUEST_CR0, CR0_PE | CR0_PG | CR0_NW)
    assert vm_entry_check(vmcs)[0].check == "Cr0NwWithoutCd"
    vmcs.hw_set(GUEST_CR0, CR0_PE | CR0_PG | CR0_NW | CR0_CD)
    assert vm_entry_check(vmcs) == []


def test_entry_check_real_mode_cs_window():
    # CS*16 + IP must stay under the 1 MiB line; no HMA wrap is modeled.
    vmcs = _entry_vmcs()
    vmcs.hw_set(GUEST_CR0, 0)
    vmcs.hw_set(GUEST_CS_SELECTOR, 0xFFFF)
    vmcs.hw_set(GUEST_RIP, 0x10)
    violations = vm_entry_check(vmcs)
    assert violations[0].check == "RealModeCsRange"
    assert violations[0].log == "bad CS:IP for mode 0 (0xffff:0x10)"
    vmcs.hw_set(GUEST_RIP, 0xF)
    assert vm_entry_check(vmcs) == []


def test_entry_check_gdtr_limit_width():
    vmcs = _entry_vmcs()
    vmcs.hw_set(GUEST_GDTR_LIMIT, GDTR_LIMIT_MAX)
    assert vm_entry_check(vmcs) == []
    vmcs.hw_set(GUEST_GDTR_LIMIT, GDTR_LIMIT_MAX + 1)
    assert vm_entry_check(vmcs)[0].check == "GdtrLimitOverflow"


def test_entry_check_orders_pg_before_rip():
    # Both violated: PG-without-PE must be reported first.
    vmcs = _entry_vmcs()
    vmcs.hw_set(GUEST_CR0, CR0_PG)
    vmcs.hw_set(GUEST_RIP, 1 << 33)
    checks = [v.check for v in vm_entry_check(vmcs)]
    assert checks[0] == "Cr0PgWithoutPe"
    assert "BadRipForMode" in checks


def test_entry_check_uses_the_guest_view():
    # GUEST_CR0 alone says real mode, but the mask pulls PE from the shadow.
    vmcs = _entry_vmcs()
    vmcs.hw_set(GUEST_CR0, CR0_PG)
    vmcs.hw_set(CR0_GUEST_HOST_MASK, CR0_PE)
    vmcs.hw_set(CR0_READ_SHADOW, CR0_PE)
    assert vm_entry_check(vmcs) == []


def test_cr0_known_bits_contents():
    expected = (
        CR0_PE | CR0_MP | (1 << 2) | CR0_TS | CR0_ET | CR0_NE
        | CR0_WP | CR0_AM | CR0_NW | CR0_CD | CR0_PG
    )
    assert CR0_KNOWN_BITS == expected
