//! A trap-and-emulate virtualization sketch (paper §3.5).
//!
//! "Developers can use Metal to implement virtualization. … Privileged
//! instructions can be intercepted and trapped by Metal for proper
//! handling." This kit demonstrates the core hypervisor mechanism on
//! the lowest nested-Metal layer: the VMM intercepts the guest's CSR
//! instructions and *virtualizes* the trap vector — the guest reads
//! back exactly what it wrote, while the real `mtvec` (owned by the
//! host) never changes. This is the same trap-and-emulate structure
//! the IBM zSeries implements in Millicode and the Alpha hypervisor in
//! PALcode (paper §3.5/§5).
//!
//! Scope: the demo traps the `csrrw`/`csrrs` register shapes and
//! virtualizes `csrw mtvec, rs` and `csrr rd, mtvec` (what a guest boot
//! path uses); any other trapped CSR instruction diverts to the
//! registered VMM fault handler — a real hypervisor would widen the
//! emulation case by case, exactly as the paper suggests.
//!
//! MRAM data (offset [`DATA_BASE`]): shadow `mtvec`, VMM fault-handler
//! PC.

use crate::machine::{read_reg_stubs, write_reg_stubs};
use metal_core::MetalBuilder;

/// Entry numbers for the VMM kit.
pub mod entries {
    /// Arm interception of the SYSTEM opcode class on layer 0:
    /// `a0` = VMM fault-handler PC.
    pub const ARM: u8 = 48;
    /// The CSR trap-and-emulate handler.
    pub const CSR_EMUL: u8 = 49;
    /// Read the shadow `mtvec` into `a0` (host/VMM inspection).
    pub const SHADOW_GET: u8 = 50;
}

/// MRAM-data base for this kit.
pub const DATA_BASE: u32 = 3200;

const SHADOW_MTVEC: u32 = DATA_BASE;
const FAULT_SLOT: u32 = DATA_BASE + 4;

/// CSR address of `mtvec` (the virtualized register).
const MTVEC: u32 = 0x305;

/// Arms the interception rule.
#[must_use]
fn arm_src() -> String {
    format!(
        r"
    li t0, {fault}
    mst a0, 0(t0)              # VMM fault handler
    mlayer zero                # program layer 0 (the VMM layer)
    # Exact selectors: only the csrrw and csrrs shapes trap. ecall,
    # ebreak, mret and the immediate CSR forms stay native.
    li t0, {sel_csrrw}
    li t1, {target}
    mintercept t0, t1
    li t0, {sel_csrrs}
    mintercept t0, t1
    li t0, 1
    wmr mstatus, t0
    mexit
    ",
        fault = FAULT_SLOT,
        sel_csrrw = (1u32 << 31) | 0x73 | (1 << 7),
        sel_csrrs = (1u32 << 31) | 0x73 | (2 << 7),
        target = (u32::from(entries::CSR_EMUL) << 1) | 1,
    )
}

/// The trap-and-emulate handler.
#[must_use]
fn csr_emul_src() -> String {
    format!(
        r"
    # VMM CSR emulation. Transparent: scratch saved in Metal registers.
    wmr m6, t0
    wmr m7, t1
    wmr m8, t2
    wmr m10, t3
    wmr m11, t4
    wmr m12, t5
    rmr t0, minsn
    # csr address = bits 31:20
    srli t1, t0, 20
    li t3, {mtvec}
    bne t1, t3, unhandled
    # funct3 selects the shape.
    srli t1, t0, 12
    andi t1, t1, 7
    addi t3, t1, -1
    beqz t3, emul_write        # csrrw (csrw)
    addi t3, t1, -2
    beqz t3, emul_read         # csrrs; treat as csrr if rs1 == x0
    j unhandled
emul_write:
    # rs1 value via the read stubs -> t2; shadow_mtvec = t2.
    srli t0, t0, 15
    andi t0, t0, 31
    slli t0, t0, 3
    la t1, rs1_table
    add t1, t1, t0
    jr t1
{rs1_stubs}
rs1_done:
    li t0, {shadow}
    mst t2, 0(t0)
    j finish
emul_read:
    rmr t0, minsn
    srli t1, t0, 15
    andi t1, t1, 31
    bnez t1, unhandled         # only the csrr shape (rs1 == x0)
    # rd = shadow_mtvec via the write stubs.
    li t1, {shadow}
    mld t2, 0(t1)
    srli t0, t0, 7
    andi t0, t0, 31
    slli t0, t0, 3
    la t1, rd_table
    add t1, t1, t0
    jr t1
{rd_stubs}
rd_done:
    j finish
unhandled:
    li t3, {fault}
    mld t3, 0(t3)
    wmr m31, t3
    rmr t0, m6
    rmr t1, m7
    rmr t2, m8
    rmr t3, m10
    rmr t4, m11
    rmr t5, m12
    mexit
finish:
    rmr t0, m31
    addi t0, t0, 4
    wmr m31, t0                # skip the emulated instruction
    rmr t0, m6
    rmr t1, m7
    rmr t2, m8
    rmr t3, m10
    rmr t4, m11
    rmr t5, m12
    mexit
    ",
        mtvec = MTVEC,
        shadow = SHADOW_MTVEC,
        fault = FAULT_SLOT,
        rs1_stubs = read_reg_stubs("rs1_table", "rs1_done"),
        rd_stubs = write_reg_stubs("rd_table", "rd_done"),
    )
}

/// Reads the shadow `mtvec` into `a0`.
#[must_use]
fn shadow_get_src() -> String {
    format!("li t0, {SHADOW_MTVEC}\n mld a0, 0(t0)\n mexit")
}

/// Installs the VMM kit. Requires a layered builder (`layers >= 2`) so
/// guest-facing kits can sit above the VMM.
#[must_use]
pub fn install(builder: MetalBuilder) -> MetalBuilder {
    builder
        .layers(2)
        .routine(entries::ARM, "vmm_arm", &arm_src())
        .routine(entries::CSR_EMUL, "vmm_csr", &csr_emul_src())
        .routine(entries::SHADOW_GET, "vmm_shadow_get", &shadow_get_src())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::run_guest;
    use metal_pipeline::state::CoreConfig;
    use metal_pipeline::{Core, HaltReason};

    fn core() -> Core<metal_core::Metal> {
        install(MetalBuilder::new())
            .build_core(CoreConfig::default())
            .unwrap()
    }

    #[test]
    fn guest_csr_writes_are_virtualized() {
        let mut core = core();
        let halt = run_guest(
            &mut core,
            r"
            la a0, vmm_fault
            menter 48          # arm the VMM
            # --- guest OS boot path ---
            li t5, 0x1230
            csrw mtvec, t5     # intercepted + emulated
            csrr a0, mtvec     # intercepted + emulated: reads 0x1230
            ebreak
        vmm_fault:
            li a0, 0xBAD
            ebreak
            ",
            1_000_000,
        );
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 0x1230 }));
        // The guest saw its value, but the *real* mtvec never changed.
        assert_eq!(core.state.csr.mtvec, 0, "host mtvec must be untouched");
        assert_eq!(core.hooks.stats.intercepts, 2);
    }

    #[test]
    fn shadow_state_visible_to_the_vmm() {
        let mut core = core();
        let halt = run_guest(
            &mut core,
            r"
            la a0, vmm_fault
            menter 48
            li t5, 0xBEE0
            csrw mtvec, t5
            menter 50          # VMM-side: read the shadow
            ebreak
        vmm_fault:
            li a0, 0xBAD
            ebreak
            ",
            1_000_000,
        );
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 0xBEE0 }));
    }

    #[test]
    fn unhandled_privileged_instruction_faults_to_vmm() {
        let mut core = core();
        let halt = run_guest(
            &mut core,
            r"
            la a0, vmm_fault
            menter 48
            csrw mscratch, t5  # not virtualized: diverts to the VMM
            li a0, 1
            ebreak
        vmm_fault:
            li a0, 0xBAD
            ebreak
            ",
            1_000_000,
        );
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 0xBAD }));
    }

    #[test]
    fn guest_registers_survive_emulation() {
        let mut core = core();
        let halt = run_guest(
            &mut core,
            r"
            la a0, vmm_fault
            menter 48
            li t0, 111
            li t1, 222
            li t2, 333
            li t3, 444
            li t5, 0x40
            csrw mtvec, t5
            add a0, t0, t1
            add a0, a0, t2
            add a0, a0, t3     # 1110
            ebreak
        vmm_fault:
            li a0, 0xBAD
            ebreak
            ",
            1_000_000,
        );
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 1110 }));
    }
}
