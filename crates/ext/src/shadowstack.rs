//! Control-flow protection: a shadow stack in MRAM (paper §3.5).
//!
//! "Metal can offer similar application control flow protection as
//! existing techniques such as shadow stacks and control flow
//! integrity. … applications can store cryptographic keys inside Metal
//! registers or MRAM." Here the protected state is the shadow stack
//! itself: it lives in the MRAM data segment, which no load or store in
//! the application can reach — only the call/return mroutines touch it.
//!
//! Calls (`jal ra, …`) and returns (`jalr x0, 0(ra)`) are intercepted
//! and *emulated*: a call pushes the return address onto the shadow
//! stack and redirects; a return pops and compares — a mismatch (e.g. a
//! smashed stack slot) diverts to the registered violation handler
//! instead of the attacker's target.
//!
//! Supported shapes: `jal` with `rd ∈ {x0, x1}` and `jalr` with
//! `rd = x0, rs1 = ra` (return) or `rd = ra` (indirect call). Anything
//! else diverts to the violation handler (a real deployment would
//! extend the emulation, not fault).
//!
//! MRAM data layout (offset [`DATA_BASE`]): violation handler PC,
//! shadow SP (count), then [`STACK_SLOTS`] return-address slots.

use crate::machine::read_reg_stubs;
use metal_core::MetalBuilder;

/// Entry numbers for the shadow-stack kit.
pub mod entries {
    /// Arm protection: `a0` = violation-handler PC.
    pub const ENABLE: u8 = 28;
    /// Disarm protection.
    pub const DISABLE: u8 = 29;
    /// Intercepted-`jal` handler.
    pub const CALL: u8 = 30;
    /// Intercepted-`jalr` handler.
    pub const RET: u8 = 31;
}

/// MRAM-data base of this kit's state.
pub const DATA_BASE: u32 = 608;
/// Capacity of the shadow stack.
pub const STACK_SLOTS: u32 = 64;

const VIOL_SLOT: u32 = DATA_BASE;
const SP_SLOT: u32 = DATA_BASE + 4;
const STACK_BASE: u32 = DATA_BASE + 8;

/// Arms interception of `jal` (opcode 0x6F) and `jalr` (0x67).
#[must_use]
fn enable_src() -> String {
    format!(
        r"
    li t0, {viol}
    mst a0, 0(t0)              # violation handler
    li t1, {sp}
    mst zero, 0(t1)            # empty shadow stack
    li t0, 0x6F
    li t1, {call_target}
    mintercept t0, t1
    li t0, 0x67
    li t1, {ret_target}
    mintercept t0, t1
    li t0, 1
    wmr mstatus, t0
    mexit
    ",
        viol = VIOL_SLOT,
        sp = SP_SLOT,
        call_target = (u32::from(entries::CALL) << 1) | 1,
        ret_target = (u32::from(entries::RET) << 1) | 1,
    )
}

/// Disarms the interception rules.
#[must_use]
fn disable_src() -> &'static str {
    r"
    li t0, 0x6F
    mintercept t0, zero
    li t0, 0x67
    mintercept t0, zero
    mexit
    "
}

/// The intercepted-`jal` handler: emulate, pushing calls.
#[must_use]
fn call_src() -> String {
    format!(
        r"
    wmr m6, t0
    wmr m7, t1
    wmr m8, t2
    wmr m10, t3
    rmr t0, minsn
    # J-type immediate into t3.
    srai t3, t0, 11
    li t2, 0xFFF00000
    and t3, t3, t2             # offset[20] + sign
    li t2, 0xFF000
    and t1, t0, t2
    or t3, t3, t1              # offset[19:12]
    srli t1, t0, 20
    andi t1, t1, 1
    slli t1, t1, 11
    or t3, t3, t1              # offset[11]
    srli t1, t0, 21
    andi t1, t1, 0x3FF
    slli t1, t1, 1
    or t3, t3, t1              # offset[10:1]
    rmr t1, m31
    add t3, t3, t1             # t3 = target
    # Dispatch on rd.
    srli t0, t0, 7
    andi t0, t0, 31
    beqz t0, do_jump           # jal x0: plain jump
    addi t0, t0, -1
    bnez t0, violation         # only ra-linking calls are emulated
    # Call: ra = pc + 4, push it on the shadow stack.
    rmr t1, m31
    addi t1, t1, 4
    mv ra, t1
    li t0, {sp}
    mld t2, 0(t0)
    li t0, {slots}
    bge t2, t0, violation      # shadow overflow
    slli t0, t2, 2
    addi t0, t0, {stack}
    mst t1, 0(t0)
    addi t2, t2, 1
    li t0, {sp}
    mst t2, 0(t0)
do_jump:
    wmr m31, t3
    rmr t0, m6
    rmr t1, m7
    rmr t2, m8
    rmr t3, m10
    mexit
violation:
    li t3, {viol}
    mld t3, 0(t3)
    wmr m31, t3
    rmr t0, m6
    rmr t1, m7
    rmr t2, m8
    rmr t3, m10
    mexit
    ",
        sp = SP_SLOT,
        slots = STACK_SLOTS,
        stack = STACK_BASE,
        viol = VIOL_SLOT,
    )
}

/// The intercepted-`jalr` handler: pop-and-verify returns, push
/// indirect calls.
#[must_use]
fn ret_src() -> String {
    format!(
        r"
    wmr m6, t0
    wmr m7, t1
    wmr m8, t2
    wmr m10, t3
    wmr m11, t4
    wmr m12, t5
    rmr t0, minsn
    # rs1 value via the read stubs -> t2.
    srli t0, t0, 15
    andi t0, t0, 31
    slli t0, t0, 3
    la t1, rs1_table
    add t1, t1, t0
    jr t1
{rs1_stubs}
rs1_done:
    rmr t0, minsn
    srai t1, t0, 20            # I-imm
    add t2, t2, t1
    andi t3, t2, -2            # t3 = target (bit 0 cleared)
    # Dispatch on rd.
    srli t1, t0, 7
    andi t1, t1, 31
    beqz t1, maybe_return
    addi t1, t1, -1
    bnez t1, violation
    # Indirect call (rd = ra): link and push like jal.
    rmr t1, m31
    addi t1, t1, 4
    mv ra, t1
    li t0, {sp}
    mld t2, 0(t0)
    li t0, {slots}
    bge t2, t0, violation
    slli t0, t2, 2
    addi t0, t0, {stack}
    mst t1, 0(t0)
    addi t2, t2, 1
    li t0, {sp}
    mst t2, 0(t0)
    j do_jump
maybe_return:
    # rd = x0: treat rs1 = ra as a protected return, else plain jump.
    rmr t0, minsn
    srli t0, t0, 15
    andi t0, t0, 31
    addi t0, t0, -1
    bnez t0, do_jump           # jr through another register
    # Pop and verify.
    li t0, {sp}
    mld t1, 0(t0)
    beqz t1, violation         # underflow
    addi t1, t1, -1
    mst t1, 0(t0)
    slli t0, t1, 2
    addi t0, t0, {stack}
    mld t0, 0(t0)              # expected return address
    bne t0, t3, violation      # smashed return address
do_jump:
    wmr m31, t3
    rmr t0, m6
    rmr t1, m7
    rmr t2, m8
    rmr t3, m10
    rmr t4, m11
    rmr t5, m12
    mexit
violation:
    li t3, {viol}
    mld t3, 0(t3)
    wmr m31, t3
    rmr t0, m6
    rmr t1, m7
    rmr t2, m8
    rmr t3, m10
    rmr t4, m11
    rmr t5, m12
    mexit
    ",
        sp = SP_SLOT,
        slots = STACK_SLOTS,
        stack = STACK_BASE,
        viol = VIOL_SLOT,
        rs1_stubs = read_reg_stubs("rs1_table", "rs1_done"),
    )
}

/// Installs the shadow-stack kit.
#[must_use]
pub fn install(builder: MetalBuilder) -> MetalBuilder {
    builder
        .routine(entries::ENABLE, "ss_enable", &enable_src())
        .routine(entries::DISABLE, "ss_disable", disable_src())
        .routine(entries::CALL, "ss_call", &call_src())
        .routine(entries::RET, "ss_ret", &ret_src())
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
    fn normal_calls_and_returns_work() {
        let mut core = core();
        let halt = run_guest(
            &mut core,
            r"
            li sp, 0x8000
            la a0, violation
            menter 28
            li a0, 5
            call double
            call double
            menter 29
            ebreak            # a0 = 20
        double:
            slli a0, a0, 1
            ret
        violation:
            li a0, 0xBAD
            ebreak
            ",
            100_000,
        );
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 20 }));
        assert_eq!(core.hooks.stats.intercepts, 4, "2 calls + 2 returns");
    }

    #[test]
    fn nested_and_recursive_calls() {
        let mut core = core();
        let halt = run_guest(
            &mut core,
            r"
            li sp, 0x8000
            la a0, violation
            menter 28
            li a0, 6
            call fib
            menter 29
            ebreak
        fib:
            li t0, 2
            blt a0, t0, fib_base
            addi sp, sp, -12
            sw ra, 0(sp)
            sw a0, 4(sp)
            addi a0, a0, -1
            call fib
            sw a0, 8(sp)
            lw a0, 4(sp)
            addi a0, a0, -2
            call fib
            lw t0, 8(sp)
            add a0, a0, t0
            lw ra, 0(sp)
            addi sp, sp, 12
            ret
        fib_base:
            ret
        violation:
            li a0, 0xBAD
            ebreak
            ",
            2_000_000,
        );
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 8 }), "fib(6) = 8");
    }

    #[test]
    fn smashed_return_address_detected() {
        let mut core = core();
        let halt = run_guest(
            &mut core,
            r"
            li sp, 0x8000
            la a0, violation
            menter 28
            call victim
            li a0, 1
            ebreak
        victim:
            addi sp, sp, -4
            sw ra, 0(sp)
            # ... attacker overwrites the saved return address ...
            la t0, attacker_target
            sw t0, 0(sp)
            lw ra, 0(sp)
            addi sp, sp, 4
            ret                    # shadow mismatch -> violation
        attacker_target:
            li a0, 0x666
            ebreak
        violation:
            li a0, 0xBAD
            ebreak
            ",
            100_000,
        );
        assert_eq!(
            halt,
            Some(HaltReason::Ebreak { code: 0xBAD }),
            "the hijacked return must divert to the violation handler"
        );
    }

    #[test]
    fn indirect_calls_supported() {
        let mut core = core();
        let halt = run_guest(
            &mut core,
            r"
            li sp, 0x8000
            la a0, violation
            menter 28
            li a0, 3
            la s1, triple
            jalr s1                # indirect call via s1
            menter 29
            ebreak
        triple:
            slli t0, a0, 1
            add a0, a0, t0
            ret
        violation:
            li a0, 0xBAD
            ebreak
            ",
            100_000,
        );
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 9 }));
    }

    #[test]
    fn plain_jumps_pass_through() {
        let mut core = core();
        let halt = run_guest(
            &mut core,
            r"
            la a0, violation
            menter 28
            li a0, 1
            j skip
            li a0, 2
        skip:
            menter 29
            ebreak
        violation:
            li a0, 0xBAD
            ebreak
            ",
            100_000,
        );
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 1 }));
    }
}
