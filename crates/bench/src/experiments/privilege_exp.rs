//! E2: user-defined privilege levels — transition costs.
//!
//! Paper §3.1: Metal implements the traditional kernel/user model in two
//! mroutines (Figure 2) and generalizes to arbitrary rings. Measured:
//! the null-syscall round trip (`kenter` + `kexit`) against the
//! conventional trap-based syscall on the baseline core, and the cost
//! of a full ring-call ladder as the number of rings grows.

use crate::harness::{per_op, run_to_halt, std_config};
use metal_core::{Metal, MetalBuilder};
use metal_ext::privilege;
use metal_pipeline::{Core, Engine, NoHooks};
use std::fmt::Write as _;

const CALLS: u64 = 200;

fn metal_machine() -> Core<Metal> {
    privilege::install(MetalBuilder::new())
        .build_core(std_config())
        .unwrap()
}

/// Null syscall via kenter/kexit: the kernel handler immediately kexits.
fn metal_syscall() -> f64 {
    // Syscall 0's handler at the table slot returns immediately.
    let program = |call: bool| {
        let body = if call {
            "li a0, 0\n menter 0"
        } else {
            "nop\n nop"
        };
        format!(
            r"
            la a0, kfault
            menter 2
            li s1, {CALLS}
        loop:
            {body}
            addi s1, s1, -1
            bnez s1, loop
            ebreak
        kfault:
            li a0, 0xdead
            ebreak
            # syscall table at 0x400: entry 0 -> knull
            .org 0x400
            .word knull
            .org 0x600
        knull:
            menter 1
            "
        )
    };
    let mut with = metal_machine();
    run_to_halt(&mut with, &program(true), 10_000_000);
    let with_cycles = with.state.perf.cycles;
    let mut without = metal_machine();
    run_to_halt(&mut without, &program(false), 10_000_000);
    per_op(with_cycles, without.state.perf.cycles, CALLS)
}

/// Null syscall via ecall/mret on the baseline core.
fn trap_syscall() -> f64 {
    let program = |call: bool| {
        let body = if call {
            "li a0, 0\n ecall"
        } else {
            "nop\n nop"
        };
        format!(
            r"
            li t0, 0x400
            csrw mtvec, t0
            li s1, {CALLS}
        loop:
            {body}
            addi s1, s1, -1
            bnez s1, loop
            ebreak
            .org 0x400
            # dispatch on the syscall number like a real kernel entry
            csrr t0, mepc
            addi t0, t0, 4
            csrw mepc, t0
            slli t0, a0, 2
            li t1, 0x500
            add t0, t0, t1
            lw t0, 0(t0)
            jr t0
            .org 0x500
            .word knull
        knull:
            mret
            "
        )
    };
    let mut with = Core::new(std_config(), NoHooks);
    run_to_halt(&mut with, &program(true), 10_000_000);
    let with_cycles = with.state.perf.cycles;
    let mut without = Core::new(std_config(), NoHooks);
    run_to_halt(&mut without, &program(false), 10_000_000);
    per_op(with_cycles, without.state.perf.cycles, CALLS)
}

/// Ring-gate round trip: the user ring calls ring 0's registered gate,
/// which immediately returns (`ring_call` + `ring_return`).
fn ring_gate_roundtrip() -> f64 {
    let program = |calls: u64| {
        format!(
            r"
            la a0, kfault
            menter 2
            li a0, 0
            la a1, gate0
            menter {sg}          # set_gate(ring 0, gate0)
            la ra, user
            menter 1             # kexit: drop to ring 1
        kfault:
            li a0, 0xdead
            ebreak
        gate0:
            menter {rr}          # ring_return
        user:
            li s1, {calls}
        loop:
            li a0, 0
            menter {rc}          # ring_call(0) -> gate0 -> back
            addi s1, s1, -1
            bnez s1, loop
            ebreak
            ",
            sg = privilege::entries::SET_GATE,
            rr = privilege::entries::RING_RETURN,
            rc = privilege::entries::RING_CALL,
        )
    };
    let mut with = metal_machine();
    run_to_halt(&mut with, &program(CALLS), 20_000_000);
    let with_cycles = with.state.perf.cycles;
    let mut without = metal_machine();
    run_to_halt(&mut without, &program(1), 20_000_000);
    per_op(with_cycles, without.state.perf.cycles, CALLS - 1)
}

/// The E2 report.
#[must_use]
pub fn report() -> String {
    let metal = metal_syscall();
    let trap = trap_syscall();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== E2: privilege-transition cost (cycles/round trip) ==\n"
    );
    let _ = writeln!(out, "{:<42} {:>10}", "design", "cyc");
    let _ = writeln!(
        out,
        "{:<42} {:>10.2}",
        "Metal kenter/kexit (paper Fig. 2)", metal
    );
    let _ = writeln!(
        out,
        "{:<42} {:>10.2}",
        "trap-based ecall/mret + dispatch", trap
    );
    let _ = writeln!(
        out,
        "\nring-call gate round trip (user ring -> ring 0 -> back): {:.2} cyc",
        ring_gate_roundtrip()
    );
    let _ = writeln!(
        out,
        "\npaper anchor: \"processor privilege switching involves setting\n\
         architectural state and returning control to the target entry point\n\
         regardless of the number of privilege levels\" — the Metal gate cost\n\
         is flat in the number of rings and avoids the trap machinery."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metal_syscall_beats_trap_syscall() {
        let metal = metal_syscall();
        let trap = trap_syscall();
        assert!(
            metal < trap,
            "Metal {metal:.2} should beat trap {trap:.2} cycles"
        );
        assert!(metal > 0.0, "a syscall is not free: {metal:.2}");
    }

    #[test]
    fn ring_gate_cost_is_modest() {
        let cost = ring_gate_roundtrip();
        assert!(cost > 0.0 && cost < 120.0, "gate round trip {cost:.2}");
    }
}
