//! E5: user-level interrupts — delivery latency and CPU occupancy.
//!
//! Paper §3.4: DPDK/SPDK-style kernel-bypass I/O today *polls*,
//! consuming whole cores; user-level interrupts would notify the
//! application instead. Measured:
//!
//! * packet delivery latency (device IRQ → userspace ack) for Metal
//!   user-level interrupts vs. the conventional kernel-mediated path
//!   (trap to kernel, kernel posts to the user, user acks);
//! * CPU occupancy (useful-work fraction) for polling vs.
//!   interrupt-driven guests across packet inter-arrival times.

use crate::harness::std_config;
use metal_core::{Metal, MetalBuilder};
use metal_ext::uintr;
use metal_mem::devices::{map, Nic, NicHandle};
use metal_pipeline::{Core, Engine, NoHooks};
use std::fmt::Write as _;

const PACKETS: u64 = 16;

fn schedule(handle: &NicHandle, period: u64) {
    for i in 0..PACKETS {
        handle.schedule(1000 + i * period, &b"\x01\x00\x00\x00"[..]);
    }
}

fn load_and_run_uncapped<H: metal_pipeline::Hooks>(core: &mut Core<H>, src: &str) -> (u32, u64) {
    let bytes = metal_asm::assemble_image(src, 0).unwrap_or_else(|e| panic!("{e}"));
    core.load_segments([(0u32, bytes.as_slice())], 0);
    match core.run(200_000_000) {
        Some(metal_pipeline::HaltReason::Ebreak { code }) => (code, core.state.perf.cycles),
        other => panic!("did not complete: {other:?}"),
    }
}

/// Metal user-level interrupts: the userspace handler acks directly.
/// Returns (mean latency, work-loop iterations, total cycles).
fn metal_uintr(period: u64) -> (f64, u64, u64) {
    let mut core: Core<Metal> = uintr::install(MetalBuilder::new(), map::NIC_IRQ)
        .build_core(std_config())
        .unwrap();
    let (nic, handle) = Nic::new();
    core.state
        .bus
        .attach(map::NIC_BASE, map::WINDOW_LEN, Box::new(nic));
    schedule(&handle, period);
    let src = format!(
        r"
        li t0, 2
        csrw mie, t0
        csrrsi zero, mstatus, 8
        la a0, handler
        menter {reg}
        li s1, 0               # packets handled
        li s2, 0               # useful work counter
    work:
        addi s2, s2, 1         # 'useful work'
        li t0, {packets}
        blt s1, t0, work
        mv a0, s2
        ebreak
    handler:
        li s4, 0xF0000200
        li s5, 1
        sw s5, 12(s4)          # ack
        addi s1, s1, 1
        menter {uret}
        ",
        reg = uintr::entries::REGISTER,
        uret = uintr::entries::URET,
        packets = PACKETS,
    );
    let (work, cycles) = load_and_run_uncapped(&mut core, &src);
    let lat = mean_latency(&handle);
    (lat, u64::from(work), cycles)
}

/// Kernel-mediated: the interrupt traps to the kernel (mtvec), which
/// acks the device and posts a completion the user code consumes.
fn kernel_mediated(period: u64) -> (f64, u64, u64) {
    let mut core = Core::new(std_config(), NoHooks);
    let (nic, handle) = Nic::new();
    core.state
        .bus
        .attach(map::NIC_BASE, map::WINDOW_LEN, Box::new(nic));
    schedule(&handle, period);
    let src = format!(
        r"
        li t0, 0x400
        csrw mtvec, t0
        li t0, 2
        csrw mie, t0
        csrrsi zero, mstatus, 8
        li s1, 0
        li s2, 0
        li s6, 0x7000          # completion mailbox
        sw zero, 0(s6)
    work:
        addi s2, s2, 1
        lw t0, 0(s6)           # user polls the kernel's mailbox
        beqz t0, work_cont
        sw zero, 0(s6)
        li t0, 0xF0000200
        li t1, 1
        sw t1, 12(t0)          # userspace processes + acks the packet
        csrrsi zero, mie, 2    # unmask the line
        addi s1, s1, 1
    work_cont:
        li t0, {packets}
        blt s1, t0, work
        mv a0, s2
        ebreak

        # --- kernel interrupt handler: a real kernel entry saves the
        # whole trapframe before touching anything, dispatches, posts
        # the completion, and restores on the way out ---
        .org 0x400
        csrw mscratch, t0
        li t0, 0x7100
        sw ra, 0(t0)
        sw t1, 4(t0)
        sw t2, 8(t0)
        sw a0, 12(t0)
        sw a1, 16(t0)
        sw a2, 20(t0)
        sw a3, 24(t0)
        sw a4, 28(t0)
        sw a5, 32(t0)
        sw t3, 36(t0)
        sw t4, 40(t0)
        sw t5, 44(t0)
        sw t6, 48(t0)
        csrrci zero, mie, 2    # mask the line until userspace acks
        li t1, 0x7000
        li t2, 1
        sw t2, 0(t1)           # post the completion
        li t0, 0x7100
        lw ra, 0(t0)
        lw t1, 4(t0)
        lw t2, 8(t0)
        lw a0, 12(t0)
        lw a1, 16(t0)
        lw a2, 20(t0)
        lw a3, 24(t0)
        lw a4, 28(t0)
        lw a5, 32(t0)
        lw t3, 36(t0)
        lw t4, 40(t0)
        lw t5, 44(t0)
        lw t6, 48(t0)
        csrr t0, mscratch
        mret
        ",
        packets = PACKETS,
    );
    let (work, cycles) = load_and_run_uncapped(&mut core, &src);
    let lat = mean_latency(&handle);
    (lat, u64::from(work), cycles)
}

/// Pure polling (the DPDK model): no interrupts, the user spins on the
/// device status register.
fn polling(period: u64) -> (f64, u64, u64) {
    let mut core = Core::new(std_config(), NoHooks);
    let (nic, handle) = Nic::new();
    core.state
        .bus
        .attach(map::NIC_BASE, map::WINDOW_LEN, Box::new(nic));
    schedule(&handle, period);
    let src = format!(
        r"
        li s1, 0
        li s2, 0
        li s4, 0xF0000200
    work:
        lw t0, 0(s4)           # poll STATUS
        beqz t0, work_cont
        li t1, 1
        sw t1, 12(s4)          # ack
        addi s1, s1, 1
    work_cont:
        addi s2, s2, 1
        li t0, {packets}
        blt s1, t0, work
        mv a0, s2
        ebreak
        ",
        packets = PACKETS,
    );
    let (work, cycles) = load_and_run_uncapped(&mut core, &src);
    let lat = mean_latency(&handle);
    (lat, u64::from(work), cycles)
}

fn mean_latency(handle: &NicHandle) -> f64 {
    let completions = handle.take_completions();
    assert_eq!(completions.len() as u64, PACKETS, "all packets acked");
    completions.iter().map(|(a, d)| (d - a) as f64).sum::<f64>() / completions.len() as f64
}

/// The E5 report.
#[must_use]
pub fn report() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== E5: user-level interrupts ==\n");
    let _ = writeln!(
        out,
        "delivery latency, cycles from arrival to userspace ack ({PACKETS} packets):"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>14} {:>16} {:>12}",
        "period", "Metal uintr", "kernel-mediated", "polling"
    );
    for period in [500u64, 2_000, 10_000] {
        let (m, _, _) = metal_uintr(period);
        let (k, _, _) = kernel_mediated(period);
        let (p, _, _) = polling(period);
        let _ = writeln!(out, "{period:<10} {m:>14.0} {k:>16.0} {p:>12.0}");
    }
    let _ = writeln!(
        out,
        "\nCPU occupancy: useful-work iterations per 1000 cycles (higher is\n\
         better; polling burns its budget on the device loop — the paper's\n\
         DPDK motivation):"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>14} {:>12}",
        "period", "Metal uintr", "polling"
    );
    for period in [500u64, 2_000, 10_000] {
        let (_, mw, mc) = metal_uintr(period);
        let (_, pw, pc) = polling(period);
        let _ = writeln!(
            out,
            "{period:<10} {:>14.1} {:>12.1}",
            mw as f64 / mc as f64 * 1000.0,
            pw as f64 / pc as f64 * 1000.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metal_latency_beats_kernel_mediated() {
        let (metal, _, _) = metal_uintr(2_000);
        let (kernel, _, _) = kernel_mediated(2_000);
        assert!(
            metal < kernel,
            "direct upcall {metal:.0} vs kernel path {kernel:.0}"
        );
    }

    #[test]
    fn interrupt_driven_does_more_useful_work_per_cycle() {
        // At sparse packet rates, the interrupt-driven guest's work loop
        // is shorter per iteration (no device poll), so its useful-work
        // density is higher — the DPDK argument.
        let (_, mw, mc) = metal_uintr(10_000);
        let (_, pw, pc) = polling(10_000);
        let metal_density = mw as f64 / mc as f64;
        let poll_density = pw as f64 / pc as f64;
        assert!(
            metal_density > poll_density,
            "interrupts {metal_density:.4} vs polling {poll_density:.4}"
        );
    }
}
