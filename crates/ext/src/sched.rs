//! A preemptive two-process scheduler in mcode.
//!
//! The paper's larger claim is that Metal enables *new OS designs*: the
//! processor delegates interrupt delivery and exposes ASIDs, and the OS
//! composes them. This kit is that composition — a complete preemptive
//! scheduler with per-process address spaces, written entirely as
//! mroutines:
//!
//! * the timer interrupt is delegated to the **context-switch
//!   mroutine**, which saves all 31 GPRs and the interrupted PC into
//!   the outgoing process's PCB (via physical stores — no translation,
//!   no faults, non-interruptible), restores the incoming PCB, switches
//!   the **ASID** with `masid`, re-arms the timer through MMIO, and
//!   `mexit`s straight into the other process;
//! * both processes run at the *same virtual addresses* in different
//!   address spaces — the TLB's ASID tagging (paper §2.3) keeps them
//!   apart with no page-table walk on switch.
//!
//! PCBs live in physical memory at [`PCB_BASE`] (`PCB_SIZE` bytes per
//! process: x1..x31 at `reg*4`, PC at offset 128). MRAM data words at
//! [`DATA_BASE`] hold bounce slots for the two address-register
//! temporaries, the current process index, and the time quantum.

use metal_core::MetalBuilder;
use metal_mem::devices::map::{TIMER_BASE, TIMER_IRQ};
use std::fmt::Write as _;

/// Entry numbers for the scheduler kit.
pub mod entries {
    /// Timer-delegated context switch.
    pub const SWITCH: u8 = 44;
    /// Configure: `a0` = quantum in cycles (also arms the timer).
    pub const INIT: u8 = 45;
    /// Start process 0 (restores its PCB and enters it).
    pub const START: u8 = 46;
}

/// Physical base of the PCB array.
pub const PCB_BASE: u32 = 0x7_0000;
/// Bytes per PCB.
pub const PCB_SIZE: u32 = 256;
/// PCB offset of the saved PC.
pub const PCB_PC: u32 = 128;
/// MRAM-data base for this kit.
pub const DATA_BASE: u32 = 896;

const BOUNCE_T5: u32 = DATA_BASE;
const BOUNCE_T6: u32 = DATA_BASE + 4;
const CURRENT: u32 = DATA_BASE + 8;
const QUANTUM: u32 = DATA_BASE + 12;

/// ASID assigned to process `pid`.
#[must_use]
pub fn asid_of(pid: u32) -> u32 {
    pid + 1
}

/// Emits the restore half: load every GPR from the PCB whose base is in
/// `t6`, set the ASID for `pid_reg`… the caller has already placed the
/// PCB base in `t6` and the target pid in `t4`.
fn emit_restore(out: &mut String) {
    let _ = writeln!(
        out,
        "    # restore: ASID first, then every GPR from PCB(t6)"
    );
    let _ = writeln!(out, "    addi t5, t4, 1");
    let _ = writeln!(out, "    masid t5                  # asid = pid + 1");
    let _ = writeln!(out, "    addi t5, t6, {PCB_PC}");
    let _ = writeln!(out, "    mpld t5, t5");
    let _ = writeln!(out, "    wmr m31, t5               # resume PC");
    // Restore x1..x31 except the two address temporaries (t5 = x30,
    // t6 = x31), which must come last.
    for i in 1..=31u32 {
        if i == 30 || i == 31 {
            continue;
        }
        let _ = writeln!(out, "    addi t5, t6, {}", i * 4);
        let _ = writeln!(out, "    mpld x{i}, t5");
    }
    let _ = writeln!(out, "    addi t5, t6, {}", 30 * 4);
    let _ = writeln!(out, "    mpld t5, t5               # x30 last-but-one");
    let _ = writeln!(out, "    addi t6, t6, {}", 31 * 4);
    let _ = writeln!(out, "    mpld t6, t6               # x31 last");
    let _ = writeln!(out, "    mexit");
}

/// The context-switch mroutine source.
#[must_use]
fn switch_src() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "    # context switch: save current, load next, swap ASIDs."
    );
    // Bounce the two address temporaries into MRAM data (x0-based, so
    // nothing is clobbered before it is saved).
    let _ = writeln!(out, "    mst t5, {BOUNCE_T5}(zero)");
    let _ = writeln!(out, "    mst t6, {BOUNCE_T6}(zero)");
    // t6 = PCB base of the current process.
    let _ = writeln!(out, "    mld t6, {CURRENT}(zero)");
    let _ = writeln!(out, "    slli t6, t6, 8            # * PCB_SIZE");
    let _ = writeln!(out, "    li t5, {PCB_BASE}");
    let _ = writeln!(out, "    add t6, t6, t5");
    // Save every GPR except the two temporaries.
    for i in 1..=31u32 {
        if i == 30 || i == 31 {
            continue;
        }
        let _ = writeln!(out, "    addi t5, t6, {}", i * 4);
        let _ = writeln!(out, "    mpst t5, x{i}");
    }
    // Save the bounced t5/t6 and the interrupted PC.
    let _ = writeln!(out, "    mld t0, {BOUNCE_T5}(zero)");
    let _ = writeln!(out, "    addi t5, t6, {}", 30 * 4);
    let _ = writeln!(out, "    mpst t5, t0");
    let _ = writeln!(out, "    mld t0, {BOUNCE_T6}(zero)");
    let _ = writeln!(out, "    addi t5, t6, {}", 31 * 4);
    let _ = writeln!(out, "    mpst t5, t0");
    let _ = writeln!(out, "    rmr t0, m31");
    let _ = writeln!(out, "    addi t5, t6, {PCB_PC}");
    let _ = writeln!(out, "    mpst t5, t0");
    // Flip the current process and re-arm the timer.
    let _ = writeln!(out, "    mld t4, {CURRENT}(zero)");
    let _ = writeln!(out, "    xori t4, t4, 1");
    let _ = writeln!(out, "    mst t4, {CURRENT}(zero)");
    let _ = writeln!(out, "    rmr t0, mclock");
    let _ = writeln!(out, "    mld t1, {QUANTUM}(zero)");
    let _ = writeln!(out, "    add t0, t0, t1");
    let _ = writeln!(out, "    li t5, {}", TIMER_BASE + 8);
    let _ = writeln!(
        out,
        "    mpst t5, t0               # cmp = now + quantum (rearms)"
    );
    // t6 = PCB base of the incoming process (pid in t4).
    let _ = writeln!(out, "    slli t6, t4, 8");
    let _ = writeln!(out, "    li t5, {PCB_BASE}");
    let _ = writeln!(out, "    add t6, t6, t5");
    emit_restore(&mut out);
    out
}

/// The `sched_init` mroutine: `a0` = quantum. Records it, resets the
/// current process, and arms the timer.
#[must_use]
fn init_src() -> String {
    format!(
        r"
    mst a0, {QUANTUM}(zero)
    mst zero, {CURRENT}(zero)
    rmr t0, mclock
    add t0, t0, a0
    li t1, {cmp}
    mpst t1, t0               # cmp = now + quantum
    li t0, 1
    li t1, {ctrl}
    mpst t1, t0               # enable the timer
    mexit
    ",
        cmp = TIMER_BASE + 8,
        ctrl = TIMER_BASE + 16,
    )
}

/// The `sched_start` mroutine: enter process 0 from boot.
#[must_use]
fn start_src() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "    li t4, 0                  # pid 0");
    let _ = writeln!(out, "    li t6, {PCB_BASE}");
    emit_restore(&mut out);
    out
}

/// Installs the scheduler kit, delegating the timer interrupt to the
/// switch mroutine.
#[must_use]
pub fn install(builder: MetalBuilder) -> MetalBuilder {
    builder
        .routine(entries::SWITCH, "sched_switch", &switch_src())
        .routine(entries::INIT, "sched_init", &init_src())
        .routine(entries::START, "sched_start", &start_src())
        .delegate_interrupt(TIMER_IRQ, entries::SWITCH)
}

/// Host-side helper: writes a PCB (initial PC and stack pointer).
pub fn write_pcb(ram: &mut metal_mem::PhysMemory, pid: u32, pc: u32, sp: u32) {
    let base = PCB_BASE + pid * PCB_SIZE;
    for i in 0..32 {
        ram.write_u32(base + i * 4, 0).expect("PCB in RAM");
    }
    ram.write_u32(base + 2 * 4, sp).expect("PCB in RAM"); // x2 = sp
    ram.write_u32(base + PCB_PC, pc).expect("PCB in RAM");
}

#[cfg(test)]
mod tests {
    use super::*;
    use metal_mem::devices::{map, Timer};
    use metal_mem::tlb::Pte;
    use metal_pipeline::state::{CoreConfig, TranslationMode};
    use metal_pipeline::{Core, Engine, HaltReason};

    /// Shared virtual layout: both processes run at VA 0x10000 with a
    /// counter page at VA 0x20000 — mapped to different frames per ASID.
    const CODE_VA: u32 = 0x1_0000;
    const DATA_VA: u32 = 0x2_0000;
    const P0_CODE_PA: u32 = 0x3_0000;
    const P1_CODE_PA: u32 = 0x3_4000;
    const P0_DATA_PA: u32 = 0x3_8000;
    const P1_DATA_PA: u32 = 0x3_C000;

    fn setup() -> Core<metal_core::Metal> {
        let mut core = install(MetalBuilder::new())
            .build_core(CoreConfig {
                tlb: metal_mem::TlbConfig { entries: 64 },
                ..CoreConfig::default()
            })
            .unwrap();
        core.state
            .bus
            .attach(map::TIMER_BASE, map::WINDOW_LEN, Box::new(Timer::new()));
        // Boot pages: global identity.
        for i in 0..8 {
            let addr = i * 0x1000;
            core.state.tlb.install(
                addr,
                Pte::new(addr, Pte::V | Pte::R | Pte::W | Pte::X | Pte::G),
                0,
            );
        }
        // Per-process mappings: same VAs, different frames, per ASID.
        for (pid, code_pa, data_pa) in [(0u32, P0_CODE_PA, P0_DATA_PA), (1, P1_CODE_PA, P1_DATA_PA)]
        {
            let asid = asid_of(pid) as u16;
            core.state
                .tlb
                .install(CODE_VA, Pte::new(code_pa, Pte::V | Pte::R | Pte::X), asid);
            core.state
                .tlb
                .install(DATA_VA, Pte::new(data_pa, Pte::V | Pte::R | Pte::W), asid);
        }
        core.state.translation = TranslationMode::SoftTlb;
        core
    }

    fn load_process(core: &mut Core<metal_core::Metal>, pa: u32, src: &str) {
        let bytes = metal_asm::assemble_image(src, CODE_VA).unwrap();
        core.state.bus.ram.load(pa, &bytes).unwrap();
    }

    #[test]
    fn preemptive_round_robin_with_isolated_address_spaces() {
        let mut core = setup();
        // Process 0: count to 2000 at DATA_VA, then ebreak with the
        // *other* process's progress unknown to it.
        let p0 = format!(
            r"
            li s0, {DATA_VA:#x}
        loop:
            lw t0, 0(s0)
            addi t0, t0, 1
            sw t0, 0(s0)
            li t1, 2000
            blt t0, t1, loop
            mv a0, t0
            ebreak
            "
        );
        // Process 1: counts forever at the same VA.
        let p1 = format!(
            r"
            li s0, {DATA_VA:#x}
        loop:
            lw t0, 0(s0)
            addi t0, t0, 1
            sw t0, 0(s0)
            j loop
            "
        );
        load_process(&mut core, P0_CODE_PA, &p0);
        load_process(&mut core, P1_CODE_PA, &p1);
        write_pcb(&mut core.state.bus.ram, 0, CODE_VA, 0);
        write_pcb(&mut core.state.bus.ram, 1, CODE_VA, 0);

        // Boot: enable the timer line, set a 500-cycle quantum, start.
        let boot = format!(
            r"
            li t0, 1
            csrw mie, t0
            csrrsi zero, mstatus, 8
            li a0, 500
            menter {init}
            menter {start}
            ",
            init = entries::INIT,
            start = entries::START,
        );
        let bytes = metal_asm::assemble_image(&boot, 0).unwrap();
        core.load_segments([(0u32, bytes.as_slice())], 0);
        let halt = core.run(10_000_000);
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 2000 }), "{halt:?}");

        // Both processes made progress in *separate* frames at the same VA.
        let p0_count = core.state.bus.ram.read_u32(P0_DATA_PA).unwrap();
        let p1_count = core.state.bus.ram.read_u32(P1_DATA_PA).unwrap();
        assert_eq!(p0_count, 2000);
        assert!(
            p1_count > 100,
            "process 1 must have been scheduled: {p1_count}"
        );
        assert!(
            core.hooks.stats.delegated_interrupts >= 4,
            "several preemptions: {:?}",
            core.hooks.stats
        );
    }

    #[test]
    fn context_switch_preserves_all_registers() {
        let mut core = setup();
        // Process 0 fills many registers with known values, spins for a
        // few quanta, then checks every one of them.
        let p0 = format!(
            r"
            li s0, {DATA_VA:#x}
            li s1, 0x1111
            li s2, 0x2222
            li s3, 0x3333
            li s4, 0x4444
            li s5, 0x5555
            li t3, 0x6666
            li t4, 0x7777
            li t5, 0x8888
            li t6, 0x9999
            li ra, 0xAAAA
            li gp, 0xBBBB
            li tp, 0xCCCC
            li a7, 3200       # spin long enough for several switches
        spin:
            addi a7, a7, -1
            bnez a7, spin
            li a0, 0
            li t0, 0x1111
            bne s1, t0, fail
            li t0, 0x2222
            bne s2, t0, fail
            li t0, 0x3333
            bne s3, t0, fail
            li t0, 0x4444
            bne s4, t0, fail
            li t0, 0x5555
            bne s5, t0, fail
            li t0, 0x6666
            bne t3, t0, fail
            li t0, 0x7777
            bne t4, t0, fail
            li t0, 0x8888
            bne t5, t0, fail
            li t0, 0x9999
            bne t6, t0, fail
            li t0, 0xAAAA
            bne ra, t0, fail
            li t0, 0xBBBB
            bne gp, t0, fail
            li t0, 0xCCCC
            bne tp, t0, fail
            li a0, 1
        fail:
            ebreak
            "
        );
        // Process 1 deliberately trashes every register it can.
        let p1 = r"
        loop:
            li s1, -1
            li s2, -1
            li s3, -1
            li s4, -1
            li s5, -1
            li t3, -1
            li t4, -1
            li t5, -1
            li t6, -1
            li ra, -1
            li gp, -1
            li tp, -1
            j loop
        ";
        load_process(&mut core, P0_CODE_PA, &p0);
        load_process(&mut core, P1_CODE_PA, p1);
        write_pcb(&mut core.state.bus.ram, 0, CODE_VA, 0);
        write_pcb(&mut core.state.bus.ram, 1, CODE_VA, 0);
        let boot = format!(
            "li t0, 1\n csrw mie, t0\n csrrsi zero, mstatus, 8\n li a0, 400\n menter {}\n menter {}",
            entries::INIT,
            entries::START
        );
        let bytes = metal_asm::assemble_image(&boot, 0).unwrap();
        core.load_segments([(0u32, bytes.as_slice())], 0);
        let halt = core.run(10_000_000);
        assert!(
            core.hooks.stats.delegated_interrupts >= 2,
            "need switches to make the test meaningful: {:?}",
            core.hooks.stats
        );
        assert_eq!(
            halt,
            Some(HaltReason::Ebreak { code: 1 }),
            "all registers must survive preemption"
        );
    }
}
