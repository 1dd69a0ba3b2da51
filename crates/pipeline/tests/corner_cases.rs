//! Pipeline corner cases: interactions between hazards, variable
//! latency, traps, and interrupts.

use metal_asm::assemble_image;
use metal_isa::reg::Reg;
use metal_mem::devices::{map, Timer};
use metal_mem::CacheConfig;
use metal_pipeline::{Core, CoreConfig, Engine, HaltReason, NoHooks, TrapCause};

fn perfect() -> CacheConfig {
    CacheConfig {
        size_bytes: 64 * 1024,
        line_bytes: 32,
        miss_penalty: 0,
    }
}

fn core() -> Core<NoHooks> {
    Core::new(
        CoreConfig {
            icache: perfect(),
            dcache: perfect(),
            ram_bytes: 1 << 20,
            ..CoreConfig::default()
        },
        NoHooks,
    )
}

fn run(core: &mut Core<NoHooks>, src: &str) -> HaltReason {
    let bytes = assemble_image(src, 0).unwrap_or_else(|e| panic!("{e}"));
    core.load_segments([(0u32, bytes.as_slice())], 0);
    core.run(1_000_000).expect("program should halt")
}

#[test]
fn store_to_load_same_address_back_to_back() {
    let mut c = core();
    let halt = run(
        &mut c,
        "li s0, 0x2000\n li t0, 99\n sw t0, 0(s0)\n lw a0, 0(s0)\n ebreak",
    );
    assert_eq!(halt, HaltReason::Ebreak { code: 99 });
}

#[test]
fn load_use_into_branch() {
    // A branch whose comparand comes straight from a load: the hazard
    // bubble plus EX resolution must still produce correct control flow.
    let mut c = core();
    let halt = run(
        &mut c,
        r"
        li s0, 0x2000
        li t0, 1
        sw t0, 0(s0)
        lw t1, 0(s0)
        bnez t1, taken
        li a0, 0
        ebreak
    taken:
        li a0, 7
        ebreak
        ",
    );
    assert_eq!(halt, HaltReason::Ebreak { code: 7 });
}

#[test]
fn branch_immediately_after_div() {
    // Control flow depending on a multi-cycle EX result.
    let mut c = core();
    let halt = run(
        &mut c,
        r"
        li a0, 100
        li a1, 7
        div a2, a0, a1
        li t0, 14
        bne a2, t0, bad
        li a0, 1
        ebreak
    bad:
        li a0, 0
        ebreak
        ",
    );
    assert_eq!(halt, HaltReason::Ebreak { code: 1 });
}

#[test]
fn back_to_back_taken_branches() {
    let mut c = core();
    let halt = run(
        &mut c,
        r"
        j a
    dead1:
        li a0, 0
        ebreak
    a:
        j b
    dead2:
        li a0, 0
        ebreak
    b:
        li a0, 3
        ebreak
        ",
    );
    assert_eq!(halt, HaltReason::Ebreak { code: 3 });
    assert_eq!(c.state.perf.flush_cycles, 4, "two taken jumps");
}

#[test]
fn interrupt_during_multicycle_div_is_precise() {
    // The timer fires mid-division; the interrupt must wait for the
    // division to retire and resume exactly after it.
    let mut c = core();
    c.state
        .bus
        .attach(map::TIMER_BASE, map::WINDOW_LEN, Box::new(Timer::new()));
    let halt = run(
        &mut c,
        r"
        li t0, 0x300
        csrw mtvec, t0
        li t0, 1
        csrw mie, t0
        li s0, 0xF0000100
        li t0, 26
        sw t0, 8(s0)        # timer hits inside the div below
        li t0, 1
        sw t0, 16(s0)
        csrrsi zero, mstatus, 8
        li a0, 1000
        li a1, 10
        div a2, a0, a1      # ~16 extra cycles
        addi a2, a2, 1      # must still execute exactly once
        mv a0, a2
        ebreak
        .org 0x300
        # handler: disable timer, count in s5, return
        li s4, 0xF0000100
        sw zero, 16(s4)
        lw s6, 16(s4)       # readback serializes the deassert
        addi s5, s5, 1
        mret
        ",
    );
    assert_eq!(halt, HaltReason::Ebreak { code: 101 });
    assert_eq!(c.state.regs.get(Reg::S5), 1, "exactly one interrupt");
    assert_eq!(c.state.perf.interrupts, 1);
}

#[test]
fn trap_in_branch_shadow_is_precise() {
    // A faulting load sits right after a taken branch: it must never
    // trap (it is squashed).
    let mut c = core();
    let halt = run(
        &mut c,
        r"
        li t0, 0x300
        csrw mtvec, t0
        li s0, 0x800000     # out of RAM: would fault if executed
        j skip
        lw a0, 0(s0)        # squashed
    skip:
        li a0, 5
        ebreak
        .org 0x300
        li a0, 0xBAD
        ebreak
        ",
    );
    assert_eq!(halt, HaltReason::Ebreak { code: 5 });
    assert_eq!(c.state.perf.exceptions, 0, "squashed loads must not trap");
}

#[test]
fn faulting_load_after_good_store_keeps_the_store() {
    // Precision the other way: the store (older) must land even though
    // the next instruction faults at MEM.
    let mut c = core();
    let halt = run(
        &mut c,
        r"
        li t0, 0x300
        csrw mtvec, t0
        li s0, 0x2000
        li s1, 0x800000
        li t0, 42
        sw t0, 0(s0)
        lw a0, 0(s1)        # LoadAccessFault
        ebreak
        .org 0x300
        li s2, 0x2000
        lw a0, 0(s2)        # the store must be visible
        ebreak
        ",
    );
    assert_eq!(halt, HaltReason::Ebreak { code: 42 });
    assert_eq!(c.state.csr.mcause, TrapCause::LoadAccessFault.code());
}

#[test]
fn dcache_miss_stalls_do_not_reorder() {
    // Alternate hits and conflict misses; values must stay exact.
    let mut c = Core::new(
        CoreConfig {
            icache: perfect(),
            dcache: CacheConfig {
                size_bytes: 64,
                line_bytes: 32,
                miss_penalty: 13,
            },
            ram_bytes: 1 << 20,
            ..CoreConfig::default()
        },
        NoHooks,
    );
    let halt = run(
        &mut c,
        r"
        li s0, 0x2000
        li s1, 0x2040       # conflicts with s0 in a 2-line cache
        li t0, 1
        sw t0, 0(s0)
        li t0, 2
        sw t0, 0(s1)
        lw t1, 0(s0)
        lw t2, 0(s1)
        add t3, t1, t2
        lw t4, 0(s0)
        add a0, t3, t4
        ebreak
        ",
    );
    assert_eq!(halt, HaltReason::Ebreak { code: 4 });
    assert!(c.state.perf.mem_stall > 20, "misses really stalled");
}

#[test]
fn jalr_link_and_target_with_forwarded_base() {
    // jalr whose base register was computed the previous instruction.
    let mut c = core();
    let halt = run(
        &mut c,
        r"
        la t0, func
        jalr ra, 0(t0)
        ebreak              # returns here; a0 set by func
    func:
        li a0, 9
        jr ra
        ",
    );
    assert_eq!(halt, HaltReason::Ebreak { code: 9 });
}

#[test]
fn mret_without_pending_trap_jumps_to_mepc() {
    let mut c = core();
    let halt = run(
        &mut c,
        r"
        la t0, target
        csrw mepc, t0
        mret
        li a0, 0
        ebreak
    target:
        li a0, 4
        ebreak
        ",
    );
    assert_eq!(halt, HaltReason::Ebreak { code: 4 });
}

#[test]
fn csr_read_modify_write_sequence() {
    let mut c = core();
    let halt = run(
        &mut c,
        r"
        li t0, 0xF0
        csrw mscratch, t0
        csrrsi t1, mscratch, 0xF    # t1 = 0xF0, mscratch = 0xFF
        csrrci t2, mscratch, 0x3    # t2 = 0xFF, mscratch = 0xFC
        csrr t3, mscratch
        add a0, t1, t2
        add a0, a0, t3              # 0xF0 + 0xFF + 0xFC = 0x2EB
        ebreak
        ",
    );
    assert_eq!(halt, HaltReason::Ebreak { code: 0x2EB });
}
