//! Behavioural and timing tests for the pipelined core, driven by
//! assembled programs.

use metal_asm::assemble_at;
use metal_isa::reg::Reg;
use metal_mem::CacheConfig;
use metal_pipeline::{Core, CoreConfig, Engine, HaltReason, Interp, NoHooks, TrapCause};

fn perfect_cache() -> CacheConfig {
    CacheConfig {
        size_bytes: 64 * 1024,
        line_bytes: 32,
        miss_penalty: 0,
    }
}

/// A core with single-cycle memory everywhere, so cycle counts are pure
/// pipeline behaviour.
fn ideal_core() -> Core<NoHooks> {
    Core::new(
        CoreConfig {
            icache: perfect_cache(),
            dcache: perfect_cache(),
            ram_bytes: 1 << 20,
            ..CoreConfig::default()
        },
        NoHooks,
    )
}

fn to_bytes(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

fn load_asm(core: &mut Core<NoHooks>, src: &str) {
    let words = assemble_at(src, 0).unwrap_or_else(|e| panic!("{e}"));
    core.load_segments([(0u32, to_bytes(&words).as_slice())], 0);
}

fn run_asm(core: &mut Core<NoHooks>, src: &str) -> HaltReason {
    load_asm(core, src);
    core.run(1_000_000).expect("program should halt")
}

#[test]
fn arithmetic_and_halt() {
    let mut core = ideal_core();
    let halt = run_asm(&mut core, "li a0, 6\n li a1, 7\n mul a0, a0, a1\n ebreak");
    assert_eq!(halt, HaltReason::Ebreak { code: 42 });
}

#[test]
fn forwarding_chain_correct() {
    // Each instruction consumes the previous one's result immediately.
    let mut core = ideal_core();
    let halt = run_asm(
        &mut core,
        "li a0, 1\n addi a0, a0, 1\n addi a0, a0, 1\n addi a0, a0, 1\n\
         slli a0, a0, 4\n addi a0, a0, 2\n ebreak",
    );
    assert_eq!(halt, HaltReason::Ebreak { code: 66 });
}

#[test]
fn steady_state_cpi_is_one() {
    // 100 independent ALU ops: cycles ≈ instret + pipeline fill.
    let body = "addi a1, a1, 1\n".repeat(100);
    let mut core = ideal_core();
    run_asm(&mut core, &format!("{body}ebreak"));
    let perf = &core.state.perf;
    assert!(
        perf.cycles <= perf.instret + 8,
        "CPI should be ~1: {} cycles for {} insns",
        perf.cycles,
        perf.instret
    );
}

#[test]
fn load_use_stalls_one_cycle() {
    // Version A: load immediately consumed. Version B: independent insn
    // between. A must take exactly one cycle more than B.
    let prologue = "li s0, 0x1000\n li t1, 7\n sw t1, 0(s0)\n";
    let a = format!("{prologue} lw a1, 0(s0)\n addi a2, a1, 1\n addi a3, zero, 0\n ebreak");
    let b = format!("{prologue} lw a1, 0(s0)\n addi a3, zero, 0\n addi a2, a1, 1\n ebreak");
    let mut core_a = ideal_core();
    run_asm(&mut core_a, &a);
    let mut core_b = ideal_core();
    run_asm(&mut core_b, &b);
    assert_eq!(core_a.state.regs.get(Reg::A2), 8);
    assert_eq!(core_b.state.regs.get(Reg::A2), 8);
    assert_eq!(
        core_a.state.perf.cycles,
        core_b.state.perf.cycles + 1,
        "load-use should cost exactly one bubble"
    );
    assert_eq!(core_a.state.perf.loaduse_stall, 1);
    assert_eq!(core_b.state.perf.loaduse_stall, 0);
}

#[test]
fn taken_branch_costs_two_cycles() {
    // Taken vs not-taken branch over the same instruction count.
    let taken = "li a0, 1\n beq a0, a0, skip\n nop\nskip: nop\n ebreak";
    let not_taken = "li a0, 1\n beq a0, zero, skip\n nop\nskip: nop\n ebreak";
    let mut core_t = ideal_core();
    run_asm(&mut core_t, taken);
    let mut core_n = ideal_core();
    run_asm(&mut core_n, not_taken);
    // Taken path retires one fewer instruction (skips the nop) but pays
    // the 2-cycle flush: net +1 cycle.
    assert_eq!(core_t.state.perf.flush_cycles, 2);
    assert_eq!(core_n.state.perf.flush_cycles, 0);
    assert_eq!(core_t.state.perf.cycles, core_n.state.perf.cycles + 1);
}

#[test]
fn icache_miss_stalls_fetch() {
    let mut cold = Core::new(
        CoreConfig {
            icache: CacheConfig {
                size_bytes: 256,
                line_bytes: 4, // every fetch its own line -> every fetch misses once
                miss_penalty: 10,
            },
            dcache: perfect_cache(),
            ram_bytes: 1 << 20,
            ..CoreConfig::default()
        },
        NoHooks,
    );
    run_asm(&mut cold, "nop\n nop\n nop\n ebreak");
    let mut warm = ideal_core();
    run_asm(&mut warm, "nop\n nop\n nop\n ebreak");
    assert!(
        cold.state.perf.cycles > warm.state.perf.cycles + 3 * 10 - 5,
        "cold fetches should pay the miss penalty: {} vs {}",
        cold.state.perf.cycles,
        warm.state.perf.cycles
    );
    assert!(cold.state.perf.fetch_stall >= 30);
}

#[test]
fn memory_operations_produce_correct_state() {
    let mut core = ideal_core();
    run_asm(
        &mut core,
        "li s0, 0x2000\n li t0, -2\n sw t0, 0(s0)\n sh t0, 4(s0)\n sb t0, 8(s0)\n\
         lw a1, 0(s0)\n lhu a2, 4(s0)\n lbu a3, 8(s0)\n lb a4, 8(s0)\n ebreak",
    );
    assert_eq!(core.state.regs.get(Reg::A1), 0xFFFF_FFFE);
    assert_eq!(core.state.regs.get(Reg::A2), 0xFFFE);
    assert_eq!(core.state.regs.get(Reg::A3), 0xFE);
    assert_eq!(core.state.regs.get(Reg::A4), 0xFFFF_FFFE);
}

#[test]
fn ecall_vectors_and_mret_returns() {
    let mut core = ideal_core();
    let halt = run_asm(
        &mut core,
        r"
        .equ HANDLER, 0x100
        li t0, HANDLER
        csrw mtvec, t0
        li a0, 5
        ecall            # handler doubles a0
        addi a0, a0, 1
        ebreak
        .org HANDLER
        slli a0, a0, 1
        csrr t1, mepc
        addi t1, t1, 4
        csrw mepc, t1
        mret
        ",
    );
    assert_eq!(halt, HaltReason::Ebreak { code: 11 });
    assert_eq!(core.state.csr.mcause, TrapCause::Ecall.code());
    assert_eq!(core.state.perf.exceptions, 1);
}

#[test]
fn illegal_instruction_reports_word() {
    let mut core = ideal_core();
    let halt = run_asm(
        &mut core,
        r"
        li t0, 0x100
        csrw mtvec, t0
        .word 0xFFFFFFFF
        nop
        .org 0x100
        ebreak
        ",
    );
    assert_eq!(halt, HaltReason::Ebreak { code: 0 });
    assert_eq!(core.state.csr.mcause, TrapCause::IllegalInstruction.code());
    assert_eq!(core.state.csr.mtval, 0xFFFF_FFFF);
}

#[test]
fn metal_insns_are_illegal_without_extension() {
    let mut core = ideal_core();
    let halt = run_asm(
        &mut core,
        r"
        li t0, 0x100
        csrw mtvec, t0
        menter 3
        nop
        .org 0x100
        csrr a0, mcause
        ebreak
        ",
    );
    assert_eq!(
        halt,
        HaltReason::Ebreak {
            code: TrapCause::IllegalInstruction.code()
        }
    );
}

#[test]
fn fetch_fault_on_unmapped_pc() {
    let mut core = ideal_core();
    let halt = run_asm(
        &mut core,
        r"
        li t0, 0x100
        csrw mtvec, t0
        li t1, 0x800000     # beyond 1 MiB RAM
        jr t1
        .org 0x100
        csrr a0, mcause
        ebreak
        ",
    );
    assert_eq!(
        halt,
        HaltReason::Ebreak {
            code: TrapCause::InsnAccessFault.code()
        }
    );
    assert_eq!(core.state.csr.mtval, 0x80_0000);
}

#[test]
fn store_load_to_mmio_console() {
    use metal_mem::devices::{map, Console};
    let mut core = ideal_core();
    let (console, out) = Console::new();
    core.state
        .bus
        .attach(map::CONSOLE_BASE, map::WINDOW_LEN, Box::new(console));
    run_asm(
        &mut core,
        r"
        li s0, 0xF0000000
        li t0, 'H'
        sw t0, 0(s0)
        li t0, 'i'
        sw t0, 0(s0)
        ebreak
        ",
    );
    assert_eq!(out.lock().as_slice(), b"Hi");
}

#[test]
fn timer_interrupt_delivered() {
    use metal_mem::devices::{map, Timer};
    let mut core = ideal_core();
    core.state
        .bus
        .attach(map::TIMER_BASE, map::WINDOW_LEN, Box::new(Timer::new()));
    let halt = run_asm(
        &mut core,
        r"
        li t0, 0x200
        csrw mtvec, t0
        li t0, 1            # enable timer line (bit 0)
        csrw mie, t0
        li s0, 0xF0000100
        li t0, 50
        sw t0, 8(s0)        # cmp = 50
        li t0, 1
        sw t0, 16(s0)       # ctrl = enable
        csrrsi zero, mstatus, 8   # set MIE
        spin:
        j spin
        .org 0x200
        csrr a0, mcause
        ebreak
        ",
    );
    assert_eq!(
        halt,
        HaltReason::Ebreak {
            code: TrapCause::Interrupt(map::TIMER_IRQ).code()
        }
    );
    assert_eq!(core.state.perf.interrupts, 1);
}

#[test]
fn wfi_waits_for_interrupt() {
    use metal_mem::devices::{map, Timer};
    let mut core = ideal_core();
    core.state
        .bus
        .attach(map::TIMER_BASE, map::WINDOW_LEN, Box::new(Timer::new()));
    let halt = run_asm(
        &mut core,
        r"
        li t0, 1
        csrw mie, t0
        li s0, 0xF0000100
        li t0, 500
        sw t0, 8(s0)
        li t0, 1
        sw t0, 16(s0)
        wfi                 # MIE is off: wake without trapping
        ebreak
        ",
    );
    assert_eq!(halt, HaltReason::Ebreak { code: 0 });
    assert!(
        core.state.perf.cycles >= 500,
        "WFI should sleep until the timer: {} cycles",
        core.state.perf.cycles
    );
    assert_eq!(core.state.perf.interrupts, 0, "MIE off: no trap");
}

#[test]
fn retiring_jump_loop_runs_to_cycle_cap() {
    let mut core = ideal_core();
    load_asm(&mut core, "j 0x0");
    // A `j 0` loop retires an instruction every few cycles; it runs
    // until the cycle cap.
    assert_eq!(core.run(10_000), None);
    assert!(core.state.perf.instret > 1000);
}

#[test]
fn long_wfi_sleep_is_not_a_hang() {
    use metal_mem::devices::{map, Timer};
    // The watchdog's windows end at multiples of 100,000 cycles. A wake
    // at 199,998 leaves no time to retire before the window ends, so
    // only the WFI state at the window's start keeps it from a hang.
    for cmp in [150_000, 199_998] {
        let mut core = ideal_core();
        core.state
            .bus
            .attach(map::TIMER_BASE, map::WINDOW_LEN, Box::new(Timer::new()));
        load_asm(
            &mut core,
            &format!(
                r"
                li t0, 1
                csrw mie, t0
                li s0, 0xF0000100
                li t0, {cmp}
                sw t0, 8(s0)
                li t0, 1
                sw t0, 16(s0)
                wfi                 # MIE is off: wake without trapping
                li a0, 7
                ebreak
                "
            ),
        );
        assert_eq!(
            core.run_fuel(1_000_000),
            HaltReason::Ebreak { code: 7 },
            "timer compare {cmp}"
        );
        assert!(core.state.perf.cycles > cmp);
    }
}

#[test]
fn trap_loop_without_retirement_times_out_on_both_engines() {
    // mtvec points at an illegal word, so the handler's first instruction
    // traps back to itself forever: only `li` and `csrw` ever retire.
    let mut words = assemble_at("li t0, 12\n csrw mtvec, t0\n ecall", 0).unwrap();
    assert_eq!(words.len(), 3);
    words.push(0xFFFF_FFFF);
    let bytes = to_bytes(&words);

    let mut core = Core::new(CoreConfig::default(), NoHooks);
    core.load_segments([(0u32, bytes.as_slice())], 0);
    let mut interp = Interp::new(CoreConfig::default(), NoHooks);
    interp.load_segments([(0u32, bytes.as_slice())], 0);
    assert_eq!(core.run_fuel(300_000), HaltReason::Timeout);
    assert_eq!(interp.run_fuel(300_000), HaltReason::Timeout);
    // Both retire in the first 100,000-cycle window and stop at the end
    // of the second, which retires nothing.
    for perf in [&core.state.perf, &interp.state.perf] {
        assert_eq!((perf.cycles, perf.instret), (200_000, 2));
    }
}

/// Runs `a0 = 3 * 5` after flipping bit 0 of the EX/MEM latch at cycle
/// `ticks`. Returns whether the flip landed and how the run halted.
fn mul_with_ex_mem_flip(ticks: u32) -> (bool, Option<HaltReason>) {
    let mut core = ideal_core();
    load_asm(&mut core, "li a1, 3\n li a2, 5\n mul a0, a1, a2\n ebreak");
    for _ in 0..ticks {
        core.step();
    }
    let applied = core.inject_latch_bit(2, 0);
    (applied, core.run(1_000))
}

#[test]
fn held_and_result_latches_are_injectable() {
    let flipped = Some(HaltReason::Ebreak { code: 15 ^ 1 });
    // Cycle 5: the mul's result waits in EX/MEM while EX spends its extra
    // mul cycles.
    assert_eq!(mul_with_ex_mem_flip(5), (true, flipped.clone()));
    // Cycle 7: EX is done, and the latched result is what gets written
    // back.
    assert_eq!(mul_with_ex_mem_flip(7), (true, flipped));
}

/// Extra cycles `op a2, a0, a1` costs over an `add` on the ideal core,
/// after checking the result it writes.
fn extra_ex_cycles(op: &str, want: u32) -> u64 {
    let mut fast = ideal_core();
    run_asm(&mut fast, "li a0, 100\n li a1, 7\n add a2, a0, a1\n ebreak");
    let mut slow = ideal_core();
    run_asm(
        &mut slow,
        &format!("li a0, 100\n li a1, 7\n {op} a2, a0, a1\n ebreak"),
    );
    assert_eq!(slow.state.regs.get(Reg::A2), want);
    slow.state.perf.cycles - fast.state.perf.cycles
}

#[test]
fn multiply_latency_charged() {
    assert_eq!(
        extra_ex_cycles("mul", 700),
        2,
        "mul costs 2 extra EX cycles"
    );
}

#[test]
fn division_latency_charged() {
    assert_eq!(
        extra_ex_cycles("div", 14),
        16,
        "div costs 16 extra EX cycles"
    );
}
