//! End-to-end tests of the Metal extension on the pipelined core.

use metal_core::loader::MetalBuilder;
use metal_core::mram::MRAM_BASE;
use metal_core::Metal;
use metal_core::{DispatchStyle, EntryCause, MetalConfig, MramConfig};
use metal_isa::reg::Reg;
use metal_mem::devices::{map, Timer};
use metal_mem::CacheConfig;
use metal_pipeline::state::{CoreConfig, TranslationMode};
use metal_pipeline::{Core, Engine, HaltReason, TrapCause};

fn perfect_cache() -> CacheConfig {
    CacheConfig {
        size_bytes: 64 * 1024,
        line_bytes: 32,
        miss_penalty: 0,
    }
}

fn core_config() -> CoreConfig {
    CoreConfig {
        icache: perfect_cache(),
        dcache: perfect_cache(),
        ram_bytes: 2 << 20,
        ..CoreConfig::default()
    }
}

fn load_and_run(core: &mut Core<Metal>, src: &str, max: u64) -> Option<HaltReason> {
    let bytes = metal_asm::assemble_image(src, 0).unwrap_or_else(|e| panic!("{e}"));
    core.load_segments([(0u32, bytes.as_slice())], 0);
    core.run(max)
}

#[test]
fn menter_runs_mroutine_and_returns() {
    let mut core = MetalBuilder::new()
        .routine(3, "triple", "slli t6, a0, 1\n add a0, a0, t6\n mexit")
        .build_core(core_config())
        .unwrap();
    let halt = load_and_run(
        &mut core,
        "li a0, 5\n menter 3\n addi a0, a0, 1\n ebreak",
        10_000,
    );
    assert_eq!(halt, Some(HaltReason::Ebreak { code: 16 }));
    assert_eq!(core.hooks.stats.menters, 1);
    assert_eq!(core.hooks.stats.mexits, 1);
}

#[test]
fn menter_indirect_selects_entry() {
    let mut core = MetalBuilder::new()
        .routine(1, "inc", "addi a0, a0, 1\n mexit")
        .routine(2, "dec", "addi a0, a0, -1\n mexit")
        .build_core(core_config())
        .unwrap();
    let halt = load_and_run(
        &mut core,
        "li a0, 10\n li t0, 2\n menter t0\n li t0, 1\n menter t0\n menter t0\n ebreak",
        10_000,
    );
    assert_eq!(halt, Some(HaltReason::Ebreak { code: 11 }));
    assert_eq!(core.hooks.stats.menters, 3);
}

#[test]
fn m31_holds_return_address_and_is_writable() {
    // The mroutine redirects its return by rewriting m31 (skip the next
    // instruction after the call site).
    let mut core = MetalBuilder::new()
        .routine(
            0,
            "skipper",
            "rmr t0, m31\n addi t0, t0, 4\n wmr m31, t0\n mexit",
        )
        .build_core(core_config())
        .unwrap();
    let halt = load_and_run(
        &mut core,
        "li a0, 1\n menter 0\n li a0, 99\n ebreak", // the li a0,99 is skipped
        10_000,
    );
    assert_eq!(halt, Some(HaltReason::Ebreak { code: 1 }));
}

#[test]
fn metal_mode_only_instructions_trap_in_normal_mode() {
    for src in [
        "mexit",
        "rmr a0, m0",
        "wmr m0, a0",
        "mld a0, 0(zero)",
        "mpld a0, a1",
    ] {
        let mut core = MetalBuilder::new()
            .routine(0, "noop", "mexit")
            .build_core(core_config())
            .unwrap();
        let program = format!(
            "li t0, 0x200\n csrw mtvec, t0\n {src}\n nop\n .org 0x200\n csrr a0, mcause\n ebreak"
        );
        let halt = load_and_run(&mut core, &program, 10_000);
        assert_eq!(
            halt,
            Some(HaltReason::Ebreak {
                code: TrapCause::IllegalInstruction.code()
            }),
            "{src} should be illegal in normal mode"
        );
    }
}

#[test]
fn menter_bad_entry_traps() {
    let mut core = MetalBuilder::new()
        .routine(0, "noop", "mexit")
        .build_core(core_config())
        .unwrap();
    let halt = load_and_run(
        &mut core,
        "li t0, 0x200\n csrw mtvec, t0\n menter 9\n nop\n .org 0x200\n csrr a0, mcause\n ebreak",
        10_000,
    );
    assert_eq!(
        halt,
        Some(HaltReason::Ebreak {
            code: TrapCause::IllegalInstruction.code()
        })
    );
}

#[test]
fn normal_mode_cannot_execute_mram() {
    let mut core = MetalBuilder::new()
        .routine(0, "noop", "mexit")
        .build_core(core_config())
        .unwrap();
    let halt = load_and_run(
        &mut core,
        &format!(
            "li t0, 0x200\n csrw mtvec, t0\n li t1, {MRAM_BASE:#x}\n jr t1\n\
             .org 0x200\n csrr a0, mcause\n ebreak"
        ),
        10_000,
    );
    assert_eq!(
        halt,
        Some(HaltReason::Ebreak {
            code: TrapCause::InsnAccessFault.code()
        })
    );
}

#[test]
fn mram_data_segment_persists_across_invocations() {
    // A counter mroutine: increments a word in the MRAM data segment.
    let mut core = MetalBuilder::new()
        .routine(
            4,
            "counter",
            "mld t0, 0(zero)\n addi t0, t0, 1\n mst t0, 0(zero)\n mv a0, t0\n mexit",
        )
        .build_core(core_config())
        .unwrap();
    let halt = load_and_run(&mut core, "menter 4\n menter 4\n menter 4\n ebreak", 10_000);
    assert_eq!(halt, Some(HaltReason::Ebreak { code: 3 }));
    // Host-side view agrees.
    assert_eq!(core.hooks.mram.data_load(0), Ok(3));
}

#[test]
fn mram_data_out_of_bounds_is_fatal_in_mroutine() {
    let mut core = MetalBuilder::new()
        .config(MetalConfig {
            mram: MramConfig {
                code_bytes: 4096,
                data_bytes: 64,
                fetch_latency: 1,
            },
            ..MetalConfig::default()
        })
        .routine(0, "oob", "li t0, 4096\n mld t1, 0(t0)\n mexit")
        .build_core(core_config())
        .unwrap();
    let halt = load_and_run(&mut core, "menter 0\n ebreak", 10_000);
    assert!(
        matches!(halt, Some(HaltReason::Fatal(ref msg)) if msg.contains("LoadAccessFault")),
        "fault in an mroutine is fatal: {halt:?}"
    );
}

#[test]
fn exception_delegation_reaches_mroutine() {
    // Delegate ecall: the handler doubles a0 and returns past the ecall.
    let mut core = MetalBuilder::new()
        .routine(
            2,
            "sys",
            "slli a0, a0, 1\n rmr t0, m31\n addi t0, t0, 4\n wmr m31, t0\n mexit",
        )
        .delegate_exception(TrapCause::Ecall, 2)
        .build_core(core_config())
        .unwrap();
    let halt = load_and_run(
        &mut core,
        "li a0, 8\n ecall\n addi a0, a0, 1\n ebreak",
        10_000,
    );
    assert_eq!(halt, Some(HaltReason::Ebreak { code: 17 }));
    assert_eq!(core.hooks.stats.delegated_exceptions, 1);
    // mcause MCR recorded the delegated cause.
    assert_eq!(
        EntryCause::decode(core.hooks.mregs.mcause),
        Some(EntryCause::Exception(TrapCause::Ecall))
    );
}

#[test]
fn undelegated_exception_falls_back_to_mtvec() {
    let mut core = MetalBuilder::new()
        .routine(0, "noop", "mexit")
        .delegate_exception(TrapCause::LoadPageFault, 0)
        .build_core(core_config())
        .unwrap();
    let halt = load_and_run(
        &mut core,
        "li t0, 0x200\n csrw mtvec, t0\n ecall\n nop\n .org 0x200\n csrr a0, mcause\n ebreak",
        10_000,
    );
    assert_eq!(
        halt,
        Some(HaltReason::Ebreak {
            code: TrapCause::Ecall.code()
        })
    );
}

#[test]
fn interrupt_delegation_and_non_interruptibility() {
    // Timer fires while a long mroutine runs; delivery must wait until
    // mexit (mroutines are non-interruptible).
    let mut core = MetalBuilder::new()
        .routine(
            1,
            "slow",
            // ~40 cycles of busy work inside Metal mode.
            "li t0, 20\nspin: addi t0, t0, -1\n bnez t0, spin\n mexit",
        )
        .routine(
            2,
            "timer_handler",
            // Record entry cycle in a0, disable the timer, and read the
            // control register back so the level-triggered line is seen
            // deasserted before mexit (the classic ack-serialization a
            // level-triggered handler needs).
            "rmr a0, mclock\n li t1, 0xF0000100\n sw zero, 16(t1)\n lw t2, 16(t1)\n mexit",
        )
        .delegate_interrupt(map::TIMER_IRQ, 2)
        .build_core(core_config())
        .unwrap();
    core.state
        .bus
        .attach(map::TIMER_BASE, map::WINDOW_LEN, Box::new(Timer::new()));
    let halt = load_and_run(
        &mut core,
        r"
        li t0, 1
        csrw mie, t0
        csrrsi zero, mstatus, 8
        li s0, 0xF0000100
        li t0, 10
        sw t0, 8(s0)       # timer fires at cycle 10
        li t0, 1
        sw t0, 16(s0)
        menter 1           # long mroutine; interrupt must wait
        wait:
        beqz a0, wait      # handler sets a0 = entry cycle
        ebreak
        ",
        100_000,
    );
    assert_eq!(core.hooks.stats.delegated_interrupts, 1, "{halt:?}");
    // The handler observed a cycle counter well after the timer fired,
    // because delivery waited for the mroutine to finish.
    let handler_cycle = match halt {
        Some(HaltReason::Ebreak { code }) => u64::from(code),
        other => panic!("unexpected halt {other:?}"),
    };
    assert!(
        handler_cycle > 40,
        "interrupt should be held during the mroutine (delivered at {handler_cycle})"
    );
}

#[test]
fn interception_redirects_and_emulates() {
    // Intercept all LOADs; the handler emulates `lw rd, off(rs1)` by
    // decoding minsn, loading via physical memory, doubling the value,
    // then skipping the intercepted instruction.
    let handler = r"
        rmr t0, minsn          # t0 = intercepted instruction word
        # rd  = bits 11:7 -> not needed: we know the victim uses a3
        # rs1 = bits 19:15, imm = bits 31:20 -- victim uses 0(s0)
        mpld t1, s0            # physical load from the victim's address
        slli a3, t1, 1         # a3 = 2 * mem[s0]
        rmr t2, m31
        addi t2, t2, 4         # skip the intercepted lw
        wmr m31, t2
        mexit
    ";
    // tstart-like toggle mroutines.
    let arm = r"
        li t0, 0x03            # opcode-class LOAD selector
        li t1, 0x0B            # entry 5, enable: (5 << 1) | 1
        mintercept t0, t1
        li t2, 1
        wmr mstatus, t2        # master enable
        mexit
    ";
    let disarm = r"
        li t0, 0x03
        mintercept t0, zero    # disable the rule
        mexit
    ";
    let mut core = MetalBuilder::new()
        .routine(5, "load_handler", handler)
        .routine(6, "arm", arm)
        .routine(7, "disarm", disarm)
        .build_core(core_config())
        .unwrap();
    let halt = load_and_run(
        &mut core,
        r"
        li s0, 0x4000
        li t0, 21
        sw t0, 0(s0)
        menter 6           # arm interception of loads
        lw a3, 0(s0)       # intercepted: a3 = 42, not 21
        menter 7           # disarm
        lw a4, 0(s0)       # normal again: a4 = 21
        add a0, a3, a4
        ebreak
        ",
        100_000,
    );
    assert_eq!(halt, Some(HaltReason::Ebreak { code: 63 }));
    assert_eq!(core.hooks.stats.intercepts, 1);
}

#[test]
fn tlb_management_from_mcode() {
    // An mroutine installs a mapping, switches to SoftTlb translation is
    // host-side; the guest then accesses the virtual page.
    let mut core = MetalBuilder::new()
        .routine(
            0,
            "mapper",
            r"
            # a0 = va, a1 = pte
            mtlbw a0, a1
            mexit
            ",
        )
        .build_core(core_config())
        .unwrap();
    // Identity-map the code page and data page, then enable SoftTlb.
    // Easier: run in Bare, call the mapper, switch to SoftTlb via host,
    // then verify the TLB contents directly.
    let halt = load_and_run(
        &mut core,
        r"
        li a0, 0x00005000      # va
        li a1, 0x00009007      # pa 0x9000 | V|R|W
        menter 0
        ebreak
        ",
        10_000,
    );
    assert_eq!(halt, Some(HaltReason::Ebreak { code: 0x5000 }));
    use metal_mem::tlb::AccessKind;
    assert_eq!(
        core.state.tlb.translate(0x5004, 0, AccessKind::Read),
        Ok(0x9004)
    );
}

#[test]
fn page_keys_and_asid_from_mcode() {
    let mut core = MetalBuilder::new()
        .routine(
            0,
            "setup",
            r"
            li a0, 0x00005000
            li a1, 0x000090A7      # pa 0x9000 | key 5 | V|R|W (key bits 9:5 = 5 -> 0xA0)
            mtlbw a0, a1
            li t0, 5
            li t1, 1               # read-only
            mpkey t0, t1
            li t2, 7
            masid t2
            mexit
            ",
        )
        .build_core(core_config())
        .unwrap();
    let halt = load_and_run(&mut core, "menter 0\n ebreak", 10_000);
    // a0 still holds the va the setup routine loaded.
    assert_eq!(halt, Some(HaltReason::Ebreak { code: 0x5000 }));
    assert_eq!(core.state.asid, 7);
    assert_eq!(core.state.tlb.key_perms(5), 1);
    use metal_mem::tlb::AccessKind;
    // Mapping was installed under ASID 0 (set before masid ran).
    assert_eq!(
        core.state.tlb.translate(0x5000, 0, AccessKind::Read),
        Ok(0x9000)
    );
    assert_eq!(
        core.state.tlb.translate(0x5000, 0, AccessKind::Write),
        Err(metal_mem::tlb::TlbFault::KeyViolation)
    );
}

#[test]
fn menter_mexit_near_zero_overhead() {
    // Cycle cost of `menter N; mexit` (a no-op mroutine) compared
    // against straight-line code. Paper §2.2: "virtually zero overhead".
    let mut with_call = MetalBuilder::new()
        .routine(0, "noop", "mexit")
        .build_core(core_config())
        .unwrap();
    load_and_run(&mut with_call, "nop\n menter 0\n nop\n ebreak", 10_000);
    let call_cycles = with_call.state.perf.cycles;

    let mut without = MetalBuilder::new()
        .routine(0, "noop", "mexit")
        .build_core(core_config())
        .unwrap();
    load_and_run(&mut without, "nop\n nop\n nop\n ebreak", 10_000);
    let base_cycles = without.state.perf.cycles;

    // menter+mexit replace two slots with two replacement slots; allow
    // at most 2 cycles of slack (cold I-cache effects on return fetch).
    assert!(
        call_cycles <= base_cycles + 2,
        "Metal transition should be near-zero overhead: {call_cycles} vs {base_cycles}"
    );
}

#[test]
fn palcode_dispatch_costs_many_cycles() {
    // Same no-op call, PALcode-style (mroutines in main memory, cold
    // I-cache): should cost on the order of the Alpha's ~18 cycles.
    let palcode_config = CoreConfig {
        icache: CacheConfig {
            size_bytes: 4 * 1024,
            line_bytes: 32,
            miss_penalty: 15,
        },
        dcache: perfect_cache(),
        ram_bytes: 2 << 20,
        ..CoreConfig::default()
    };
    let mut pal = MetalBuilder::new()
        .palcode(0x10_0000)
        .routine(0, "noop", "mexit")
        .build_core(palcode_config)
        .unwrap();
    load_and_run(&mut pal, "nop\n menter 0\n nop\n ebreak", 10_000);
    let pal_cycles = pal.state.perf.cycles;

    let mut mram = MetalBuilder::new()
        .routine(0, "noop", "mexit")
        .build_core(CoreConfig {
            icache: CacheConfig {
                size_bytes: 4 * 1024,
                line_bytes: 32,
                miss_penalty: 15,
            },
            dcache: perfect_cache(),
            ram_bytes: 2 << 20,
            ..CoreConfig::default()
        })
        .unwrap();
    load_and_run(&mut mram, "nop\n menter 0\n nop\n ebreak", 10_000);
    let mram_cycles = mram.state.perf.cycles;

    assert!(
        pal_cycles >= mram_cycles + 15,
        "PALcode no-op call should pay the memory round trip: {pal_cycles} vs {mram_cycles}"
    );
}

#[test]
fn nested_layers_intercept_higher_first_then_propagate() {
    // Layer 1 (higher) and layer 0 (lower) both intercept STOREs. The
    // layer-1 handler re-executes the store, which then propagates to
    // the layer-0 handler ("the intercept propagates downward", §3.5).
    // Each handler bumps its own counter in MRAM data, then skips /
    // emulates.
    // Chained intercepts overwrite m31, so a handler that re-executes
    // the instruction must save its own return address first — the
    // reentrancy obligation the paper calls out for nested Metal (§3.5).
    let l1_handler = r"
        rmr t1, m31
        wmr m2, t1            # save the application return address
        mld t0, 0(zero)
        addi t0, t0, 1
        mst t0, 0(zero)       # count layer-1 hits at data[0]
        # Re-execute the intercepted store: sw a1, 0(s0). In Metal mode
        # the store matches layer 0's rule and chains downward (the
        # layer-0 handler emulates it and skips back to here).
        sw a1, 0(s0)
        rmr t1, m2
        addi t1, t1, 4
        wmr m31, t1           # skip the original store
        mexit
    ";
    let l0_handler = r"
        mld t0, 4(zero)
        addi t0, t0, 1
        mst t0, 4(zero)       # count layer-0 hits at data[4]
        mpst s0, a1           # emulate the store physically
        rmr t1, m31
        addi t1, t1, 4
        wmr m31, t1           # skip the re-executed store
        mexit
    ";
    let mut core = MetalBuilder::new()
        .layers(2)
        .routine(1, "l1_store", l1_handler)
        .routine(2, "l0_store", l0_handler)
        .routine(
            3,
            "arm_both",
            r"
            # Program layer 0's table.
            mlayer zero
            li t0, 0x23           # STORE opcode class
            li t1, 0x05           # entry 2, enable
            mintercept t0, t1
            # Program layer 1's table.
            li t2, 1
            mlayer t2
            li t1, 0x03           # entry 1, enable
            mintercept t0, t1
            li t2, 1
            wmr mstatus, t2       # master enable
            mexit
            ",
        )
        .build_core(core_config())
        .unwrap();
    let halt = load_and_run(
        &mut core,
        r"
        li s0, 0x4000
        li a1, 77
        menter 3
        sw a1, 0(s0)        # intercepted by layer 1, chained to layer 0
        lw a0, 0(s0)        # verify the store landed (via layer-0 mpst)
        ebreak
        ",
        100_000,
    );
    assert_eq!(halt, Some(HaltReason::Ebreak { code: 77 }));
    assert_eq!(core.hooks.stats.intercepts, 2, "both layers fired");
    assert_eq!(core.hooks.mram.data()[..2], [1, 1]);
}

#[test]
fn soft_tlb_page_fault_delegation_refills() {
    // The custom-page-table pattern in miniature: data page faults are
    // delegated to an mroutine that installs an identity mapping and
    // retries (m31 already points at the faulting instruction).
    // The handler must preserve the application's registers: Metal
    // registers are exactly the scratch space for that (paper §2.1).
    let refill = r"
        wmr m0, t0
        wmr m1, t1
        rmr t0, mbadaddr
        li t1, 0xFFFFF000
        and t0, t0, t1        # page base
        ori t1, t0, 0x7       # V|R|W identity
        mtlbw t0, t1
        rmr t0, m0
        rmr t1, m1
        mexit                 # m31 = faulting pc: retry
    ";
    let mut core = MetalBuilder::new()
        .routine(0, "tlb_refill", refill)
        .delegate_exception(TrapCause::LoadPageFault, 0)
        .delegate_exception(TrapCause::StorePageFault, 0)
        .build_core(core_config())
        .unwrap();
    // Identity-map the code page so fetch keeps working, then enable
    // SoftTlb translation.
    use metal_mem::tlb::Pte;
    core.state.tlb.install(
        0x0,
        Pte::new(0x0, Pte::V | Pte::R | Pte::W | Pte::X | Pte::G),
        0,
    );
    core.state.translation = TranslationMode::SoftTlb;
    let halt = load_and_run(
        &mut core,
        r"
        li s0, 0x4000
        li t0, 123
        sw t0, 0(s0)       # store page fault -> refill -> retry
        lw a0, 0(s0)       # now hits the TLB
        ebreak
        ",
        100_000,
    );
    assert_eq!(halt, Some(HaltReason::Ebreak { code: 123 }));
    assert_eq!(
        core.hooks.stats.delegated_exceptions, 1,
        "one fault, one refill"
    );
}

#[test]
fn stats_and_mcr_entry_number() {
    let mut core = MetalBuilder::new()
        .routine(9, "probe", "rmr a1, mentry\n mexit")
        .build_core(core_config())
        .unwrap();
    load_and_run(&mut core, "menter 9\n mv a0, a1\n ebreak", 10_000);
    assert_eq!(core.state.regs.get(Reg::A0), 9);
}

#[test]
fn dispatch_style_reflects_entry_pc() {
    let (metal, _, _) = MetalBuilder::new()
        .routine(0, "a", "mexit")
        .routine(1, "b", "mexit")
        .build()
        .unwrap();
    assert_eq!(metal.entry_pc(0), Some(MRAM_BASE));
    assert_eq!(metal.entry_pc(1), Some(MRAM_BASE + 4));
    assert_eq!(metal.entry_pc(2), None);
    assert!(matches!(metal.config().dispatch, DispatchStyle::Mram));
}
