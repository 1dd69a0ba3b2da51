//! Cross-crate integration: a complete Metal system running a miniature
//! OS with several architectural extensions installed side by side.

mod common;

use common::run_system_on;
use metal_core::Metal;
use metal_ext::kernel;
use metal_ext::machine::run_guest;
use metal_mem::devices::map;
use metal_pipeline::state::CoreConfig;
use metal_pipeline::{Core, Engine, HaltReason, Interp};

/// The mini-OS boot scenario, written once against [`Engine`] and run
/// on both the pipelined core and the reference interpreter.
fn mini_os_on<E: Engine<Hooks = Metal>>() {
    let user = r"
user_main:
        li a1, '>'
        li a0, 0
        menter 0            # putc
        li a0, 2
        menter 0            # yield
        li a0, 1
        menter 0            # getpid
        mv a1, a0
        li a0, 3
        menter 0            # exit(pid)
    ";
    let booted = run_system_on::<E>(
        kernel::builder(),
        &kernel::system_source(user),
        1_000_000,
        false,
    );
    assert_eq!(
        booted.halt,
        Some(HaltReason::Ebreak { code: 1 }),
        "engine {}",
        E::name()
    );
    assert_eq!(booted.console, b">", "engine {}", E::name());
}

#[test]
fn mini_os_boots_and_serves_syscalls() {
    mini_os_on::<Core<Metal>>();
    mini_os_on::<Interp<Metal>>();
}

#[test]
fn all_extension_kits_coexist_in_one_mram() {
    // Every §3 application installed into a single Metal instance: the
    // entry-number and MRAM-data partitions must not collide, and the
    // whole image must fit the default MRAM.
    let builder = metal_ext::privilege::install(metal_core::MetalBuilder::new());
    let builder = metal_ext::pagetable::install(builder);
    let builder = metal_ext::stm::install(builder);
    let builder = metal_ext::uintr::install(builder, map::NIC_IRQ);
    let builder = metal_ext::isolation::install(builder);
    let builder = metal_ext::shadowstack::install(builder);
    let builder = metal_ext::capability::install(builder);
    let builder = metal_ext::enclave::install(builder);
    let builder = metal_ext::sched::install(builder);
    let builder = metal_ext::vmm::install(builder);
    let core = builder
        .build_core(CoreConfig::default())
        .expect("all kits fit together");
    let installed = core.hooks.mram.routines().count();
    assert!(
        installed >= 35,
        "expected a full MRAM, got {installed} routines"
    );
    assert!(
        core.hooks.mram.code_free() > 0,
        "the default MRAM should still have headroom"
    );
}

#[test]
fn combined_kits_run_a_mixed_workload() {
    // STM + capability + shadow stack in one program.
    let builder = metal_ext::stm::install(metal_core::MetalBuilder::new());
    let builder = metal_ext::capability::install(builder);
    let mut core = builder
        .build_core(CoreConfig::default())
        .expect("kits build");
    core.hooks.mram.data_store(1028, 0x30_0000).unwrap();
    let program = r"
        # Mint a capability over a buffer and store through it.
        la a0, viol
        menter 36
        li a0, 0x40000
        li a1, 64
        li a2, 3
        menter 32           # cap 0
        li a1, 0
        li a2, 21
        menter 34           # cap store
        # Transactionally double the word the capability wrote.
        li a0, 0
        menter 12           # tstart
        li s0, 0x40000
        lw t3, 0(s0)
        slli t3, t3, 1
        sw t3, 0(s0)
        menter 15           # tcommit
        beqz a0, viol
        lw a0, 0(s0)        # 42
        ebreak
    viol:
        li a0, 0xBAD
        ebreak
    ";
    let halt = run_guest(&mut core, program, 10_000_000);
    assert_eq!(halt, Some(HaltReason::Ebreak { code: 42 }));
}

#[test]
fn timer_and_console_devices_compose() {
    // The kernel boots with devices attached; the user reads the cycle
    // counter via the timer MMIO and prints a tick mark.
    let user = r"
user_main:
        li s0, 0xF0000100
        lw t0, 0(s0)        # cycle lo
        li a1, '*'
        li a0, 0
        menter 0
        li a1, 0
        li a0, 3
        menter 0
    ";
    let booted = run_system_on::<Core<Metal>>(
        kernel::builder(),
        &kernel::system_source(user),
        1_000_000,
        true,
    );
    assert_eq!(booted.halt, Some(HaltReason::Ebreak { code: 0 }));
    assert_eq!(booted.console, b"*");
}

#[test]
fn failure_injection_mram_overflow() {
    // A routine too large for a small MRAM is refused at build time.
    let big: String = "addi a0, a0, 1\n".repeat(300) + "mexit";
    let err = metal_core::MetalBuilder::new()
        .config(metal_core::MetalConfig {
            mram: metal_core::MramConfig {
                code_bytes: 512,
                data_bytes: 64,
                fetch_latency: 1,
            },
            ..metal_core::MetalConfig::default()
        })
        .routine(0, "big", &big)
        .build_core(CoreConfig::default())
        .err()
        .expect("overflow must be detected");
    assert!(matches!(err, metal_core::MetalError::CodeOverflow { .. }));
}

#[test]
fn failure_injection_runaway_intercept_chain_is_contained() {
    // A handler that re-executes the intercepted instruction *without*
    // skipping it, with the rule still armed in its own layer, would
    // loop; single-layer semantics prevent it (no interception inside
    // Metal mode at the same layer), so this terminates.
    let handler = r"
        rmr t0, m31
        addi t0, t0, 4
        wmr m31, t0
        sw a1, 0(s0)        # NOT intercepted again (same layer)
        mexit
    ";
    let mut core = metal_core::MetalBuilder::new()
        .routine(
            1,
            "arm",
            r"
            li t0, 0x23
            li t1, 5            # entry 2, enabled
            mintercept t0, t1
            li t0, 1
            wmr mstatus, t0
            mexit
            ",
        )
        .routine(2, "handler", handler)
        .build_core(CoreConfig::default())
        .unwrap();
    let halt = run_guest(
        &mut core,
        "li s0, 0x4000\n li a1, 9\n menter 1\n sw a1, 0(s0)\n lw a0, 0(s0)\n ebreak",
        1_000_000,
    );
    assert_eq!(halt, Some(HaltReason::Ebreak { code: 9 }));
    assert_eq!(core.hooks.stats.intercepts, 1);
}

#[test]
fn menter_is_unprivileged_by_design() {
    // Paper §2: "menter is not a privileged instruction in the
    // traditional sense". Even code at the lowest software-defined ring
    // may invoke an mroutine; policy lives in the mroutine.
    let builder = metal_ext::privilege::install(metal_core::MetalBuilder::new());
    let mut core = builder.build_core(CoreConfig::default()).unwrap();
    let halt = run_guest(
        &mut core,
        r"
        la a0, kfault
        menter 2
        la ra, user
        menter 1            # drop to ring 1
    kfault:
        li a0, 0xdead
        ebreak
    user:
        menter 3            # ring_get from userspace: allowed
        ebreak
        ",
        100_000,
    );
    assert_eq!(halt, Some(HaltReason::Ebreak { code: 1 }));
}
