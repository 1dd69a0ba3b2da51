//! Shared engine-generic test harness.
//!
//! Every cross-crate test that exercises both execution engines goes
//! through these helpers, which are written once against
//! [`metal_pipeline::Engine`]: boot a Metal-enabled machine of either
//! engine type, run a guest, and (for differential tests) assert the
//! two engines ended in identical architectural state, as
//! [`metal_core::arch::DIFFERENTIAL`] defines it.

#![allow(dead_code)]

use metal_core::arch::{self, Machine};
use metal_core::{Metal, MetalBuilder};
use metal_mem::devices::{map, Console, Timer};
use metal_pipeline::state::CoreConfig;
use metal_pipeline::{Core, Engine, HaltReason, Interp};

/// Cycle budget for differential runs on the pipelined core.
pub const CORE_LIMIT: u64 = 10_000_000;
/// Cycle budget for differential runs on the interpreter, which executes
/// one instruction every cycle and so needs fewer than the pipelined core.
pub const INTERP_LIMIT: u64 = 5_000_000;

/// Assembles a guest program against address 0.
pub fn assemble_flat(src: &str) -> Vec<u8> {
    metal_asm::assemble_image(src, 0).expect("guest assembles")
}

/// Builds a Metal-enabled engine from `builder`, loads `program` at 0,
/// and runs it for up to `limit` units.
pub fn boot_metal_engine<E: Engine<Hooks = Metal>>(
    builder: MetalBuilder,
    config: CoreConfig,
    program: &[u8],
    limit: u64,
) -> (E, Option<HaltReason>) {
    let mut engine = builder.build_engine::<E>(config).expect("machine builds");
    engine.load_segments([(0u32, program)], 0);
    let halt = engine.run(limit);
    (engine, halt)
}

/// The result of running the same program on both engines: the shared
/// `ebreak` code plus each halted machine for state-specific asserts.
pub struct EnginePair {
    /// The guest's `ebreak` exit code (identical on both engines).
    pub code: u32,
    /// The halted pipelined core.
    pub core: Core<Metal>,
    /// The halted reference interpreter.
    pub interp: Interp<Metal>,
}

/// Runs `src` on both engines with the default configuration; asserts
/// identical architectural state.
pub fn both_engines(builder: MetalBuilder, src: &str) -> EnginePair {
    both_engines_with(CoreConfig::default(), builder, src, "differential")
}

/// Runs `src` on both engines, asserting identical architectural state
/// (everything but `cycles`); `label` prefixes assertion messages.
pub fn both_engines_with(
    config: CoreConfig,
    builder: MetalBuilder,
    src: &str,
    label: &str,
) -> EnginePair {
    let program = assemble_flat(src);
    let (core, core_halt) =
        boot_metal_engine::<Core<Metal>>(builder.clone(), config, &program, CORE_LIMIT);
    let (interp, _) = boot_metal_engine::<Interp<Metal>>(builder, config, &program, INTERP_LIMIT);
    assert_eq!(
        arch::first_difference(Machine::of(&core), Machine::of(&interp), arch::DIFFERENTIAL),
        None,
        "{label}: engines diverged (core, interp)\nguest:\n{src}"
    );
    let code = match core_halt {
        Some(HaltReason::Ebreak { code }) => code,
        other => panic!("{label}: expected ebreak, got {other:?}\nguest:\n{src}"),
    };
    EnginePair { code, core, interp }
}

/// A booted full system: the halted engine, its halt reason, and the
/// bytes the guest wrote to the console.
pub struct BootedSystem<E> {
    pub engine: E,
    pub halt: Option<HaltReason>,
    pub console: Vec<u8>,
}

/// Boots a Metal system with console (and optionally timer) devices
/// attached and runs a guest assembled with the standard `metal-ext`
/// layout. The engine type is a parameter: full-system tests run the
/// same scenario on the pipeline and the interpreter.
pub fn run_system_on<E: Engine<Hooks = Metal>>(
    builder: MetalBuilder,
    src: &str,
    limit: u64,
    with_timer: bool,
) -> BootedSystem<E> {
    let mut engine = builder
        .build_engine::<E>(CoreConfig::default())
        .expect("system builds");
    let (console, out) = Console::new();
    engine
        .state_mut()
        .bus
        .attach(map::CONSOLE_BASE, map::WINDOW_LEN, Box::new(console));
    if with_timer {
        engine
            .state_mut()
            .bus
            .attach(map::TIMER_BASE, map::WINDOW_LEN, Box::new(Timer::new()));
    }
    let halt = metal_ext::machine::run_guest(&mut engine, src, limit);
    let console = out.lock().clone();
    BootedSystem {
        engine,
        halt,
        console,
    }
}
