//! Property tests for engine snapshot/restore: rewinding a machine and
//! rerunning must be bit-identical — same architectural state, same
//! metrics, same emitted trace events — and a [`Rewindable`] engine's
//! load after a dirty case must equal a fresh engine's. These are the
//! contracts `mfuzz` and `mfault` lean on to reset cases in
//! microseconds instead of rebuilding machines.

mod common;

use common::{assemble_flat, CORE_LIMIT, INTERP_LIMIT};
use metal_core::arch::{self, Machine};
use metal_core::{Metal, MetalBuilder, MetalConfig};
use metal_fuzz::grammar::{self, rand_guest, rand_routine};
use metal_pipeline::state::{CoreConfig, TranslationMode};
use metal_pipeline::{Core, Engine, HaltReason, Interp, Rewindable};
use metal_trace::{Event, MetricsSnapshot, TraceConfig, TraceHandle};
use metal_util::Rng;

/// Everything a rerun must reproduce exactly: the whole architectural
/// state (registers, CSRs, TLB, RAM, Metal state, counters — as a
/// digest), the metrics and the emitted trace.
#[derive(Debug, PartialEq)]
struct RunRecord {
    halt: Option<HaltReason>,
    state: u64,
    metrics: MetricsSnapshot,
    events: Vec<Event>,
}

/// Runs from the current machine state to halt under a fresh trace
/// (the snapshot deliberately does not capture the trace handle, so
/// each observation installs its own).
fn run_and_record<E: Engine<Hooks = Metal>>(engine: &mut E, limit: u64) -> RunRecord {
    engine
        .state_mut()
        .set_trace(TraceHandle::enabled(TraceConfig {
            capacity: 1 << 16,
            ..TraceConfig::default()
        }));
    let halt = engine.run(limit);
    RunRecord {
        halt,
        state: arch::digest(Machine::of(engine), arch::ALL),
        metrics: engine.state().metrics_snapshot(),
        events: engine.state().trace.events(),
    }
}

/// Snapshot at the load point, run to halt, restore, run again: the
/// two observations must match bit for bit, on either engine.
fn roundtrip_from_load<E: Engine<Hooks = Metal>>(seed: u64, limit: u64) {
    let mut rng = Rng::new(seed);
    let r0 = rand_routine(&mut rng);
    let r1 = rand_routine(&mut rng);
    let guest = rand_guest(&mut rng);
    let program = assemble_flat(&guest);
    let mut engine = MetalBuilder::new()
        .routine(0, "r0", &r0)
        .routine(1, "r1", &r1)
        .build_engine::<E>(CoreConfig::default())
        .expect("machine builds");
    engine.load_segments([(0u32, program.as_slice())], 0);
    let snap = engine.snapshot();
    let first = run_and_record(&mut engine, limit);
    engine.restore(&snap);
    let second = run_and_record(&mut engine, limit);
    assert_eq!(
        first, second,
        "seed {seed}: restore+rerun not bit-identical\nguest:\n{guest}"
    );
}

#[test]
fn core_restore_rerun_is_bit_identical() {
    for seed in 0..24u64 {
        roundtrip_from_load::<Core<Metal>>(seed, CORE_LIMIT);
    }
}

#[test]
fn interp_restore_rerun_is_bit_identical() {
    for seed in 0..24u64 {
        roundtrip_from_load::<Interp<Metal>>(seed, INTERP_LIMIT);
    }
}

/// A generated fuzz case as a load: its Metal extension, its guest
/// image and its translation mode.
fn case_load(seed: u64) -> (Metal, Vec<u8>, TranslationMode) {
    let case = grammar::generate(seed);
    let (metal, _, _) = case.metal_builder().build().expect("case builds");
    let translation = if case.soft_tlb {
        TranslationMode::SoftTlb
    } else {
        TranslationMode::Bare
    };
    (metal, assemble_flat(&case.guest), translation)
}

/// The campaign machine's contract: after a dirty previous case, a load
/// into the rewound engine is the state a freshly constructed engine
/// has after the same load, and the two still agree once both have run
/// to halt.
fn rewound_load_matches_fresh<E: Engine<Hooks = Metal>>(seed: u64, limit: u64) {
    let mut machine =
        Rewindable::<E>::new(CoreConfig::default(), Metal::new(MetalConfig::default()));
    let (metal, program, translation) = case_load(seed);
    let dirty = machine.load(metal, translation, &program);
    assert!(dirty.run(limit).is_some(), "seed {seed}: dirty case halts");

    let (metal, program, translation) = case_load(seed + 1000);
    let mut fresh = E::new(CoreConfig::default(), metal.clone());
    fresh.state_mut().translation = translation;
    fresh.load_segments([(0u32, program.as_slice())], 0);
    let rewound = machine.load(metal, translation, &program);
    let differ = |a: &E, b: &E| arch::first_difference(Machine::of(a), Machine::of(b), arch::ALL);
    assert_eq!(differ(rewound, &fresh), None, "seed {seed}: after load");
    assert_eq!(rewound.pc(), fresh.pc());
    assert_eq!(rewound.run(limit), fresh.run(limit), "seed {seed}: halt");
    assert_eq!(differ(rewound, &fresh), None, "seed {seed}: after the run");
}

#[test]
fn rewound_load_matches_fresh_engine() {
    for seed in 0..12u64 {
        rewound_load_matches_fresh::<Core<Metal>>(seed, CORE_LIMIT);
        rewound_load_matches_fresh::<Interp<Metal>>(seed, INTERP_LIMIT);
    }
}

#[test]
fn interp_mid_run_snapshot_resumes_identically() {
    // The interpreter executes serially, so a snapshot is legal at any
    // instruction boundary: run k steps, snapshot, finish, restore,
    // finish again — the two tails must agree.
    for seed in 0..12u64 {
        let mut rng = Rng::new(0xABCD_0000 | seed);
        let r0 = rand_routine(&mut rng);
        let r1 = rand_routine(&mut rng);
        let guest = rand_guest(&mut rng);
        let program = assemble_flat(&guest);
        let mut engine = MetalBuilder::new()
            .routine(0, "r0", &r0)
            .routine(1, "r1", &r1)
            .build_engine::<Interp<Metal>>(CoreConfig::default())
            .expect("machine builds");
        engine.load_segments([(0u32, program.as_slice())], 0);
        let k = rng.range_u32(1, 12) as u64;
        if engine.run(k).is_some() {
            // Short program already halted — nothing mid-run to probe.
            continue;
        }
        let snap = engine.snapshot();
        let first = run_and_record(&mut engine, INTERP_LIMIT);
        engine.restore(&snap);
        let second = run_and_record(&mut engine, INTERP_LIMIT);
        assert_eq!(
            first, second,
            "seed {seed}: mid-run restore diverged\nguest:\n{guest}"
        );
    }
}

#[test]
fn restore_discards_later_writes() {
    // A snapshot taken before a run protects memory, CSRs, Metal
    // registers, and MRAM data from everything the run did.
    let program = assemble_flat(
        "li a0, 21\nli t0, 0x1234\ncsrw mscratch, t0\nmenter 7\nsw a0, 64(zero)\nebreak",
    );
    let mut core = MetalBuilder::new()
        .routine(
            7,
            "double",
            "slli a0, a0, 1\nwmr m5, a0\nmst a0, 4(zero)\nmexit",
        )
        .build_engine::<Core<Metal>>(CoreConfig::default())
        .expect("machine builds");
    core.load_segments([(0u32, program.as_slice())], 0);
    let snap = core.snapshot();
    let halt = core.run(CORE_LIMIT);
    assert_eq!(halt, Some(HaltReason::Ebreak { code: 42 }));
    assert_eq!(core.hooks().mregs.get(5), 42);
    core.restore(&snap);
    assert_eq!(core.state().csr.mscratch, 0, "CSR write survived restore");
    assert_eq!(core.hooks().mregs.get(5), 0, "mreg write survived restore");
    assert_eq!(
        core.hooks().mram.data_load(4),
        Ok(0),
        "MRAM data write survived restore"
    );
    assert_eq!(
        core.state_mut().bus.read_u32(64).expect("ram readable"),
        0,
        "RAM write survived restore"
    );
    assert_eq!(
        core.state().perf.cycles,
        0,
        "perf counters survived restore"
    );
    // And the machine runs again to the same result.
    assert_eq!(core.run(CORE_LIMIT), Some(HaltReason::Ebreak { code: 42 }));
}

#[test]
fn core_snapshot_requires_quiescence() {
    // The pipelined core snapshots only at retired-instruction
    // boundaries: with instructions in flight, the inter-stage latches
    // hold state EngineSnapshot does not capture, so the engine must
    // refuse rather than silently drop work.
    let program = assemble_flat("li a0, 1\nadd a0, a0, a0\nadd a0, a0, a0\nadd a0, a0, a0\nebreak");
    let mut core = MetalBuilder::new()
        .routine(0, "nopr", "mexit")
        .build_engine::<Core<Metal>>(CoreConfig::default())
        .expect("machine builds");
    core.load_segments([(0u32, program.as_slice())], 0);
    assert!(core.is_quiescent(), "reset state is a legal boundary");
    let _ = core.snapshot();
    // A few raw cycles leave younger instructions mid-pipeline.
    assert!(core.run(3).is_none(), "program must still be running");
    assert!(!core.is_quiescent(), "instructions should be in flight");
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = core.snapshot();
    }))
    .is_err();
    assert!(panicked, "mid-flight snapshot must panic");
}

#[test]
fn core_split_stepping_matches_uninterrupted_run() {
    // The campaign harness rewinds to a pristine snapshot, steps to an
    // injection point with step_insns, and keeps running. step_insns
    // stops at a retirement boundary but deliberately leaves younger
    // instructions in flight (no drain), so the split run must be
    // tick-for-tick identical to an uninterrupted one — and such a
    // boundary is NOT a legal snapshot point.
    let program =
        assemble_flat("li a0, 5\nloop:\naddi a0, a0, -1\nbnez a0, loop\nli a0, 33\nebreak");
    let mut core = MetalBuilder::new()
        .routine(0, "nopr", "mexit")
        .build_engine::<Core<Metal>>(CoreConfig::default())
        .expect("machine builds");
    core.load_segments([(0u32, program.as_slice())], 0);
    let snap = core.snapshot();
    let halt = core.run_fuel(CORE_LIMIT);
    assert_eq!(halt, HaltReason::Ebreak { code: 33 });
    let (cycles, instret) = (core.state().perf.cycles, core.state().perf.instret);

    core.restore(&snap);
    core.step_insns(3);
    assert!(
        !core.is_quiescent(),
        "mid-run step_insns boundary should have younger insns in flight"
    );
    assert_eq!(core.run_fuel(CORE_LIMIT), halt);
    assert_eq!(
        (core.state().perf.cycles, core.state().perf.instret),
        (cycles, instret),
        "split-stepped run diverged from the uninterrupted run"
    );
    // Halt is a quiescent point: the snapshot there is legal.
    assert!(core.is_quiescent());
    let _ = core.snapshot();
}
