//! The pipelined core and the reference interpreter must agree on
//! *Metal* semantics, not just the base ISA: both engines run the same
//! hook implementation, so every mroutine scenario should end in the
//! same architectural state.

mod common;

use common::{assemble_flat, both_engines, CORE_LIMIT};
use metal_core::{Metal, MetalBuilder, MRAM_BASE};
use metal_pipeline::state::CoreConfig;
use metal_pipeline::{Core, Engine, HaltReason, Interp, TrapCause};
use metal_trace::{EventKind, TraceConfig, TraceHandle};

/// Runs `src` on both engines via the shared harness and hands back the
/// `ebreak` code plus each engine's Metal hook state.
fn both_engine_hooks(builder: MetalBuilder, src: &str) -> (u32, Metal, Metal) {
    let pair = both_engines(builder, src);
    (pair.code, pair.core.hooks, pair.interp.hooks)
}

#[test]
fn menter_mexit_agree() {
    let builder =
        MetalBuilder::new().routine(0, "triple", "slli t6, a0, 1\n add a0, a0, t6\n mexit");
    let (code, _, _) = both_engine_hooks(builder, "li a0, 7\n menter 0\n ebreak");
    assert_eq!(code, 21);
}

#[test]
fn mram_data_state_agrees() {
    let builder = MetalBuilder::new().routine(
        0,
        "count",
        "mld t0, 0(zero)\n addi t0, t0, 1\n mst t0, 0(zero)\n mv a0, t0\n mexit",
    );
    let (code, ch, ih) = both_engine_hooks(
        builder,
        "menter 0\n menter 0\n menter 0\n menter 0\n ebreak",
    );
    assert_eq!(code, 4);
    assert_eq!(ch.mram.data()[0], ih.mram.data()[0]);
}

#[test]
fn interception_agrees() {
    let builder = MetalBuilder::new()
        .routine(
            1,
            "arm",
            "li t0, 0x03\n li t1, 5\n mintercept t0, t1\n li t0, 1\n wmr mstatus, t0\n mexit",
        )
        .routine(
            2,
            "double_loads",
            r"
            mpld t1, s0
            slli a3, t1, 1
            rmr t2, m31
            addi t2, t2, 4
            wmr m31, t2
            mexit
            ",
        );
    let src = r"
        li s0, 0x4000
        li t0, 15
        sw t0, 0(s0)
        menter 1
        lw a3, 0(s0)
        mv a0, a3
        ebreak
    ";
    let (code, ch, _) = both_engine_hooks(builder, src);
    assert_eq!(code, 30);
    assert_eq!(ch.stats.intercepts, 1);
}

#[test]
fn delegation_agrees() {
    let builder = MetalBuilder::new()
        .routine(
            0,
            "sys",
            "slli a0, a0, 2\n rmr t0, m31\n addi t0, t0, 4\n wmr m31, t0\n mexit",
        )
        .delegate_exception(TrapCause::Ecall, 0);
    let (code, ch, _) = both_engine_hooks(builder, "li a0, 5\n ecall\n addi a0, a0, 1\n ebreak");
    assert_eq!(code, 21);
    assert_eq!(ch.stats.delegated_exceptions, 1);
}

#[test]
fn palcode_dispatch_agrees() {
    let builder =
        MetalBuilder::new()
            .palcode(0x20_0000)
            .routine(0, "inc", "addi a0, a0, 1\n mexit");
    let (code, _, _) = both_engine_hooks(builder, "li a0, 1\n menter 0\n menter 0\n ebreak");
    assert_eq!(code, 3);
}

#[test]
fn nested_layers_agree() {
    let builder = MetalBuilder::new()
        .layers(2)
        .routine(
            1,
            "l1",
            r"
            rmr t1, m31
            wmr m2, t1
            sw a1, 0(s0)
            rmr t1, m2
            addi t1, t1, 4
            wmr m31, t1
            mexit
            ",
        )
        .routine(
            2,
            "l0",
            r"
            mpst s0, a1
            rmr t1, m31
            addi t1, t1, 4
            wmr m31, t1
            mexit
            ",
        )
        .routine(
            3,
            "arm",
            r"
            mlayer zero
            li t0, 0x23
            li t1, 5
            mintercept t0, t1
            li t2, 1
            mlayer t2
            li t1, 3
            mintercept t0, t1
            li t2, 1
            wmr mstatus, t2
            mexit
            ",
        );
    let src = r"
        li s0, 0x4000
        li a1, 33
        menter 3
        sw a1, 0(s0)
        lw a0, 0(s0)
        ebreak
    ";
    let (code, ch, _) = both_engine_hooks(builder, src);
    assert_eq!(code, 33);
    assert_eq!(ch.stats.intercepts, 2);
}

/// Runs `program` traced on an engine of type `E`; returns the PCs of
/// its `Retire` events and its `instret`.
fn traced_retirements<E: Engine<Hooks = Metal>>(
    builder: MetalBuilder,
    program: &[u8],
) -> (Vec<u32>, u64) {
    let mut engine = builder
        .build_engine::<E>(CoreConfig::default())
        .expect("machine builds");
    engine
        .state_mut()
        .set_trace(TraceHandle::enabled(TraceConfig::default()));
    engine.load_segments([(0u32, program)], 0);
    assert_eq!(
        engine.run(CORE_LIMIT),
        Some(HaltReason::Ebreak { code: 12 }),
        "{}",
        E::name()
    );
    let stats = &engine.hooks().stats;
    assert_eq!(
        (stats.menters, stats.intercepts, stats.delegated_exceptions),
        (1, 1, 1),
        "{}",
        E::name()
    );
    let pcs = engine
        .state()
        .trace
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Retire { pc } => Some(pc),
            _ => None,
        })
        .collect();
    (pcs, engine.state().perf.instret)
}

#[test]
fn both_engines_emit_the_same_retirements() {
    // An `menter` call arms interception of loads, the `lw` is
    // intercepted, and the `ecall` is delegated: retirement passes
    // through all three kinds of Metal entry on both engines.
    let builder = MetalBuilder::new()
        .routine(
            0,
            "sys",
            "addi a0, a0, 1\n rmr t0, m31\n addi t0, t0, 4\n wmr m31, t0\n mexit",
        )
        .routine(
            1,
            "arm",
            "li t0, 0x03\n li t1, 5\n mintercept t0, t1\n li t0, 1\n wmr mstatus, t0\n mexit",
        )
        .routine(
            2,
            "skip_load",
            "addi a0, a0, 10\n rmr t0, m31\n addi t0, t0, 4\n wmr m31, t0\n mexit",
        )
        .delegate_exception(TrapCause::Ecall, 0);
    let program = assemble_flat("li a0, 1\n menter 1\n lw a3, 0(zero)\n ecall\n ebreak");
    let (core, core_instret) = traced_retirements::<Core<Metal>>(builder.clone(), &program);
    let (interp, interp_instret) = traced_retirements::<Interp<Metal>>(builder, &program);
    assert_eq!(core, interp);
    assert_eq!(core.len() as u64, core_instret);
    assert_eq!(interp.len() as u64, interp_instret);
    // `menter` and `mexit` hand their decode slot to the instruction
    // they transfer to, and the `lw`, `ecall` and `ebreak` end in the
    // intercept, the trap and the halt, so the guest retires only its
    // `li`; the 13 mroutine instructions retire at their MRAM PCs.
    assert_eq!(core.len(), 14);
    assert_eq!(core.iter().filter(|&&pc| pc >= MRAM_BASE).count(), 13);
}
