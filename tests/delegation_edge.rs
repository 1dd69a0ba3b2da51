//! Delegation-map edge cases at the system level: delivery ordering
//! between a delegated mroutine and the baseline `mtvec` fallback,
//! undelegation restoring the fallback, and builder-level rejection
//! of malformed delegations.

use metal_core::{Metal, MetalBuilder, MetalError};
use metal_pipeline::state::CoreConfig;
use metal_pipeline::trap::TrapCause;
use metal_pipeline::{Core, Engine, HaltReason};

/// Guest: jump over an `mtvec` handler at address 4, then trap with
/// `ecall`. The delegated mroutine resumes after the `ecall` (exit
/// code 7); the `mtvec` fallback lands in the handler (exit code 99).
const GUEST: &str = "\
j start
li a0, 99
ebreak
start:
li a0, 1
ecall
ebreak";

/// Skip-and-mark mroutine: sets `a0`, advances `m31` past the
/// faulting instruction, returns.
fn marker_routine(value: u32) -> String {
    format!("li a0, {value}\nrmr t0, m31\naddi t0, t0, 4\nwmr m31, t0\nmexit")
}

const MTVEC_HANDLER: u32 = 4;

fn run_guest(builder: MetalBuilder) -> (Core<Metal>, HaltReason) {
    let mut core = builder
        .build_core(CoreConfig::default())
        .expect("machine builds");
    core.state_mut().csr.mtvec = MTVEC_HANDLER;
    let bytes = metal_asm::assemble_image(GUEST, 0).expect("guest assembles");
    core.load_segments([(0u32, bytes.as_slice())], 0);
    let halt = core.run_fuel(100_000);
    (core, halt)
}

#[test]
fn delegated_mroutine_beats_mtvec_fallback() {
    let (_, halt) = run_guest(
        MetalBuilder::new()
            .routine(0, "mark", &marker_routine(7))
            .delegate_exception(TrapCause::Ecall, 0),
    );
    assert_eq!(halt, HaltReason::Ebreak { code: 7 });
}

#[test]
fn undelegated_cause_falls_back_to_mtvec() {
    let (core, halt) = run_guest(MetalBuilder::new().routine(0, "mark", &marker_routine(7)));
    assert_eq!(halt, HaltReason::Ebreak { code: 99 });
    assert_eq!(core.hooks.stats.delegated_exceptions, 0);
}

#[test]
fn specific_delegation_beats_catch_all_at_delivery() {
    let (_, halt) = run_guest(
        MetalBuilder::new()
            .routine(0, "specific", &marker_routine(7))
            .routine(1, "catchall", &marker_routine(8))
            .delegate_exception(TrapCause::Ecall, 0)
            .delegate_all_exceptions(1),
    );
    assert_eq!(halt, HaltReason::Ebreak { code: 7 });
}

#[test]
fn catch_all_handles_unlisted_causes() {
    let (_, halt) = run_guest(
        MetalBuilder::new()
            .routine(1, "catchall", &marker_routine(8))
            .delegate_all_exceptions(1),
    );
    assert_eq!(halt, HaltReason::Ebreak { code: 8 });
}

#[test]
fn undelegation_at_runtime_restores_fallback() {
    let builder = MetalBuilder::new()
        .routine(0, "mark", &marker_routine(7))
        .delegate_exception(TrapCause::Ecall, 0);
    let mut core = builder
        .clone()
        .build_core(CoreConfig::default())
        .expect("machine builds");
    core.hooks.layers[0]
        .delegation
        .undelegate_exception(TrapCause::Ecall)
        .expect("valid undelegation");
    core.state_mut().csr.mtvec = MTVEC_HANDLER;
    let bytes = metal_asm::assemble_image(GUEST, 0).expect("guest assembles");
    core.load_segments([(0u32, bytes.as_slice())], 0);
    assert_eq!(core.run_fuel(100_000), HaltReason::Ebreak { code: 99 });

    // The untouched builder still delivers to the mroutine.
    let (_, halt) = run_guest(builder);
    assert_eq!(halt, HaltReason::Ebreak { code: 7 });
}

#[test]
fn builder_rejects_out_of_table_entry() {
    let err = MetalBuilder::new()
        .routine(0, "mark", &marker_routine(7))
        .delegate_exception(TrapCause::Ecall, 64)
        .build()
        .unwrap_err();
    assert!(matches!(err, MetalError::BadEntry { entry: 64 }));
}

#[test]
fn builder_rejects_interrupt_cause_on_exception_api() {
    let err = MetalBuilder::new()
        .routine(0, "mark", &marker_routine(7))
        .delegate_exception(TrapCause::Interrupt(3), 0)
        .build()
        .unwrap_err();
    assert!(matches!(err, MetalError::BadCause { .. }));
}
