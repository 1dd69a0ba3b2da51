//! The common interface over both execution engines.
//!
//! [`Core`] (cycle-accurate 5-stage pipeline) and [`Interp`] (functional
//! reference) share [`MachineState`] and the [`Hooks`] extension
//! interface but historically exposed separate inherent APIs, forcing
//! every harness — tests, benches, the CLI — to duplicate its setup per
//! engine. [`Engine`] is the shared surface: construct, load a program,
//! run, inspect state and metrics. Code written against it (e.g.
//! `msim --engine pipeline|interp`, the root-test harness in
//! `tests/common/`) is engine-agnostic by construction.
//!
//! The trait is statically dispatched (generic `load_segments` makes it
//! non-object-safe), which is what the differential harnesses want:
//! both engines fully monomorphized, no dynamic overhead in either.

use crate::func::Interp;
use crate::hooks::Hooks;
use crate::pipeline::Core;
use crate::state::{CoreConfig, HaltReason, MachineSnapshot, MachineState};
use metal_trace::MetricsSnapshot;

/// A point-in-time copy of an engine: the machine state, the extension
/// hooks, and the program counter. Taken with [`Engine::snapshot`] and
/// applied with [`Engine::restore`].
///
/// Restoring redirects execution via [`Engine::set_pc`], which clears
/// any in-flight pipeline latches — so for the pipelined core a
/// snapshot is only faithful when taken at a quiescent point (after
/// reset, a halt, or `load_segments`, before `run`). The interpreter
/// has no in-flight state and can snapshot anywhere.
#[derive(Clone, Debug)]
pub struct EngineSnapshot<H: Hooks + Clone> {
    machine: MachineSnapshot,
    hooks: H,
    pc: u32,
}

/// Cycles without a retirement, outside `wfi`, that [`Engine::run_fuel`] calls a hang.
const HANG_WINDOW: u64 = 100_000;

/// A machine that can load and run guest programs: the pipelined core
/// or the reference interpreter.
pub trait Engine: Sized {
    /// The extension-hook type this engine was built with.
    type Hooks: Hooks;

    /// Builds an engine from a configuration and extension hooks.
    fn new(config: CoreConfig, hooks: Self::Hooks) -> Self;

    /// Short engine name for CLI flags and diagnostics (`"pipeline"`,
    /// `"interp"`).
    fn name() -> &'static str;

    /// Shared machine state (registers, memory system, counters).
    fn state(&self) -> &MachineState;

    /// Mutable machine state (device attachment, trace installation).
    fn state_mut(&mut self) -> &mut MachineState;

    /// The extension hooks.
    fn hooks(&self) -> &Self::Hooks;

    /// Mutable extension hooks.
    fn hooks_mut(&mut self) -> &mut Self::Hooks;

    /// The next fetch address.
    fn pc(&self) -> u32;

    /// Redirects execution to `pc`, clearing any in-flight work.
    fn set_pc(&mut self, pc: u32);

    /// Loads program segments into RAM and points execution at `entry`.
    /// Clears any previous halt and invalidates the decode cache.
    ///
    /// # Panics
    ///
    /// Panics if a segment does not fit in RAM.
    fn load_segments<'a>(
        &mut self,
        segments: impl IntoIterator<Item = (u32, &'a [u8])>,
        entry: u32,
    );

    /// Runs until the machine halts or `limit` cycles elapse (one per
    /// interpreter step). Returns the halt reason if the machine stopped;
    /// a guest that stops retiring is not detected here, it just runs
    /// to `limit` and stays resumable (see [`Engine::run_fuel`]).
    fn run(&mut self, limit: u64) -> Option<HaltReason>;

    /// True while the engine sleeps in `wfi` (the interpreter never does).
    fn is_waiting(&self) -> bool {
        false
    }

    /// Runs under the watchdog, the one hang semantics of both engines:
    /// like [`Engine::run`], but the machine is halted with
    /// [`HaltReason::Timeout`] once `fuel` cycles are spent, or at the
    /// end of a 100,000-cycle window in which no instruction retired
    /// and which did not begin with the engine waiting in `wfi` (so a
    /// sleep that ends late in a window does not count as a hang).
    /// Campaign harnesses (`mfuzz`, `mfault`) use this so no single
    /// case can wedge a run on livelocked guest code.
    fn run_fuel(&mut self, fuel: u64) -> HaltReason {
        let mut left = fuel;
        while left > 0 {
            let window = left.min(HANG_WINDOW);
            let instret = self.state().perf.instret;
            let waiting = self.is_waiting();
            if let Some(halt) = self.run(window) {
                return halt;
            }
            left -= window;
            if !waiting && self.state().perf.instret == instret {
                break;
            }
        }
        self.state_mut().halted = Some(HaltReason::Timeout);
        HaltReason::Timeout
    }

    /// Runs until `n` more instructions retire or the machine halts.
    /// Both engines agree on the meaning (retired-instruction count),
    /// so a harness can position either engine at the same
    /// architectural boundary — e.g. to inject a fault mid-run.
    fn step_insns(&mut self, n: u64);

    /// True when the engine holds no in-flight microarchitectural
    /// state and a [`Engine::snapshot`] would be faithful. Always true
    /// for the interpreter; the pipelined core requires all
    /// inter-stage latches empty.
    fn is_quiescent(&self) -> bool {
        true
    }

    /// The unified metrics view of the machine state.
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.state().metrics_snapshot()
    }

    /// Captures machine state, hooks, and PC for a later
    /// [`Engine::restore`]. See [`EngineSnapshot`] for the
    /// quiescent-point caveat on the pipelined core.
    fn snapshot(&self) -> EngineSnapshot<Self::Hooks>
    where
        Self::Hooks: Clone,
    {
        EngineSnapshot {
            machine: self.state().snapshot(),
            hooks: self.hooks().clone(),
            pc: self.pc(),
        }
    }

    /// Rewinds the engine to a snapshot: machine state is restored
    /// in place, at the cost of the RAM pages written rather than the
    /// size of RAM (see [`MachineState::restore`]), hooks are
    /// overwritten with the captured copy, and execution is redirected
    /// to the captured PC (clearing any in-flight work).
    fn restore(&mut self, snap: &EngineSnapshot<Self::Hooks>)
    where
        Self::Hooks: Clone,
    {
        self.state_mut().restore(&snap.machine);
        self.hooks_mut().clone_from(&snap.hooks);
        self.set_pc(snap.pc);
    }
}

impl<H: Hooks> Engine for Core<H> {
    type Hooks = H;

    fn new(config: CoreConfig, hooks: H) -> Core<H> {
        Core::new(config, hooks)
    }

    fn name() -> &'static str {
        "pipeline"
    }

    fn state(&self) -> &MachineState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut MachineState {
        &mut self.state
    }

    fn hooks(&self) -> &H {
        &self.hooks
    }

    fn hooks_mut(&mut self) -> &mut H {
        &mut self.hooks
    }

    fn pc(&self) -> u32 {
        self.fetch_pc()
    }

    fn set_pc(&mut self, pc: u32) {
        Core::set_pc(self, pc);
    }

    fn load_segments<'a>(
        &mut self,
        segments: impl IntoIterator<Item = (u32, &'a [u8])>,
        entry: u32,
    ) {
        Core::load_segments(self, segments, entry);
    }

    fn run(&mut self, limit: u64) -> Option<HaltReason> {
        Core::run(self, limit)
    }

    fn step_insns(&mut self, n: u64) {
        Core::step_insns(self, n);
    }

    fn is_waiting(&self) -> bool {
        self.wfi
    }

    fn is_quiescent(&self) -> bool {
        Core::is_quiescent(self)
    }

    /// Pipelined-core snapshots are only faithful at retired-instruction
    /// boundaries: restore redirects fetch via `set_pc`, which discards
    /// in-flight latches, so a mid-instruction snapshot would silently
    /// lose work on restore. Enforce the precondition instead of
    /// documenting it.
    ///
    /// # Panics
    ///
    /// Panics if any inter-stage latch is occupied or a stage is mid-way
    /// through a multi-cycle access.
    fn snapshot(&self) -> EngineSnapshot<H>
    where
        H: Clone,
    {
        assert!(
            Core::is_quiescent(self),
            "pipeline snapshot requires a quiescent core (no in-flight instructions); \
             snapshot at reset, halt, or a step_insns boundary after the pipeline drains"
        );
        EngineSnapshot {
            machine: self.state.snapshot(),
            hooks: self.hooks.clone(),
            pc: self.fetch_pc(),
        }
    }
}

impl<H: Hooks> Engine for Interp<H> {
    type Hooks = H;

    fn new(config: CoreConfig, hooks: H) -> Interp<H> {
        Interp::new(config, hooks)
    }

    fn name() -> &'static str {
        "interp"
    }

    fn state(&self) -> &MachineState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut MachineState {
        &mut self.state
    }

    fn hooks(&self) -> &H {
        &self.hooks
    }

    fn hooks_mut(&mut self) -> &mut H {
        &mut self.hooks
    }

    fn pc(&self) -> u32 {
        self.pc
    }

    fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    fn load_segments<'a>(
        &mut self,
        segments: impl IntoIterator<Item = (u32, &'a [u8])>,
        entry: u32,
    ) {
        Interp::load_segments(self, segments, entry);
    }

    fn run(&mut self, limit: u64) -> Option<HaltReason> {
        Interp::run(self, limit)
    }

    fn step_insns(&mut self, n: u64) {
        Interp::step_insns(self, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoHooks;

    /// The same generic driver runs either engine — the deduplication
    /// the trait exists for.
    fn run_countdown<E: Engine<Hooks = NoHooks>>() -> (u32, Option<HaltReason>) {
        // li a0, 5; loop: addi a0, a0, -1; bnez a0, loop; ebreak
        let words: [u32; 4] = [0x0050_0513, 0xFFF5_0513, 0xFE05_1EE3, 0x0010_0073];
        let image: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut engine = E::new(CoreConfig::default(), NoHooks);
        engine.load_segments([(0u32, image.as_slice())], 0);
        let halt = engine.run(10_000);
        (engine.state().regs.get(metal_isa::Reg::A0), halt)
    }

    #[test]
    fn both_engines_run_generically() {
        let (core_a0, core_halt) = run_countdown::<Core<NoHooks>>();
        let (interp_a0, interp_halt) = run_countdown::<Interp<NoHooks>>();
        assert_eq!(core_halt, Some(HaltReason::Ebreak { code: 0 }));
        assert_eq!(core_halt, interp_halt);
        assert_eq!(core_a0, 0);
        assert_eq!(core_a0, interp_a0);
        assert_eq!(Core::<NoHooks>::name(), "pipeline");
        assert_eq!(Interp::<NoHooks>::name(), "interp");
    }
}
