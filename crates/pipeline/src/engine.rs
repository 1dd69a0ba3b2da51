//! The common interface over both execution engines.
//!
//! [`Core`](crate::Core) (cycle-accurate 5-stage pipeline) and
//! [`Interp`](crate::Interp) (functional reference) share
//! [`MachineState`] and the [`Hooks`] extension interface. [`Engine`]
//! is their one surface: construct, load a program, run, inspect state,
//! snapshot and restore. Each engine implements only what differs — its
//! construction, accessors, PC, and one cycle of execution — and every
//! way of driving an engine is a provided method written once over
//! that cycle. Code written against it (e.g. `msim --engine
//! pipeline|interp`, the root-test harness in `tests/common/`) is
//! engine-agnostic by construction.
//!
//! The trait is statically dispatched (generic `load_segments` makes it
//! non-object-safe), which is what the differential harnesses want:
//! both engines fully monomorphized, so each provided loop calls its
//! engine's `step` directly.

use crate::hooks::Hooks;
use crate::state::{CoreConfig, HaltReason, MachineSnapshot, MachineState, TranslationMode};

/// A point-in-time copy of an engine: the machine state, the extension
/// hooks, and the program counter. Taken with [`Engine::snapshot`] and
/// applied with [`Engine::restore`].
///
/// Restoring redirects execution via [`Engine::set_pc`], which clears
/// any in-flight pipeline latches — so a snapshot is only faithful at a
/// quiescent point ([`Engine::is_quiescent`]), and `snapshot` refuses
/// any other. The interpreter has no in-flight state and can snapshot
/// anywhere; the pipelined core can after reset, a halt, or
/// `load_segments`, before `run`.
#[derive(Clone, Debug)]
pub struct EngineSnapshot<H: Hooks + Clone> {
    machine: MachineSnapshot,
    hooks: H,
    pc: u32,
}

/// An engine and a snapshot of its machine state as constructed: the
/// per-worker machine of the campaign tools (`mfuzz`, `mfault`).
/// [`Rewindable::load`] gives the state a freshly constructed engine
/// has after the same load, at the cost of the RAM pages the last run
/// wrote (see [`MachineState::restore`]); only the trace handle is
/// kept across it.
pub struct Rewindable<E> {
    engine: E,
    blank: MachineSnapshot,
}

impl<E: Engine> Rewindable<E> {
    /// Builds the engine and snapshots its blank state.
    pub fn new(config: CoreConfig, hooks: E::Hooks) -> Rewindable<E> {
        let engine = E::new(config, hooks);
        Rewindable {
            blank: engine.state().snapshot(),
            engine,
        }
    }

    /// Rewinds to the blank state, installs `hooks`, sets the
    /// translation mode, and loads `program` at address 0 to run from
    /// there ([`Engine::load_segments`]).
    pub fn load(
        &mut self,
        hooks: E::Hooks,
        translation: TranslationMode,
        program: &[u8],
    ) -> &mut E {
        let engine = &mut self.engine;
        engine.state_mut().restore(&self.blank);
        *engine.hooks_mut() = hooks;
        engine.state_mut().translation = translation;
        engine.load_segments([(0, program)], 0);
        engine
    }

    /// The engine, as the last load and run left it.
    pub fn engine(&self) -> &E {
        &self.engine
    }
}

/// Cycles without a retirement, outside `wfi`, that [`Engine::run_fuel`] calls a hang.
pub const HANG_WINDOW: u64 = 100_000;

/// A machine that can load and run guest programs: the pipelined core
/// or the reference interpreter.
///
/// An engine supplies its construction, its state accessors, its PC,
/// and one cycle of execution ([`Engine::step`]). Everything that
/// drives an engine — loading, running to a cycle limit or a retired
/// count, the watchdog, snapshot and restore — is written once here,
/// over `step`.
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

    /// Redirects execution to `pc`, clearing any in-flight work
    /// (including a pending `wfi`).
    fn set_pc(&mut self, pc: u32);

    /// Advances the machine one cycle: one pipeline tick, or one
    /// interpreter instruction (or trap). Counts the cycle in
    /// `perf.cycles`; does nothing once the machine has halted.
    fn step(&mut self);

    /// True while the engine sleeps in `wfi`.
    fn is_waiting(&self) -> bool;

    /// True when the engine holds no in-flight microarchitectural
    /// state, so a [`Engine::snapshot`] would be faithful.
    fn is_quiescent(&self) -> bool;

    /// Flips one bit of an occupied inter-stage latch (the fault
    /// injector's latch site). Returns false when the latch is empty or
    /// the engine has no pipeline: the fault is masked by construction.
    fn inject_latch_bit(&mut self, _stage: u8, _bit: u8) -> bool {
        false
    }

    /// Loads program segments into RAM and points execution at `entry`.
    /// Clears any previous halt and in-flight work, and invalidates the
    /// decode cache.
    ///
    /// # Panics
    ///
    /// Panics if a segment does not fit in RAM (a build-setup error, not
    /// a runtime condition).
    fn load_segments<'a>(
        &mut self,
        segments: impl IntoIterator<Item = (u32, &'a [u8])>,
        entry: u32,
    ) {
        self.state_mut().load_image(segments);
        self.set_pc(entry);
    }

    /// Runs until the machine halts or `limit` cycles elapse. Returns
    /// the halt reason if the machine stopped; a guest that stops
    /// retiring is not detected here, it just runs to `limit` and stays
    /// resumable (see [`Engine::run_fuel`]).
    fn run(&mut self, limit: u64) -> Option<HaltReason> {
        run_observed(self, limit, &mut |_| {})
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
        self.run_fuel_observed(fuel, |_| {})
    }

    /// [`Engine::run_fuel`], calling `after_cycle` after every cycle
    /// (e.g. `mfuzz --inject-bug`, which corrupts what a cycle retired).
    /// The watchdog sees whatever `after_cycle` did to the machine.
    fn run_fuel_observed(
        &mut self,
        fuel: u64,
        mut after_cycle: impl FnMut(&mut Self),
    ) -> HaltReason {
        let mut left = fuel;
        while left > 0 {
            let window = left.min(HANG_WINDOW);
            let instret = self.state().perf.instret;
            let waiting = self.is_waiting();
            if let Some(halt) = run_observed(self, window, &mut after_cycle) {
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
    fn step_insns(&mut self, n: u64) {
        let target = self.state().perf.instret + n;
        while self.state().halted.is_none() && self.state().perf.instret < target {
            self.step();
        }
    }

    /// Captures machine state, hooks, and PC for a later
    /// [`Engine::restore`].
    ///
    /// # Panics
    ///
    /// Panics unless the engine [`is_quiescent`](Engine::is_quiescent):
    /// restore redirects execution via `set_pc`, which discards
    /// in-flight work, so a snapshot with instructions in flight would
    /// silently lose them on restore.
    fn snapshot(&self) -> EngineSnapshot<Self::Hooks>
    where
        Self::Hooks: Clone,
    {
        assert!(
            self.is_quiescent(),
            "pipeline snapshot requires a quiescent core (no in-flight instructions); \
             snapshot at reset, halt, or a step_insns boundary after the pipeline drains"
        );
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

/// The one cycle loop behind [`Engine::run`] and
/// [`Engine::run_fuel_observed`]: at most `limit` cycles, each followed
/// by `after_cycle`, until the machine halts.
fn run_observed<E: Engine>(
    engine: &mut E,
    limit: u64,
    after_cycle: &mut impl FnMut(&mut E),
) -> Option<HaltReason> {
    let start = engine.state().perf.cycles;
    while engine.state().halted.is_none() && engine.state().perf.cycles - start < limit {
        engine.step();
        after_cycle(engine);
    }
    engine.state().halted.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoHooks;
    use crate::{Core, Interp};
    use metal_isa::Reg;

    /// Loads `words` at 0 on a fresh engine of type `E`.
    fn load<E: Engine<Hooks = NoHooks>>(words: &[u32]) -> E {
        let image: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut engine = E::new(CoreConfig::default(), NoHooks);
        engine.load_segments([(0u32, image.as_slice())], 0);
        engine
    }

    /// The same generic driver runs either engine — the deduplication
    /// the trait exists for.
    fn run_countdown<E: Engine<Hooks = NoHooks>>() -> (u32, Option<HaltReason>) {
        // li a0, 5; loop: addi a0, a0, -1; bnez a0, loop; ebreak
        let mut engine = load::<E>(&[0x0050_0513, 0xFFF5_0513, 0xFE05_1EE3, 0x0010_0073]);
        let halt = engine.run(10_000);
        (engine.state().regs.get(Reg::A0), halt)
    }

    /// `run` counts cycles on both engines: a limit that does not halt
    /// spends exactly that many, split runs end where one run does, and
    /// `step_insns` retires exactly what it is asked for.
    fn check_run_limits<E: Engine<Hooks = NoHooks>>() {
        // li a0, 1000; loop: addi a1, a1, 3; addi a0, a0, -1; bnez a0, loop; ebreak
        let words = [
            0x3E80_0513,
            0x0035_8593,
            0xFFF5_0513,
            0xFE05_1CE3,
            0x0010_0073,
        ];
        let observe = |e: &E| {
            let s = e.state();
            (
                s.perf.cycles,
                s.perf.instret,
                e.pc(),
                s.regs.get(Reg::A0),
                s.regs.get(Reg::A1),
            )
        };

        let mut whole = load::<E>(&words);
        assert_eq!(
            whole.run(700),
            None,
            "{}: the loop outlasts the limit",
            E::name()
        );
        assert_eq!(whole.state().perf.cycles, 700, "{}", E::name());

        let mut split = load::<E>(&words);
        assert_eq!(split.run(213), None);
        assert_eq!(split.state().perf.cycles, 213, "{}", E::name());
        assert_eq!(split.run(487), None);
        assert_eq!(observe(&split), observe(&whole), "{}", E::name());

        // The observer runs once per cycle, to the halt.
        let mut observed = load::<E>(&words);
        let mut calls = 0;
        let halt = observed.run_fuel_observed(1_000_000, |_| calls += 1);
        assert_eq!(halt, HaltReason::Ebreak { code: 0 }, "{}", E::name());
        assert_eq!(calls, observed.state().perf.cycles, "{}", E::name());

        let retired = whole.state().perf.instret;
        whole.step_insns(37);
        assert_eq!(whole.state().perf.instret, retired + 37, "{}", E::name());
        assert!(whole.state().halted.is_none());
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
        check_run_limits::<Core<NoHooks>>();
        check_run_limits::<Interp<NoHooks>>();
    }
}
