//! Case execution: three persistent engines reset by snapshot/restore.
//!
//! A [`CaseRunner`] owns a pipelined core (decode cache on), a second
//! pipelined core (decode cache off), and the reference interpreter,
//! each constructed **once**. Between cases the machines are rewound
//! with [`metal_pipeline::Engine::restore`] — a copy of the RAM pages
//! the case wrote plus field copies, microseconds instead of a
//! rebuild — and only the per-case Metal extension (mroutines,
//! delegations) is constructed fresh.
//!
//! The differential oracle compares the architectural state that
//! [`metal_core::arch`] defines — halt, registers, CSRs, ASID,
//! translation mode, TLB and page keys, guest RAM, Metal registers
//! and control registers, MRAM data, Metal stats, `instret` — and is
//! two-sided:
//!
//! * **cross-engine**: core (decode cache on) vs interpreter must agree
//!   on [`arch::DIFFERENTIAL`] (everything but `cycles`) and on the
//!   retirement order;
//! * **cross-configuration**: the two cores must agree on [`arch::ALL`],
//!   *cycle counts* included — the decode cache is a host-side
//!   optimization and any timing perturbation is a bug.

use crate::grammar::{FuzzCase, SCRATCH_BASE};
use metal_core::arch::{self, Machine};
use metal_core::Metal;
use metal_isa::insn::{Insn, MulOp};
use metal_isa::DispatchTag;
use metal_pipeline::hooks::{CustomExec, DecodeOutcome, TrapDisposition, TrapEvent};
use metal_pipeline::state::{CoreConfig, MachineState, TranslationMode};
use metal_pipeline::{Core, Engine, EngineSnapshot, HaltReason, Hooks, Interp, Trap};
use metal_trace::{Event, TraceConfig, TraceHandle};

/// Cycle budget per case on the pipelined cores.
pub const CORE_LIMIT: u64 = 2_000_000;
/// Cycle budget per case on the interpreter. It is half the cores'
/// because the interpreter executes one instruction every cycle, while
/// the pipelined cores also spend cycles on stalls and flushes.
pub const INTERP_LIMIT: u64 = 1_000_000;

/// Retirement PCs recorded per run (the tail is summarized by count).
const RETIRE_CAP: usize = 4096;

/// A deliberately injected engine bug, used to validate that the fuzzer
/// finds and shrinks real divergences (`mfuzz --inject-bug`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BugKind {
    /// No bug: engines should always agree.
    None,
    /// Flip the low result bit of every retired `mul` on the pipelined
    /// cores only — a subtle single-instruction corruption.
    MulLowBit,
}

impl BugKind {
    /// Parses the `--inject-bug` operand.
    #[must_use]
    pub fn parse(s: &str) -> Option<BugKind> {
        match s {
            "none" => Some(BugKind::None),
            "mul" => Some(BugKind::MulLowBit),
            _ => None,
        }
    }
}

/// The fuzzer's [`Hooks`]: the real Metal extension plus retirement
/// observation (dispatch tags, retirement order) and optional bug
/// injection. Every extension decision is delegated to Metal verbatim,
/// so behavior with `BugKind::None` is bit-identical to running Metal
/// directly.
#[derive(Clone)]
pub struct FuzzHooks {
    /// The wrapped extension.
    pub metal: Metal,
    /// The injected bug, if any.
    pub bug: BugKind,
    /// Bitmask of [`DispatchTag`]s seen at retirement.
    pub tags: u32,
    /// First `RETIRE_CAP` retired PCs.
    pub retired: Vec<u32>,
    /// Total retirements (beyond the recorded prefix).
    pub retired_total: u64,
}

impl FuzzHooks {
    /// Wraps an extension.
    #[must_use]
    pub fn new(metal: Metal, bug: BugKind) -> FuzzHooks {
        FuzzHooks {
            metal,
            bug,
            tags: 0,
            retired: Vec::new(),
            retired_total: 0,
        }
    }
}

fn tag_bit(insn: &Insn) -> u32 {
    let tag = metal_isa::decoded::DecodedInsn::from_insn(0, *insn).tag;
    1 << match tag {
        DispatchTag::Simple => 0,
        DispatchTag::Load => 1,
        DispatchTag::Store => 2,
        DispatchTag::PhysMem => 3,
        DispatchTag::Control => 4,
        DispatchTag::Illegal => 5,
    }
}

impl Hooks for FuzzHooks {
    fn fetch_decoded(
        &mut self,
        state: &mut MachineState,
        pc: u32,
    ) -> Option<Result<(metal_isa::DecodedInsn, u32), Trap>> {
        self.metal.fetch_decoded(state, pc)
    }

    fn decode_is_sensitive(&self, state: &MachineState, word: u32, insn: &Insn) -> bool {
        self.metal.decode_is_sensitive(state, word, insn)
    }

    fn decode(
        &mut self,
        state: &mut MachineState,
        pc: u32,
        word: u32,
        insn: &Insn,
    ) -> DecodeOutcome {
        self.metal.decode(state, pc, word, insn)
    }

    fn exec_custom(
        &mut self,
        state: &mut MachineState,
        pc: u32,
        word: u32,
        insn: &Insn,
        rs1: u32,
        rs2: u32,
    ) -> Result<CustomExec, Trap> {
        self.metal.exec_custom(state, pc, word, insn, rs1, rs2)
    }

    fn on_trap(&mut self, state: &mut MachineState, event: &TrapEvent) -> TrapDisposition {
        self.metal.on_trap(state, event)
    }

    fn interrupts_allowed(&self, state: &MachineState) -> bool {
        self.metal.interrupts_allowed(state)
    }

    fn on_retire(&mut self, state: &mut MachineState, pc: u32, insn: &Insn) {
        self.metal.on_retire(state, pc, insn);
        self.tags |= tag_bit(insn);
        if self.retired.len() < RETIRE_CAP {
            self.retired.push(pc);
        }
        self.retired_total += 1;
        if self.bug == BugKind::MulLowBit {
            if let Insn::MulDiv {
                op: MulOp::Mul, rd, ..
            } = insn
            {
                state.regs.set(*rd, state.regs.get(*rd) ^ 1);
            }
        }
    }
}

/// Everything observed from one engine's run of one case.
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// How (and whether) the machine halted.
    pub halt: Option<HaltReason>,
    /// Final general-purpose registers.
    pub regs: [u32; 32],
    /// Final Metal registers m0..m31.
    pub mregs: [u32; 32],
    /// Final MRAM private-data segment.
    pub mram_data: Vec<u8>,
    /// Retired instructions.
    pub instret: u64,
    /// Retirement order (first `RETIRE_CAP` PCs) and total count.
    pub retired: Vec<u32>,
    /// Total retirements.
    pub retired_total: u64,
    /// The run's trace events (coverage input).
    pub events: Vec<Event>,
    /// Dispatch tags retired, as a bitmask.
    pub tags: u32,
}

/// Discriminant of the halt shape, a coverage feature.
#[must_use]
pub fn halt_kind(halt: &Option<HaltReason>) -> u32 {
    match halt {
        // A budget-limited run looks like "still running" to coverage,
        // exactly as the pre-watchdog `None` did.
        None | Some(HaltReason::Timeout) => 0,
        Some(HaltReason::Ebreak { .. }) => 1,
        Some(HaltReason::Fatal(_)) => 2,
    }
}

/// The outcome of running one case on all three machines.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// A human-readable divergence description, if any oracle fired.
    pub divergence: Option<String>,
    /// True when either engine hit its cycle budget without halting:
    /// the budgets differ ([`CORE_LIMIT`], [`INTERP_LIMIT`]), so the
    /// engines stopped at different points, and the case is discarded
    /// rather than diffed.
    pub hang: bool,
    /// The decode-cache-enabled core's run (the coverage source).
    pub core: EngineRun,
    /// The reference interpreter's run (the expectation source).
    pub interp: EngineRun,
}

/// Why a case could not be run at all (malformed candidate — the
/// shrinker treats these as uninteresting, the campaign as a generator
/// bug).
#[derive(Clone, Debug)]
pub struct BuildError(pub String);

/// Three persistent engines plus their pristine snapshots.
pub struct CaseRunner {
    core_dc: Core<FuzzHooks>,
    core_nodc: Core<FuzzHooks>,
    interp: Interp<FuzzHooks>,
    pristine_dc: EngineSnapshot<FuzzHooks>,
    pristine_nodc: EngineSnapshot<FuzzHooks>,
    pristine_interp: EngineSnapshot<FuzzHooks>,
    bug: BugKind,
}

/// RAM size of the fuzzing machines. Generated programs touch only
/// their own code at address 0 and the 64-byte scratch window at
/// [`SCRATCH_BASE`], so 64 KiB holds every case with room to spare and
/// keeps both the per-case restore and the RAM comparison cheap. An
/// engine that wrongly writes beyond RAM takes an access fault, which
/// the halt and CSR comparison reports.
pub const FUZZ_RAM: usize = 64 << 10;
const _: () = assert!(SCRATCH_BASE as usize + 64 <= FUZZ_RAM);

fn fuzz_config(decode_cache: bool) -> CoreConfig {
    CoreConfig {
        ram_bytes: FUZZ_RAM,
        decode_cache,
        ..CoreConfig::default()
    }
}

fn empty_hooks() -> FuzzHooks {
    FuzzHooks::new(
        Metal::new(metal_core::MetalConfig::default()),
        BugKind::None,
    )
}

impl CaseRunner {
    /// Builds the three machines and their pristine snapshots. `bug` is
    /// applied to the pipelined cores only (the interpreter stays the
    /// trusted reference).
    #[must_use]
    pub fn new(bug: BugKind) -> CaseRunner {
        let core_dc = Core::new(fuzz_config(true), empty_hooks());
        let core_nodc = Core::new(fuzz_config(false), empty_hooks());
        let interp = Interp::new(fuzz_config(true), empty_hooks());
        CaseRunner {
            pristine_dc: core_dc.snapshot(),
            pristine_nodc: core_nodc.snapshot(),
            pristine_interp: interp.snapshot(),
            core_dc,
            core_nodc,
            interp,
            bug,
        }
    }

    /// Builds the per-case Metal extension and assembles the guest.
    fn prepare(case: &FuzzCase) -> Result<(Metal, Vec<u8>), BuildError> {
        let (metal, palcode, _warnings) = case
            .metal_builder()
            .build()
            .map_err(|e| BuildError(format!("metal build: {e:?}")))?;
        debug_assert!(palcode.is_empty(), "fuzz cases use MRAM dispatch");
        let words = metal_asm::assemble_at(&case.guest, 0)
            .map_err(|e| BuildError(format!("guest assembly: {e}")))?;
        let program = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        Ok((metal, program))
    }

    fn run_one<E: Engine<Hooks = FuzzHooks>>(
        engine: &mut E,
        pristine: &EngineSnapshot<FuzzHooks>,
        metal: &Metal,
        bug: BugKind,
        soft_tlb: bool,
        program: &[u8],
        limit: u64,
    ) -> EngineRun {
        engine.restore(pristine);
        *engine.hooks_mut() = FuzzHooks::new(metal.clone(), bug);
        engine
            .state_mut()
            .set_trace(TraceHandle::enabled(TraceConfig {
                capacity: 1 << 15,
                ..TraceConfig::default()
            }));
        if soft_tlb {
            engine.state_mut().translation = TranslationMode::SoftTlb;
        }
        engine.load_segments([(0u32, program)], 0);
        let halt = Some(engine.run_fuel(limit));
        let state = engine.state();
        let hooks = engine.hooks();
        EngineRun {
            halt,
            regs: state.regs.snapshot(),
            mregs: std::array::from_fn(|n| hooks.metal.mregs.get(n)),
            mram_data: hooks
                .metal
                .mram
                .data()
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .collect(),
            instret: state.perf.instret,
            retired: hooks.retired.clone(),
            retired_total: hooks.retired_total,
            events: state.trace.events(),
            tags: hooks.tags,
        }
    }

    /// Runs one case on all three machines and applies both oracles.
    pub fn run(&mut self, case: &FuzzCase) -> Result<CaseResult, BuildError> {
        let (metal, program) = Self::prepare(case)?;
        let core = Self::run_one(
            &mut self.core_dc,
            &self.pristine_dc,
            &metal,
            self.bug,
            case.soft_tlb,
            &program,
            CORE_LIMIT,
        );
        let nodc = Self::run_one(
            &mut self.core_nodc,
            &self.pristine_nodc,
            &metal,
            self.bug,
            case.soft_tlb,
            &program,
            CORE_LIMIT,
        );
        let interp = Self::run_one(
            &mut self.interp,
            &self.pristine_interp,
            &metal,
            BugKind::None,
            case.soft_tlb,
            &program,
            INTERP_LIMIT,
        );
        let hang = [&core, &nodc, &interp]
            .iter()
            .any(|r| matches!(r.halt, None | Some(HaltReason::Timeout)));
        let divergence = if hang {
            None
        } else {
            self.diff(&core, &nodc, &interp)
        };
        Ok(CaseResult {
            divergence,
            hang,
            core,
            interp,
        })
    }

    /// Applies both oracles to the halted machines; `Some(description)`
    /// on the first mismatch.
    fn diff(&self, core: &EngineRun, nodc: &EngineRun, interp: &EngineRun) -> Option<String> {
        let (on, off, reference) = (
            machine(&self.core_dc),
            machine(&self.core_nodc),
            machine(&self.interp),
        );
        // A Fatal stop is a simulator abort, not architectural behavior:
        // the pipeline abandons older in-flight instructions (they never
        // reach writeback), so fine-grained state is best-effort there.
        // Both engines agreeing on the identical fatal message (cause,
        // pc, tval) is the whole contract; the two pipelined cores are
        // still held to full equality below.
        let fatal = matches!(core.halt, Some(HaltReason::Fatal(_)));
        let set = if fatal {
            arch::HALT
        } else {
            arch::DIFFERENTIAL
        };
        if let Some(d) = arch::first_difference(on, reference, set) {
            return Some(format!("{}: core={} interp={}", d.field, d.left, d.right));
        }
        if !fatal && (core.retired_total != interp.retired_total || core.retired != interp.retired)
        {
            let first = core
                .retired
                .iter()
                .zip(&interp.retired)
                .position(|(a, b)| a != b);
            return Some(format!(
                "retirement order diverged (first mismatch at index {first:?})"
            ));
        }
        if let Some(d) = arch::first_difference(on, off, arch::ALL) {
            return Some(format!(
                "decode cache perturbed {}: on={} off={}",
                d.field, d.left, d.right
            ));
        }
        (core.retired != nodc.retired).then(|| "decode cache perturbed retirement order".to_owned())
    }
}

fn machine<E: Engine<Hooks = FuzzHooks>>(engine: &E) -> Machine<'_> {
    Machine {
        state: engine.state(),
        metal: &engine.hooks().metal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{self, RoutineSpec};
    use metal_trace::EventKind;

    #[test]
    fn clean_engines_agree_over_many_seeds() {
        let mut runner = CaseRunner::new(BugKind::None);
        let mut agreed = 0;
        for seed in 0..60u64 {
            let case = grammar::generate(seed);
            let res = runner.run(&case).expect("generated cases build");
            assert!(
                res.divergence.is_none(),
                "seed {seed} diverged: {}\nguest:\n{}",
                res.divergence.unwrap(),
                case.guest
            );
            if !res.hang {
                agreed += 1;
            }
        }
        assert!(agreed > 50, "most cases must terminate, got {agreed}");
    }

    #[test]
    fn injected_bug_is_observable() {
        let mut runner = CaseRunner::new(BugKind::MulLowBit);
        let case = FuzzCase {
            seed: 0,
            routines: vec![],
            delegations: vec![],
            soft_tlb: false,
            guest: "li a0, 3\nli a1, 5\nmul a0, a0, a1\nebreak".to_owned(),
        };
        let res = runner.run(&case).unwrap();
        let what = res.divergence.expect("bug must diverge");
        assert!(what.contains("core"), "{what}");
    }

    #[test]
    fn metal_operations_reach_the_trace() {
        // `menter` and `mexit` each replace a decode slot, `rmr`, `mld`
        // and `march` each record a CustomExec event (the coverage map's
        // `march.*` feature), and every routine word is an MRAM fetch.
        // Both engines trace the same Metal operations.
        let mut runner = CaseRunner::new(BugKind::None);
        let case = FuzzCase {
            seed: 0,
            routines: vec![RoutineSpec::new(
                0,
                "ops",
                "rmr t0, m0\nmld t1, 0(zero)\nmtlbp t2, t0\nmexit",
            )],
            delegations: vec![],
            soft_tlb: false,
            guest: "menter 0\nebreak".to_owned(),
        };
        let res = runner.run(&case).unwrap();
        assert_eq!(res.divergence, None);
        let counts = |run: &EngineRun| {
            let mut counts = [0; 3];
            for e in &run.events {
                match e.kind {
                    EventKind::DecodeReplace { .. } => counts[0] += 1,
                    EventKind::CustomExec { .. } => counts[1] += 1,
                    EventKind::MramFetch { .. } => counts[2] += 1,
                    _ => {}
                }
            }
            counts
        };
        assert_eq!(counts(&res.core), [2, 3, 4]);
        assert_eq!(counts(&res.interp), counts(&res.core));
    }

    #[test]
    fn persistent_runner_is_coherent_across_cases() {
        // State must not leak between cases: running A, then B, then A
        // again reproduces A's first result exactly.
        let mut runner = CaseRunner::new(BugKind::None);
        let a = grammar::generate(11);
        let b = grammar::generate(12);
        let first = runner.run(&a).unwrap();
        runner.run(&b).unwrap();
        let again = runner.run(&a).unwrap();
        assert_eq!(first.core.regs, again.core.regs);
        assert_eq!(first.core.instret, again.core.instret);
        assert_eq!(first.interp.regs, again.interp.regs);
        // The cycle-stamped trace pins timing as well as order.
        assert_eq!(first.core.events, again.core.events);
    }
}
