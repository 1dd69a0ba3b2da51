//! Case execution: three persistent engines rewound between cases.
//!
//! A [`CaseRunner`] owns a pipelined core (decode cache on), a second
//! pipelined core (decode cache off), and the reference interpreter,
//! each a `Core<Metal>` or `Interp<Metal>` constructed **once**: the
//! machine type every other tool runs. Each is a
//! [`Rewindable`] engine, the per-worker machine `mfault` uses too:
//! a case rewinds it to its blank state — a copy of the RAM pages the
//! last case wrote plus field copies, microseconds instead of a
//! rebuild — and installs the case's Metal extension (mroutines,
//! delegations), built once per case.
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
//!
//! Retirement is observed through the trace alone: both engines emit
//! one `Retire` event per retired instruction, and the retirement
//! order, the dispatch tags retired (a coverage feature) and the
//! `--inject-bug mul` step all read those events.

use crate::grammar::{FuzzCase, SCRATCH_BASE};
use metal_core::arch::{self, Machine};
use metal_core::{Metal, MetalConfig};
use metal_isa::insn::{Insn, MulOp};
use metal_isa::{decode_to, DecodedInsn};
use metal_pipeline::state::{CoreConfig, MachineState, TranslationMode};
use metal_pipeline::{Core, Engine, HaltReason, Interp, Rewindable};
use metal_trace::{Event, EventKind, TraceConfig, TraceHandle};

/// Cycle budget per case on the pipelined cores.
pub const CORE_LIMIT: u64 = 2_000_000;
/// Cycle budget per case on the interpreter. It is half the cores'
/// because the interpreter executes one instruction every cycle, while
/// the pipelined cores also spend cycles on stalls and flushes.
pub const INTERP_LIMIT: u64 = 1_000_000;

/// Trace ring capacity per run, in events. A generated case leaves a
/// few hundred; a longer run keeps its newest events (see
/// [`CaseResult`]).
const TRACE_EVENTS: usize = 1 << 15;

/// A deliberately injected engine bug, used to validate that the fuzzer
/// finds and shrinks real divergences (`mfuzz --inject-bug`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BugKind {
    /// No bug: engines should always agree.
    None,
    /// Flip the low result bit of every retired `mul` on the pipelined
    /// cores only — a subtle single-instruction corruption, applied at
    /// the end of the cycle that retired it.
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

/// What the oracles and the coverage map read from one engine's run
/// of one case. The final architectural state stays in the engine
/// until the next case: the oracle compares the machines themselves,
/// and artifacts record the reference interpreter's.
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// How (and whether) the machine halted.
    pub halt: Option<HaltReason>,
    /// Retired instructions.
    pub instret: u64,
    /// The run's trace events (coverage input; their `Retire` events
    /// are the retirement order).
    pub events: Vec<Event>,
    /// Dispatch tags of the retirements the trace kept, as a bitmask.
    pub tags: u32,
}

/// PCs of the retirements a trace kept, oldest first: all `instret`
/// of them, or only the newest when the ring wrapped.
fn retired_pcs(events: &[Event]) -> impl Iterator<Item = u32> + '_ {
    events.iter().filter_map(|e| match e.kind {
        EventKind::Retire { pc } => Some(pc),
        _ => None,
    })
}

/// The instruction a run retired at `pc`: the case's MRAM code, or the
/// guest word in RAM. Fuzz guests run identity-mapped, and the only
/// patch a guest makes to its own code replaces an `addi` with an
/// `addi`, so the word read after the run is the word that retired.
fn decoded_at(state: &MachineState, metal: &Metal, pc: u32) -> Option<DecodedInsn> {
    metal
        .mram
        .code_decoded(pc)
        .ok()
        .or_else(|| state.bus.ram.read_u32(pc).ok().map(decode_to))
}

/// `--inject-bug mul`, called after every cycle of a pipelined core:
/// when the cycle retired a `mul` (its `Retire` event is among that
/// cycle's newest events), flip the low bit of the result.
fn flip_retired_mul<E: Engine<Hooks = Metal>>(engine: &mut E, instret: &mut u64) {
    let state = engine.state();
    if state.perf.instret == *instret {
        return;
    }
    *instret = state.perf.instret;
    let rd = retired_pcs(&state.trace.events_since(state.perf.cycles))
        .filter_map(|pc| decoded_at(state, engine.hooks(), pc))
        .find_map(|d| match d.insn {
            Insn::MulDiv {
                op: MulOp::Mul, rd, ..
            } => Some(rd),
            _ => None,
        });
    if let Some(rd) = rd {
        let regs = &mut engine.state_mut().regs;
        regs.set(rd, regs.get(rd) ^ 1);
    }
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
///
/// Each run's trace holds 2^15 events; a run that emits more keeps
/// only the newest. Such a case is still compared on
/// [`arch::DIFFERENTIAL`] (and the cores on [`arch::ALL`]), `instret`
/// included, but its retirement order only over the retirements both
/// traces kept, aligned at the newest: a wrapped trace is never read
/// as a complete one. Its `tags` likewise cover only the kept
/// retirements.
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

/// Three persistent engines, each rewound to its blank state between
/// cases.
pub struct CaseRunner {
    core_dc: Rewindable<Core<Metal>>,
    core_nodc: Rewindable<Core<Metal>>,
    interp: Rewindable<Interp<Metal>>,
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

fn fuzz_machine<E: Engine<Hooks = Metal>>(decode_cache: bool) -> Rewindable<E> {
    let config = CoreConfig {
        ram_bytes: FUZZ_RAM,
        decode_cache,
        ..CoreConfig::default()
    };
    Rewindable::new(config, Metal::new(MetalConfig::default()))
}

/// A case as the machines load it: its Metal extension, translation
/// mode and guest image.
struct Load {
    metal: Metal,
    translation: TranslationMode,
    program: Vec<u8>,
}

/// Rewinds `machine`, loads the case into it, and runs it under a
/// fresh trace for at most `limit` cycles.
fn run_on<E: Engine<Hooks = Metal>>(
    machine: &mut Rewindable<E>,
    load: &Load,
    bug: BugKind,
    limit: u64,
) -> EngineRun {
    let engine = machine.load(load.metal.clone(), load.translation, &load.program);
    engine
        .state_mut()
        .set_trace(TraceHandle::enabled(TraceConfig {
            capacity: TRACE_EVENTS,
            ..TraceConfig::default()
        }));
    let halt = Some(match bug {
        BugKind::None => engine.run_fuel(limit),
        BugKind::MulLowBit => {
            let mut instret = engine.state().perf.instret;
            engine.run_fuel_observed(limit, |e| flip_retired_mul(e, &mut instret))
        }
    });
    let state = engine.state();
    let events = state.trace.events();
    let tags = retired_pcs(&events)
        .filter_map(|pc| decoded_at(state, engine.hooks(), pc))
        .fold(0, |tags, d| tags | 1 << d.tag as u32);
    EngineRun {
        halt,
        instret: state.perf.instret,
        events,
        tags,
    }
}

impl CaseRunner {
    /// Builds the three machines and their blank snapshots. `bug` is
    /// applied to the pipelined cores only (the interpreter stays the
    /// trusted reference).
    #[must_use]
    pub fn new(bug: BugKind) -> CaseRunner {
        CaseRunner {
            core_dc: fuzz_machine(true),
            core_nodc: fuzz_machine(false),
            interp: fuzz_machine(true),
            bug,
        }
    }

    /// The reference interpreter as the last case left it: what
    /// artifacts record and replays check.
    pub(crate) fn reference(&self) -> Machine<'_> {
        Machine::of(self.interp.engine())
    }

    /// Builds the per-case Metal extension and assembles the guest.
    fn prepare(case: &FuzzCase) -> Result<Load, BuildError> {
        let (metal, palcode, _warnings) = case
            .metal_builder()
            .build()
            .map_err(|e| BuildError(format!("metal build: {e:?}")))?;
        debug_assert!(palcode.is_empty(), "fuzz cases use MRAM dispatch");
        let program = metal_asm::assemble_image(&case.guest, 0)
            .map_err(|e| BuildError(format!("guest assembly: {e}")))?;
        let translation = if case.soft_tlb {
            TranslationMode::SoftTlb
        } else {
            TranslationMode::Bare
        };
        Ok(Load {
            metal,
            translation,
            program,
        })
    }

    /// Runs one case on all three machines and applies both oracles.
    pub fn run(&mut self, case: &FuzzCase) -> Result<CaseResult, BuildError> {
        let load = Self::prepare(case)?;
        let core = run_on(&mut self.core_dc, &load, self.bug, CORE_LIMIT);
        let nodc = run_on(&mut self.core_nodc, &load, self.bug, CORE_LIMIT);
        let interp = run_on(&mut self.interp, &load, BugKind::None, INTERP_LIMIT);
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
            Machine::of(self.core_dc.engine()),
            Machine::of(self.core_nodc.engine()),
            self.reference(),
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
        if let Some(first) = retirement_mismatch(core, interp).filter(|_| !fatal) {
            return Some(format!(
                "retirement order diverged (first mismatch at retirement {first})"
            ));
        }
        if let Some(d) = arch::first_difference(on, off, arch::ALL) {
            return Some(format!(
                "decode cache perturbed {}: on={} off={}",
                d.field, d.left, d.right
            ));
        }
        retirement_mismatch(core, nodc)
            .map(|_| "decode cache perturbed retirement order".to_owned())
    }
}

/// The first retirement, counted from the start of the run, at which
/// two runs with equal `instret` retired different PCs. A trace that
/// wrapped kept only the newest retirements, so the two orders are
/// compared aligned at their ends, over the retirements both kept.
fn retirement_mismatch(a: &EngineRun, b: &EngineRun) -> Option<u64> {
    let (a_pcs, b_pcs): (Vec<u32>, Vec<u32>) = (
        retired_pcs(&a.events).collect(),
        retired_pcs(&b.events).collect(),
    );
    let kept = a_pcs.len().min(b_pcs.len());
    let first = a_pcs[a_pcs.len() - kept..]
        .iter()
        .zip(&b_pcs[b_pcs.len() - kept..])
        .position(|(x, y)| x != y)?;
    Some(a.instret - kept as u64 + first as u64)
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

    /// A case that loops `iterations` times over `body`, retiring
    /// `3 * iterations + 3` instructions (`li t0` is two).
    fn loop_case(body: &str, iterations: u32) -> FuzzCase {
        FuzzCase {
            seed: 0,
            routines: vec![],
            delegations: vec![],
            soft_tlb: false,
            guest: format!("li t0, {iterations}\nli a1, 3\nloop:\n{body}\naddi t0, t0, -1\nbnez t0, loop\nebreak"),
        }
    }

    #[test]
    fn wrapped_traces_are_compared_on_what_they_kept() {
        // 60,003 retirements: every engine's ring wraps, and the core
        // (which also traces stalls and flushes) keeps fewer retirements
        // than the interpreter, so comparing the two kept orders as
        // though complete would report a false divergence.
        let case = loop_case("addi a0, a0, 1", 20_000);
        let res = CaseRunner::new(BugKind::None).run(&case).unwrap();
        assert!(!res.hang);
        assert_eq!(res.divergence, None);
        let kept = |run: &EngineRun| retired_pcs(&run.events).count();
        for run in [&res.core, &res.interp] {
            assert_eq!(run.instret, 60_003);
            assert!(kept(run) < TRACE_EVENTS, "the ring wrapped");
        }
        assert_ne!(kept(&res.core), kept(&res.interp));
        assert_eq!(retirement_mismatch(&res.core, &res.interp), None);
        // A mismatch among the kept retirements is still found, and
        // numbered from the start of the run.
        let mut bent = res.core.clone();
        let last = bent
            .events
            .iter_mut()
            .rev()
            .find(|e| matches!(e.kind, EventKind::Retire { .. }))
            .unwrap();
        last.kind = EventKind::Retire { pc: 0x44 };
        assert_eq!(retirement_mismatch(&bent, &res.interp), Some(60_002));
        // The architectural state is compared in full all the same.
        let case = loop_case("mul a0, a1, a1", 20_000);
        let res = CaseRunner::new(BugKind::MulLowBit).run(&case).unwrap();
        assert!(!res.hang);
        assert!(retired_pcs(&res.core.events).count() < TRACE_EVENTS);
        let what = res.divergence.expect("the injected bug is found");
        assert!(what.starts_with("halt: core="), "{what}");
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
        let digests = |runner: &CaseRunner| {
            [
                Machine::of(runner.core_dc.engine()),
                Machine::of(runner.core_nodc.engine()),
                runner.reference(),
            ]
            .map(|m| arch::digest(m, arch::ALL))
        };
        let first = runner.run(&a).unwrap();
        let first_state = digests(&runner);
        runner.run(&b).unwrap();
        assert_ne!(digests(&runner), first_state, "B leaves another state");
        let again = runner.run(&a).unwrap();
        assert_eq!(digests(&runner), first_state);
        assert_eq!(first.core.instret, again.core.instret);
        // The cycle-stamped trace pins timing as well as order.
        assert_eq!(first.core.events, again.core.events);
    }
}
