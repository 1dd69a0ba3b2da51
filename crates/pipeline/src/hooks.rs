//! The extension-hook interface between the pipeline and an ISA
//! extension.
//!
//! The paper's thesis is that the processor should expose its fundamental
//! building blocks and let software build the rest. This trait is the
//! simulator's rendering of that boundary: the pipeline implements the
//! base ISA and calls out at exactly the points where Metal attaches —
//! instruction fetch (one pre-decoded fetch hook, for MRAM), decode
//! (menter/mexit replacement and interception), execute (the Metal
//! instructions), and trap delivery (delegation to mroutines). Both
//! engines drive the decode hook through one replacement chain,
//! `resolve_decode`.
//!
//! The boundary carries no tracing of its own: the engines emit the
//! pipeline-level events, and an extension emits its own (Metal records
//! MRAM fetches, custom-instruction execution and transitions), so
//! observing a run never needs a wrapper around the hooks.

use crate::state::MachineState;
use crate::trap::{Trap, TrapCause};
use metal_isa::{DecodedInsn, Insn};
use metal_trace::EventKind;

/// Maximum chained decode-slot replacements for one fetched instruction
/// before [`resolve_decode`] declares a runaway and raises an
/// illegal-instruction trap.
const MAX_REPLACE_CHAIN: usize = 16;

/// What the decode-stage hook decided about an instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeOutcome {
    /// Let the instruction proceed normally.
    Pass,
    /// Replace the instruction in the decode slot (the `menter`/`mexit`
    /// fast path, paper §2.2, and instruction interception, §2.3).
    Replace {
        /// The instruction now occupying the decode slot, pre-decoded
        /// (MRAM holds its code in this form, so no engine re-decodes a
        /// replacement).
        decoded: DecodedInsn,
        /// The PC to attribute to the replacement (its own address).
        pc: u32,
        /// Where fetch continues after the replacement.
        next_fetch: u32,
        /// Extra decode-stall cycles (0 for MRAM-resident mroutines;
        /// the memory round trip for PALcode-style dispatch).
        stall: u32,
    },
    /// Raise a trap instead of executing (e.g. a Metal-mode-only
    /// instruction in normal mode). `pc` overrides the PC attributed to
    /// the trap (used when an `mexit` return fetch faults: the fault
    /// belongs to the return address, not the mroutine).
    Fault {
        /// The trap to raise.
        trap: Trap,
        /// PC override; `None` = the decoded instruction's own PC.
        pc: Option<u32>,
    },
}

/// A trap event offered to the extension before default handling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrapEvent {
    /// The cause.
    pub cause: TrapCause,
    /// The trap value (faulting address / instruction word).
    pub tval: u32,
    /// PC of the faulting (or interrupted) instruction.
    pub pc: u32,
}

/// How the extension wants a trap handled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrapDisposition {
    /// Use the baseline path: CSRs + `mtvec` vector.
    Default,
    /// Redirect to an extension-provided handler (an mroutine).
    Redirect {
        /// New PC.
        target: u32,
        /// Extra cycles for the dispatch (0 when the handler comes from
        /// MRAM).
        stall: u32,
    },
    /// The machine cannot continue (e.g. a double fault in Metal mode).
    Fatal,
}

/// Result of executing a custom instruction: optional writeback value and
/// extra execute-stage cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CustomExec {
    /// Value written to `rd`, if the instruction produces one.
    pub writeback: Option<u32>,
    /// Extra EX cycles beyond the base 1.
    pub extra_cycles: u32,
}

/// Extension hooks. The baseline core uses [`NoHooks`]; `metal-core`
/// provides the Metal implementation.
pub trait Hooks {
    /// Overrides instruction fetch at `pc`. Returning `Some((insn,
    /// latency))` bypasses translation, the I-cache, and the bus — this
    /// is how MRAM-resident mroutines are fetched, already decoded. `Err`
    /// faults the fetch; `None` falls through to
    /// [`MachineState::fetch_decoded`].
    fn fetch_decoded(
        &mut self,
        state: &mut MachineState,
        pc: u32,
    ) -> Option<Result<(DecodedInsn, u32), Trap>> {
        let _ = (state, pc);
        None
    }

    /// True if [`Hooks::decode`] would do more than `Pass` for this
    /// instruction (mode transitions, interception). The pipeline holds
    /// such instructions in ID until no older in-flight instruction can
    /// still fault, keeping exceptions precise across decode-stage side
    /// effects. Must be side-effect free.
    fn decode_is_sensitive(&self, state: &MachineState, word: u32, insn: &Insn) -> bool {
        let _ = (state, word, insn);
        false
    }

    /// Inspects an instruction in the decode stage.
    fn decode(
        &mut self,
        state: &mut MachineState,
        pc: u32,
        word: u32,
        insn: &Insn,
    ) -> DecodeOutcome {
        let _ = (state, pc, word, insn);
        DecodeOutcome::Pass
    }

    /// Executes a custom (Metal) instruction at the execute stage.
    fn exec_custom(
        &mut self,
        state: &mut MachineState,
        pc: u32,
        word: u32,
        insn: &Insn,
        rs1: u32,
        rs2: u32,
    ) -> Result<CustomExec, Trap> {
        let _ = (state, pc, insn, rs1, rs2);
        Err(Trap::illegal(word))
    }

    /// Offered every trap before baseline handling.
    fn on_trap(&mut self, state: &mut MachineState, event: &TrapEvent) -> TrapDisposition {
        let _ = (state, event);
        TrapDisposition::Default
    }

    /// Whether external interrupts may be delivered right now. Metal
    /// returns `false` while an mroutine runs (paper §2.1: "Metal
    /// mroutines are non-interruptible").
    fn interrupts_allowed(&self, state: &MachineState) -> bool {
        let _ = state;
        true
    }
}

/// An engine's decode stage, as [`resolve_decode`] drives it.
pub(crate) trait DecodeStage<H: Hooks> {
    /// The hooks and the machine state, borrowed together.
    fn parts(&mut self) -> (&mut H, &mut MachineState);

    /// A replacement moved fetch on to `next_fetch`.
    fn redirect_fetch(&mut self, next_fetch: u32) {
        let _ = next_fetch;
    }

    /// The slot settled on `decoded` at `pc`, after `stall` extra decode
    /// cycles of replacement: execute it, or send it on.
    fn pass(&mut self, pc: u32, decoded: DecodedInsn, stall: u32);

    /// The slot holding `decoded` at `pc` raises `trap` instead.
    fn fault(&mut self, pc: u32, decoded: DecodedInsn, trap: Trap);
}

/// The decode stage's replacement path, shared by both engines: offers
/// the instruction at `pc` to [`Hooks::decode`], and re-offers each
/// replacement, since it may itself be replaced (an `mexit` whose
/// return stream begins with another `menter`). Each replacement counts
/// as a Metal entry and is traced as `DecodeReplace`. An illegal word
/// in the slot, a hook fault, or a chain longer than
/// `MAX_REPLACE_CHAIN` ends in [`DecodeStage::fault`].
///
/// `pass` and `fault` are called in the arm that decides them, so each
/// inlines with its outcome known: one merged result was slower.
#[inline]
pub(crate) fn resolve_decode<H: Hooks>(
    engine: &mut impl DecodeStage<H>,
    mut pc: u32,
    mut cur: DecodedInsn,
) {
    let mut stall = 0;
    for _ in 0..MAX_REPLACE_CHAIN {
        if cur.is_illegal() {
            return engine.fault(pc, cur, Trap::illegal(cur.word));
        }
        let (hooks, state) = engine.parts();
        match hooks.decode(state, pc, cur.word, &cur.insn) {
            DecodeOutcome::Pass => return engine.pass(pc, cur, stall),
            DecodeOutcome::Replace {
                decoded,
                pc: target,
                next_fetch,
                stall: extra,
            } => {
                state.perf.metal_entries += 1;
                state.trace.emit(EventKind::DecodeReplace { pc, target });
                engine.redirect_fetch(next_fetch);
                (pc, cur) = (target, decoded);
                stall += extra;
            }
            DecodeOutcome::Fault { trap, pc: at } => {
                return engine.fault(at.unwrap_or(pc), cur, trap);
            }
        }
    }
    engine.fault(pc, DecodedInsn::illegal(cur.word), Trap::illegal(cur.word));
}

/// The baseline core: no extension. All Metal instructions raise
/// illegal-instruction traps, and traps vector through `mtvec`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoHooks;

impl Hooks for NoHooks {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{CoreConfig, MachineState};

    #[test]
    fn nohooks_defaults() {
        let mut h = NoHooks;
        let mut m = MachineState::new(&CoreConfig::default());
        assert!(h.fetch_decoded(&mut m, 0).is_none());
        assert!(h.interrupts_allowed(&m));
        let insn = Insn::Mexit;
        assert_eq!(h.decode(&mut m, 0, 0, &insn), DecodeOutcome::Pass);
        let err = h.exec_custom(&mut m, 0, 0xABCD, &insn, 0, 0).unwrap_err();
        assert_eq!(err.cause, TrapCause::IllegalInstruction);
        assert_eq!(err.tval, 0xABCD);
        let ev = TrapEvent {
            cause: TrapCause::Ecall,
            tval: 0,
            pc: 0x100,
        };
        assert_eq!(h.on_trap(&mut m, &ev), TrapDisposition::Default);
    }
}
