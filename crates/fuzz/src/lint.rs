//! Simulator-validated lint soundness.
//!
//! `metal-lint` makes claims about programs it has never run: an
//! mroutine with no bounds denial and no unresolved `mld`/`mst` must
//! never raise an MRAM data-access fault; a guest with no privilege
//! denial must never trap on a Metal-only instruction outside Metal
//! mode. This module checks those claims against what the engines
//! *actually did* — the trace event streams both engines produce for
//! every fuzz case — and turns any disagreement into a first-class
//! fuzz finding, shrunk and serialized like an engine divergence.
//!
//! The comparison is deliberately one-directional. A **denial** that
//! never faults at runtime is fine (the denied path may simply not
//! have been taken on this input); a **clean verdict** that faults is
//! a lint soundness bug, full stop. Claims are three-valued:
//!
//! * [`Claim::Clean`] — the analysis proved the property; a runtime
//!   fault contradicts it.
//! * [`Claim::Denied`] — the analysis flagged the property; a runtime
//!   fault *agrees* with it.
//! * [`Claim::Unknown`] — the analysis abstained (an unresolved
//!   address, a computed jump); runtime behavior proves nothing.

use crate::grammar::FuzzCase;
use metal_lint::checks::{analyze, UnitReport};
use metal_lint::{Check, Level, LintConfig, MRAM_BASE};
use metal_pipeline::TrapCause;
use metal_trace::Event;
use metal_trace::EventKind;

/// What the analysis asserts about one property of one unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Claim {
    /// Proven: a runtime fault contradicts the analysis.
    Clean,
    /// Flagged statically: a runtime fault agrees.
    Denied,
    /// Abstained: runtime behavior proves nothing.
    Unknown,
}

/// One linted code unit: the guest program or one mroutine.
pub struct LintUnit {
    /// Routine name, or `"guest"`.
    pub name: String,
    /// Address the unit was assembled and analyzed at.
    pub base: u32,
    /// The assembled words (the static image the claims are about).
    pub words: Vec<u32>,
    /// The full lint report.
    pub report: UnitReport,
}

impl LintUnit {
    /// The static instruction word at `pc`, if `pc` lies in this unit.
    #[must_use]
    pub fn word_at(&self, pc: u32) -> Option<u32> {
        let off = pc.checked_sub(self.base)?;
        if off % 4 != 0 {
            return None;
        }
        self.words.get((off / 4) as usize).copied()
    }

    fn has_denial(&self, check: Check) -> bool {
        self.report
            .diagnostics
            .iter()
            .any(|d| d.level == Level::Deny && d.check == check)
    }

    /// The unit's claim about MRAM data-segment bounds.
    #[must_use]
    pub fn bounds_claim(&self) -> Claim {
        if self.has_denial(Check::Bounds) {
            Claim::Denied
        } else if self.report.unresolved_accesses > 0 {
            Claim::Unknown
        } else {
            Claim::Clean
        }
    }

    /// The unit's claim about mode correctness (no Metal-only
    /// instruction reachable outside Metal mode). Reachability is
    /// over-approximated in the presence of computed jumps, so a static
    /// image with no denial is clean — unless the faulting word is not
    /// in the image at all (self-modifying code), which callers screen
    /// out via [`LintUnit::word_at`].
    #[must_use]
    pub fn privilege_claim(&self) -> Claim {
        if self.has_denial(Check::Privilege) {
            Claim::Denied
        } else {
            Claim::Clean
        }
    }
}

/// The lint view of a whole fuzz case.
pub struct CaseLint {
    /// The guest program, analyzed as a normal-mode program at 0.
    pub guest: LintUnit,
    /// Each mroutine, analyzed at its MRAM install address.
    pub routines: Vec<LintUnit>,
}

impl CaseLint {
    /// The mroutine whose code window contains `pc`.
    #[must_use]
    pub fn routine_at(&self, pc: u32) -> Option<&LintUnit> {
        self.routines
            .iter()
            .find(|u| pc >= u.base && pc < u.base + (u.words.len() as u32) * 4)
    }
}

/// Lints every unit of a case exactly as the loader would install it:
/// mroutines are assembled in order at sequential MRAM addresses, the
/// guest at 0 as a normal-mode program.
pub fn lint_case(case: &FuzzCase) -> Result<CaseLint, String> {
    let nested = false; // CaseRunner builds single-layer machines
    let mut routines = Vec::new();
    let mut base = MRAM_BASE;
    for r in &case.routines {
        let words =
            metal_asm::assemble_at(&r.src, base).map_err(|e| format!("routine {}: {e}", r.name))?;
        let mut config = LintConfig::mroutine(base);
        config.nested_allowed = nested;
        let report = analyze(&words, &config, None);
        let len = (words.len() as u32) * 4;
        routines.push(LintUnit {
            name: r.name.clone(),
            base,
            words,
            report,
        });
        base += len;
    }
    let guest_words = metal_asm::assemble_at(&case.guest, 0).map_err(|e| format!("guest: {e}"))?;
    let config = LintConfig::program(0);
    let report = analyze(&guest_words, &config, None);
    Ok(CaseLint {
        guest: LintUnit {
            name: "guest".to_owned(),
            base: 0,
            words: guest_words,
            report,
        },
        routines,
    })
}

/// Scans one engine's event stream for a fault that contradicts a
/// clean lint claim. Returns the finding description, if any.
#[must_use]
pub fn check_events(lint: &CaseLint, engine: &str, events: &[Event]) -> Option<String> {
    for ev in events {
        let EventKind::Trap { code, tval, pc } = ev.kind else {
            continue;
        };
        if let Some(what) = check_trap(lint, engine, code, tval, pc) {
            return Some(what);
        }
    }
    None
}

/// Judges a single architectural trap against the lint claims.
fn check_trap(lint: &CaseLint, engine: &str, code: u32, tval: u32, pc: u32) -> Option<String> {
    match TrapCause::from_code(code)? {
        TrapCause::IllegalInstruction => {
            // A privilege violation is an illegal-instruction trap on a
            // word that *does* decode — to a Metal-only instruction —
            // outside the MRAM window (i.e. outside Metal mode).
            if pc >= MRAM_BASE {
                return None;
            }
            let d = metal_isa::decode_to(tval);
            if d.is_illegal() || !d.insn.metal_mode_only() {
                return None;
            }
            // Self-modifying or out-of-image execution: the trapping
            // word must be the one the analysis actually saw.
            if lint.guest.word_at(pc) != Some(tval) {
                return None;
            }
            (lint.guest.privilege_claim() == Claim::Clean).then(|| {
                format!(
                    "lint soundness: guest lints privilege-clean but {engine} trapped on \
                     Metal-only `{}` at pc {pc:#010x}",
                    metal_isa::disassemble(&d.insn)
                )
            })
        }
        TrapCause::LoadAccessFault | TrapCause::StoreAccessFault => {
            // An MRAM data fault: the trap fires at an MRAM pc and the
            // faulting instruction is an `mld`/`mst` of the static image.
            let unit = lint.routine_at(pc)?;
            let word = unit.word_at(pc)?;
            let d = metal_isa::decode_to(word);
            if !matches!(
                d.insn,
                metal_isa::Insn::Mld { .. } | metal_isa::Insn::Mst { .. }
            ) {
                return None;
            }
            (unit.bounds_claim() == Claim::Clean).then(|| {
                format!(
                    "lint soundness: mroutine `{}` lints bounds-clean but {engine} raised \
                     an MRAM data access fault (offset {tval:#x}) at pc {pc:#010x}",
                    unit.name
                )
            })
        }
        _ => None,
    }
}

/// Lints a case and compares the verdict with both engines' runs.
/// `Ok(Some(..))` is a soundness finding; `Err` means the case did not
/// assemble (the runner would have rejected it too).
pub fn check_case(
    case: &FuzzCase,
    core_events: &[Event],
    interp_events: &[Event],
) -> Result<Option<String>, String> {
    let lint = lint_case(case)?;
    Ok(check_events(&lint, "core", core_events)
        .or_else(|| check_events(&lint, "interp", interp_events)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{BugKind, CaseRunner};
    use crate::grammar::{self, RoutineSpec};
    use metal_isa::{encode, Insn};

    fn event(code: u32, tval: u32, pc: u32) -> Event {
        Event {
            cycle: 0,
            kind: EventKind::Trap { code, tval, pc },
        }
    }

    /// Generated cases never contradict their own lint verdict: run a
    /// seed sweep and check both engines' event streams.
    #[test]
    fn generated_cases_have_no_false_clean_verdicts() {
        let mut runner = CaseRunner::new(BugKind::None);
        for seed in 0..40u64 {
            let case = grammar::generate(seed);
            let Ok(result) = runner.run(&case) else {
                continue;
            };
            if result.hang {
                continue;
            }
            let finding = check_case(&case, &result.core.events, &result.interp.events)
                .expect("generated cases assemble");
            assert_eq!(finding, None, "seed {seed}: {finding:?}");
        }
    }

    /// An injected out-of-bounds `mst` is caught statically (claim
    /// Denied), so the runtime fault it raises *agrees* with the lint
    /// rather than contradicting it.
    #[test]
    fn injected_oob_store_is_flagged_not_a_finding() {
        let case = FuzzCase {
            seed: 0,
            routines: vec![RoutineSpec::new(
                0,
                "oob",
                "li t0, 4096\nmst a0, 0(t0)\nmexit",
            )],
            delegations: vec![],
            soft_tlb: false,
            guest: "menter 0\nebreak".to_owned(),
        };
        let lint = lint_case(&case).unwrap();
        assert_eq!(lint.routines[0].bounds_claim(), Claim::Denied);
        let mut runner = CaseRunner::new(BugKind::None);
        let result = runner.run(&case).unwrap();
        // The store really does fault at runtime, on both engines...
        let store_fault = |events: &[Event]| {
            events.iter().find_map(|e| match e.kind {
                EventKind::Trap { code, tval, pc }
                    if code == TrapCause::StoreAccessFault.code() && pc >= MRAM_BASE =>
                {
                    Some((tval, pc))
                }
                _ => None,
            })
        };
        let faulted = store_fault(&result.core.events);
        assert!(faulted.is_some(), "expected a runtime MRAM store fault");
        assert_eq!(store_fault(&result.interp.events), faulted);
        // ...and the oracle reports agreement, not a finding.
        let finding = check_case(&case, &result.core.events, &result.interp.events).unwrap();
        assert_eq!(finding, None);
    }

    /// The finding path itself: fake an engine that executed code the
    /// analysis proved unreachable. The guest jumps over its `mexit`,
    /// so lint is privilege-clean; a fabricated trap on that `mexit`
    /// must surface as a soundness finding.
    #[test]
    fn fabricated_fault_on_clean_unit_is_a_finding() {
        let case = FuzzCase {
            seed: 0,
            routines: vec![],
            delegations: vec![],
            soft_tlb: false,
            guest: "jal zero, skip\nmexit\nskip: ebreak".to_owned(),
        };
        let lint = lint_case(&case).unwrap();
        assert_eq!(lint.guest.privilege_claim(), Claim::Clean);
        let mexit = encode(&Insn::Mexit);
        assert_eq!(lint.guest.word_at(4), Some(mexit));
        let illegal = TrapCause::IllegalInstruction.code();
        let finding = check_events(&lint, "core", &[event(illegal, mexit, 4)]);
        assert!(
            finding.as_deref().unwrap_or("").contains("privilege-clean"),
            "{finding:?}"
        );
        // The same trap at a pc outside the static image is screened
        // out (could be self-modifying or generated code).
        assert_eq!(
            check_events(&lint, "core", &[event(illegal, mexit, 0x4000)]),
            None
        );
    }

    /// A bounds fault against a routine whose access the analysis could
    /// not resolve is Unknown, not a finding.
    #[test]
    fn unresolved_access_never_produces_findings() {
        let case = FuzzCase {
            seed: 0,
            routines: vec![RoutineSpec::new(
                0,
                "dyn",
                "rmr t0, m1\nmld a0, 0(t0)\nmexit",
            )],
            delegations: vec![],
            soft_tlb: false,
            guest: "menter 0\nebreak".to_owned(),
        };
        let lint = lint_case(&case).unwrap();
        let unit = &lint.routines[0];
        assert_eq!(unit.bounds_claim(), Claim::Unknown);
        let pc = unit.base + 4; // the mld
        assert_eq!(
            check_events(
                &lint,
                "core",
                &[event(TrapCause::LoadAccessFault.code(), 0xFFC0, pc)]
            ),
            None
        );
    }
}
