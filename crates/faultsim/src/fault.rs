//! Fault specifications and their application to a running machine.
//!
//! A [`FaultSpec`] names one bit of one hardware structure. Transient
//! faults flip the bit once; stuck-at faults force it to a value and
//! are re-applied at chunk boundaries so later writes cannot clear
//! them. Sites map onto the injection hooks the hardware layers expose
//! (`Mram::inject_code_bit`, `MregFile::inject_bit`,
//! `Tlb::inject_entry_bit`, `Cache::inject_tag_bit`,
//! `Core::inject_latch_bit`).

use metal_core::Metal;
use metal_isa::reg::Reg;
use metal_pipeline::{Core, Engine, Interp};
use metal_trace::{EventKind, FaultSite};

/// How the injected bit misbehaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A single bit flip (soft error): the bit inverts once.
    Transient,
    /// A hard fault: the bit reads as `value` no matter what is
    /// written. Modeled by re-forcing the bit between run chunks.
    StuckAt {
        /// The value the faulty bit is stuck at.
        value: bool,
    },
}

/// One concrete fault: a site, a structure index, a bit, and a kind.
///
/// The index is site-specific: an MRAM word index, a Metal/guest
/// register number, a TLB slot, a cache line (with `CACHE_DSIDE`, bit 31,
/// marking the D-cache), or a pipeline latch stage.
#[derive(Clone, Copy, Debug)]
pub struct FaultSpec {
    /// The hardware structure attacked.
    pub site: FaultSite,
    /// Site-specific index within the structure.
    pub index: u32,
    /// Bit position within the selected word.
    pub bit: u8,
    /// Transient or stuck-at.
    pub kind: FaultKind,
}

/// Bit set in [`FaultSpec::index`] to select the D-cache instead of
/// the I-cache for [`FaultSite::Cache`].
pub const CACHE_DSIDE: u32 = 1 << 31;

/// An engine the campaign can inject into. Adds the one site that is
/// not reachable through [`Engine`]'s shared surface: inter-stage
/// pipeline latches, which only the pipelined core has.
pub trait FaultTarget: Engine<Hooks = Metal> {
    /// Flips a bit in an occupied inter-stage latch, if the engine
    /// models any. Returns false when the latch is empty or the engine
    /// has no pipeline (the fault is masked by construction).
    fn inject_latch(&mut self, stage: u8, bit: u8) -> bool;
}

impl FaultTarget for Core<Metal> {
    fn inject_latch(&mut self, stage: u8, bit: u8) -> bool {
        self.inject_latch_bit(stage, bit)
    }
}

impl FaultTarget for Interp<Metal> {
    fn inject_latch(&mut self, _stage: u8, _bit: u8) -> bool {
        false
    }
}

/// Applies a fault as a one-shot bit flip. Returns whether any state
/// actually changed (an empty TLB slot, invalid cache line, empty
/// latch, or `x0` absorbs the fault — masked by construction).
///
/// Code-word injection drops the shared decode cache so stale decoded
/// copies of the corrupted word cannot be fetched.
pub fn apply<E: FaultTarget>(engine: &mut E, spec: &FaultSpec) -> bool {
    let hit = match spec.site {
        FaultSite::MramCode => engine
            .hooks_mut()
            .mram
            .inject_code_bit(spec.index, spec.bit),
        FaultSite::MramData => engine
            .hooks_mut()
            .mram
            .inject_data_bit(spec.index, spec.bit),
        FaultSite::Mreg => {
            let n = spec.index as usize & 31;
            engine.hooks_mut().mregs.inject_bit(n, spec.bit);
            // `x0`-style masking does not exist for mregs: every slot
            // holds real state, so the flip always lands.
            true
        }
        FaultSite::GuestReg => match Reg::new(spec.index as u8) {
            Some(r) if r != Reg::ZERO => {
                let v = engine.state().regs.get(r);
                engine.state_mut().regs.set(r, v ^ (1 << (spec.bit & 31)));
                true
            }
            _ => false,
        },
        FaultSite::Tlb => engine
            .state_mut()
            .tlb
            .inject_entry_bit(spec.index as usize, spec.bit),
        FaultSite::Cache => {
            let line = (spec.index & !CACHE_DSIDE) as usize;
            let state = engine.state_mut();
            if spec.index & CACHE_DSIDE != 0 {
                state.dcache.inject_tag_bit(line, spec.bit)
            } else {
                state.icache.inject_tag_bit(line, spec.bit)
            }
        }
        FaultSite::Latch => engine.inject_latch(spec.index as u8, spec.bit),
    };
    if hit {
        if spec.site == FaultSite::MramCode {
            engine.state_mut().invalidate_decode_cache();
        }
        engine.state_mut().trace.emit(EventKind::FaultInjected {
            site: spec.site,
            addr: spec.index,
            bit: spec.bit,
        });
    }
    hit
}

/// Re-asserts a stuck-at fault: forces the bit back to its stuck
/// value if an intervening write repaired it. Only the readable sites
/// (MRAM words, registers) support stuck-at faults; the campaign
/// never draws stuck-at specs for the others.
pub fn force<E: FaultTarget>(engine: &mut E, spec: &FaultSpec, value: bool) {
    let bit = spec.bit & 31;
    let word = match spec.site {
        FaultSite::MramCode => engine.hooks().mram.code_word_at(spec.index),
        FaultSite::MramData => engine.hooks().mram.data_word_at(spec.index),
        FaultSite::Mreg => engine.hooks().mregs.get(spec.index as usize & 31),
        FaultSite::GuestReg => match Reg::new(spec.index as u8) {
            Some(r) => engine.state().regs.get(r),
            None => return,
        },
        _ => return,
    };
    if (word >> bit) & 1 != u32::from(value) {
        apply(engine, spec);
    }
}
