//! Fault specifications and their application to a running machine.
//!
//! A [`FaultSpec`] names one bit of one hardware structure. Transient
//! faults flip the bit once; stuck-at faults force it to a value and
//! are re-applied at chunk boundaries so later writes cannot clear
//! them. The MRAM and MReg sites flip a word of the check-bit store
//! behind the site ([`Metal::flip`]); the other sites map onto the
//! injection hooks their hardware layers expose (`Tlb::inject_entry_bit`,
//! `Cache::inject_tag_bit`, and [`Engine::inject_latch_bit`], which the
//! pipelined core implements and the interpreter, having no latches,
//! answers with `false`).

use metal_core::Metal;
use metal_isa::reg::Reg;
use metal_pipeline::Engine;
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

/// Applies a fault as a one-shot bit flip. Returns whether any state
/// actually changed (an empty TLB slot, invalid cache line, empty
/// latch, or `x0` absorbs the fault — masked by construction).
///
/// Code-word injection drops the shared decode cache so stale decoded
/// copies of the corrupted word cannot be fetched.
pub fn apply<E: Engine<Hooks = Metal>>(engine: &mut E, spec: &FaultSpec) -> bool {
    let hit = match spec.site {
        FaultSite::MramCode | FaultSite::MramData | FaultSite::Mreg => {
            engine
                .hooks_mut()
                .flip(spec.site, spec.index as usize, spec.bit)
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
        FaultSite::Latch => engine.inject_latch_bit(spec.index as u8, spec.bit),
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
pub fn force<E: Engine<Hooks = Metal>>(engine: &mut E, spec: &FaultSpec, value: bool) {
    let bit = spec.bit & 31;
    let word = match spec.site {
        FaultSite::GuestReg => match Reg::new(spec.index as u8) {
            Some(r) => engine.state().regs.get(r),
            None => return,
        },
        site => match engine
            .hooks()
            .store(site)
            .and_then(|store| store.words().get(spec.index as usize))
        {
            Some(&word) => word,
            None => return,
        },
    };
    if (word >> bit) & 1 != u32::from(value) {
        apply(engine, spec);
    }
}
