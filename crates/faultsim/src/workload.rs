//! Campaign workloads: the guest program and mroutines each fault is
//! injected into.
//!
//! Two shapes:
//!
//! * **loop** — a purpose-built victim whose architecturally *live*
//!   state is known: the guest calls mroutine 0 in a counted loop, and
//!   that routine re-reads `m1` and the first two MRAM data words on
//!   every iteration, then stores to a third. Faults injected into
//!   those structures (or the routine's code words) are re-read before
//!   the program ends, so with ECC enabled they are *detected* rather
//!   than silently masked — the workload the smoke campaign's
//!   ≥95%-corrected bar is measured against.
//! * **fuzz** — programs from the [`metal_fuzz`] grammar, for honest
//!   exploratory campaigns over arbitrary mcode. Much of a random
//!   program's state is dead, so high masked rates are expected.
//!
//! Both attach the scrub-and-retry recovery mroutine (the same source
//! as `examples/mcode/mcheck_recover.s`) at entry 7 — one slot past
//! the fuzz grammar's highest reserved entry — and delegate the
//! machine-check cause to it, unless recovery is disabled.

use crate::campaign::{CampaignConfig, WorkloadKind};
use metal_core::{Metal, MetalBuilder, MRAM_BASE};
use metal_pipeline::trap::TrapCause;
use metal_trace::FaultSite;
use metal_util::Rng;
use std::ops::Range;

/// Entry slot for the recovery mroutine (the fuzz grammar reserves
/// entries 0–6).
pub const RECOVERY_ENTRY: u8 = 7;

/// The scrub-and-retry recovery mroutine, shared with the shipped
/// example so the documented artifact is the tested one.
pub const RECOVERY_SRC: &str = include_str!("../../../examples/mcode/mcheck_recover.s");

/// The loop workload's probe mroutine: touches `m1`, MRAM data words
/// 0 and 1, and stores to word 2 on every guest iteration, keeping
/// those sites architecturally live. Temporaries are zeroed before
/// `mexit` so the guest-visible register file is deterministic at
/// every iteration boundary.
const PROBE_SRC: &str = "\
rmr t0, m1
mld t1, 0(zero)
mld t2, 4(zero)
add t1, t1, t2
mst t1, 8(zero)
li t0, 0
li t1, 0
li t2, 0
mexit";

/// A built campaign victim plus the live-site map injection draws
/// from.
#[derive(Clone)]
pub struct Built {
    /// The Metal extension (MRAM, registers, delegations, ECC).
    pub metal: Metal,
    /// Guest program image, loaded at address 0.
    pub program: Vec<u8>,
    /// Whether the guest expects software TLB translation.
    pub soft_tlb: bool,
    /// MRAM code word indices worth attacking (installed mroutine
    /// bodies, excluding the recovery routine).
    pub code_words: Range<u32>,
    /// MRAM data word indices worth attacking.
    pub data_words: Range<u32>,
    /// Metal register numbers worth attacking.
    pub mregs: Vec<u32>,
}

/// Builds the victim machine for one case.
///
/// # Errors
///
/// Returns a message when the Metal build or guest assembly fails
/// (possible for grammar-generated cases; the campaign counts these
/// as skipped).
pub fn build(cfg: &CampaignConfig, seed: u64) -> Result<Built, String> {
    Victims::new(cfg).build(cfg, seed)
}

/// A campaign's victim source: what every case shares, built once
/// from the configuration.
///
/// The loop victim's Metal extension and live-site map depend only on
/// the configuration (ECC scheme, recovery); a case's seed picks only
/// the guest's iteration count. So the loop extension is built once
/// and cloned into each case. Fuzz victims differ in everything and
/// are built per case.
pub(crate) struct Victims {
    /// The loop victim with no guest program yet; `None` for fuzz
    /// campaigns.
    loop_template: Option<Result<Built, String>>,
}

impl Victims {
    /// Builds the part of every case's victim that `cfg` alone fixes.
    pub(crate) fn new(cfg: &CampaignConfig) -> Victims {
        Victims {
            loop_template: (cfg.workload == WorkloadKind::Loop).then(|| build_loop_metal(cfg)),
        }
    }

    /// Builds the victim for the case with `seed`.
    ///
    /// # Errors
    ///
    /// As [`build`].
    pub(crate) fn build(&self, cfg: &CampaignConfig, seed: u64) -> Result<Built, String> {
        match &self.loop_template {
            Some(template) => {
                let mut built = template.clone()?;
                built.program = assemble(&loop_guest(seed))?;
                Ok(built)
            }
            None => build_fuzz(cfg, seed),
        }
    }
}

/// Builds the Metal extension of a victim, adding the recovery
/// mroutine when `cfg` asks for it, and the live-site map. The guest
/// program is left empty.
fn finish(
    builder: MetalBuilder,
    cfg: &CampaignConfig,
    soft_tlb: bool,
    data_words: Range<u32>,
    mregs: Vec<u32>,
) -> Result<Built, String> {
    let mut builder = builder.ecc(cfg.ecc);
    if cfg.recover {
        builder = builder
            .routine(RECOVERY_ENTRY, "mcheck-recover", RECOVERY_SRC)
            .delegate_exception(
                TrapCause::MachineCheck {
                    site: FaultSite::MramCode,
                    syndrome: 0,
                },
                RECOVERY_ENTRY,
            );
    }
    let (metal, palcode, _warnings) = builder.build().map_err(|e| format!("metal build: {e}"))?;
    debug_assert!(palcode.is_empty(), "campaigns use MRAM dispatch");
    // The builder installs routines in the order they were added, so
    // the recovery routine, added last, ends the live code.
    let live_end = if cfg.recover {
        let recovery_pc = metal
            .entry_pc(RECOVERY_ENTRY)
            .expect("recovery routine installed");
        (recovery_pc - MRAM_BASE) / 4
    } else {
        (metal.config().mram.code_bytes - metal.mram.code_free()) / 4
    };
    Ok(Built {
        metal,
        program: Vec::new(),
        soft_tlb,
        code_words: 0..live_end.max(1),
        data_words,
        mregs,
    })
}

/// Assembles a guest program image at address 0.
fn assemble(guest: &str) -> Result<Vec<u8>, String> {
    metal_asm::assemble_image(guest, 0).map_err(|e| format!("guest assembly: {e}"))
}

fn build_loop_metal(cfg: &CampaignConfig) -> Result<Built, String> {
    let builder = MetalBuilder::new().routine(0, "probe", PROBE_SRC);
    // Live data words: the probe re-reads words 0 and 1 each
    // iteration; word 2 is its store target (a fault there is
    // overwritten, not read — excluded). Live mreg: only m1 is read.
    finish(builder, cfg, false, 0..2, vec![1])
}

fn loop_guest(seed: u64) -> String {
    // Vary the iteration count a little per case so campaigns sample
    // different injection windows, but keep every site live to the end.
    let iters = 24 + (Rng::new(seed).below(16)) as u32;
    format!(
        "li s0, 0\n\
         li s1, {iters}\n\
         loop:\n\
         menter 0\n\
         addi s0, s0, 1\n\
         blt s0, s1, loop\n\
         addi a0, s0, 0\n\
         ebreak"
    )
}

fn build_fuzz(cfg: &CampaignConfig, seed: u64) -> Result<Built, String> {
    let case = metal_fuzz::grammar::generate(seed);
    let data_words = 0..16; // The grammar's mld/mst offsets stay below 64 bytes.
    let mut built = finish(
        case.metal_builder(),
        cfg,
        case.soft_tlb,
        data_words,
        (0..32).collect(),
    )?;
    built.program = assemble(&case.guest)?;
    Ok(built)
}
