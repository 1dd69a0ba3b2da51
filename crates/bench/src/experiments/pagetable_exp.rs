//! E3: custom page tables — TLB-refill cost under three designs.
//!
//! Paper §3.2: "the proximity of MRAM to the instruction fetch unit
//! enables fast exception dispatching with costs similar to microcode
//! implementations. This greatly closes the performance gap between
//! hardware and software managed TLBs."
//!
//! Measured: a guest touches `PAGES` data pages cyclically with a TLB
//! far smaller than the working set, so every touch misses. The same
//! radix page table and the same walker mcode run under:
//!
//! * **hardware walker** — the baseline core's HwWalker mode;
//! * **Metal** — the refill mroutine dispatched from MRAM;
//! * **PALcode-style** — the *same* mroutine dispatched from main
//!   memory (the conventional software-managed-TLB design).

use crate::harness::{run_to_halt, std_config};
use metal_core::{Metal, MetalBuilder};
use metal_ext::pagetable::{self, GuestPageTable};
use metal_mem::tlb::Pte;
use metal_mem::TlbConfig;
use metal_pipeline::state::{CoreConfig, TranslationMode};
use metal_pipeline::{Core, Engine, NoHooks};
use std::fmt::Write as _;

/// Data pages in the working set.
const PAGES: u32 = 32;
/// Page touches per run.
const TOUCHES: u32 = 512;
/// Base VA of the data working set.
const DATA_VA: u32 = 0x10_0000;

fn tlb_config() -> TlbConfig {
    TlbConfig {
        entries: 8, // far smaller than the working set: every touch misses
        keys: 16,
    }
}

fn core_config() -> CoreConfig {
    CoreConfig {
        tlb: tlb_config(),
        ..std_config()
    }
}

/// The touch loop: cycle through the pages TOUCHES times.
fn workload() -> String {
    format!(
        r"
        li s1, {touches}
        li s2, 0                 # page index
        li s3, {base:#x}
    loop:
        slli t1, s2, 12
        add t1, t1, s3
        lw t2, 0(t1)             # touch (misses the tiny TLB)
        addi s2, s2, 1
        li t1, {pages}
        blt s2, t1, nowrap
        li s2, 0
    nowrap:
        addi s1, s1, -1
        bnez s1, loop
        ebreak
        ",
        touches = TOUCHES,
        base = DATA_VA,
        pages = PAGES,
    )
}

/// Builds the page table in a core's RAM: identity map for the code
/// pages, and the data working set mapped to distinct frames.
fn build_tables(ram: &mut metal_mem::PhysMemory) -> u32 {
    let mut pt = GuestPageTable::new(ram, 0x40_0000, 0x50_0000);
    pt.identity_map(ram, 0, 16, Pte::R | Pte::W | Pte::X);
    for i in 0..PAGES {
        pt.map(
            ram,
            DATA_VA + i * 0x1000,
            0x20_0000 + i * 0x1000,
            Pte::R | Pte::W,
        );
    }
    pt.root
}

fn metal_variant(palcode: bool) -> u64 {
    let mut builder = pagetable::install(MetalBuilder::new());
    if palcode {
        builder = builder.palcode(0x60_0000);
    }
    let mut core: Core<Metal> = builder.build_core(core_config()).unwrap();
    let root = build_tables(&mut core.state.bus.ram);
    core.hooks.mram.data_store(64, root).unwrap();
    core.state.translation = TranslationMode::SoftTlb;
    run_to_halt(&mut core, &workload(), 100_000_000);
    core.state.perf.cycles
}

fn hw_walker_variant() -> u64 {
    let mut core = Core::new(core_config(), NoHooks);
    let root = build_tables(&mut core.state.bus.ram);
    core.state.translation = TranslationMode::HwWalker { root };
    run_to_halt(&mut core, &workload(), 100_000_000);
    core.state.perf.cycles
}

/// Ideal lower bound: the same loop with translation off.
fn bare_variant() -> u64 {
    let mut core = Core::new(core_config(), NoHooks);
    run_to_halt(&mut core, &workload(), 100_000_000);
    core.state.perf.cycles
}

/// Structured results.
#[derive(Clone, Copy, Debug)]
pub struct PagetableResults {
    /// Translation off (lower bound).
    pub bare: u64,
    /// Hardware page-table walker.
    pub hw: u64,
    /// Metal refill mroutine (MRAM dispatch).
    pub metal: u64,
    /// Same mroutine, PALcode-style dispatch.
    pub palcode: u64,
    /// Refills each variant performed (same workload: same count).
    pub refills: u64,
}

/// Runs all variants.
#[must_use]
pub fn measure() -> PagetableResults {
    let refills = u64::from(TOUCHES); // every touch misses the 8-entry TLB
    PagetableResults {
        bare: bare_variant(),
        hw: hw_walker_variant(),
        metal: metal_variant(false),
        palcode: metal_variant(true),
        refills,
    }
}

/// The E3 report.
#[must_use]
pub fn report() -> String {
    let r = measure();
    let per = |cycles: u64| (cycles as f64 - r.bare as f64) / r.refills as f64;
    let mut out = String::new();
    let _ = writeln!(out, "== E3: TLB-refill cost, custom page tables ==\n");
    let _ = writeln!(
        out,
        "workload: {TOUCHES} touches over {PAGES} pages, 8-entry TLB (every touch refills)\n"
    );
    let _ = writeln!(
        out,
        "{:<40} {:>12} {:>14}",
        "design", "total cyc", "cyc/refill"
    );
    let _ = writeln!(
        out,
        "{:<40} {:>12} {:>14}",
        "no translation (lower bound)", r.bare, "-"
    );
    let _ = writeln!(
        out,
        "{:<40} {:>12} {:>14.1}",
        "hardware walker",
        r.hw,
        per(r.hw)
    );
    let _ = writeln!(
        out,
        "{:<40} {:>12} {:>14.1}",
        "Metal mroutine walker (MRAM)",
        r.metal,
        per(r.metal)
    );
    let _ = writeln!(
        out,
        "{:<40} {:>12} {:>14.1}",
        "same mroutine, PALcode dispatch",
        r.palcode,
        per(r.palcode)
    );
    let _ = writeln!(
        out,
        "\npaper anchor: Metal \"greatly closes the performance gap between\n\
         hardware and software managed TLBs\" — the Metal column should sit\n\
         near the hardware walker, the PALcode column well above both.\n\
         gap closure: hw->palcode = {:.1} cyc, hw->metal = {:.1} cyc ({:.0}% closed)",
        per(r.palcode) - per(r.hw),
        per(r.metal) - per(r.hw),
        (1.0 - (per(r.metal) - per(r.hw)) / (per(r.palcode) - per(r.hw))) * 100.0
    );
    let _ = writeln!(out, "\nTLB-size sweep (Metal walker, cyc/touch):");
    let _ = writeln!(out, "{:<12} {:>12}", "entries", "cyc/touch");
    for entries in [4usize, 8, 16, 32, 64] {
        let mut config = core_config();
        config.tlb = TlbConfig { entries, keys: 16 };
        let mut core: Core<Metal> = pagetable::install(MetalBuilder::new())
            .build_core(config)
            .unwrap();
        let root = build_tables(&mut core.state.bus.ram);
        core.hooks.mram.data_store(64, root).unwrap();
        core.state.translation = TranslationMode::SoftTlb;
        run_to_halt(&mut core, &workload(), 100_000_000);
        let _ = writeln!(
            out,
            "{entries:<12} {:>12.1}",
            core.state.perf.cycles as f64 / f64::from(TOUCHES)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metal_closes_the_gap() {
        let r = measure();
        assert!(r.hw < r.metal, "hardware refill is the floor");
        assert!(
            r.metal < r.palcode,
            "MRAM dispatch must beat main-memory dispatch: {} vs {}",
            r.metal,
            r.palcode
        );
        // "Greatly closes the gap": Metal recovers most of the
        // hw-vs-palcode difference.
        let gap = r.palcode as f64 - r.hw as f64;
        let remaining = r.metal as f64 - r.hw as f64;
        assert!(
            remaining < gap * 0.75,
            "Metal should close most of the gap: remaining {remaining:.0} of {gap:.0}"
        );
    }
}
