//! Quickstart: define a custom instruction in mcode and call it.
//!
//! The paper's pitch in one file: a *developer* (not the processor
//! vendor) adds a `popcount` instruction to the machine. The mroutine is
//! ordinary assembly plus the Metal instructions, loaded at boot,
//! verified, and invoked from the application with `menter` at
//! microcode-level cost.
//!
//! Run with: `cargo run --example quickstart`

use metal_core::MetalBuilder;
use metal_pipeline::state::CoreConfig;
use metal_pipeline::{Engine, HaltReason};

/// A popcount "instruction": a0 = number of set bits in a0.
/// Clobbers t0/t1 (documented ABI of this custom instruction).
const POPCOUNT: &str = r"
    li t0, 0              # count
loop:
    beqz a0, done
    addi t1, a0, -1
    and a0, a0, t1        # clear the lowest set bit
    addi t0, t0, 1
    j loop
done:
    mv a0, t0
    mexit
";

/// The application: popcount three values and sum the results.
const APP: &str = r"
    li s1, 0
    li a0, 0xFF00FF00
    menter 1
    add s1, s1, a0
    li a0, 0x12345678
    menter 1
    add s1, s1, a0
    li a0, 1
    menter 1
    add s1, s1, a0
    mv a0, s1
    ebreak
";

fn main() {
    // Boot-time: assemble, verify, and install the mroutine at entry 1.
    let mut core = MetalBuilder::new()
        .routine(1, "popcount", POPCOUNT)
        .build_core(CoreConfig::default())
        .expect("mroutine assembles and verifies");

    // Load and run the application.
    let bytes = metal_asm::assemble_image(APP, 0).expect("application assembles");
    core.load_segments([(0u32, bytes.as_slice())], 0);

    match core.run(1_000_000) {
        Some(HaltReason::Ebreak { code }) => {
            println!("popcount(0xFF00FF00) + popcount(0x12345678) + popcount(1) = {code}");
            assert_eq!(code, 16 + 13 + 1);
        }
        other => panic!("unexpected halt: {other:?}"),
    }

    let perf = &core.state.perf;
    println!(
        "ran {} instructions in {} cycles (CPI {:.2});",
        perf.instret,
        perf.cycles,
        perf.cycles as f64 / perf.instret as f64
    );
    println!(
        "{} menter transitions, {} mexits — each at near-zero overhead.",
        core.hooks.stats.menters, core.hooks.stats.mexits
    );
}
