//! Software transactional memory by interception (paper §3.3).
//!
//! No compiler instrumentation: ordinary `lw`/`sw` between `tstart` and
//! `tcommit` are intercepted at runtime and turned into TL2-style
//! tracked accesses. The demo commits one transaction, then constructs
//! an interleaved conflict whose loser aborts with its buffered writes
//! discarded.
//!
//! Run with: `cargo run --example transactional_memory`

use metal_core::MetalBuilder;
use metal_ext::machine::run_guest;
use metal_ext::stm;
use metal_pipeline::state::CoreConfig;
use metal_pipeline::HaltReason;

const LOCKTAB: u32 = 0x30_0000;

const GUEST: &str = r"
        li s0, 0x40000         # account A
        li s2, 0x40040         # account B (distinct lock slot)
        li t0, 100
        sw t0, 0(s0)
        li t0, 50
        sw t0, 0(s2)

        # --- transfer 30 from A to B, transactionally ---
        li a0, 0
        menter 12              # tstart(0)
        lw t3, 0(s0)
        addi t3, t3, -30
        sw t3, 0(s0)
        lw t3, 0(s2)
        addi t3, t3, 30
        sw t3, 0(s2)
        menter 15              # tcommit -> a0 = 1
        mv s4, a0

        # --- interleaved conflict: T1 reads A, T0 changes A, T1 loses ---
        li a0, 1
        menter 12              # tstart(1)
        lw s5, 0(s0)           # T1 reads A = 70
        menter 17              # suspend T1
        li a0, 0
        menter 12              # tstart(0)
        lw t3, 0(s0)
        addi t3, t3, -5
        sw t3, 0(s0)
        menter 15              # T0 commits (A = 65)
        li a0, 1
        menter 18              # resume T1
        addi s5, s5, 1000
        sw s5, 0(s0)           # T1's doomed write
        menter 15              # tcommit -> a0 = 0 (aborted)
        mv s6, a0

        lw s7, 0(s0)           # final A = 65 (T1's write discarded)
        lw s8, 0(s2)           # final B = 80
        # pack results: s4 | s6<<4 | A<<8 | B<<20
        slli s6, s6, 4
        or a0, s4, s6
        slli s7, s7, 8
        or a0, a0, s7
        slli s8, s8, 20
        or a0, a0, s8
        ebreak
";

fn main() {
    let mut core = stm::install(MetalBuilder::new())
        .build_core(CoreConfig::default())
        .expect("STM mroutines verify");
    core.hooks
        .mram
        .data_store(1028, LOCKTAB)
        .expect("lock-table slot in MRAM data");

    let halt = run_guest(&mut core, GUEST, 10_000_000);
    let Some(HaltReason::Ebreak { code }) = halt else {
        panic!("unexpected halt {halt:?}");
    };
    let commit1 = code & 0xF;
    let commit2 = (code >> 4) & 0xF;
    let a = (code >> 8) & 0xFFF;
    let b = (code >> 20) & 0xFFF;
    println!("transfer transaction committed: {}", commit1 == 1);
    println!("conflicting transaction aborted: {}", commit2 == 0);
    println!("final balances: A = {a}, B = {b}");
    assert_eq!((commit1, commit2, a, b), (1, 0, 65, 80));
    println!(
        "\nintercepted memory accesses: {} (loads+stores emulated by tread/twrite)",
        core.hooks.stats.intercepts
    );
    for (name, insns) in stm::instruction_counts() {
        println!("  mroutine {name:<9} {insns:>4} instructions");
    }
}
