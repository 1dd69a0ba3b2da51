//! Custom page tables: demand translation through an mroutine walker.
//!
//! The paper's §3.2 demo: the OS keeps an x86-style radix page table in
//! ordinary memory; TLB misses are delegated to an mroutine that walks
//! it with physical loads and installs the translation with `mtlbw` —
//! "in a few lines of assembly". Protection violations and unmapped
//! pages are delivered onward to the OS fault handler.
//!
//! Run with: `cargo run --example custom_page_tables`

use metal_core::MetalBuilder;
use metal_ext::machine::run_guest;
use metal_ext::pagetable::{self, GuestPageTable};
use metal_mem::tlb::Pte;
use metal_pipeline::state::{CoreConfig, TranslationMode};
use metal_pipeline::HaltReason;

const GUEST: &str = r"
        la a0, os_fault
        menter 10              # register the OS fault handler
        # Touch a mapped read-write page: faults once, refills, retries.
        li s0, 0x100000
        li t0, 1234
        sw t0, 0(s0)
        lw s1, 0(s0)
        # Read through a read-only alias of another frame.
        li s2, 0x200000
        lw s3, 0(s2)
        # Now violate it: the walker probes the TLB, sees the entry, and
        # delivers a protection fault to the OS.
        sw t0, 0(s2)
        li a0, 0
        ebreak
os_fault:
        # Delivery convention: t0 = faulting va.
        mv a0, t0
        ebreak
";

fn main() {
    let mut core = pagetable::install(MetalBuilder::new())
        .build_core(CoreConfig {
            ram_bytes: 8 << 20,
            ..CoreConfig::default()
        })
        .expect("walker mroutines verify");

    // The "OS" builds its page table in guest RAM.
    let ram = &mut core.state.bus.ram;
    let mut pt = GuestPageTable::new(ram, 0x40_0000, 0x48_0000);
    pt.identity_map(ram, 0, 16, Pte::R | Pte::W | Pte::X); // kernel/user image
    pt.map(ram, 0x10_0000, 0x20_0000, Pte::R | Pte::W); // anonymous page
    pt.map(ram, 0x20_0000, 0x21_0000, Pte::R); // read-only alias
    ram.write_u32(0x21_0000, 777).unwrap();
    let root = pt.root;
    core.hooks
        .mram
        .data_store(64, root)
        .expect("root slot in MRAM data");
    core.state.translation = TranslationMode::SoftTlb;

    let halt = run_guest(&mut core, GUEST, 1_000_000);
    match halt {
        Some(HaltReason::Ebreak { code }) => {
            println!("guest stopped with a0 = {code:#x}");
            assert_eq!(
                code, 0x20_0000,
                "the write to the RO page faulted to the OS"
            );
        }
        other => panic!("unexpected halt {other:?}"),
    }
    println!(
        "page faults delegated to the mroutine walker: {}",
        core.hooks.stats.delegated_exceptions
    );
    println!(
        "TLB now holds {} live translations installed by mcode.",
        core.state.tlb.occupancy()
    );
}
