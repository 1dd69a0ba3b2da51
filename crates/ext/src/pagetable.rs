//! Custom page tables (paper §3.2).
//!
//! "OSes can implement custom memory management data structures with
//! Metal. … We implement a radix tree based page table using direct
//! physical memory access and exception handling provided by the
//! processor. In a few lines of assembly, we walk an x86-style radix
//! tree on page fault. We populate the processor's TLB mappings from
//! the page table. If the page is not present or the access violates
//! the page protection, we deliver the exception to the OS."
//!
//! The refill mroutine below is exactly that walk: page faults are
//! delegated to it; it probes the TLB first (an existing entry means a
//! *protection* violation → deliver to the OS), walks the two-level
//! radix tree with `mpld`, installs the leaf PTE with `mtlbw`, and
//! retries the faulting instruction by `mexit` (m31 already holds the
//! faulting PC).
//!
//! Delivery convention: when the walk fails, the OS handler registered
//! via [`entries::SET_OS_HANDLER`] is entered in normal mode with
//! `t0` = faulting address and `t1` = Metal entry cause; the
//! application's original `t0`/`t1` are retrievable with
//! [`entries::GET_SAVED`].
//!
//! MRAM data layout for this kit:
//!
//! * word 64 — physical address of the page-table root.
//! * word 68 — OS fault-handler PC.
//!
//! (See the crate-level MRAM data-segment map for kit placement.)
//!
//! Experiment E3 compares this refill against (a) the hardware walker
//! ([`metal_pipeline::state::TranslationMode::HwWalker`]) and (b) the
//! *same* mcode dispatched PALcode-style from main memory — isolating
//! the MRAM-collocation claim ("the proximity of MRAM to the
//! instruction fetch unit enables fast exception dispatching").

use metal_core::MetalBuilder;
use metal_mem::tlb::Pte;
use metal_mem::walker::Walker;
use metal_mem::PhysMemory;
use metal_pipeline::trap::TrapCause;

/// Entry numbers for the page-table kit.
pub mod entries {
    /// The page-fault refill walker.
    pub const REFILL: u8 = 8;
    /// Set the page-table root (`a0` = physical root).
    pub const SET_ROOT: u8 = 9;
    /// Set the OS fault handler (`a0` = PC).
    pub const SET_OS_HANDLER: u8 = 10;
    /// Retrieve the saved `t0`/`t1` into `a0`/`a1` (OS handler use).
    pub const GET_SAVED: u8 = 11;
}

/// The radix-walk refill mroutine. Scratch GPRs are preserved in Metal
/// registers `m3`/`m4` so the faulting application resumes unperturbed.
#[must_use]
fn refill_src() -> &'static str {
    r"
    # Page-fault refill: walk the x86-style radix tree.
    wmr m3, t0
    wmr m4, t1
    rmr t0, mbadaddr
    # An existing TLB entry means the access violated permissions, not
    # a missing translation: deliver to the OS.
    mtlbp t1, t0
    bnez t1, deliver
    # Directory entry: root + 4 * (va >> 22).
    mld t1, 64(zero)
    srli t0, t0, 22
    slli t0, t0, 2
    add t0, t0, t1
    mpld t0, t0
    andi t1, t0, 1
    beqz t1, deliver
    # Leaf entry: (dir & ~0xFFF) + 4 * ((va >> 12) & 0x3FF).
    li t1, 0xFFFFF000
    and t0, t0, t1
    rmr t1, mbadaddr
    srli t1, t1, 12
    andi t1, t1, 0x3FF
    slli t1, t1, 2
    add t0, t0, t1
    mpld t0, t0
    andi t1, t0, 1
    beqz t1, deliver
    # Install and retry the faulting instruction.
    rmr t1, mbadaddr
    mtlbw t1, t0
    rmr t0, m3
    rmr t1, m4
    mexit
deliver:
    # Not present or protection violation: enter the OS fault handler
    # with t0 = faulting va, t1 = entry cause (originals stay in m3/m4).
    mld t0, 68(zero)
    wmr m31, t0
    rmr t0, mbadaddr
    rmr t1, mcause
    mexit
    "
}

/// `a0` = physical root: records it and flushes stale translations.
#[must_use]
fn set_root_src() -> &'static str {
    "mst a0, 64(zero)\n mtlbiall\n mexit"
}

/// `a0` = OS fault-handler PC.
#[must_use]
fn set_os_handler_src() -> &'static str {
    "mst a0, 68(zero)\n mexit"
}

/// Retrieves the refill walker's saved `t0`/`t1` into `a0`/`a1`.
#[must_use]
fn get_saved_src() -> &'static str {
    "rmr a0, m3\n rmr a1, m4\n mexit"
}

/// Installs the kit: the mroutines plus delegation of all three
/// page-fault causes to the refill walker.
#[must_use]
pub fn install(builder: MetalBuilder) -> MetalBuilder {
    builder
        .routine(entries::REFILL, "pt_refill", refill_src())
        .routine(entries::SET_ROOT, "pt_set_root", set_root_src())
        .routine(entries::SET_OS_HANDLER, "pt_set_os", set_os_handler_src())
        .routine(entries::GET_SAVED, "pt_get_saved", get_saved_src())
        .delegate_exception(TrapCause::InsnPageFault, entries::REFILL)
        .delegate_exception(TrapCause::LoadPageFault, entries::REFILL)
        .delegate_exception(TrapCause::StorePageFault, entries::REFILL)
}

/// Host-side builder for a guest page table (the structure the OS would
/// maintain; the same x86-style layout [`Walker`] understands).
#[derive(Debug)]
pub struct GuestPageTable {
    /// Physical address of the root directory page.
    pub root: u32,
    next_page: u32,
    limit: u32,
}

impl GuestPageTable {
    /// Creates a page table whose root and leaf tables are allocated
    /// from `[base, limit)` (page-aligned region of guest RAM).
    ///
    /// # Panics
    ///
    /// Panics if `base` is not page-aligned or the region is empty.
    #[must_use]
    pub fn new(mem: &mut PhysMemory, base: u32, limit: u32) -> GuestPageTable {
        assert_eq!(base & 0xFFF, 0, "page-table region must be page-aligned");
        assert!(base + 0x1000 <= limit, "page-table region too small");
        // Zero the root page.
        for i in 0..1024 {
            mem.write_u32(base + i * 4, 0).expect("root page in RAM");
        }
        GuestPageTable {
            root: base,
            next_page: base + 0x1000,
            limit,
        }
    }

    /// Maps `va -> pa` with PTE `flags` (V is implied).
    ///
    /// # Panics
    ///
    /// Panics if the region runs out of leaf-table pages.
    pub fn map(&mut self, mem: &mut PhysMemory, va: u32, pa: u32, flags: u32) {
        let walker = Walker::new(self.root);
        let limit = self.limit;
        let next = &mut self.next_page;
        let mut alloc = || {
            let page = *next;
            assert!(page + 0x1000 <= limit, "page-table region exhausted");
            *next += 0x1000;
            page
        };
        walker
            .map(mem, va, pa, flags, &mut alloc)
            .expect("page-table pages lie in RAM");
    }

    /// Maps `count` pages starting at `va` to identical physical pages.
    pub fn identity_map(&mut self, mem: &mut PhysMemory, va: u32, count: u32, flags: u32) {
        for i in 0..count {
            let addr = va + i * 0x1000;
            self.map(mem, addr, addr, flags);
        }
    }

    /// Unmaps `va` by clearing its leaf entry (if present).
    pub fn unmap(&mut self, mem: &mut PhysMemory, va: u32) {
        let dir_addr = self.root + Walker::dir_index(va) * 4;
        let dir = Pte(mem.read_u32(dir_addr).unwrap_or(0));
        if !dir.valid() {
            return;
        }
        let leaf_addr = dir.phys_base() + Walker::table_index(va) * 4;
        let _ = mem.write_u32(leaf_addr, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::run_guest;
    use metal_pipeline::state::{CoreConfig, TranslationMode};
    use metal_pipeline::{Core, HaltReason};

    fn setup() -> Core<metal_core::Metal> {
        let mut core = install(MetalBuilder::new())
            .build_core(CoreConfig {
                ram_bytes: 8 << 20,
                ..CoreConfig::default()
            })
            .unwrap();
        // Build a guest page table at 4 MiB.
        let mut pt = GuestPageTable::new(&mut core.state.bus.ram, 0x40_0000, 0x48_0000);
        // Identity-map code/data pages (fetch must keep working) and a
        // data page window at 0x20000; map 0x80000 -> 0x9000 read-only.
        pt.identity_map(&mut core.state.bus.ram, 0x0, 16, Pte::R | Pte::W | Pte::X);
        pt.identity_map(&mut core.state.bus.ram, 0x2_0000, 4, Pte::R | Pte::W);
        pt.map(&mut core.state.bus.ram, 0x8_0000, 0x9000, Pte::R);
        let root = pt.root;
        // Prime the kit's MRAM data directly (the SET_ROOT mroutine does
        // the same from guest code; exercised in its own test).
        core.hooks.mram.data_mut()[64..68].copy_from_slice(&root.to_le_bytes());
        core.state.translation = TranslationMode::SoftTlb;
        core
    }

    #[test]
    fn refill_on_demand_and_retry() {
        let mut core = setup();
        let halt = run_guest(
            &mut core,
            r"
            li s0, 0x20000
            li t0, 77
            sw t0, 0(s0)       # store fault -> walk -> retry
            lw a0, 0(s0)
            ebreak
            ",
            100_000,
        );
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 77 }));
        assert!(
            core.hooks.stats.delegated_exceptions >= 2,
            "fetch + data refills: {:?}",
            core.hooks.stats
        );
    }

    #[test]
    fn refill_preserves_application_registers() {
        let mut core = setup();
        let halt = run_guest(
            &mut core,
            r"
            li t0, 1111
            li t1, 2222
            li s0, 0x21000
            sw t0, 0(s0)       # faults; refill must preserve t0/t1
            lw a0, 0(s0)
            sub a0, a0, t1
            add a0, a0, t1
            ebreak
            ",
            100_000,
        );
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 1111 }));
    }

    #[test]
    fn read_only_mapping_enforced() {
        let mut core = setup();
        let halt = run_guest(
            &mut core,
            r"
            la a0, os_fault
            menter 10          # set OS handler
            li s0, 0x80000
            lw a0, 0(s0)       # read OK (maps to 0x9000)
            sw a0, 0(s0)       # write: protection -> OS handler
            li a0, 0
            ebreak
        os_fault:
            # t0 = faulting va (delivery convention)
            mv a0, t0
            ebreak
            ",
            100_000,
        );
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 0x8_0000 }));
    }

    #[test]
    fn unmapped_page_delivered_to_os() {
        let mut core = setup();
        let halt = run_guest(
            &mut core,
            r"
            la a0, os_fault
            menter 10
            li s0, 0x700000    # never mapped
            lw a0, 0(s0)
            li a0, 0
            ebreak
        os_fault:
            menter 11          # get_saved: a0/a1 = app's t0/t1
            mv a0, t0          # faulting va
            ebreak
            ",
            100_000,
        );
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 0x70_0000 }));
    }

    #[test]
    fn guest_pagetable_host_walker_agrees() {
        let mut mem = PhysMemory::new(1 << 20);
        let mut pt = GuestPageTable::new(&mut mem, 0x4_0000, 0x8_0000);
        pt.map(&mut mem, 0x1234_5000, 0x6000, Pte::R | Pte::W);
        let walker = Walker::new(pt.root);
        let (result, _) = walker.walk(&mem, 0x1234_5678).unwrap();
        match result {
            metal_mem::walker::WalkResult::Mapped(pte) => {
                assert_eq!(pte.phys_base(), 0x6000);
            }
            other => panic!("expected mapping, got {other:?}"),
        }
        pt.unmap(&mut mem, 0x1234_5000);
        let (result, _) = walker.walk(&mem, 0x1234_5678).unwrap();
        assert!(matches!(
            result,
            metal_mem::walker::WalkResult::NotMapped { level: 1 }
        ));
    }

    #[test]
    fn set_root_mroutine_flushes() {
        let mut core = setup();
        let halt = run_guest(
            &mut core,
            r"
            li s0, 0x20000
            li t0, 5
            sw t0, 0(s0)       # populate a TLB entry via refill
            li a0, 0x400000    # same root, but SET_ROOT must flush
            menter 9
            lw a0, 0(s0)       # refaults, rewalks
            ebreak
            ",
            100_000,
        );
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 5 }));
        assert!(core.hooks.stats.delegated_exceptions >= 3);
    }
}
