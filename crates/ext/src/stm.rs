//! Software transactional memory via instruction interception (§3.3).
//!
//! "We intercept all memory access instructions within a transaction
//! and invoke tread and twrite instead, which perform and record the
//! memory accesses. Upon tcommit, all accessed memory addresses within
//! the transaction are inspected for conflict. The benefit of using
//! Metal is that neither compilers nor developers need to replace loads
//! and stores with calls into an STM library. Instead, Metal turns on
//! and off interception of loads and stores at runtime. … Our
//! implementation is under 100 instructions and closely resembles TL2."
//!
//! This kit implements that design:
//!
//! * `tstart` arms interception of the LOAD and STORE opcode classes
//!   and snapshots the global version clock.
//! * Intercepted loads run the `tread` mroutine: read-after-write
//!   buffering against the write set, versioned-lock sampling into the
//!   read set (TL2's read-set logging), and emulation of the original
//!   `lw` (the destination register is decoded from `minsn` and written
//!   through a register-dispatch stub table — the classic microcode
//!   technique for dynamic register access).
//! * Intercepted stores run `twrite`: the store is buffered in the
//!   write set (lazy versioning), not performed.
//! * `tcommit` validates the read set against the lock table, bumps the
//!   global clock, writes the buffered stores back, publishes the new
//!   version, and disarms interception. `a0 = 1` on success, `0` on
//!   abort (the write set is discarded).
//! * `tsuspend`/`tresume` disarm/re-arm interception so a scheduler can
//!   interleave transactions from different logical threads, each with
//!   its own context area.
//!
//! Only word-sized accesses (`lw`/`sw`) are transactional; other widths
//! abort the transaction (recorded in the context's abort flag).
//!
//! # Memory layout
//!
//! The **lock table** (versioned locks, TL2 style) lives in guest
//! physical memory: [`LOCK_TABLE_SLOTS`] word-sized locks; a location's
//! lock is `lock_table + 4 * ((addr >> 2) & (SLOTS-1))`. Lock word
//! format: `version << 1 | locked`.
//!
//! **MRAM data** holds the global clock and per-context state:
//!
//! | offset | contents |
//! |--------|----------|
//! | 1024   | global version clock |
//! | 1028   | lock-table physical base |
//! | 1152 + 512*ctx | context: status (0 idle / 1 active / 2 aborted) |
//! | +4     | read version (clock snapshot) |
//! | +8     | read-set count |
//! | +12    | write-set count |
//! | +16…   | read set: [`READ_SET_MAX`] × (lock addr, observed word) |
//! | +272…  | write set: [`WRITE_SET_MAX`] × (addr, value) |
//!
//! The active context's MRAM-data base lives in Metal register `m5`
//! while a transaction runs.

use crate::machine::{read_reg_stubs, write_reg_stubs};
use metal_core::MetalBuilder;

/// Entry numbers for the STM kit.
pub mod entries {
    /// Begin a transaction (`a0` = context id).
    pub const TSTART: u8 = 12;
    /// Intercepted-load handler.
    pub const TREAD: u8 = 13;
    /// Intercepted-store handler.
    pub const TWRITE: u8 = 14;
    /// Commit; `a0` = 1 on success, 0 on abort.
    pub const TCOMMIT: u8 = 15;
    /// Abort explicitly; `a0` = 0.
    pub const TABORT: u8 = 16;
    /// Disarm interception (scheduler switching away).
    pub const TSUSPEND: u8 = 17;
    /// Re-arm interception (`a0` = context id to resume).
    pub const TRESUME: u8 = 18;
    /// Set the lock-table physical base (`a0`).
    pub const SET_LOCKTAB: u8 = 19;
}

/// Number of word locks in the lock table (power of two).
pub const LOCK_TABLE_SLOTS: u32 = 256;
/// Maximum read-set entries per transaction.
pub const READ_SET_MAX: u32 = 32;
/// Maximum write-set entries per transaction.
pub const WRITE_SET_MAX: u32 = 16;
/// MRAM-data offset of context 0.
pub const CTX_BASE: u32 = 1152;
/// Bytes per context.
pub const CTX_SIZE: u32 = 512;
/// Number of contexts the MRAM data segment accommodates.
pub const MAX_CONTEXTS: u32 = 4;

// Context-relative offsets.
const CTX_STATUS: u32 = 0;
const CTX_RV: u32 = 4;
const CTX_RCOUNT: u32 = 8;
const CTX_WCOUNT: u32 = 12;
const CTX_RSET: u32 = 16;
const CTX_WSET: u32 = CTX_RSET + READ_SET_MAX * 8;

/// `tstart`: `a0` = context id.
#[must_use]
fn tstart_src() -> String {
    format!(
        r"
    # tstart(ctx): snapshot the clock, clear the sets, arm interception.
    slli t0, a0, 9             # ctx * CTX_SIZE
    addi t0, t0, {ctx_base}
    wmr m5, t0                 # m5 = context MRAM-data base
    li t1, 1
    mst t1, {status}(t0)       # status = active
    mld t1, 1024(zero)         # global clock
    mst t1, {rv}(t0)           # read version
    mst zero, {rcount}(t0)
    mst zero, {wcount}(t0)
    # Arm interception of the LOAD and STORE opcode classes.
    li t0, 0x03
    li t1, {tread_target}
    mintercept t0, t1
    li t0, 0x23
    li t1, {twrite_target}
    mintercept t0, t1
    li t0, 1
    wmr mstatus, t0            # master enable
    mexit
    ",
        ctx_base = CTX_BASE,
        status = CTX_STATUS,
        rv = CTX_RV,
        rcount = CTX_RCOUNT,
        wcount = CTX_WCOUNT,
        tread_target = (u32::from(entries::TREAD) << 1) | 1,
        twrite_target = (u32::from(entries::TWRITE) << 1) | 1,
    )
}

/// `tread`: the intercepted-load handler.
#[must_use]
fn tread_src() -> String {
    format!(
        r"
    # tread: emulate an intercepted load transactionally. All scratch
    # registers are saved in Metal registers: the handler is transparent.
    wmr m6, t0
    wmr m7, t1
    wmr m8, t2
    wmr m10, t3
    wmr m11, t4
    wmr m12, t5
    rmr t0, minsn
    # Only lw (funct3 = 010) is transactional.
    srli t1, t0, 12
    andi t1, t1, 7
    addi t1, t1, -2
    bnez t1, abort_mark
    # rs1 value via the read stubs.
    srli t0, t0, 15
    andi t0, t0, 31
    slli t0, t0, 3
    la t1, rr_table
    add t1, t1, t0
    jr t1
{rr_stubs}
rr_done:
    # effective address = rs1 + sext(imm12)
    rmr t0, minsn
    srai t0, t0, 20
    add t2, t2, t0             # t2 = ea
    # Read-after-write: scan the write set newest-first.
    rmr t0, m5
    mld t1, {wcount}(t0)
    beqz t1, no_raw
raw_loop:
    addi t1, t1, -1
    rmr t0, m5
    slli t3, t1, 3
    add t0, t0, t3
    mld t3, {wset}(t0)         # buffered address
    bne t3, t2, raw_next
    mld t1, {wset4}(t0)        # buffered value
    j write_rd
raw_next:
    bnez t1, raw_loop
no_raw:
    # Sample the versioned lock for the read set.
    li t0, {mask}
    srli t1, t2, 2
    and t1, t1, t0
    slli t1, t1, 2
    mld t0, 1024+4(zero)       # lock-table base
    add t1, t1, t0             # lock address
    mpld t0, t1                # lock word
    andi t3, t0, 1
    bnez t3, abort_mark        # locked: conflict
    # Append (lock addr, observed word) to the read set.
    rmr t3, m5
    mld t4, {rcount}(t3)
    li t5, {rmax}
    bge t4, t5, abort_mark     # read set full
    slli t5, t4, 3
    add t5, t5, t3
    mst t1, {rset}(t5)
    mst t0, {rset4}(t5)
    addi t4, t4, 1
    mst t4, {rcount}(t3)
    # Perform the actual (translated) load.
    lw t1, 0(t2)
    j write_rd
abort_mark:
    rmr t0, m5
    li t1, 2
    mst t1, {status}(t0)       # aborted; commit will fail
    li t1, 0                   # emulate with value 0 so code proceeds
write_rd:
    # t1 = value; write the destination register via the stubs.
    rmr t0, minsn
    srli t0, t0, 7
    andi t0, t0, 31
    slli t0, t0, 3
    mv t2, t1
    la t1, wr_table
    add t1, t1, t0
    jr t1
{wr_stubs}
wr_done:
    # Skip the intercepted instruction and restore scratch.
    rmr t0, m31
    addi t0, t0, 4
    wmr m31, t0
    rmr t0, m6
    rmr t1, m7
    rmr t2, m8
    rmr t3, m10
    rmr t4, m11
    rmr t5, m12
    mexit
    ",
        wcount = CTX_WCOUNT,
        wset = CTX_WSET,
        wset4 = CTX_WSET + 4,
        mask = LOCK_TABLE_SLOTS - 1,
        rcount = CTX_RCOUNT,
        rmax = READ_SET_MAX,
        rset = CTX_RSET,
        rset4 = CTX_RSET + 4,
        status = CTX_STATUS,
        rr_stubs = read_reg_stubs("rr_table", "rr_done"),
        wr_stubs = write_reg_stubs("wr_table", "wr_done"),
    )
}

/// `twrite`: the intercepted-store handler (lazy versioning: buffer the
/// store in the write set).
#[must_use]
fn twrite_src() -> String {
    format!(
        r"
    # twrite: buffer an intercepted store (fully transparent).
    wmr m6, t0
    wmr m7, t1
    wmr m8, t2
    wmr m10, t3
    wmr m11, t4
    wmr m12, t5
    rmr t0, minsn
    srli t1, t0, 12
    andi t1, t1, 7
    addi t1, t1, -2
    bnez t1, abort_mark        # only sw is transactional
    # rs1 value.
    srli t0, t0, 15
    andi t0, t0, 31
    slli t0, t0, 3
    la t1, rs1_table
    add t1, t1, t0
    jr t1
{rs1_stubs}
rs1_done:
    # S-type immediate.
    rmr t0, minsn
    srai t1, t0, 25
    slli t1, t1, 5
    srli t0, t0, 7
    andi t0, t0, 31
    or t1, t1, t0
    add t2, t2, t1             # ea
    wmr m9, t2                 # stash ea
    # rs2 value (the store data).
    rmr t0, minsn
    srli t0, t0, 20
    andi t0, t0, 31
    slli t0, t0, 3
    la t1, rs2_table
    add t1, t1, t0
    jr t1
{rs2_stubs}
rs2_done:
    # t2 = value; search the write set for ea (update in place).
    rmr t4, m9                 # ea
    rmr t3, m5
    mld t1, {wcount}(t3)
    beqz t1, ws_append
ws_loop:
    addi t1, t1, -1
    slli t5, t1, 3
    add t5, t5, t3
    mld t0, {wset}(t5)
    bne t0, t4, ws_next
    mst t2, {wset4}(t5)        # update buffered value
    j finish
ws_next:
    bnez t1, ws_loop
ws_append:
    mld t1, {wcount}(t3)
    li t0, {wmax}
    bge t1, t0, abort_mark     # write set full
    slli t5, t1, 3
    add t5, t5, t3
    mst t4, {wset}(t5)
    mst t2, {wset4}(t5)
    addi t1, t1, 1
    mst t1, {wcount}(t3)
    j finish
abort_mark:
    rmr t0, m5
    li t1, 2
    mst t1, {status}(t0)
finish:
    rmr t0, m31
    addi t0, t0, 4
    wmr m31, t0
    rmr t0, m6
    rmr t1, m7
    rmr t2, m8
    rmr t3, m10
    rmr t4, m11
    rmr t5, m12
    mexit
    ",
        wcount = CTX_WCOUNT,
        wset = CTX_WSET,
        wset4 = CTX_WSET + 4,
        wmax = WRITE_SET_MAX,
        status = CTX_STATUS,
        rs1_stubs = read_reg_stubs("rs1_table", "rs1_done"),
        rs2_stubs = read_reg_stubs("rs2_table", "rs2_done"),
    )
}

/// `tcommit`: validate, write back, publish. `a0` = 1 success / 0 abort.
#[must_use]
fn tcommit_src() -> String {
    format!(
        r"
    # tcommit.
    # Disarm interception first: commit's own accesses are raw.
    li t0, 0x03
    mintercept t0, zero
    li t0, 0x23
    mintercept t0, zero
    rmr t3, m5
    mld t0, {status}(t3)
    addi t0, t0, -1
    bnez t0, fail              # not active (aborted or idle)
    # Validate the read set: every sampled lock word must be unchanged.
    mld t1, {rcount}(t3)
    beqz t1, validated
val_loop:
    addi t1, t1, -1
    slli t2, t1, 3
    add t2, t2, t3
    mld t4, {rset}(t2)         # lock address
    mld t5, {rset4}(t2)        # observed word
    mpld t4, t4                # current word
    bne t4, t5, fail
    bnez t1, val_loop
validated:
    # Bump the global clock: wv = clock + 1.
    mld t1, 1024(zero)
    addi t1, t1, 1
    mst t1, 1024(zero)
    slli t1, t1, 1             # new lock word: wv << 1 (unlocked)
    # Write back the write set and publish the new version.
    mld t2, {wcount}(t3)
    beqz t2, done_ok
wb_loop:
    addi t2, t2, -1
    slli t4, t2, 3
    add t4, t4, t3
    mld t5, {wset}(t4)         # address
    mld t6, {wset4}(t4)        # value
    sw t6, 0(t5)               # translated store of the real data
    # Publish the version on the lock.
    li t6, {mask}
    srli t5, t5, 2
    and t5, t5, t6
    slli t5, t5, 2
    mld t6, 1024+4(zero)
    add t5, t5, t6
    mpst t5, t1
    bnez t2, wb_loop
done_ok:
    mst zero, {status}(t3)     # idle
    li a0, 1
    mexit
fail:
    mst zero, {status}(t3)
    li a0, 0
    mexit
    ",
        status = CTX_STATUS,
        rcount = CTX_RCOUNT,
        rset = CTX_RSET,
        rset4 = CTX_RSET + 4,
        wcount = CTX_WCOUNT,
        wset = CTX_WSET,
        wset4 = CTX_WSET + 4,
        mask = LOCK_TABLE_SLOTS - 1,
    )
}

/// `tabort`: discard the transaction. `a0` = 0.
#[must_use]
fn tabort_src() -> &'static str {
    r"
    li t0, 0x03
    mintercept t0, zero
    li t0, 0x23
    mintercept t0, zero
    rmr t0, m5
    mst zero, 0(t0)            # status = idle
    li a0, 0
    mexit
    "
}

/// `tsuspend`: disarm interception (scheduler switching away).
#[must_use]
fn tsuspend_src() -> &'static str {
    r"
    li t0, 0x03
    mintercept t0, zero
    li t0, 0x23
    mintercept t0, zero
    mexit
    "
}

/// `tresume`: `a0` = context id; re-arm interception for it.
#[must_use]
fn tresume_src() -> String {
    format!(
        r"
    slli t0, a0, 9
    addi t0, t0, {ctx_base}
    wmr m5, t0
    li t0, 0x03
    li t1, {tread_target}
    mintercept t0, t1
    li t0, 0x23
    li t1, {twrite_target}
    mintercept t0, t1
    li t0, 1
    wmr mstatus, t0
    mexit
    ",
        ctx_base = CTX_BASE,
        tread_target = (u32::from(entries::TREAD) << 1) | 1,
        twrite_target = (u32::from(entries::TWRITE) << 1) | 1,
    )
}

/// `set_locktab`: `a0` = lock-table physical base.
#[must_use]
fn set_locktab_src() -> &'static str {
    "mst a0, 1028(zero)\n mexit"
}

/// Installs the STM kit.
#[must_use]
pub fn install(builder: MetalBuilder) -> MetalBuilder {
    builder
        .routine(entries::TSTART, "tstart", &tstart_src())
        .routine(entries::TREAD, "tread", &tread_src())
        .routine(entries::TWRITE, "twrite", &twrite_src())
        .routine(entries::TCOMMIT, "tcommit", &tcommit_src())
        .routine(entries::TABORT, "tabort", tabort_src())
        .routine(entries::TSUSPEND, "tsuspend", tsuspend_src())
        .routine(entries::TRESUME, "tresume", &tresume_src())
        .routine(entries::SET_LOCKTAB, "set_locktab", set_locktab_src())
}

/// Instruction counts per mroutine (for the paper's "<100 instructions"
/// claim — our handlers are larger because dynamic register access costs
/// a 32-way stub table per operand; the *logic* stays TL2-shaped).
#[must_use]
pub fn instruction_counts() -> Vec<(&'static str, usize)> {
    let count = |src: &str| {
        metal_asm::assemble_at(src, metal_core::MRAM_BASE)
            .map(|w| w.len())
            .unwrap_or(0)
    };
    vec![
        ("tstart", count(&tstart_src())),
        ("tread", count(&tread_src())),
        ("twrite", count(&twrite_src())),
        ("tcommit", count(&tcommit_src())),
        ("tabort", count(tabort_src())),
        ("tsuspend", count(tsuspend_src())),
        ("tresume", count(&tresume_src())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::run_guest;
    use metal_pipeline::state::CoreConfig;
    use metal_pipeline::{Core, HaltReason};

    /// Lock table in guest RAM.
    const LOCKTAB: u32 = 0x6_0000;

    fn core() -> Core<metal_core::Metal> {
        let mut core = install(MetalBuilder::new())
            .build_core(CoreConfig {
                ram_bytes: 1 << 20,
                ..CoreConfig::default()
            })
            .unwrap();
        core.hooks.mram.data_mut()[1028..1032].copy_from_slice(&LOCKTAB.to_le_bytes());
        core
    }

    #[test]
    fn kit_installs() {
        let core = core();
        for e in 12u8..=19 {
            assert!(core.hooks.mram.entry(e).is_some(), "entry {e}");
        }
    }

    #[test]
    fn transaction_commits_and_is_atomic() {
        let mut core = core();
        let halt = run_guest(
            &mut core,
            r"
            li s0, 0x40000
            li t0, 5
            sw t0, 0(s0)           # pre-transaction value (raw store)
            li a0, 0
            menter 12              # tstart(ctx 0)
            lw a1, 0(s0)           # transactional read: 5
            addi a1, a1, 1
            sw a1, 0(s0)           # buffered write: 6
            lw a2, 0(s0)           # read-after-write: 6
            menter 15              # tcommit
            beqz a0, failed
            lw a3, 0(s0)           # committed value visible raw: 6
            slli a0, a2, 8
            or a0, a0, a3          # a0 = (raw 6 << 8) | 6 = 0x606
            ebreak
        failed:
            li a0, 0xF
            ebreak
            ",
            1_000_000,
        );
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 0x606 }));
        assert!(core.hooks.stats.intercepts >= 3);
    }

    #[test]
    fn writes_invisible_until_commit() {
        let mut core = core();
        let halt = run_guest(
            &mut core,
            r"
            li s0, 0x40000
            li t0, 11
            sw t0, 0(s0)
            li a0, 0
            menter 12              # tstart
            li a1, 99
            sw a1, 0(s0)           # buffered
            menter 17              # tsuspend: interception off
            lw a2, 0(s0)           # raw read: still 11
            li a0, 0
            menter 18              # tresume
            menter 16              # tabort
            lw a3, 0(s0)           # raw: still 11
            slli a0, a2, 8
            or a0, a0, a3          # 11<<8 | 11 = 0xB0B
            ebreak
            ",
            1_000_000,
        );
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 0xB0B }));
    }

    #[test]
    fn interleaved_conflict_aborts_first_committer_loses() {
        // TL2 semantics with two interleaved logical transactions on one
        // core: T1 reads X, then T0 runs fully (writes X, commits,
        // bumping X's lock version); when T1 commits, its read-set
        // validation fails.
        let mut core = core();
        let halt = run_guest(
            &mut core,
            r"
            li s0, 0x40000
            li t0, 1
            sw t0, 0(s0)
            # --- T1 (ctx 1) starts and reads X ---
            li a0, 1
            menter 12              # tstart(1)
            lw s1, 0(s0)           # T1 reads X = 1 (read set samples lock)
            menter 17              # suspend T1
            # --- T0 (ctx 0) runs fully ---
            li a0, 0
            menter 12              # tstart(0)
            lw a1, 0(s0)
            addi a1, a1, 10
            sw a1, 0(s0)
            menter 15              # tcommit(0): success, version bumps
            mv s2, a0              # s2 = 1
            # --- back to T1: write and try to commit ---
            li a0, 1
            menter 18              # tresume(1)
            addi s1, s1, 100
            sw s1, 0(s0)
            menter 15              # tcommit(1): must fail validation
            mv s3, a0              # s3 = 0
            lw a2, 0(s0)           # memory holds T0's 11, not T1's 101
            slli a0, s2, 12
            slli s3, s3, 8
            or a0, a0, s3
            or a0, a0, a2          # 1<<12 | 0<<8 | 11 = 0x100B
            ebreak
            ",
            1_000_000,
        );
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 0x100B }));
    }

    #[test]
    fn non_word_access_aborts() {
        let mut core = core();
        let halt = run_guest(
            &mut core,
            r"
            li s0, 0x40000
            li a0, 0
            menter 12
            lb a1, 0(s0)           # byte access: transaction aborted
            menter 15              # tcommit -> 0
            ebreak
            ",
            1_000_000,
        );
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 0 }));
    }

    #[test]
    fn instruction_counts_reported() {
        let counts = instruction_counts();
        for (name, n) in &counts {
            assert!(*n > 0, "{name} failed to assemble");
        }
        // The core TL2 logic (excluding the three 64-instruction
        // register-dispatch stub tables in tread and the two in twrite)
        // matches the paper's "under 100 instructions" scale.
        let total: usize = counts.iter().map(|(_, n)| n).sum();
        let stubs = 4 * 64; // four stub tables, 2 insns per register
                            // The paper reports "under 100 instructions"; our handlers carry
                            // full register save/restore and the word-size guard, landing at
                            // ~230 logic instructions plus the dispatch stubs. Same order of
                            // magnitude; EXPERIMENTS.md records the exact numbers.
        assert!(
            total - stubs < 260,
            "TL2 logic should stay small: total {total}, stubs {stubs}"
        );
    }
}
