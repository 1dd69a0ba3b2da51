//! Hardware capabilities in mroutines (paper §3.5).
//!
//! "The IBM System/38 and Intel iAPX 432 processors implement
//! capabilities in hardware using microcode. … Similar to prior
//! systems, Metal can support capabilities by writing mroutines to
//! create and manipulate domains and capabilities."
//!
//! A capability here is an unforgeable handle to a bounded region of
//! physical memory with read/write permissions. The capability table
//! lives in the MRAM data segment, unreachable from application loads
//! and stores; applications hold only small integer indices, and every
//! dereference is bounds- and permission-checked inside an mroutine.
//!
//! Table entry layout (16 bytes per slot, [`MAX_CAPS`] slots at
//! [`DATA_BASE`]): base, length, permissions (bit 0 read / bit 1
//! write), valid flag.

use metal_core::MetalBuilder;

/// Entry numbers for the capability kit.
pub mod entries {
    /// Mint a capability: `a0` = base, `a1` = len, `a2` = perms;
    /// returns `a0` = index, or -1 if the table is full.
    pub const CREATE: u8 = 32;
    /// Load through a capability: `a0` = index, `a1` = offset;
    /// returns `a0` = value (diverts to the fault label on violation).
    pub const LOAD: u8 = 33;
    /// Store through a capability: `a0` = index, `a1` = offset,
    /// `a2` = value.
    pub const STORE: u8 = 34;
    /// Revoke: `a0` = index.
    pub const REVOKE: u8 = 35;
    /// Register the violation handler: `a0` = PC.
    pub const SET_HANDLER: u8 = 36;
}

/// MRAM-data base of the capability table.
pub const DATA_BASE: u32 = 320;
/// Number of capability slots.
pub const MAX_CAPS: u32 = 16;

const HANDLER_SLOT: u32 = DATA_BASE;
const COUNT_SLOT: u32 = DATA_BASE + 4;
const TABLE: u32 = DATA_BASE + 8;

/// Common violation epilogue: jump to the registered handler.
fn violation_tail() -> String {
    format!(
        r"
violation:
    li t0, {handler}
    mld t0, 0(t0)
    wmr m31, t0
    mexit
    ",
        handler = HANDLER_SLOT
    )
}

/// Mints a capability.
#[must_use]
fn create_src() -> String {
    format!(
        r"
    li t0, {count}
    mld t1, 0(t0)
    li t2, {max}
    bge t1, t2, full
    # slot address = TABLE + 16 * index
    slli t2, t1, 4
    addi t2, t2, {table}
    mst a0, 0(t2)              # base
    mst a1, 4(t2)              # len
    mst a2, 8(t2)              # perms
    li t0, 1
    mst t0, 12(t2)             # valid
    li t0, {count}
    addi t2, t1, 1
    mst t2, 0(t0)
    mv a0, t1                  # return the index
    mexit
full:
    li a0, -1
    mexit
    ",
        count = COUNT_SLOT,
        max = MAX_CAPS,
        table = TABLE,
    )
}

/// Shared check: validates `a0` (index) and `a1` (offset) against the
/// table for permission bit `perm_bit`, leaving the physical address in
/// `t2`. Emitted inline into the load/store mroutines.
fn check_body(perm_bit: u32) -> String {
    format!(
        r"
    li t0, {max}
    bgeu a0, t0, violation     # index out of range
    slli t2, a0, 4
    addi t2, t2, {table}
    mld t0, 12(t2)
    beqz t0, violation         # revoked / never minted
    mld t0, 8(t2)
    andi t0, t0, {perm_bit}
    beqz t0, violation         # permission missing
    mld t0, 4(t2)
    bgeu a1, t0, violation     # offset >= len (also blocks wrap-around)
    addi t1, a1, 4
    bltu t0, t1, violation     # offset + 4 > len
    mld t0, 0(t2)
    add t2, t0, a1             # physical address
    ",
        max = MAX_CAPS,
        table = TABLE,
        perm_bit = perm_bit,
    )
}

/// Loads through a capability.
#[must_use]
fn load_src() -> String {
    format!(
        "{check}\n    mpld a0, t2\n    mexit\n{tail}",
        check = check_body(1),
        tail = violation_tail()
    )
}

/// Stores through a capability.
#[must_use]
fn store_src() -> String {
    format!(
        "{check}\n    mpst t2, a2\n    li a0, 0\n    mexit\n{tail}",
        check = check_body(2),
        tail = violation_tail()
    )
}

/// Revokes a capability.
#[must_use]
fn revoke_src() -> String {
    format!(
        r"
    li t0, {max}
    bgeu a0, t0, violation
    slli t2, a0, 4
    addi t2, t2, {table}
    mst zero, 12(t2)
    li a0, 0
    mexit
{tail}
    ",
        max = MAX_CAPS,
        table = TABLE,
        tail = violation_tail(),
    )
}

/// Registers the violation handler.
#[must_use]
fn set_handler_src() -> String {
    format!("li t0, {HANDLER_SLOT}\n mst a0, 0(t0)\n mexit")
}

/// Installs the capability kit.
#[must_use]
pub fn install(builder: MetalBuilder) -> MetalBuilder {
    builder
        .routine(entries::CREATE, "cap_create", &create_src())
        .routine(entries::LOAD, "cap_load", &load_src())
        .routine(entries::STORE, "cap_store", &store_src())
        .routine(entries::REVOKE, "cap_revoke", &revoke_src())
        .routine(entries::SET_HANDLER, "cap_set_handler", &set_handler_src())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::run_guest;
    use metal_pipeline::state::CoreConfig;
    use metal_pipeline::{Core, HaltReason};

    fn core() -> Core<metal_core::Metal> {
        install(MetalBuilder::new())
            .build_core(CoreConfig::default())
            .unwrap()
    }

    const PROLOGUE: &str = r"
        la a0, violation
        menter 36
    ";
    const EPILOGUE: &str = r"
    violation:
        li a0, 0xBAD
        ebreak
    ";

    #[test]
    fn mint_store_load_roundtrip() {
        let mut core = core();
        let src = format!(
            r"
            {PROLOGUE}
            li a0, 0x40000
            li a1, 64
            li a2, 3
            menter 32          # create -> cap 0
            mv s1, a0
            mv a0, s1
            li a1, 8
            li a2, 777
            menter 34          # store cap[8] = 777
            mv a0, s1
            li a1, 8
            menter 33          # load cap[8]
            ebreak
            {EPILOGUE}
            "
        );
        let halt = run_guest(&mut core, &src, 100_000);
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 777 }));
    }

    #[test]
    fn bounds_enforced() {
        let mut core = core();
        let src = format!(
            r"
            {PROLOGUE}
            li a0, 0x40000
            li a1, 64
            li a2, 3
            menter 32
            li a1, 64          # one past the end (64..68 > len)
            menter 33
            li a0, 1
            ebreak
            {EPILOGUE}
            "
        );
        let halt = run_guest(&mut core, &src, 100_000);
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 0xBAD }));
    }

    #[test]
    fn write_permission_enforced() {
        let mut core = core();
        let src = format!(
            r"
            {PROLOGUE}
            li a0, 0x40000
            li a1, 64
            li a2, 1           # read-only
            menter 32
            li a1, 0
            li a2, 5
            menter 34          # store through a read-only cap
            li a0, 1
            ebreak
            {EPILOGUE}
            "
        );
        let halt = run_guest(&mut core, &src, 100_000);
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 0xBAD }));
    }

    #[test]
    fn revocation_kills_the_handle() {
        let mut core = core();
        let src = format!(
            r"
            {PROLOGUE}
            li a0, 0x40000
            li a1, 64
            li a2, 3
            menter 32
            mv s1, a0
            mv a0, s1
            menter 35          # revoke
            mv a0, s1
            li a1, 0
            menter 33          # load via the dead handle
            li a0, 1
            ebreak
            {EPILOGUE}
            "
        );
        let halt = run_guest(&mut core, &src, 100_000);
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 0xBAD }));
    }

    #[test]
    fn forged_index_rejected() {
        let mut core = core();
        let src = format!(
            r"
            {PROLOGUE}
            li a0, 12          # never minted
            li a1, 0
            menter 33
            li a0, 1
            ebreak
            {EPILOGUE}
            "
        );
        let halt = run_guest(&mut core, &src, 100_000);
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 0xBAD }));
    }

    #[test]
    fn table_capacity_enforced() {
        let mut core = core();
        let src = format!(
            r"
            {PROLOGUE}
            li s1, 0
            li s2, 17          # one more than MAX_CAPS
        mint:
            li a0, 0x40000
            li a1, 16
            li a2, 3
            menter 32
            mv s3, a0          # last result
            addi s1, s1, 1
            blt s1, s2, mint
            mv a0, s3          # the 17th mint must return -1
            ebreak
            {EPILOGUE}
            "
        );
        let halt = run_guest(&mut core, &src, 1_000_000);
        assert_eq!(halt, Some(HaltReason::Ebreak { code: u32::MAX }));
    }
}
