//! User-defined privilege levels (paper §3.1).
//!
//! "Metal enables new OS privilege separation models beyond the basic
//! user mode vs. kernel mode distinction." Metal itself defines only
//! normal vs. Metal mode; *software* defines the rings: the current ring
//! lives in Metal register `m0`, transitions are mroutines, and every
//! privileged mroutine begins with a ring check that redirects violators
//! to a kernel-registered handler ("a privilege check that triggers an
//! exception if violated").
//!
//! The two-ring model reproduces paper Figure 2: `kenter` takes a system
//! call number in `a0`, saves the userspace return address in `ra`,
//! computes the kernel entry point through the syscall table, and jumps
//! there; `kexit` returns to the address in `ra`. The N-ring
//! generalization adds ring-call gates registered per ring.
//!
//! Register conventions (documented ABI, as in the paper's use of `t0`
//! and `ra`):
//!
//! * `m0` — current ring (0 = most privileged/kernel).
//! * `m1`/`m2` — caller return address / caller ring across `ring_call`.
//! * `kenter` clobbers `t0`, `t1`; the syscall number is consumed from
//!   `a0`; results return in `a0`.
//!
//! MRAM data-segment layout for this kit:
//!
//! * word 0 — privilege-violation handler address.
//! * words `8 + 4*r` — ring-call gate PC for ring `r` (r < 8).

use crate::machine::layout;
use metal_core::MetalBuilder;

/// Entry numbers for the privilege kit.
pub mod entries {
    /// `kenter`: user → kernel syscall transition (paper Fig. 2).
    pub const KENTER: u8 = 0;
    /// `kexit`: kernel → user return (paper Fig. 2).
    pub const KEXIT: u8 = 1;
    /// Register the privilege-violation handler (ring 0 only).
    pub const SET_VIOLATION: u8 = 2;
    /// Read the current ring into `a0`.
    pub const RING_GET: u8 = 3;
    /// Call into a more-privileged ring through its gate.
    pub const RING_CALL: u8 = 4;
    /// Return outward from a ring call.
    pub const RING_RETURN: u8 = 5;
    /// Register a ring's gate PC (ring 0 only).
    pub const SET_GATE: u8 = 6;
}

/// Ring number for the kernel.
pub const KERNEL_RING: u32 = 0;
/// Ring number for userspace in the two-ring model.
pub const USER_RING: u32 = 1;

/// The `kenter` mroutine (paper Figure 2, adapted to this ISA).
#[must_use]
pub fn kenter_src() -> String {
    format!(
        r"
        # kenter: system call entry. a0 = syscall number.
        rmr ra, m31            # save the userspace return address in ra
        wmr m0, zero           # ring := 0 (kernel)
        slli t0, a0, 2
        li t1, {table:#x}
        add t0, t0, t1
        lw t0, 0(t0)           # t0 = syscall handler address (the table
                               # is kernel-pinned memory: cached, mapped)
        wmr m31, t0
        mexit                  # jump to the kernel entry point
        ",
        table = layout::SYSCALL_TABLE
    )
}

/// The `kexit` mroutine (paper Figure 2): return to userspace at `ra`.
#[must_use]
pub fn kexit_src() -> String {
    format!(
        r"
        # kexit: return to userspace. Kernel only.
        rmr t0, m0
        bnez t0, viol
        li t0, {user_ring}
        wmr m0, t0             # ring := user
        wmr m31, ra
        mexit
    viol:
        mld t0, 0(zero)        # privilege-violation handler
        wmr m31, t0
        mexit
        ",
        user_ring = USER_RING
    )
}

/// Registers the violation handler (`a0` = handler PC). Ring 0 only.
#[must_use]
fn set_violation_src() -> &'static str {
    r"
    rmr t0, m0
    bnez t0, viol
    mst a0, 0(zero)
    mexit
viol:
    mld t0, 0(zero)
    wmr m31, t0
    mexit
    "
}

/// Reads the current ring into `a0`.
#[must_use]
fn ring_get_src() -> &'static str {
    "rmr a0, m0\n mexit"
}

/// Calls into a more-privileged ring: `a0` = target ring. The target's
/// registered gate receives control; the caller's ring and return
/// address are stashed in `m2`/`m1` for [`entries::RING_RETURN`].
#[must_use]
fn ring_call_src() -> &'static str {
    r"
    rmr t0, m0
    bge a0, t0, viol       # target must be strictly more privileged
    wmr m2, t0             # caller ring
    rmr t1, m31
    wmr m1, t1             # caller return address
    wmr m0, a0             # now running at the target ring
    slli t0, a0, 2
    addi t0, t0, 8
    mld t0, 0(t0)          # gate PC for the target ring
    wmr m31, t0
    mexit
viol:
    mld t0, 0(zero)
    wmr m31, t0
    mexit
    "
}

/// Returns outward from a ring call to the stashed caller.
#[must_use]
fn ring_return_src() -> &'static str {
    r"
    rmr t0, m0
    rmr t1, m2
    blt t1, t0, viol       # may only return to a less-privileged caller
    wmr m0, t1
    rmr t1, m1
    wmr m31, t1
    mexit
viol:
    mld t0, 0(zero)
    wmr m31, t0
    mexit
    "
}

/// Registers a ring's gate PC: `a0` = ring, `a1` = PC. Ring 0 only.
#[must_use]
fn set_gate_src() -> &'static str {
    r"
    rmr t0, m0
    bnez t0, viol
    slli t0, a0, 2
    addi t0, t0, 8
    mst a1, 0(t0)
    mexit
viol:
    mld t0, 0(zero)
    wmr m31, t0
    mexit
    "
}

/// Installs the privilege kit's mroutines into a builder.
#[must_use]
pub fn install(builder: MetalBuilder) -> MetalBuilder {
    builder
        .routine(entries::KENTER, "kenter", &kenter_src())
        .routine(entries::KEXIT, "kexit", &kexit_src())
        .routine(entries::SET_VIOLATION, "set_violation", set_violation_src())
        .routine(entries::RING_GET, "ring_get", ring_get_src())
        .routine(entries::RING_CALL, "ring_call", ring_call_src())
        .routine(entries::RING_RETURN, "ring_return", ring_return_src())
        .routine(entries::SET_GATE, "set_gate", set_gate_src())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::run_guest;
    use metal_pipeline::state::CoreConfig;
    use metal_pipeline::HaltReason;

    fn core() -> metal_pipeline::Core<metal_core::Metal> {
        install(MetalBuilder::new())
            .build_core(CoreConfig::default())
            .unwrap()
    }

    #[test]
    fn kit_assembles_and_installs() {
        let core = core();
        for entry in [0u8, 1, 2, 3, 4, 5, 6] {
            assert!(core.hooks.mram.entry(entry).is_some(), "entry {entry}");
        }
    }

    #[test]
    fn boot_ring_is_kernel() {
        let mut core = core();
        let halt = run_guest(&mut core, "menter 3\n ebreak", 10_000);
        assert_eq!(halt, Some(HaltReason::Ebreak { code: KERNEL_RING }));
    }

    #[test]
    fn kexit_drops_to_user_ring() {
        let mut core = core();
        let halt = run_guest(
            &mut core,
            r"
            la a0, kfault
            menter 2           # register violation handler
            la ra, user
            menter 1           # kexit -> user code at ring 1
        kfault:
            li a0, 0xdead
            ebreak
        user:
            menter 3           # ring_get
            ebreak
            ",
            10_000,
        );
        assert_eq!(halt, Some(HaltReason::Ebreak { code: USER_RING }));
    }

    #[test]
    fn user_cannot_kexit() {
        let mut core = core();
        let halt = run_guest(
            &mut core,
            r"
            la a0, kfault
            menter 2
            la ra, user
            menter 1           # drop to ring 1
        kfault:
            li a0, 0xdead
            ebreak
        user:
            la ra, evil        # try to 'return to userspace' again
            menter 1           # kexit from ring 1: privilege violation
        evil:
            li a0, 0xbad
            ebreak
            ",
            10_000,
        );
        assert_eq!(
            halt,
            Some(HaltReason::Ebreak { code: 0xdead }),
            "violation must land in the registered handler"
        );
    }

    #[test]
    fn ring_call_gates_inward_transitions() {
        let mut core = core();
        let halt = run_guest(
            &mut core,
            r"
            la a0, kfault
            menter 2
            li a0, 0
            la a1, ring0_gate
            menter 6           # set_gate(ring 0, ring0_gate)
            la ra, user
            menter 1           # drop to ring 1
        kfault:
            li a0, 0xdead
            ebreak
        ring0_gate:
            # Runs at ring 0 on behalf of the user; return 7.
            li a0, 7
            menter 5           # ring_return
        user:
            li a0, 0
            menter 4           # ring_call(0) -> gate -> back here
            ebreak
            ",
            10_000,
        );
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 7 }));
    }

    #[test]
    fn ring_call_rejects_same_or_outward_ring() {
        let mut core = core();
        let halt = run_guest(
            &mut core,
            r"
            la a0, kfault
            menter 2
            la ra, user
            menter 1
        kfault:
            li a0, 0xdead
            ebreak
        user:
            li a0, 1           # target == current ring: not allowed
            menter 4
            ebreak
            ",
            10_000,
        );
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 0xdead }));
    }
}
