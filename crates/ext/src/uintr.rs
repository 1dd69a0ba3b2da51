//! User-level interrupts (paper §3.4).
//!
//! "Metal supports user level interrupt by handling the processor's
//! interrupt delivery. When an interrupt occurs, Metal invokes specific
//! mroutines to optionally redirect the interrupt to processes running
//! at lower privilege levels. The mroutines ensure that the target
//! process to receive the interrupt is currently running on the core
//! and interrupt the process without changing the privilege level."
//!
//! The dispatch mroutine here is that redirect: a delegated device
//! interrupt is turned into an upcall to a *userspace* handler with no
//! kernel transition at all. The interrupt line is masked for the
//! duration (the device stays level-asserted until the handler acks
//! it); the handler finishes with the `uret` mroutine, which unmasks the
//! line and resumes the interrupted code. The dispatcher preserves
//! `t0..t2` in Metal registers, so the user handler may clobber them
//! freely — a sigreturn-free upcall ABI.
//!
//! MRAM data layout (offset [`DATA_BASE`]):
//!
//! | offset | contents |
//! |--------|----------|
//! | +0     | user handler PC (0 = unregistered) |
//! | +4     | saved resume PC |
//! | +8     | masked `mie` bit |
//! | +12    | delivery counter |

use metal_core::MetalBuilder;

/// Entry numbers for the user-interrupt kit.
pub mod entries {
    /// The delegated-interrupt dispatcher.
    pub const DISPATCH: u8 = 20;
    /// Register the user handler (`a0` = PC; 0 unregisters).
    pub const REGISTER: u8 = 21;
    /// Return from a user handler (unmask + resume).
    pub const URET: u8 = 22;
    /// Read the delivery counter into `a0`.
    pub const COUNT: u8 = 23;
}

/// MRAM-data base of this kit's state.
pub const DATA_BASE: u32 = 128;

/// The dispatcher: runs on a delegated interrupt.
#[must_use]
fn dispatch_src() -> String {
    format!(
        r"
    # User-interrupt dispatch.
    wmr m14, t0
    wmr m15, t1
    wmr m16, t2
    li t2, {base}
    mld t1, 0(t2)              # user handler PC
    beqz t1, unregistered
    # Mask the interrupting line (mcause detail byte holds it).
    rmr t0, mcause
    srli t0, t0, 8
    andi t0, t0, 31
    li t2, 1
    sll t2, t2, t0
    csrrc zero, mie, t2        # mask
    li t0, {base}
    mst t2, 8(t0)              # remember the masked bit
    # Save the resume PC and count the delivery.
    rmr t2, m31
    mst t2, 4(t0)
    mld t2, 12(t0)
    addi t2, t2, 1
    mst t2, 12(t0)
    # Upcall: the user handler runs at the interrupted privilege level.
    wmr m31, t1
    rmr t0, m14
    rmr t1, m15
    rmr t2, m16
    mexit
unregistered:
    # No handler: mask the line entirely so the device cannot storm, and
    # resume the interrupted code.
    rmr t0, mcause
    srli t0, t0, 8
    andi t0, t0, 31
    li t2, 1
    sll t2, t2, t0
    csrrc zero, mie, t2
    rmr t0, m14
    rmr t1, m15
    rmr t2, m16
    mexit
    ",
        base = DATA_BASE
    )
}

/// Registers the user handler (`a0` = PC).
#[must_use]
fn register_src() -> String {
    format!("li t0, {base}\n mst a0, 0(t0)\n mexit", base = DATA_BASE)
}

/// Returns from the user handler: unmask the line, restore the
/// dispatcher-saved scratch registers, resume the interrupted code.
#[must_use]
fn uret_src() -> String {
    format!(
        r"
    li t0, {base}
    mld t1, 8(t0)
    csrrs zero, mie, t1        # unmask
    mld t1, 4(t0)
    wmr m31, t1
    rmr t0, m14
    rmr t1, m15
    rmr t2, m16
    mexit
    ",
        base = DATA_BASE
    )
}

/// Reads the delivery counter into `a0`.
#[must_use]
fn count_src() -> String {
    format!("li t0, {base}\n mld a0, 12(t0)\n mexit", base = DATA_BASE)
}

/// Installs the kit, delegating `irq_line` to the dispatcher.
#[must_use]
pub fn install(builder: MetalBuilder, irq_line: u8) -> MetalBuilder {
    builder
        .routine(entries::DISPATCH, "uintr_dispatch", &dispatch_src())
        .routine(entries::REGISTER, "uintr_register", &register_src())
        .routine(entries::URET, "uintr_ret", &uret_src())
        .routine(entries::COUNT, "uintr_count", &count_src())
        .delegate_interrupt(irq_line, entries::DISPATCH)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::run_guest;
    use metal_mem::devices::{map, Nic};
    use metal_pipeline::state::CoreConfig;
    use metal_pipeline::{Core, HaltReason};

    fn nic_core() -> (Core<metal_core::Metal>, metal_mem::devices::NicHandle) {
        let mut core = install(MetalBuilder::new(), map::NIC_IRQ)
            .build_core(CoreConfig::default())
            .unwrap();
        let (nic, handle) = Nic::new();
        core.state
            .bus
            .attach(map::NIC_BASE, map::WINDOW_LEN, Box::new(nic));
        (core, handle)
    }

    /// Guest: enable the NIC line, register a handler, and spin doing
    /// "work" until two packets have been received; the handler reads a
    /// data word per packet and acks the device directly from userspace.
    const GUEST: &str = r"
        li t0, 2               # NIC line = bit 1
        csrw mie, t0
        csrrsi zero, mstatus, 8
        la a0, handler
        menter 21              # register user handler
        li s1, 0               # packets seen
        li s2, 0               # work counter
    work:
        addi s2, s2, 1
        li t0, 2
        blt s1, t0, work
        menter 23              # deliveries -> a0
        slli a0, a0, 16
        or a0, a0, s3          # a0 = count<<16 | last word
        ebreak
    handler:
        li s4, 0xF0000200      # NIC window
        lw s3, 8(s4)           # DATA word
        li s5, 1
        sw s5, 12(s4)          # ACK
        addi s1, s1, 1
        menter 22              # uret
    ";

    #[test]
    fn packets_delivered_to_userspace() {
        let (mut core, handle) = nic_core();
        handle.schedule(200, &b"\x2A\x00\x00\x00"[..]);
        handle.schedule(600, &b"\x07\x00\x00\x00"[..]);
        let halt = run_guest(&mut core, GUEST, 100_000);
        assert_eq!(
            halt,
            Some(HaltReason::Ebreak {
                code: (2 << 16) | 7
            }),
            "stats: {:?}",
            core.hooks.stats
        );
        assert_eq!(core.hooks.stats.delegated_interrupts, 2);
        let completions = handle.take_completions();
        assert_eq!(completions.len(), 2);
        for (arrival, ack) in completions {
            assert!(
                ack - arrival < 200,
                "delivery latency should be small: {arrival} -> {ack}"
            );
        }
    }

    #[test]
    fn unregistered_interrupt_masks_line() {
        let (mut core, handle) = nic_core();
        handle.schedule(50, &b"x"[..]);
        let halt = run_guest(
            &mut core,
            r"
            li t0, 2
            csrw mie, t0
            csrrsi zero, mstatus, 8
            li s2, 0
        work:
            addi s2, s2, 1
            li t0, 3000
            blt s2, t0, work
            menter 23
            ebreak
            ",
            1_000_000,
        );
        // The kit counter only counts upcalls; the unregistered path
        // masks the line without counting.
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 0 }));
        assert_eq!(core.hooks.stats.delegated_interrupts, 1);
    }

    #[test]
    fn handler_clobbering_scratch_is_safe() {
        let (mut core, handle) = nic_core();
        handle.schedule(100, &b"y"[..]);
        let halt = run_guest(
            &mut core,
            r"
            li t0, 2
            csrw mie, t0
            csrrsi zero, mstatus, 8
            la a0, handler
            menter 21
            li t0, 1000        # app state in scratch registers
            li t1, 2000
            li t2, 3000
            li s1, 0
        wait:
            beqz s1, wait
            add a0, t0, t1
            add a0, a0, t2     # must still be 6000
            ebreak
        handler:
            li t0, 0xDEAD      # clobber everything the ABI allows
            li t1, 0xDEAD
            li t2, 0xDEAD
            li s4, 0xF0000200
            li s5, 1
            sw s5, 12(s4)      # ACK
            addi s1, s1, 1
            menter 22
            ",
            1_000_000,
        );
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 6000 }));
    }
}
