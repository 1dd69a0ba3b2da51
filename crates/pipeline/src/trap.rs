//! Trap causes and trap values, and the trap entry, `mret`, CSR and
//! interrupt semantics both engines share, as [`MachineState`] methods.

use crate::hooks::{Hooks, TrapDisposition, TrapEvent};
use crate::state::{HaltReason, MachineState};
use core::fmt;
use metal_isa::csr;
use metal_isa::insn::CsrOp;
use metal_trace::{EventKind, FaultSite};

/// Why a trap was raised. Cause codes follow RISC-V numbering where one
/// exists; page-key violations use custom codes 24/25.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrapCause {
    /// Instruction fetch not 4-byte aligned.
    InsnMisaligned,
    /// Instruction fetch hit unmapped physical memory or device space.
    InsnAccessFault,
    /// No legal decoding / privileged instruction in normal mode.
    IllegalInstruction,
    /// `ebreak`.
    Breakpoint,
    /// Misaligned data load.
    LoadMisaligned,
    /// Data load from unmapped physical memory.
    LoadAccessFault,
    /// Misaligned data store.
    StoreMisaligned,
    /// Data store to unmapped physical memory.
    StoreAccessFault,
    /// `ecall`.
    Ecall,
    /// Instruction-fetch translation failure (TLB miss or no-execute).
    InsnPageFault,
    /// Load translation failure (TLB miss or no-read permission).
    LoadPageFault,
    /// Store translation failure (TLB miss or no-write permission).
    StorePageFault,
    /// Load blocked by a page-key permission mask.
    LoadKeyViolation,
    /// Store blocked by a page-key permission mask.
    StoreKeyViolation,
    /// Parity/ECC detection hardware found a corrupted word. The site
    /// and syndrome are packed into the cause code so a recovery
    /// mroutine can recover them from `mcause` alone.
    MachineCheck {
        /// The structure where the error was detected.
        site: FaultSite,
        /// ECC syndrome (0 for parity; bit 7 set marks uncorrectable).
        syndrome: u8,
    },
    /// External interrupt on the given line.
    Interrupt(u8),
}

/// Base cause code shared by every machine check: `code & 31 == 16`
/// regardless of site/syndrome, so one [`DelegationMap`] slot covers
/// them all.
///
/// [`DelegationMap`]: https://docs.rs/metal-core
pub const MACHINE_CHECK_BASE: u32 = 16;

impl TrapCause {
    /// The numeric cause code (interrupts have bit 31 set).
    #[must_use]
    pub fn code(self) -> u32 {
        match self {
            TrapCause::InsnMisaligned => 0,
            TrapCause::InsnAccessFault => 1,
            TrapCause::IllegalInstruction => 2,
            TrapCause::Breakpoint => 3,
            TrapCause::LoadMisaligned => 4,
            TrapCause::LoadAccessFault => 5,
            TrapCause::StoreMisaligned => 6,
            TrapCause::StoreAccessFault => 7,
            TrapCause::Ecall => 8,
            TrapCause::InsnPageFault => 12,
            TrapCause::LoadPageFault => 13,
            TrapCause::StorePageFault => 15,
            TrapCause::LoadKeyViolation => 24,
            TrapCause::StoreKeyViolation => 25,
            TrapCause::MachineCheck { site, syndrome } => {
                MACHINE_CHECK_BASE | (site.code() << 5) | (u32::from(syndrome) << 8)
            }
            TrapCause::Interrupt(line) => csr::CAUSE_INTERRUPT_BIT | u32::from(line),
        }
    }

    /// Reconstructs a cause from its code.
    #[must_use]
    pub fn from_code(code: u32) -> Option<TrapCause> {
        if code & csr::CAUSE_INTERRUPT_BIT != 0 {
            let line = code & !csr::CAUSE_INTERRUPT_BIT;
            return if line < 32 {
                Some(TrapCause::Interrupt(line as u8))
            } else {
                None
            };
        }
        if code & 31 == MACHINE_CHECK_BASE {
            if code >> 16 != 0 {
                return None;
            }
            let site = FaultSite::from_code((code >> 5) & 7)?;
            let syndrome = (code >> 8) as u8;
            return Some(TrapCause::MachineCheck { site, syndrome });
        }
        Some(match code {
            0 => TrapCause::InsnMisaligned,
            1 => TrapCause::InsnAccessFault,
            2 => TrapCause::IllegalInstruction,
            3 => TrapCause::Breakpoint,
            4 => TrapCause::LoadMisaligned,
            5 => TrapCause::LoadAccessFault,
            6 => TrapCause::StoreMisaligned,
            7 => TrapCause::StoreAccessFault,
            8 => TrapCause::Ecall,
            12 => TrapCause::InsnPageFault,
            13 => TrapCause::LoadPageFault,
            15 => TrapCause::StorePageFault,
            24 => TrapCause::LoadKeyViolation,
            25 => TrapCause::StoreKeyViolation,
            _ => return None,
        })
    }

    /// True for interrupt causes.
    #[must_use]
    pub fn is_interrupt(self) -> bool {
        matches!(self, TrapCause::Interrupt(_))
    }
}

impl fmt::Display for TrapCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrapCause::Interrupt(line) => write!(f, "interrupt(line {line})"),
            TrapCause::MachineCheck { site, syndrome } => {
                write!(
                    f,
                    "machine-check({}, syndrome {syndrome:#04x})",
                    site.label()
                )
            }
            other => write!(f, "{other:?}"),
        }
    }
}

/// A trap: cause plus the trap value (faulting address or instruction
/// word, mirroring `mtval` semantics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trap {
    /// Why.
    pub cause: TrapCause,
    /// Faulting address or offending instruction word.
    pub tval: u32,
}

impl Trap {
    /// Shorthand constructor.
    #[must_use]
    pub fn new(cause: TrapCause, tval: u32) -> Trap {
        Trap { cause, tval }
    }

    /// An illegal-instruction trap carrying the offending word.
    #[must_use]
    pub fn illegal(word: u32) -> Trap {
        Trap::new(TrapCause::IllegalInstruction, word)
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (tval = {:#010x})", self.cause, self.tval)
    }
}

impl MachineState {
    /// Delivers a trap raised at `pc`: counts and traces it, offers it to
    /// the extension, and on the baseline path records it in the CSRs
    /// and stacks MIE into MPIE. Returns the handler PC and the
    /// dispatch's extra decode-stall cycles, or `None` once the machine
    /// has halted on a fatal trap.
    pub(crate) fn enter_trap<H: Hooks>(
        &mut self,
        hooks: &mut H,
        trap: Trap,
        pc: u32,
    ) -> Option<(u32, u32)> {
        let Trap { cause, tval } = trap;
        if cause.is_interrupt() {
            self.perf.interrupts += 1;
        } else {
            self.perf.exceptions += 1;
        }
        self.trace.emit(EventKind::Trap {
            code: cause.code(),
            tval,
            pc,
        });
        match hooks.on_trap(self, &TrapEvent { cause, tval, pc }) {
            TrapDisposition::Default => {
                self.csr.mepc = pc;
                self.csr.mcause = cause.code();
                self.csr.mtval = tval;
                let mie = self.csr.mstatus & csr::MSTATUS_MIE != 0;
                self.csr.mstatus &= !(csr::MSTATUS_MIE | csr::MSTATUS_MPIE);
                if mie {
                    self.csr.mstatus |= csr::MSTATUS_MPIE;
                }
                Some((self.csr.mtvec, 0))
            }
            TrapDisposition::Redirect { target, stall } => {
                self.perf.metal_entries += 1;
                Some((target, stall))
            }
            TrapDisposition::Fatal => {
                self.halted = Some(HaltReason::Fatal(format!(
                    "unhandled trap {cause} at pc {pc:#010x} (tval {tval:#010x})"
                )));
                None
            }
        }
    }

    /// `mret`: restores MIE from MPIE, sets MPIE, and returns `mepc`.
    pub(crate) fn mret(&mut self) -> u32 {
        let mpie = self.csr.mstatus & csr::MSTATUS_MPIE != 0;
        self.csr.mstatus |= csr::MSTATUS_MPIE;
        self.csr.mstatus &= !csr::MSTATUS_MIE;
        if mpie {
            self.csr.mstatus |= csr::MSTATUS_MIE;
        }
        self.csr.mepc
    }

    /// `csrrw`/`csrrs`/`csrrc` of `operand` on the CSR at `addr`; returns
    /// the old value. A set or clear of zero does not write, so it may
    /// read a read-only CSR. An unknown CSR, or a write to a read-only
    /// one, traps as illegal instruction `word`.
    pub(crate) fn csr_rmw(
        &mut self,
        op: CsrOp,
        addr: u16,
        operand: u32,
        word: u32,
    ) -> Result<u32, Trap> {
        let old = self.csr.read(addr, &self.perf).ok_or(Trap::illegal(word))?;
        let new = match op {
            CsrOp::Rw => Some(operand),
            CsrOp::Rs => (operand != 0).then_some(old | operand),
            CsrOp::Rc => (operand != 0).then_some(old & !operand),
        };
        match new {
            Some(new) if !self.csr.write(addr, new) => Err(Trap::illegal(word)),
            _ => Ok(old),
        }
    }

    /// The lowest pending, enabled interrupt line, if MIE is set and the
    /// extension allows delivery (Metal does not while an mroutine runs).
    pub(crate) fn pending_interrupt<H: Hooks>(&self, hooks: &H) -> Option<u8> {
        let pending = self.perf.mip_snapshot & self.csr.mie;
        if pending == 0
            || self.csr.mstatus & csr::MSTATUS_MIE == 0
            || !hooks.interrupts_allowed(self)
        {
            return None;
        }
        Some(pending.trailing_zeros() as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoHooks;
    use crate::state::CoreConfig;

    /// An extension with a fixed trap disposition and interrupt gate.
    struct Fixed {
        disposition: TrapDisposition,
        interrupts_allowed: bool,
    }

    impl Hooks for Fixed {
        fn on_trap(&mut self, _: &mut MachineState, _: &TrapEvent) -> TrapDisposition {
            self.disposition
        }

        fn interrupts_allowed(&self, _: &MachineState) -> bool {
            self.interrupts_allowed
        }
    }

    fn machine() -> MachineState {
        MachineState::new(&CoreConfig::default())
    }

    const MIE: u32 = csr::MSTATUS_MIE;
    const MPIE: u32 = csr::MSTATUS_MPIE;

    #[test]
    fn default_trap_entry_stacks_mie_into_mpie() {
        // (mstatus before, mstatus after): MPIE takes MIE's old value,
        // and interrupts end up disabled either way.
        for (before, after) in [(MIE, MPIE), (MPIE, 0)] {
            let mut m = machine();
            m.csr.mstatus = before;
            m.csr.mtvec = 0x200;
            let trap = Trap::new(TrapCause::LoadAccessFault, 0xDEAD);
            assert_eq!(m.enter_trap(&mut NoHooks, trap, 0x100), Some((0x200, 0)));
            assert_eq!(m.csr.mstatus, after, "mstatus before {before:#x}");
            assert_eq!((m.csr.mepc, m.csr.mtval), (0x100, 0xDEAD));
            assert_eq!(m.csr.mcause, TrapCause::LoadAccessFault.code());
            assert_eq!(m.perf.exceptions, 1);
        }
    }

    #[test]
    fn mret_restores_mie_from_mpie() {
        for (before, after) in [(MPIE, MIE | MPIE), (MIE, MPIE)] {
            let mut m = machine();
            m.csr.mstatus = before;
            m.csr.mepc = 0x104;
            assert_eq!(m.mret(), 0x104);
            assert_eq!(m.csr.mstatus, after, "mstatus before {before:#x}");
        }
    }

    #[test]
    fn redirect_counts_a_metal_entry_and_returns_its_stall() {
        let mut m = machine();
        m.csr.mstatus = MIE;
        let mut hooks = Fixed {
            disposition: TrapDisposition::Redirect {
                target: 0x40,
                stall: 3,
            },
            interrupts_allowed: true,
        };
        let trap = Trap::new(TrapCause::Interrupt(2), 0);
        assert_eq!(m.enter_trap(&mut hooks, trap, 0x100), Some((0x40, 3)));
        assert_eq!(m.perf.metal_entries, 1);
        assert_eq!(m.perf.interrupts, 1);
        // The extension handles it: the baseline CSRs are untouched.
        assert_eq!((m.csr.mstatus, m.csr.mepc, m.csr.mcause), (MIE, 0, 0));
    }

    #[test]
    fn fatal_disposition_halts_with_the_trap_described() {
        let mut m = machine();
        let mut hooks = Fixed {
            disposition: TrapDisposition::Fatal,
            interrupts_allowed: true,
        };
        let trap = Trap::new(TrapCause::LoadAccessFault, 0xDEAD);
        assert_eq!(m.enter_trap(&mut hooks, trap, 0x100), None);
        assert_eq!(
            m.halted,
            Some(HaltReason::Fatal(
                "unhandled trap LoadAccessFault at pc 0x00000100 (tval 0x0000dead)".to_owned()
            ))
        );
    }

    #[test]
    fn csr_set_or_clear_with_zero_operand_only_reads() {
        let mut m = machine();
        m.perf.cycles = 77;
        for op in [CsrOp::Rs, CsrOp::Rc] {
            assert_eq!(m.csr_rmw(op, csr::CYCLE, 0, 0x1234), Ok(77), "{op:?}");
        }
        assert_eq!(m.perf.cycles, 77);
    }

    #[test]
    fn csr_write_to_read_only_or_unknown_csr_is_illegal() {
        let mut m = machine();
        for (op, addr, operand) in [
            (CsrOp::Rw, csr::CYCLE, 0),
            (CsrOp::Rs, csr::CYCLE, 1),
            (CsrOp::Rs, 0x7FF, 0),
        ] {
            assert_eq!(
                m.csr_rmw(op, addr, operand, 0x1234),
                Err(Trap::illegal(0x1234)),
                "{op:?} {addr:#x}"
            );
        }
        m.csr.mscratch = 5;
        assert_eq!(m.csr_rmw(CsrOp::Rc, csr::MSCRATCH, 4, 0), Ok(5));
        assert_eq!(m.csr.mscratch, 1);
    }

    #[test]
    fn lowest_enabled_pending_line_is_selected() {
        let mut hooks = Fixed {
            disposition: TrapDisposition::Default,
            interrupts_allowed: true,
        };
        let mut m = machine();
        m.csr.mstatus = MIE;
        m.perf.mip_snapshot = 0b1_0110;
        m.csr.mie = 0b1_0100;
        assert_eq!(m.pending_interrupt(&hooks), Some(2));
        m.csr.mie = 0b0_1000;
        assert_eq!(m.pending_interrupt(&hooks), None, "nothing enabled pending");
        m.csr.mie = 0b1_0100;
        hooks.interrupts_allowed = false;
        assert_eq!(m.pending_interrupt(&hooks), None, "extension blocks");
        hooks.interrupts_allowed = true;
        m.csr.mstatus = 0;
        assert_eq!(m.pending_interrupt(&hooks), None, "MIE clear");
    }

    #[test]
    fn code_roundtrip() {
        let causes = [
            TrapCause::InsnMisaligned,
            TrapCause::InsnAccessFault,
            TrapCause::IllegalInstruction,
            TrapCause::Breakpoint,
            TrapCause::LoadMisaligned,
            TrapCause::LoadAccessFault,
            TrapCause::StoreMisaligned,
            TrapCause::StoreAccessFault,
            TrapCause::Ecall,
            TrapCause::InsnPageFault,
            TrapCause::LoadPageFault,
            TrapCause::StorePageFault,
            TrapCause::LoadKeyViolation,
            TrapCause::StoreKeyViolation,
            TrapCause::Interrupt(0),
            TrapCause::Interrupt(31),
        ];
        for c in causes {
            assert_eq!(TrapCause::from_code(c.code()), Some(c), "{c}");
        }
        assert_eq!(TrapCause::from_code(9), None);
        assert_eq!(TrapCause::from_code(0x8000_0020), None);
    }

    #[test]
    fn machine_check_roundtrip() {
        for site in FaultSite::ALL {
            for syndrome in [0u8, 1, 0x3F, 0x80, 0xFF] {
                let c = TrapCause::MachineCheck { site, syndrome };
                // Every machine check lands in the same 5-bit delegation
                // slot, and the packed code stays inside 16 bits so the
                // EntryCause encoding (`code << 8`) cannot truncate it.
                assert_eq!(c.code() & 31, MACHINE_CHECK_BASE);
                assert!(c.code() >> 16 == 0);
                assert!(!c.is_interrupt());
                assert_eq!(TrapCause::from_code(c.code()), Some(c), "{c}");
            }
        }
        // Reserved site code 7 does not decode.
        assert_eq!(TrapCause::from_code(MACHINE_CHECK_BASE | (7 << 5)), None);
        // Bits above the 16-bit pack do not decode.
        assert_eq!(TrapCause::from_code(MACHINE_CHECK_BASE | (1 << 16)), None);
    }

    #[test]
    fn interrupt_bit() {
        assert!(TrapCause::Interrupt(3).is_interrupt());
        assert!(!TrapCause::Ecall.is_interrupt());
        assert_eq!(TrapCause::Interrupt(3).code(), 0x8000_0003);
    }
}
