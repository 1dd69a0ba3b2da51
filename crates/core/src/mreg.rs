//! The Metal register file (`m0..m31`) and Metal control registers.
//!
//! "We add … a Metal register file (MReg.) containing 32 Metal exclusive
//! registers m0-m31 to store Metal's internal state" (paper §2). `m31`
//! receives the caller's return address on `menter` (Table 1). The MCR
//! space (indices ≥ 0x400) carries the event-entry metadata the
//! processor exposes: cause, faulting address, intercepted instruction
//! word, and so on.

use crate::ecc::{EccMode, EccStore};
use metal_isa::metal::Mcr;
use metal_isa::reg::MregIdx;
use metal_pipeline::state::MachineState;
use metal_pipeline::trap::TrapCause;

/// Why the current mroutine was entered; the low byte of the `mcause`
/// MCR, with event detail in bits 15:8.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryCause {
    /// Explicit `menter` from normal mode.
    Call,
    /// A delegated exception.
    Exception(TrapCause),
    /// A delegated interrupt.
    Interrupt(u8),
    /// An intercepted instruction.
    Intercept,
}

impl EntryCause {
    /// Kind code for `menter` calls.
    pub const KIND_CALL: u32 = 0;
    /// Kind code for delegated exceptions.
    pub const KIND_EXCEPTION: u32 = 1;
    /// Kind code for delegated interrupts.
    pub const KIND_INTERRUPT: u32 = 2;
    /// Kind code for intercepted instructions.
    pub const KIND_INTERCEPT: u32 = 3;

    /// Encodes to the `mcause` MCR value.
    #[must_use]
    pub fn encode(self) -> u32 {
        match self {
            EntryCause::Call => Self::KIND_CALL,
            EntryCause::Exception(cause) => Self::KIND_EXCEPTION | (cause.code() << 8),
            EntryCause::Interrupt(line) => Self::KIND_INTERRUPT | (u32::from(line) << 8),
            EntryCause::Intercept => Self::KIND_INTERCEPT,
        }
    }

    /// Decodes an `mcause` MCR value.
    #[must_use]
    pub fn decode(word: u32) -> Option<EntryCause> {
        match word & 0xFF {
            Self::KIND_CALL => Some(EntryCause::Call),
            Self::KIND_EXCEPTION => TrapCause::from_code(word >> 8).map(EntryCause::Exception),
            Self::KIND_INTERRUPT => Some(EntryCause::Interrupt(((word >> 8) & 0xFF) as u8)),
            Self::KIND_INTERCEPT => Some(EntryCause::Intercept),
            _ => None,
        }
    }
}

/// `mstatus` MCR bit: interception master enable.
pub const MSTATUS_INTERCEPT_ENABLE: u32 = 1 << 0;

/// The Metal register file plus writable MCR state.
#[derive(Clone, Debug)]
pub struct MregFile {
    /// `m0..m31`. No golden copy: `scrub` repairs by syndrome alone.
    pub(crate) regs: EccStore,
    /// `mcause` MCR.
    pub mcause: u32,
    /// `mbadaddr` MCR.
    pub mbadaddr: u32,
    /// `minsn` MCR (intercepted instruction word).
    pub minsn: u32,
    /// `mstatus` MCR (intercept enable, active layer).
    pub mstatus: u32,
    /// `mscratch` MCR.
    pub mscratch: u32,
    /// `mentry` MCR (entry number of the running mroutine).
    pub mentry: u32,
    /// Software interrupt-pending latch (set on delegation, cleared by
    /// `miack`).
    pub soft_ipend: u32,
}

impl MregFile {
    /// All-zero reset state, the registers protected by `ecc`.
    #[must_use]
    pub fn new(ecc: EccMode) -> MregFile {
        MregFile {
            regs: EccStore::new(ecc, 32, false),
            mcause: 0,
            mbadaddr: 0,
            minsn: 0,
            mstatus: 0,
            mscratch: 0,
            mentry: 0,
            soft_ipend: 0,
        }
    }

    /// Reads Metal register `mN`.
    #[must_use]
    pub fn get(&self, n: usize) -> u32 {
        self.regs.get(n & 31)
    }

    /// Writes Metal register `mN`.
    pub fn set(&mut self, n: usize, value: u32) {
        self.regs.set(n & 31, value);
    }

    /// The `m31` return address.
    #[must_use]
    pub fn return_address(&self) -> u32 {
        self.get(31)
    }

    /// Executes `rmr`: read a Metal register or MCR.
    ///
    /// Unknown MCR indices read as zero (matching how the prototype's
    /// unused register file slots would read).
    #[must_use]
    pub fn read(&self, idx: MregIdx, state: &MachineState) -> u32 {
        if let Some(n) = idx.mreg_index() {
            return self.get(n);
        }
        match Mcr::from_index(idx) {
            Some(Mcr::Mcause) => self.mcause,
            Some(Mcr::Mbadaddr) => self.mbadaddr,
            Some(Mcr::Minsn) => self.minsn,
            Some(Mcr::Mstatus) => self.mstatus,
            Some(Mcr::MasidCur) => u32::from(state.asid),
            Some(Mcr::Mclock) => state.perf.cycles as u32,
            Some(Mcr::Mentry) => self.mentry,
            Some(Mcr::Mipending) => state.perf.mip_snapshot | self.soft_ipend,
            Some(Mcr::Minstret) => state.perf.instret as u32,
            Some(Mcr::Mscratch) => self.mscratch,
            // Write-sensitive: the abort side effect happens in the
            // Metal extension's `wmr` intercept; reads see nothing.
            Some(Mcr::Mabort) => 0,
            None => 0,
        }
    }

    /// Executes `wmr`: write a Metal register or MCR. Writes to
    /// read-only or unknown MCRs are ignored.
    pub fn write(&mut self, idx: MregIdx, value: u32) {
        if let Some(n) = idx.mreg_index() {
            self.set(n, value);
            return;
        }
        match Mcr::from_index(idx) {
            Some(Mcr::Mcause) => self.mcause = value,
            Some(Mcr::Mbadaddr) => self.mbadaddr = value,
            Some(Mcr::Minsn) => self.minsn = value,
            Some(Mcr::Mstatus) => self.mstatus = value,
            Some(Mcr::Mscratch) => self.mscratch = value,
            Some(mcr) if mcr.read_only() => {}
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metal_pipeline::state::CoreConfig;

    #[test]
    fn entry_cause_roundtrip() {
        let causes = [
            EntryCause::Call,
            EntryCause::Exception(TrapCause::LoadPageFault),
            EntryCause::Exception(TrapCause::Ecall),
            EntryCause::Interrupt(7),
            EntryCause::Intercept,
            EntryCause::Exception(TrapCause::MachineCheck {
                site: metal_trace::FaultSite::Mreg,
                syndrome: 0x80,
            }),
        ];
        for c in causes {
            assert_eq!(EntryCause::decode(c.encode()), Some(c), "{c:?}");
        }
        assert_eq!(EntryCause::decode(0xFF), None);
    }

    #[test]
    fn mreg_read_write() {
        let mut f = MregFile::new(EccMode::Secded);
        let state = MachineState::new(&CoreConfig::default());
        f.set(0, 7);
        f.set(31, 0x1000);
        assert_eq!(f.get(0), 7);
        assert_eq!(f.return_address(), 0x1000);
        let m0 = MregIdx::mreg(0).unwrap();
        assert_eq!(f.read(m0, &state), 7);
        f.write(m0, 9);
        assert_eq!(f.get(0), 9);
        assert_eq!(f.regs.verify(0), None, "wmr writes fresh check bits");
    }

    #[test]
    fn mcr_access() {
        let mut f = MregFile::new(EccMode::None);
        let mut state = MachineState::new(&CoreConfig::default());
        state.perf.cycles = 1234;
        state.asid = 5;
        f.write(Mcr::Mcause.index(), 0x42);
        assert_eq!(f.read(Mcr::Mcause.index(), &state), 0x42);
        assert_eq!(f.read(Mcr::Mclock.index(), &state), 1234);
        assert_eq!(f.read(Mcr::MasidCur.index(), &state), 5);
        // Read-only MCR writes ignored.
        f.write(Mcr::Mclock.index(), 0);
        assert_eq!(f.read(Mcr::Mclock.index(), &state), 1234);
        // Unknown MCR reads as zero.
        assert_eq!(f.read(MregIdx::from_field(0x7FF), &state), 0);
    }
}
