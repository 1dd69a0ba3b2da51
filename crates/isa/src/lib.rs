//! ISA definition for the Metal RISC processor.
//!
//! The base instruction set is RV32IM-compatible (plus the Zicsr subset and
//! `mret`/`wfi`), and the Metal extension occupies the *custom-0* major
//! opcode (`0001011`). This crate is the single source of truth for
//! instruction encoding: the assembler, the pipelined core, the functional
//! reference interpreter, and the disassembler all consume the [`Insn`]
//! type defined here.
//!
//! # Examples
//!
//! ```
//! use metal_isa::insn::AluOp;
//! use metal_isa::{decode, encode, Insn, Reg};
//!
//! let insn = Insn::AluImm { op: AluOp::Add, rd: Reg::A0, rs1: Reg::ZERO, imm: 42 };
//! let word = encode(&insn);
//! assert_eq!(decode(word), Ok(insn));
//! ```

pub mod csr;
pub mod decode;
pub mod decoded;
pub(crate) mod disasm;
pub mod encode;
pub mod insn;
pub mod metal;
pub mod reg;

pub use decode::{decode, DecodeError};
pub use decoded::{decode_to, DecodedInsn, DispatchTag};
pub use disasm::disassemble;
pub use encode::{encode, try_encode, EncodeError};
pub use insn::Insn;
pub use metal::{InterceptSelector, MarchOp, Mcr, MetalOpcode};
pub use reg::{MregIdx, Reg};

/// Width of the architecture's integer registers, in bits.
pub const XLEN: u32 = 32;

/// Size of one instruction in bytes. The ISA has no compressed extension.
pub const INSN_BYTES: u32 = 4;

/// Sign-extend the low `bits` bits of `value` to a full 32-bit signed value.
///
/// # Panics
///
/// Panics if `bits` is 0 or greater than 32.
#[inline]
#[must_use]
pub fn sign_extend(value: u32, bits: u32) -> i32 {
    assert!((1..=32).contains(&bits), "bits must be in 1..=32");
    let shift = 32 - bits;
    ((value << shift) as i32) >> shift
}

/// Returns true if `value` fits in a signed immediate of `bits` bits.
#[inline]
#[must_use]
pub fn fits_simm(value: i64, bits: u32) -> bool {
    let min = -(1i64 << (bits - 1));
    let max = (1i64 << (bits - 1)) - 1;
    value >= min && value <= max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_extend_basics() {
        assert_eq!(sign_extend(0xFFF, 12), -1);
        assert_eq!(sign_extend(0x7FF, 12), 2047);
        assert_eq!(sign_extend(0x800, 12), -2048);
        assert_eq!(sign_extend(0, 12), 0);
        assert_eq!(sign_extend(0xFFFF_FFFF, 32), -1);
        assert_eq!(sign_extend(1, 1), -1);
    }

    #[test]
    fn fits_simm_bounds() {
        assert!(fits_simm(2047, 12));
        assert!(!fits_simm(2048, 12));
        assert!(fits_simm(-2048, 12));
        assert!(!fits_simm(-2049, 12));
        assert!(fits_simm(0, 1));
    }

    #[test]
    #[should_panic(expected = "bits must be in 1..=32")]
    fn sign_extend_rejects_zero_bits() {
        let _ = sign_extend(0, 0);
    }
}
