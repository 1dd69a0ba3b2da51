//! The decoded instruction type and its operand enums.

use crate::metal::MarchOp;
use crate::reg::{MregIdx, Reg};

/// Branch conditions (`funct3` of the BRANCH major opcode).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum Cond {
    /// `beq`: branch if equal.
    Eq = 0b000,
    /// `bne`: branch if not equal.
    Ne = 0b001,
    /// `blt`: branch if less than (signed).
    Lt = 0b100,
    /// `bge`: branch if greater or equal (signed).
    Ge = 0b101,
    /// `bltu`: branch if less than (unsigned).
    Ltu = 0b110,
    /// `bgeu`: branch if greater or equal (unsigned).
    Geu = 0b111,
}

impl Cond {
    /// Decodes a funct3 field.
    #[must_use]
    pub const fn from_funct3(f3: u32) -> Option<Cond> {
        match f3 {
            0b000 => Some(Cond::Eq),
            0b001 => Some(Cond::Ne),
            0b100 => Some(Cond::Lt),
            0b101 => Some(Cond::Ge),
            0b110 => Some(Cond::Ltu),
            0b111 => Some(Cond::Geu),
            _ => None,
        }
    }

    /// Evaluates the condition on two operand values.
    #[must_use]
    pub const fn eval(self, a: u32, b: u32) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => (a as i32) < (b as i32),
            Cond::Ge => (a as i32) >= (b as i32),
            Cond::Ltu => a < b,
            Cond::Geu => a >= b,
        }
    }

    /// Assembler mnemonic.
    #[must_use]
    pub const fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "beq",
            Cond::Ne => "bne",
            Cond::Lt => "blt",
            Cond::Ge => "bge",
            Cond::Ltu => "bltu",
            Cond::Geu => "bgeu",
        }
    }
}

/// Load operations (width and sign-extension).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum LoadOp {
    /// `lb`: signed byte.
    Lb = 0b000,
    /// `lh`: signed half-word.
    Lh = 0b001,
    /// `lw`: word.
    Lw = 0b010,
    /// `lbu`: unsigned byte.
    Lbu = 0b100,
    /// `lhu`: unsigned half-word.
    Lhu = 0b101,
}

impl LoadOp {
    /// Decodes a funct3 field.
    #[must_use]
    pub const fn from_funct3(f3: u32) -> Option<LoadOp> {
        match f3 {
            0b000 => Some(LoadOp::Lb),
            0b001 => Some(LoadOp::Lh),
            0b010 => Some(LoadOp::Lw),
            0b100 => Some(LoadOp::Lbu),
            0b101 => Some(LoadOp::Lhu),
            _ => None,
        }
    }

    /// Access width in bytes.
    #[must_use]
    pub const fn bytes(self) -> u32 {
        match self {
            LoadOp::Lb | LoadOp::Lbu => 1,
            LoadOp::Lh | LoadOp::Lhu => 2,
            LoadOp::Lw => 4,
        }
    }

    /// Assembler mnemonic.
    #[must_use]
    pub const fn mnemonic(self) -> &'static str {
        match self {
            LoadOp::Lb => "lb",
            LoadOp::Lh => "lh",
            LoadOp::Lw => "lw",
            LoadOp::Lbu => "lbu",
            LoadOp::Lhu => "lhu",
        }
    }
}

/// Store operations (width).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum StoreOp {
    /// `sb`: byte.
    Sb = 0b000,
    /// `sh`: half-word.
    Sh = 0b001,
    /// `sw`: word.
    Sw = 0b010,
}

impl StoreOp {
    /// Decodes a funct3 field.
    #[must_use]
    pub const fn from_funct3(f3: u32) -> Option<StoreOp> {
        match f3 {
            0b000 => Some(StoreOp::Sb),
            0b001 => Some(StoreOp::Sh),
            0b010 => Some(StoreOp::Sw),
            _ => None,
        }
    }

    /// Access width in bytes.
    #[must_use]
    pub const fn bytes(self) -> u32 {
        match self {
            StoreOp::Sb => 1,
            StoreOp::Sh => 2,
            StoreOp::Sw => 4,
        }
    }

    /// Assembler mnemonic.
    #[must_use]
    pub const fn mnemonic(self) -> &'static str {
        match self {
            StoreOp::Sb => "sb",
            StoreOp::Sh => "sh",
            StoreOp::Sw => "sw",
        }
    }
}

/// Register-register and register-immediate ALU operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition (`add`/`addi`).
    Add,
    /// Subtraction (`sub`; register form only).
    Sub,
    /// Logical shift left.
    Sll,
    /// Set if less than, signed.
    Slt,
    /// Set if less than, unsigned.
    Sltu,
    /// Bitwise exclusive or.
    Xor,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// Bitwise or.
    Or,
    /// Bitwise and.
    And,
}

impl AluOp {
    /// Evaluates the operation.
    #[must_use]
    pub const fn eval(self, a: u32, b: u32) -> u32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Sll => a.wrapping_shl(b & 0x1F),
            AluOp::Slt => ((a as i32) < (b as i32)) as u32,
            AluOp::Sltu => (a < b) as u32,
            AluOp::Xor => a ^ b,
            AluOp::Srl => a.wrapping_shr(b & 0x1F),
            AluOp::Sra => ((a as i32).wrapping_shr(b & 0x1F)) as u32,
            AluOp::Or => a | b,
            AluOp::And => a & b,
        }
    }

    /// funct3 for the OP/OP-IMM encodings.
    #[must_use]
    pub const fn funct3(self) -> u32 {
        match self {
            AluOp::Add | AluOp::Sub => 0b000,
            AluOp::Sll => 0b001,
            AluOp::Slt => 0b010,
            AluOp::Sltu => 0b011,
            AluOp::Xor => 0b100,
            AluOp::Srl | AluOp::Sra => 0b101,
            AluOp::Or => 0b110,
            AluOp::And => 0b111,
        }
    }

    /// Register-form mnemonic (`add`, `sub`, …).
    #[must_use]
    pub const fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Sll => "sll",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Xor => "xor",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Or => "or",
            AluOp::And => "and",
        }
    }
}

/// RV32M multiply/divide operations (`funct3` with `funct7 = 0000001`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum MulOp {
    /// `mul`: low 32 bits of the product.
    Mul = 0b000,
    /// `mulh`: high 32 bits of signed*signed.
    Mulh = 0b001,
    /// `mulhsu`: high 32 bits of signed*unsigned.
    Mulhsu = 0b010,
    /// `mulhu`: high 32 bits of unsigned*unsigned.
    Mulhu = 0b011,
    /// `div`: signed division.
    Div = 0b100,
    /// `divu`: unsigned division.
    Divu = 0b101,
    /// `rem`: signed remainder.
    Rem = 0b110,
    /// `remu`: unsigned remainder.
    Remu = 0b111,
}

impl MulOp {
    /// Decodes a funct3 field.
    #[must_use]
    pub const fn from_funct3(f3: u32) -> Option<MulOp> {
        match f3 {
            0b000 => Some(MulOp::Mul),
            0b001 => Some(MulOp::Mulh),
            0b010 => Some(MulOp::Mulhsu),
            0b011 => Some(MulOp::Mulhu),
            0b100 => Some(MulOp::Div),
            0b101 => Some(MulOp::Divu),
            0b110 => Some(MulOp::Rem),
            0b111 => Some(MulOp::Remu),
            _ => None,
        }
    }

    /// Evaluates the operation with RISC-V division-by-zero and overflow
    /// semantics (no trap; defined result values).
    #[must_use]
    pub const fn eval(self, a: u32, b: u32) -> u32 {
        match self {
            MulOp::Mul => a.wrapping_mul(b),
            MulOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
            MulOp::Mulhsu => (((a as i32 as i64) * (b as u64 as i64)) >> 32) as u32,
            MulOp::Mulhu => (((a as u64) * (b as u64)) >> 32) as u32,
            MulOp::Div => {
                if b == 0 {
                    u32::MAX
                } else if a == 0x8000_0000 && b == u32::MAX {
                    a
                } else {
                    ((a as i32) / (b as i32)) as u32
                }
            }
            MulOp::Divu => match a.checked_div(b) {
                Some(q) => q,
                None => u32::MAX,
            },
            MulOp::Rem => {
                if b == 0 {
                    a
                } else if a == 0x8000_0000 && b == u32::MAX {
                    0
                } else {
                    ((a as i32) % (b as i32)) as u32
                }
            }
            MulOp::Remu => match a.checked_rem(b) {
                Some(r) => r,
                None => a,
            },
        }
    }

    /// Assembler mnemonic.
    #[must_use]
    pub const fn mnemonic(self) -> &'static str {
        match self {
            MulOp::Mul => "mul",
            MulOp::Mulh => "mulh",
            MulOp::Mulhsu => "mulhsu",
            MulOp::Mulhu => "mulhu",
            MulOp::Div => "div",
            MulOp::Divu => "divu",
            MulOp::Rem => "rem",
            MulOp::Remu => "remu",
        }
    }
}

/// CSR access operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CsrOp {
    /// Atomic read/write.
    Rw,
    /// Atomic read and set bits.
    Rs,
    /// Atomic read and clear bits.
    Rc,
}

/// Source operand of a CSR instruction: a register or a 5-bit immediate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CsrSrc {
    /// Register form (`csrrw` etc.).
    Reg(Reg),
    /// Immediate form (`csrrwi` etc.), zero-extended 5-bit value.
    Imm(u8),
}

/// A decoded instruction.
///
/// Immediates are stored in *semantic* form: branch/jump offsets are byte
/// offsets relative to the instruction's own address; `Lui`/`Auipc` store
/// the raw 20-bit upper-immediate field.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Insn {
    /// `lui rd, imm20`: load upper immediate (`rd = imm20 << 12`).
    Lui {
        /// Destination register.
        rd: Reg,
        /// Upper 20-bit immediate field (`0..2^20`).
        imm20: u32,
    },
    /// `auipc rd, imm20`: `rd = pc + (imm20 << 12)`.
    Auipc {
        /// Destination register.
        rd: Reg,
        /// Upper 20-bit immediate field (`0..2^20`).
        imm20: u32,
    },
    /// `jal rd, offset`: jump and link.
    Jal {
        /// Link register.
        rd: Reg,
        /// Byte offset from this instruction, even, within ±1 MiB.
        offset: i32,
    },
    /// `jalr rd, offset(rs1)`: indirect jump and link.
    Jalr {
        /// Link register.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Byte offset added to `rs1`.
        offset: i32,
    },
    /// Conditional branch.
    Branch {
        /// Condition.
        cond: Cond,
        /// First comparand.
        rs1: Reg,
        /// Second comparand.
        rs2: Reg,
        /// Byte offset from this instruction, even, within ±4 KiB.
        offset: i32,
    },
    /// Memory load.
    Load {
        /// Width/signedness.
        op: LoadOp,
        /// Destination register.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Byte offset.
        offset: i32,
    },
    /// Memory store.
    Store {
        /// Width.
        op: StoreOp,
        /// Value register.
        rs2: Reg,
        /// Base register.
        rs1: Reg,
        /// Byte offset.
        offset: i32,
    },
    /// Register-immediate ALU operation (`addi`, `slti`, shifts, …).
    /// `Sub` is not valid here.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Sign-extended 12-bit immediate (shift amount for shifts).
        imm: i32,
    },
    /// Register-register ALU operation.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// RV32M multiply/divide.
    MulDiv {
        /// Operation.
        op: MulOp,
        /// Destination register.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// CSR read-modify-write.
    Csr {
        /// Operation.
        op: CsrOp,
        /// Destination register (receives the old CSR value).
        rd: Reg,
        /// CSR address (12 bits).
        csr: u16,
        /// Source operand.
        src: CsrSrc,
    },
    /// `ecall`: environment call (traps).
    Ecall,
    /// `ebreak`: breakpoint (traps).
    Ebreak,
    /// `mret`: return from a baseline (non-Metal) trap handler.
    Mret,
    /// `wfi`: wait for interrupt.
    Wfi,
    /// `fence`: memory ordering; a no-op in this in-order model.
    Fence,
    /// `menter rs1, entry`: enter Metal mode (paper Table 1).
    Menter {
        /// Entry-number register (used when `entry == MENTER_INDIRECT`).
        rs1: Reg,
        /// Immediate entry number, or [`crate::metal::MENTER_INDIRECT`].
        entry: u32,
    },
    /// `mexit`: leave Metal mode, resume at the address in `m31`.
    Mexit,
    /// `rmr rd, idx`: read Metal register / control register.
    Rmr {
        /// Destination GPR.
        rd: Reg,
        /// Metal register or MCR index.
        idx: MregIdx,
    },
    /// `wmr rs1, idx`: write Metal register / control register.
    Wmr {
        /// Source GPR.
        rs1: Reg,
        /// Metal register or MCR index.
        idx: MregIdx,
    },
    /// `mld rd, offset(rs1)`: load a word from the MRAM data segment.
    Mld {
        /// Destination GPR.
        rd: Reg,
        /// Base register (MRAM data-segment offset).
        rs1: Reg,
        /// Additional byte offset.
        offset: i32,
    },
    /// `mst rs2, offset(rs1)`: store a word to the MRAM data segment.
    Mst {
        /// Value register.
        rs2: Reg,
        /// Base register (MRAM data-segment offset).
        rs1: Reg,
        /// Additional byte offset.
        offset: i32,
    },
    /// Architectural-feature operation (Metal mode only).
    March {
        /// Sub-operation.
        op: MarchOp,
        /// Destination register (for `mpld`, `mtlbp`, `mipend`).
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
}

impl Insn {
    /// A canonical no-op (`addi x0, x0, 0`).
    pub const NOP: Insn = Insn::AluImm {
        op: AluOp::Add,
        rd: Reg::ZERO,
        rs1: Reg::ZERO,
        imm: 0,
    };

    /// The destination register written by this instruction, if any.
    /// `x0` destinations are reported as `None` (writes to `x0` are
    /// discarded, so nothing depends on them).
    #[must_use]
    pub fn dest(&self) -> Option<Reg> {
        let rd = match *self {
            Insn::Lui { rd, .. }
            | Insn::Auipc { rd, .. }
            | Insn::Jal { rd, .. }
            | Insn::Jalr { rd, .. }
            | Insn::Load { rd, .. }
            | Insn::AluImm { rd, .. }
            | Insn::Alu { rd, .. }
            | Insn::MulDiv { rd, .. }
            | Insn::Csr { rd, .. }
            | Insn::Rmr { rd, .. }
            | Insn::Mld { rd, .. } => rd,
            Insn::March {
                op: MarchOp::Mpld | MarchOp::Mtlbp | MarchOp::Mipend | MarchOp::Mscrub,
                rd,
                ..
            } => rd,
            _ => return None,
        };
        (rd != Reg::ZERO).then_some(rd)
    }

    /// The GPRs read by this instruction (up to two).
    #[must_use]
    pub fn sources(&self) -> [Option<Reg>; 2] {
        fn nz(r: Reg) -> Option<Reg> {
            (r != Reg::ZERO).then_some(r)
        }
        match *self {
            Insn::Jalr { rs1, .. }
            | Insn::Load { rs1, .. }
            | Insn::AluImm { rs1, .. }
            | Insn::Wmr { rs1, .. }
            | Insn::Mld { rs1, .. }
            | Insn::Menter { rs1, .. } => [nz(rs1), None],
            Insn::Branch { rs1, rs2, .. }
            | Insn::Store { rs1, rs2, .. }
            | Insn::Alu { rs1, rs2, .. }
            | Insn::MulDiv { rs1, rs2, .. }
            | Insn::Mst { rs1, rs2, .. } => [nz(rs1), nz(rs2)],
            Insn::Csr { src, .. } => match src {
                CsrSrc::Reg(rs1) => [nz(rs1), None],
                CsrSrc::Imm(_) => [None, None],
            },
            Insn::March { op, rs1, rs2, .. } => match op {
                MarchOp::Mpld
                | MarchOp::Mtlbi
                | MarchOp::Mtlbp
                | MarchOp::Masid
                | MarchOp::Miack
                | MarchOp::Mlayer => [nz(rs1), None],
                MarchOp::Mpst | MarchOp::Mtlbw | MarchOp::Mpkey | MarchOp::Mintercept => {
                    [nz(rs1), nz(rs2)]
                }
                MarchOp::Mipend | MarchOp::Mtlbiall | MarchOp::Mscrub => [None, None],
            },
            _ => [None, None],
        }
    }

    /// True if this instruction can redirect control flow.
    #[must_use]
    pub fn is_control_flow(&self) -> bool {
        matches!(
            self,
            Insn::Jal { .. }
                | Insn::Jalr { .. }
                | Insn::Branch { .. }
                | Insn::Ecall
                | Insn::Ebreak
                | Insn::Mret
                | Insn::Menter { .. }
                | Insn::Mexit
        )
    }

    /// True if this is a Metal-extension instruction (any `funct3` of the
    /// custom-0 opcode).
    #[must_use]
    pub fn is_metal(&self) -> bool {
        matches!(
            self,
            Insn::Menter { .. }
                | Insn::Mexit
                | Insn::Rmr { .. }
                | Insn::Wmr { .. }
                | Insn::Mld { .. }
                | Insn::Mst { .. }
                | Insn::March { .. }
        )
    }

    /// True if this Metal instruction is legal *only* in Metal mode
    /// (everything except `menter`, per paper Table 1).
    #[must_use]
    pub fn metal_mode_only(&self) -> bool {
        self.is_metal() && !matches!(self, Insn::Menter { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_eval() {
        assert!(Cond::Eq.eval(5, 5));
        assert!(Cond::Ne.eval(5, 6));
        assert!(Cond::Lt.eval(-1i32 as u32, 0));
        assert!(!Cond::Ltu.eval(-1i32 as u32, 0));
        assert!(Cond::Ge.eval(0, -1i32 as u32));
        assert!(Cond::Geu.eval(-1i32 as u32, 0));
    }

    #[test]
    fn alu_eval_shifts_mask_amount() {
        assert_eq!(AluOp::Sll.eval(1, 33), 2);
        assert_eq!(AluOp::Srl.eval(0x8000_0000, 31), 1);
        assert_eq!(AluOp::Sra.eval(0x8000_0000, 31), 0xFFFF_FFFF);
    }

    #[test]
    fn muldiv_riscv_edge_semantics() {
        assert_eq!(MulOp::Div.eval(7, 0), u32::MAX);
        assert_eq!(MulOp::Rem.eval(7, 0), 7);
        assert_eq!(MulOp::Div.eval(0x8000_0000, u32::MAX), 0x8000_0000);
        assert_eq!(MulOp::Rem.eval(0x8000_0000, u32::MAX), 0);
        assert_eq!(MulOp::Mulh.eval(0x8000_0000, 2), 0xFFFF_FFFF);
        assert_eq!(MulOp::Mulhu.eval(0x8000_0000, 2), 1);
    }

    #[test]
    fn dest_ignores_x0() {
        let insn = Insn::AluImm {
            op: AluOp::Add,
            rd: Reg::ZERO,
            rs1: Reg::A0,
            imm: 1,
        };
        assert_eq!(insn.dest(), None);
        assert_eq!(Insn::NOP.dest(), None);
    }

    #[test]
    fn sources_of_store() {
        let insn = Insn::Store {
            op: StoreOp::Sw,
            rs2: Reg::A1,
            rs1: Reg::SP,
            offset: 4,
        };
        assert_eq!(insn.sources(), [Some(Reg::SP), Some(Reg::A1)]);
    }

    #[test]
    fn metal_mode_only_excludes_menter() {
        let menter = Insn::Menter {
            rs1: Reg::ZERO,
            entry: 3,
        };
        assert!(menter.is_metal());
        assert!(!menter.metal_mode_only());
        assert!(Insn::Mexit.metal_mode_only());
    }

    #[test]
    fn march_dest_only_for_value_producing_ops() {
        let tlbw = Insn::March {
            op: MarchOp::Mtlbw,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        assert_eq!(tlbw.dest(), None);
        let pld = Insn::March {
            op: MarchOp::Mpld,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::ZERO,
        };
        assert_eq!(pld.dest(), Some(Reg::A0));
    }
}
