//! Functional reference interpreter (instruction-set simulator).
//!
//! Executes one instruction per step with no pipeline timing. It shares
//! [`MachineState`] and the [`Hooks`] interface with the pipelined core,
//! so the two can run the same program side by side; the differential
//! property tests assert architectural-state equality.

use crate::engine::Engine;
use crate::hooks::{resolve_decode, DecodeStage, Hooks, NoHooks};
use crate::state::{CoreConfig, HaltReason, MachineState};
use crate::trap::{Trap, TrapCause};
use metal_isa::insn::{CsrSrc, Insn};
use metal_isa::reg::Reg;
use metal_isa::DecodedInsn;
use metal_trace::EventKind;

/// The reference interpreter.
pub struct Interp<H: Hooks = NoHooks> {
    /// Shared machine state.
    pub state: MachineState,
    /// Extension hooks.
    pub hooks: H,
    /// Architectural PC.
    pc: u32,
}

impl<H: Hooks> Engine for Interp<H> {
    type Hooks = H;

    fn new(config: CoreConfig, hooks: H) -> Interp<H> {
        Interp {
            state: MachineState::new(&config),
            hooks,
            pc: 0,
        }
    }

    fn name() -> &'static str {
        "interp"
    }

    fn state(&self) -> &MachineState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut MachineState {
        &mut self.state
    }

    fn hooks(&self) -> &H {
        &self.hooks
    }

    fn hooks_mut(&mut self) -> &mut H {
        &mut self.hooks
    }

    fn pc(&self) -> u32 {
        self.pc
    }

    fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// Executes one instruction (or takes one trap).
    fn step(&mut self) {
        if self.state.halted.is_some() {
            return;
        }
        // One "cycle" per step so devices make progress.
        self.state.perf.cycles += 1;
        let cycle = self.state.perf.cycles;
        self.state.trace.set_now(cycle);
        self.state.perf.mip_snapshot = self.state.bus.tick(cycle);

        if let Some(line) = self.state.pending_interrupt(&self.hooks) {
            self.handle_trap(Trap::new(TrapCause::Interrupt(line), 0), self.pc);
            return;
        }

        let pc = self.pc;
        // Fetch pre-decoded: the decode cache (or the extension's MRAM)
        // has already paid the word→Insn cost at most once per word.
        let fetched = self.hooks.fetch_decoded(&mut self.state, pc);
        let decoded = match fetched.unwrap_or_else(|| self.state.fetch_decoded(pc)) {
            Ok((decoded, _)) => decoded,
            Err(trap) => return self.handle_trap(trap, pc),
        };
        resolve_decode(self, pc, decoded);
    }

    /// The interpreter treats `wfi` as a NOP, so it never sleeps.
    fn is_waiting(&self) -> bool {
        false
    }

    /// The interpreter has no in-flight state: every point is quiescent.
    fn is_quiescent(&self) -> bool {
        true
    }
}

impl<H: Hooks> Interp<H> {
    fn handle_trap(&mut self, trap: Trap, pc: u32) {
        if let Some((target, _)) = self.state.enter_trap(&mut self.hooks, trap, pc) {
            self.pc = target;
        }
    }

    fn exec(&mut self, pc: u32, word: u32, insn: Insn) {
        let regs = &self.state.regs;
        let fallthrough = pc.wrapping_add(4);
        match insn {
            Insn::Lui { rd, imm20 } => {
                self.retire_wb(pc, rd, imm20 << 12, fallthrough);
            }
            Insn::Auipc { rd, imm20 } => {
                self.retire_wb(pc, rd, pc.wrapping_add(imm20 << 12), fallthrough);
            }
            Insn::AluImm { op, rd, rs1, imm } => {
                let v = op.eval(regs.get(rs1), imm as u32);
                self.retire_wb(pc, rd, v, fallthrough);
            }
            Insn::Alu { op, rd, rs1, rs2 } => {
                let v = op.eval(regs.get(rs1), regs.get(rs2));
                self.retire_wb(pc, rd, v, fallthrough);
            }
            Insn::MulDiv { op, rd, rs1, rs2 } => {
                let v = op.eval(regs.get(rs1), regs.get(rs2));
                self.retire_wb(pc, rd, v, fallthrough);
            }
            Insn::Jal { rd, offset } => {
                let target = pc.wrapping_add(offset as u32);
                self.retire_wb(pc, rd, fallthrough, target);
            }
            Insn::Jalr { rd, rs1, offset } => {
                let target = regs.get(rs1).wrapping_add(offset as u32) & !1;
                self.retire_wb(pc, rd, fallthrough, target);
            }
            Insn::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let taken = cond.eval(regs.get(rs1), regs.get(rs2));
                let next = if taken {
                    pc.wrapping_add(offset as u32)
                } else {
                    fallthrough
                };
                self.retire(pc, next);
            }
            Insn::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let addr = regs.get(rs1).wrapping_add(offset as u32);
                match self.state.load(addr, op) {
                    Ok((v, _)) => self.retire_wb(pc, rd, v, fallthrough),
                    Err(trap) => self.handle_trap(trap, pc),
                }
            }
            Insn::Store {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let addr = regs.get(rs1).wrapping_add(offset as u32);
                let value = regs.get(rs2);
                match self.state.store(addr, op, value) {
                    Ok(_) => self.retire(pc, fallthrough),
                    Err(trap) => self.handle_trap(trap, pc),
                }
            }
            Insn::Csr {
                op,
                rd,
                csr: addr,
                src,
            } => {
                let operand = match src {
                    CsrSrc::Reg(r) => regs.get(r),
                    CsrSrc::Imm(i) => u32::from(i),
                };
                match self.state.csr_rmw(op, addr, operand, word) {
                    Ok(old) => self.retire_wb(pc, rd, old, fallthrough),
                    Err(trap) => self.handle_trap(trap, pc),
                }
            }
            Insn::Ecall => self.handle_trap(Trap::new(TrapCause::Ecall, 0), pc),
            Insn::Ebreak => {
                self.state.halted = Some(HaltReason::Ebreak {
                    code: self.state.regs.get(Reg::A0),
                });
            }
            Insn::Mret => {
                let target = self.state.mret();
                self.retire(pc, target);
            }
            Insn::Wfi | Insn::Fence => {
                // The interpreter has no pipeline to idle; WFI is a NOP
                // (excluded from differential tests).
                self.retire(pc, fallthrough);
            }
            // Metal instructions: delegate to the hooks (illegal under
            // NoHooks).
            other => {
                let [s1, s2] = other.sources();
                let rs1 = s1.map_or(0, |r| self.state.regs.get(r));
                let rs2 = s2.map_or(0, |r| self.state.regs.get(r));
                match self
                    .hooks
                    .exec_custom(&mut self.state, pc, word, &other, rs1, rs2)
                {
                    Ok(result) => {
                        if let (Some(rd), Some(v)) = (other.dest(), result.writeback) {
                            self.state.regs.set(rd, v);
                        }
                        self.retire(pc, fallthrough);
                    }
                    Err(trap) => self.handle_trap(trap, pc),
                }
            }
        }
    }

    fn retire_wb(&mut self, pc: u32, rd: Reg, value: u32, next: u32) {
        self.state.regs.set(rd, value);
        self.retire(pc, next);
    }

    fn retire(&mut self, pc: u32, next: u32) {
        self.state.perf.instret += 1;
        self.state.trace.emit(EventKind::Retire { pc });
        self.pc = next;
    }
}

impl<H: Hooks> DecodeStage<H> for Interp<H> {
    fn parts(&mut self) -> (&mut H, &mut MachineState) {
        (&mut self.hooks, &mut self.state)
    }

    fn pass(&mut self, pc: u32, decoded: DecodedInsn, _stall: u32) {
        self.exec(pc, decoded.word, decoded.insn);
    }

    fn fault(&mut self, pc: u32, _decoded: DecodedInsn, trap: Trap) {
        self.handle_trap(trap, pc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metal_isa::encode;
    use metal_isa::insn::AluOp;

    fn program(words: &[u32]) -> Interp {
        let mut interp = Interp::new(CoreConfig::default(), NoHooks);
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        interp.load_segments([(0u32, bytes.as_slice())], 0);
        interp
    }

    #[test]
    fn add_loop_halts() {
        // li a0, 0; li a1, 10; loop: addi a0, a0, 1; bne a0, a1, loop; ebreak
        let words = [
            encode(&Insn::AluImm {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::ZERO,
                imm: 0,
            }),
            encode(&Insn::AluImm {
                op: AluOp::Add,
                rd: Reg::A1,
                rs1: Reg::ZERO,
                imm: 10,
            }),
            encode(&Insn::AluImm {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::A0,
                imm: 1,
            }),
            encode(&Insn::Branch {
                cond: metal_isa::insn::Cond::Ne,
                rs1: Reg::A0,
                rs2: Reg::A1,
                offset: -4,
            }),
            encode(&Insn::Ebreak),
        ];
        let mut interp = program(&words);
        let halt = interp.run(1000);
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 10 }));
        assert_eq!(interp.state.regs.get(Reg::A0), 10);
    }

    #[test]
    fn ecall_vectors_to_mtvec() {
        let words = [
            encode(&Insn::Ecall),
            encode(&Insn::NOP),
            // handler at 0x8:
            encode(&Insn::Ebreak),
        ];
        let mut interp = program(&words);
        interp.state.csr.mtvec = 8;
        let halt = interp.run(10);
        assert_eq!(halt, Some(HaltReason::Ebreak { code: 0 }));
        assert_eq!(interp.state.csr.mepc, 0);
        assert_eq!(interp.state.csr.mcause, TrapCause::Ecall.code());
    }

    #[test]
    fn illegal_instruction_traps() {
        let mut interp = program(&[0xFFFF_FFFF, 0, encode(&Insn::Ebreak)]);
        interp.state.csr.mtvec = 8;
        interp.run(10);
        assert_eq!(
            interp.state.csr.mcause,
            TrapCause::IllegalInstruction.code()
        );
        assert_eq!(interp.state.csr.mtval, 0xFFFF_FFFF);
    }
}
