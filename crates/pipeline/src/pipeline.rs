//! The 5-stage in-order pipeline: IF, ID, EX, MEM, WB.
//!
//! Classic organization, cycle-ticked with explicit inter-stage latches:
//!
//! * **Forwarding**: stages are evaluated oldest-first within a tick, so
//!   the value produced by the instruction one ahead (in MEM this tick)
//!   is forwarded from the MEM/WB latch; older results are already in
//!   the register file. This is timing-equivalent to the textbook
//!   EX/MEM + MEM/WB forwarding network.
//! * **Load-use hazard**: detected in ID against the load executing in
//!   EX; one bubble.
//! * **Control flow**: branches and jumps resolve in EX; taken redirects
//!   flush the two younger slots (2-cycle penalty).
//! * **Variable latency**: I-fetch, data access, and multi-cycle EX
//!   (mul/div) hold their stage and stall upstream stages.
//! * **Extension hooks**: fetch/decode/execute/trap hook calls at the
//!   exact attachment points Metal needs (see [`crate::hooks::Hooks`]).
//!   The `menter`/`mexit` decode-stage replacement (paper §2.2) is the
//!   [`DecodeOutcome::Replace`](crate::hooks::DecodeOutcome::Replace)
//!   path: the decode slot is rewritten in place and fetch is
//!   redirected with *zero* bubbles when the replacement source is
//!   1-cycle (MRAM).

use crate::engine::Engine;
use crate::hooks::{resolve_decode, DecodeStage, Hooks};
use crate::state::{CoreConfig, HaltReason, MachineState};
use crate::trap::{Trap, TrapCause};
use metal_isa::insn::{CsrSrc, Insn, MulOp};
use metal_isa::reg::Reg;
use metal_isa::{decode_to, DecodedInsn};
use metal_trace::{EventKind, StallKind, TraceHandle};

/// Extra EX cycles of a `mul*`.
const MUL_LATENCY: u32 = 2;
/// Extra EX cycles of a `div*`/`rem*`.
const DIV_LATENCY: u32 = 16;

/// IF → ID and ID → EX latch. Fetch delivers instructions pre-decoded
/// (the decode cache does the word→[`DecodedInsn`] work at most once per
/// word); ID keeps only the hazard checks and the extension decode hook.
#[derive(Clone, Copy, Debug)]
struct Slot {
    pc: u32,
    decoded: DecodedInsn,
    fault: Option<Trap>,
}

/// EX → MEM latch.
#[derive(Clone, Copy, Debug)]
struct ExMem {
    pc: u32,
    decoded: DecodedInsn,
    /// Memory address for loads/stores; writeback value otherwise.
    value: u32,
    /// Store data (resolved in EX).
    store_val: u32,
}

/// MEM → WB latch.
#[derive(Clone, Copy, Debug)]
struct MemWb {
    pc: u32,
    rd: Option<Reg>,
    value: u32,
}

/// One stage boundary: the latch the producing stage hands on, and the
/// cycles that stage still needs before the next stage may take it.
/// A latched value stays in place (and injectable) while `busy > 0`.
struct Stage<T> {
    latch: Option<T>,
    busy: u32,
}

impl<T> Stage<T> {
    const EMPTY: Stage<T> = Stage {
        latch: None,
        busy: 0,
    };

    /// The latched value, once the producing stage has finished it.
    fn ready(&self) -> Option<&T> {
        self.latch.as_ref().filter(|_| self.busy == 0)
    }

    /// Takes the latched value, once the producing stage has finished it.
    fn take_ready(&mut self) -> Option<T> {
        if self.busy == 0 {
            self.latch.take()
        } else {
            None
        }
    }

    /// Latches `value`, ready after `extra` more cycles.
    fn put(&mut self, value: T, extra: u32, trace: &TraceHandle, kind: StallKind) {
        self.latch = Some(value);
        self.hold(extra, trace, kind);
    }

    /// Keeps the stage busy for `cycles` (emitting a `kind` stall event
    /// when `cycles > 0`).
    fn hold(&mut self, cycles: u32, trace: &TraceHandle, kind: StallKind) {
        self.busy = cycles;
        if cycles > 0 {
            trace.emit(EventKind::Stall { kind, cycles });
        }
    }

    /// Spends one busy cycle, charging it to `stalls`. Returns false
    /// (and does nothing) when the stage is not busy.
    fn count_down(&mut self, stalls: &mut u64) -> bool {
        if self.busy == 0 {
            return false;
        }
        self.busy -= 1;
        *stalls += 1;
        true
    }

    fn is_empty(&self) -> bool {
        self.latch.is_none() && self.busy == 0
    }
}

/// The pipelined core, generic over the extension hooks.
pub struct Core<H: Hooks> {
    /// Shared machine state (registers, memory system, CSRs, counters).
    pub state: MachineState,
    /// The ISA extension (Metal, or [`crate::hooks::NoHooks`]).
    pub hooks: H,
    pc: u32,
    if_id: Stage<Slot>,
    id_ex: Stage<Slot>,
    ex_mem: Stage<ExMem>,
    mem_wb: Stage<MemWb>,
    wfi: bool,
}

impl<H: Hooks> Engine for Core<H> {
    type Hooks = H;

    fn new(config: CoreConfig, hooks: H) -> Core<H> {
        Core {
            state: MachineState::new(&config),
            hooks,
            pc: 0,
            if_id: Stage::EMPTY,
            id_ex: Stage::EMPTY,
            ex_mem: Stage::EMPTY,
            mem_wb: Stage::EMPTY,
            wfi: false,
        }
    }

    fn name() -> &'static str {
        "pipeline"
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
        self.if_id = Stage::EMPTY;
        self.id_ex = Stage::EMPTY;
        self.ex_mem = Stage::EMPTY;
        self.mem_wb = Stage::EMPTY;
        self.wfi = false;
    }

    /// One pipeline tick: WB, MEM, EX, ID, IF, oldest first.
    fn step(&mut self) {
        if self.state.halted.is_some() {
            return;
        }
        self.state.perf.cycles += 1;
        let cycle = self.state.perf.cycles;
        self.state.trace.set_now(cycle);
        self.state.perf.mip_snapshot = self.state.bus.tick(cycle);

        // Snapshot for load-use hazard detection: the instruction that
        // executes in EX *this* tick.
        let ex_load_rd = self
            .id_ex
            .ready()
            .and_then(|d| d.decoded.dest.filter(|_| d.decoded.tag.is_load()));

        // ---------------- WB ----------------
        if let Some(wb) = self.mem_wb.take_ready() {
            if let Some(rd) = wb.rd {
                self.state.regs.set(rd, wb.value);
            }
            self.state.perf.instret += 1;
            self.state.trace.emit(EventKind::Retire { pc: wb.pc });
        }

        // ---------------- MEM ----------------
        let mut flushed = false;
        let mem_in = if self.mem_wb.count_down(&mut self.state.perf.mem_stall) {
            None
        } else {
            self.ex_mem.take_ready()
        };
        if let Some(xm) = mem_in {
            match self.run_mem(&xm) {
                Ok((value, extra)) => {
                    let latch = MemWb {
                        pc: xm.pc,
                        rd: xm.decoded.dest,
                        value,
                    };
                    self.mem_wb
                        .put(latch, extra, &self.state.trace, StallKind::Mem);
                }
                Err(trap) => {
                    self.take_trap(trap, xm.pc);
                    flushed = true;
                }
            }
        }

        // ---------------- EX ----------------
        if !flushed
            && !self.ex_mem.count_down(&mut self.state.perf.ex_stall)
            && self.mem_wb.busy == 0
            && self.ex_mem.latch.is_none()
        {
            if let Some(d) = self.id_ex.take_ready() {
                flushed = self.run_ex(d);
            }
        }

        // ---------------- ID ----------------
        if !flushed
            && !self.id_ex.count_down(&mut self.state.perf.fetch_stall)
            && self.id_ex.latch.is_none()
        {
            if let Some(&f) = self.if_id.ready() {
                self.run_id(f, ex_load_rd);
            }
        }

        // ---------------- IF ----------------
        if !flushed {
            self.run_if();
        }
    }

    fn is_waiting(&self) -> bool {
        self.wfi
    }

    /// True when no live instruction is in flight: every inter-stage
    /// latch is empty and no stage is mid-way through a multi-cycle
    /// access. A halted core always qualifies — anything still latched
    /// behind the halting instruction is abandoned, never resumed, and
    /// invisible to a snapshot/restore cycle. Snapshots of the
    /// pipelined core are only faithful at such points (see
    /// [`crate::engine::EngineSnapshot`]).
    fn is_quiescent(&self) -> bool {
        self.state.halted.is_some()
            || self.if_id.is_empty()
                && self.id_ex.is_empty()
                && self.ex_mem.is_empty()
                && self.mem_wb.is_empty()
    }

    /// Flips one bit in an occupied inter-stage latch (fault-injection
    /// harness), including a latch whose producing stage is still busy
    /// (a multi-cycle fetch, decode stall, mul/div or data access).
    /// `stage`: 0 = IF/ID, 1 = ID/EX, 2 = EX/MEM, 3 = MEM/WB. Bits 0–31
    /// hit the in-flight instruction word (IF/ID, ID/EX, which
    /// re-decode) or the latched data word (EX/MEM: the load/store
    /// address or the result to write back; MEM/WB: the writeback
    /// value); bits 32–63 hit the latched PC. Returns `false` when the
    /// latch is empty — an injection into a bubble is architecturally
    /// masked by construction.
    fn inject_latch_bit(&mut self, stage: u8, bit: u8) -> bool {
        let mask = 1u32 << (bit & 31);
        let on_pc = bit & 32 != 0;
        let flip = |pc: &mut u32, word: &mut u32| *if on_pc { pc } else { word } ^= mask;
        match stage & 3 {
            0 | 1 => {
                let stage = if stage & 3 == 0 {
                    &mut self.if_id
                } else {
                    &mut self.id_ex
                };
                stage.latch.as_mut().map(|l| {
                    if on_pc {
                        l.pc ^= mask;
                    } else {
                        l.decoded = decode_to(l.decoded.word ^ mask);
                    }
                })
            }
            2 => self
                .ex_mem
                .latch
                .as_mut()
                .map(|l| flip(&mut l.pc, &mut l.value)),
            _ => self
                .mem_wb
                .latch
                .as_mut()
                .map(|l| flip(&mut l.pc, &mut l.value)),
        }
        .is_some()
    }
}

impl<H: Hooks> Core<H> {
    /// Redirects fetch from EX or a trap, squashing IF and ID.
    fn flush_for_redirect(&mut self, target: u32) {
        self.pc = target;
        self.if_id = Stage::EMPTY;
        self.id_ex = Stage::EMPTY;
        self.state.perf.flush_cycles += 2;
        self.state.trace.emit(EventKind::Flush { target });
    }

    /// Takes a trap whose faulting/interrupted PC is `pc`.
    fn take_trap(&mut self, trap: Trap, pc: u32) {
        match self.state.enter_trap(&mut self.hooks, trap, pc) {
            Some((target, stall)) => {
                self.flush_for_redirect(target);
                // ID counts the delegation stall down with an empty latch.
                self.id_ex.hold(stall, &self.state.trace, StallKind::Decode);
            }
            None => {
                // Squash everything younger than the trap point.
                self.if_id = Stage::EMPTY;
                self.id_ex.latch = None;
            }
        }
    }

    /// Forwards a register read at EX: the youngest completed value wins
    /// (MEM/WB latch, then the register file).
    fn forward(&self, r: Reg) -> u32 {
        if r == Reg::ZERO {
            return 0;
        }
        match &self.mem_wb.latch {
            Some(wb) if wb.rd == Some(r) => wb.value,
            _ => self.state.regs.get(r),
        }
    }

    /// MEM-stage work: data access for loads/stores, pass-through
    /// otherwise. Returns (writeback value, extra hold cycles).
    fn run_mem(&mut self, xm: &ExMem) -> Result<(u32, u32), Trap> {
        match xm.decoded.insn {
            Insn::Load { op, .. } => {
                let (value, lat) = self.state.load(xm.value, op)?;
                Ok((value, lat.saturating_sub(1)))
            }
            Insn::Store { op, .. } => {
                let lat = self.state.store(xm.value, op, xm.store_val)?;
                Ok((0, lat.saturating_sub(1)))
            }
            _ => Ok((xm.value, 0)),
        }
    }

    /// EX-stage work. Returns true if the pipeline was flushed (trap or
    /// redirect).
    #[allow(clippy::too_many_lines)]
    fn run_ex(&mut self, d: Slot) -> bool {
        if let Some(trap) = d.fault {
            self.take_trap(trap, d.pc);
            return true;
        }
        let push = |core: &mut Core<H>, value: u32, store_val: u32, extra: u32| {
            let latch = ExMem {
                pc: d.pc,
                decoded: d.decoded,
                value,
                store_val,
            };
            core.ex_mem
                .put(latch, extra, &core.state.trace, StallKind::Ex);
        };
        match d.decoded.insn {
            Insn::Lui { imm20, .. } => {
                push(self, imm20 << 12, 0, 0);
            }
            Insn::Auipc { imm20, .. } => {
                push(self, d.pc.wrapping_add(imm20 << 12), 0, 0);
            }
            Insn::AluImm { op, rs1, imm, .. } => {
                let v = op.eval(self.forward(rs1), imm as u32);
                push(self, v, 0, 0);
            }
            Insn::Alu { op, rs1, rs2, .. } => {
                let v = op.eval(self.forward(rs1), self.forward(rs2));
                push(self, v, 0, 0);
            }
            Insn::MulDiv { op, rs1, rs2, .. } => {
                let v = op.eval(self.forward(rs1), self.forward(rs2));
                let extra = match op {
                    MulOp::Mul | MulOp::Mulh | MulOp::Mulhsu | MulOp::Mulhu => MUL_LATENCY,
                    _ => DIV_LATENCY,
                };
                push(self, v, 0, extra);
            }
            Insn::Load { rs1, offset, .. } => {
                let addr = self.forward(rs1).wrapping_add(offset as u32);
                push(self, addr, 0, 0);
            }
            Insn::Store {
                rs1, rs2, offset, ..
            } => {
                let addr = self.forward(rs1).wrapping_add(offset as u32);
                let val = self.forward(rs2);
                push(self, addr, val, 0);
            }
            Insn::Jal { offset, .. } => {
                let link = d.pc.wrapping_add(4);
                let target = d.pc.wrapping_add(offset as u32);
                push(self, link, 0, 0);
                self.flush_for_redirect(target);
                return true;
            }
            Insn::Jalr { rs1, offset, .. } => {
                let link = d.pc.wrapping_add(4);
                let target = self.forward(rs1).wrapping_add(offset as u32) & !1;
                push(self, link, 0, 0);
                self.flush_for_redirect(target);
                return true;
            }
            Insn::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let taken = cond.eval(self.forward(rs1), self.forward(rs2));
                push(self, 0, 0, 0);
                if taken {
                    let target = d.pc.wrapping_add(offset as u32);
                    self.flush_for_redirect(target);
                    return true;
                }
            }
            Insn::Csr {
                op, csr: addr, src, ..
            } => {
                let operand = match src {
                    CsrSrc::Reg(r) => self.forward(r),
                    CsrSrc::Imm(i) => u32::from(i),
                };
                match self.state.csr_rmw(op, addr, operand, d.decoded.word) {
                    Ok(old) => push(self, old, 0, 0),
                    Err(trap) => {
                        self.take_trap(trap, d.pc);
                        return true;
                    }
                }
            }
            Insn::Ecall => {
                self.take_trap(Trap::new(TrapCause::Ecall, 0), d.pc);
                return true;
            }
            Insn::Ebreak => {
                // Halt only once every older instruction has written back,
                // so the architectural state (notably `a0`) is final.
                if self.mem_wb.latch.is_some() {
                    self.id_ex.latch = Some(d);
                    return false;
                }
                self.state.halted = Some(HaltReason::Ebreak {
                    code: self.state.regs.get(Reg::A0),
                });
                return true;
            }
            Insn::Mret => {
                let target = self.state.mret();
                push(self, 0, 0, 0);
                self.flush_for_redirect(target);
                return true;
            }
            Insn::Wfi => {
                self.wfi = true;
                push(self, 0, 0, 0);
                self.flush_for_redirect(d.pc.wrapping_add(4));
                return true;
            }
            Insn::Fence => {
                push(self, 0, 0, 0);
            }
            // Metal instructions reach EX only when the decode hook let
            // them pass (rmr/wmr/mld/mst/march in Metal mode) or under
            // NoHooks (illegal).
            _ => {
                let [s1, s2] = d.decoded.srcs;
                let rs1 = s1.map_or(0, |r| self.forward(r));
                let rs2 = s2.map_or(0, |r| self.forward(r));
                match self.hooks.exec_custom(
                    &mut self.state,
                    d.pc,
                    d.decoded.word,
                    &d.decoded.insn,
                    rs1,
                    rs2,
                ) {
                    Ok(result) => {
                        push(self, result.writeback.unwrap_or(0), 0, result.extra_cycles);
                    }
                    Err(trap) => {
                        self.take_trap(trap, d.pc);
                        return true;
                    }
                }
            }
        }
        false
    }

    /// ID-stage work: hazard checks and the extension decode hook. The
    /// word was already decoded at fetch (via the decode cache), so the
    /// stage re-inspects nothing.
    fn run_id(&mut self, f: Slot, ex_load_rd: Option<Reg>) {
        let fault = f.fault.or_else(|| {
            f.decoded
                .is_illegal()
                .then(|| Trap::illegal(f.decoded.word))
        });
        if let Some(trap) = fault {
            self.fault(f.pc, f.decoded, trap);
            return;
        }
        // Load-use hazard: one bubble.
        if let Some(rd) = ex_load_rd {
            if f.decoded.srcs.iter().flatten().any(|&s| s == rd) {
                self.state.perf.loaduse_stall += 1;
                self.state.trace.emit(EventKind::Stall {
                    kind: StallKind::LoadUse,
                    cycles: 1,
                });
                return; // keep if_id; id_ex stays empty (bubble)
            }
        }
        // Decode-stage side effects (Metal mode transitions, interception)
        // must not commit while an older instruction can still fault, or
        // exceptions would become imprecise. Hold the instruction in ID
        // until the hazard clears.
        if self
            .hooks
            .decode_is_sensitive(&self.state, f.decoded.word, &f.decoded.insn)
        {
            let older_may_fault = self
                .ex_mem
                .ready()
                .is_some_and(|x| x.decoded.tag.may_fault());
            // An indirect `menter` reads its GPR at decode, so it waits
            // for any older write to that register still in flight.
            let gpr_in_flight = match f.decoded.insn {
                Insn::Menter {
                    entry: metal_isa::metal::MENTER_INDIRECT,
                    rs1,
                } => {
                    let hit = |rd: Option<Reg>| rd == Some(rs1);
                    hit(self.ex_mem.latch.as_ref().and_then(|l| l.decoded.dest))
                        || hit(self.mem_wb.latch.as_ref().and_then(|l| l.rd))
                }
                _ => false,
            };
            if older_may_fault || gpr_in_flight {
                return; // keep if_id; bubble into EX
            }
        }
        // The decode hook may replace the instruction in the slot
        // (menter/mexit/interception).
        resolve_decode(self, f.pc, f.decoded);
    }

    /// IF-stage work: interrupt injection and instruction fetch.
    fn run_if(&mut self) {
        if self.if_id.count_down(&mut self.state.perf.fetch_stall) || self.if_id.latch.is_some() {
            return;
        }
        if self.wfi {
            // Wake when any enabled interrupt is pending, regardless of
            // the global enable (RISC-V WFI semantics).
            if self.state.perf.mip_snapshot & self.state.csr.mie != 0 {
                self.wfi = false;
            } else {
                return;
            }
        }
        let pc = self.pc;
        self.pc = pc.wrapping_add(4);
        if let Some(line) = self.state.pending_interrupt(&self.hooks) {
            // Inject the interrupt as a faulted fetch slot: it traps when
            // it reaches EX, by which point every older instruction has
            // completed — precise interrupt delivery. (Trapping here at
            // IF would squash older, not-yet-executed instructions
            // sitting in ID/EX.)
            self.state.trace.emit(EventKind::InterruptInjected { line });
            self.if_id.latch = Some(Slot {
                pc,
                decoded: DecodedInsn::illegal(0),
                fault: Some(Trap::new(TrapCause::Interrupt(line), 0)),
            });
            return;
        }
        let fetched = self.hooks.fetch_decoded(&mut self.state, pc);
        match fetched.unwrap_or_else(|| self.state.fetch_decoded(pc)) {
            Ok((decoded, latency)) => {
                let latch = Slot {
                    pc,
                    decoded,
                    fault: None,
                };
                let extra = latency.saturating_sub(1);
                self.if_id
                    .put(latch, extra, &self.state.trace, StallKind::Fetch);
            }
            Err(trap) => {
                self.if_id.latch = Some(Slot {
                    pc,
                    decoded: DecodedInsn::illegal(0),
                    fault: Some(trap),
                });
            }
        }
    }
}

impl<H: Hooks> DecodeStage<H> for Core<H> {
    fn parts(&mut self) -> (&mut H, &mut MachineState) {
        (&mut self.hooks, &mut self.state)
    }

    fn redirect_fetch(&mut self, next_fetch: u32) {
        self.pc = next_fetch;
    }

    /// Moves the slot from IF → ID to ID → EX, ready after `stall` cycles.
    fn pass(&mut self, pc: u32, decoded: DecodedInsn, stall: u32) {
        self.if_id.latch = None;
        let latch = Slot {
            pc,
            decoded,
            fault: None,
        };
        self.id_ex
            .put(latch, stall, &self.state.trace, StallKind::Decode);
    }

    /// Consumes the IF → ID slot and sends the faulting instruction on
    /// to EX, where it traps precisely.
    fn fault(&mut self, pc: u32, decoded: DecodedInsn, trap: Trap) {
        self.if_id.latch = None;
        self.id_ex.latch = Some(Slot {
            pc,
            decoded,
            fault: Some(trap),
        });
    }
}
