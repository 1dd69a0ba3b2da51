//! The seven lint checks, run over one unit's CFG and fixpoint states.
//!
//! Two layers coexist here. The *linear* pass is the loader's
//! per-instruction install-time verification (privilege and structural
//! findings, the messages the loader has always reported). The
//! *dataflow* passes add what a linear scan cannot see:
//! statically-resolved `mld`/`mst` bounds, `m31` clobbers that actually
//! reach an `mexit`, secret values that escape Metal mode, loop bounds
//! for the instruction budget, and constant-folded `mintercept` arms.

use crate::cfg::Cfg;
use crate::dataflow::{solve, Lattice, Solution};
use crate::domains::{def_bit, Intervals, ReachDefs, Taints, M31_SLOT, RETADDR, SECRET};
use crate::{Battery, Check, Diagnostic, Level, LintConfig, UnitKind};
use metal_asm::Assembled;
use metal_isa::insn::{AluOp, Cond, CsrSrc, Insn};
use metal_isa::metal::{MarchOp, MAX_MROUTINES, MENTER_INDIRECT, METAL_OPCODE};
use metal_isa::reg::MregIdx;
use metal_isa::{disassemble, InterceptSelector, Reg};

/// Everything the analyzer learned about one unit.
pub struct UnitReport {
    /// All findings, in address order per pass.
    pub diagnostics: Vec<Diagnostic>,
    /// Statically-resolved `mintercept` arms: `(selector, entry, pc)`.
    pub intercepts: Vec<(InterceptSelector, u32, u32)>,
    /// Worst-case instruction count, when every loop is bounded.
    pub wcet: Option<u64>,
    /// `mld`/`mst` sites whose exact address could not be resolved to a
    /// constant. A unit with no bounds denial *and* zero unresolved
    /// accesses is provably in-bounds; otherwise "no denial" only means
    /// "nothing provably wrong" (the soundness harness needs the
    /// distinction).
    pub unresolved_accesses: u32,
}

/// Context shared by every check while analyzing one unit.
struct Analyzer<'a> {
    cfg: Cfg,
    config: &'a LintConfig,
    asm: Option<&'a Assembled>,
    report: UnitReport,
}

impl Analyzer<'_> {
    fn diag(&mut self, level: Level, check: Check, pc: u32, message: String) {
        let span = self.asm.and_then(|a| a.span_at(pc));
        self.report.diagnostics.push(Diagnostic {
            level,
            check,
            pc,
            line: span.map(|s| s.line),
            col: span.map(|s| s.col),
            message,
        });
    }

    /// The linear pass behind the loader's install-time verification
    /// ([`Battery::Install`]): privilege and structure findings in
    /// program order, each tagged with the producing check so callers
    /// can filter. Under [`Battery::Full`] it adds dead-code findings.
    fn linear_mroutine_pass(&mut self) {
        let full = self.config.battery == Battery::Full;
        let (window_start, window_end) = self.config.code_window();
        let mut saw_exit_path = false;
        for idx in 0..self.cfg.insns.len() {
            let pc = self.cfg.pc_of(idx);
            let d = self.cfg.insns[idx];
            if d.is_illegal() {
                self.diag(
                    Level::Deny,
                    Check::Privilege,
                    pc,
                    format!("illegal instruction word {:#010x}", d.word),
                );
                continue;
            }
            match d.insn {
                Insn::Ecall | Insn::Mret | Insn::Wfi => {
                    self.diag(
                        Level::Deny,
                        Check::Privilege,
                        pc,
                        format!(
                            "environment instruction {:?} is not allowed in an mroutine",
                            d.insn
                        ),
                    );
                }
                Insn::Menter { entry, .. } => {
                    if !self.config.nested_allowed {
                        self.diag(
                            Level::Deny,
                            Check::Privilege,
                            pc,
                            "nested menter requires a layered (nested Metal) configuration"
                                .to_owned(),
                        );
                    } else if entry == MENTER_INDIRECT {
                        self.diag(
                            Level::Warn,
                            Check::Privilege,
                            pc,
                            "indirect nested menter cannot be checked statically".to_owned(),
                        );
                    }
                }
                Insn::Mexit => saw_exit_path = true,
                Insn::Jal { offset, .. } => {
                    let target = pc.wrapping_add(offset as u32);
                    if target < window_start || target >= window_end {
                        self.diag(
                            Level::Deny,
                            Check::Structure,
                            pc,
                            format!("jal target {target:#010x} leaves the mroutine code window"),
                        );
                    }
                }
                Insn::Branch { offset, .. } => {
                    let target = pc.wrapping_add(offset as u32);
                    if target < window_start || target >= window_end {
                        self.diag(
                            Level::Deny,
                            Check::Structure,
                            pc,
                            format!("branch target {target:#010x} leaves the mroutine code window"),
                        );
                    }
                }
                Insn::Jalr { .. } => {
                    self.diag(
                        Level::Warn,
                        Check::Structure,
                        pc,
                        "jalr target cannot be checked statically".to_owned(),
                    );
                    saw_exit_path = true; // may be a computed return
                }
                Insn::Ebreak => {
                    self.diag(
                        Level::Warn,
                        Check::Structure,
                        pc,
                        "ebreak halts the machine; debug use only".to_owned(),
                    );
                }
                _ => {}
            }
        }
        if !saw_exit_path && !self.cfg.insns.is_empty() {
            self.diag(
                Level::Warn,
                Check::Structure,
                self.config.base,
                "no mexit (or computed jump) found: the mroutine never returns".to_owned(),
            );
        } else if self.cfg.falls_off_end.is_some() && full {
            // Suppressed when the missing-mexit warning already fired:
            // both describe the same defect (the routine does not return
            // cleanly) and the loader surfaces exactly one finding.
            let idx = self.cfg.falls_off_end.expect("checked");
            self.diag(
                Level::Warn,
                Check::Structure,
                self.cfg.pc_of(idx),
                "control can fall through the end of the code segment".to_owned(),
            );
        }
        if full {
            self.dead_code_pass();
        }
    }

    /// Guest-program mode correctness: Metal-only instructions (and
    /// illegal words) on any statically-reachable path are denied;
    /// reachability is discarded when a computed jump could reach
    /// anything.
    fn program_pass(&mut self) {
        let computed_jump = (0..self.cfg.insns.len())
            .any(|i| self.cfg.reachable[i] && matches!(self.cfg.insns[i].insn, Insn::Jalr { .. }));
        for idx in 0..self.cfg.insns.len() {
            if !self.cfg.reachable[idx] && !computed_jump {
                continue;
            }
            let pc = self.cfg.pc_of(idx);
            let d = self.cfg.insns[idx];
            if d.is_illegal() {
                if self.cfg.reachable[idx] {
                    self.diag(
                        Level::Deny,
                        Check::Privilege,
                        pc,
                        format!("illegal instruction word {:#010x} is reachable", d.word),
                    );
                }
                continue;
            }
            if d.insn.metal_mode_only() {
                self.diag(
                    Level::Deny,
                    Check::Privilege,
                    pc,
                    format!(
                        "Metal-only instruction `{}` is reachable outside Metal mode",
                        disassemble(&d.insn)
                    ),
                );
            }
        }
        let escapes: Vec<_> = self
            .cfg
            .escapes
            .iter()
            .filter(|e| self.cfg.reachable[e.idx])
            .copied()
            .collect();
        for e in escapes {
            let pc = self.cfg.pc_of(e.idx);
            self.diag(
                Level::Warn,
                Check::Structure,
                pc,
                format!("jump target {:#010x} leaves the program image", e.target),
            );
        }
        if let Some(idx) = self.cfg.falls_off_end {
            self.diag(
                Level::Warn,
                Check::Structure,
                self.cfg.pc_of(idx),
                "control can fall through the end of the code segment".to_owned(),
            );
        }
        if self.config.battery == Battery::Full && !computed_jump {
            self.dead_code_pass();
        }
    }

    /// One warning per maximal run of unreachable, legal instructions.
    fn dead_code_pass(&mut self) {
        let mut idx = 0;
        while idx < self.cfg.insns.len() {
            if self.cfg.reachable[idx] || self.cfg.insns[idx].is_illegal() {
                idx += 1;
                continue;
            }
            let start = idx;
            while idx < self.cfg.insns.len()
                && !self.cfg.reachable[idx]
                && !self.cfg.insns[idx].is_illegal()
            {
                idx += 1;
            }
            let n = idx - start;
            self.diag(
                Level::Warn,
                Check::Structure,
                self.cfg.pc_of(start),
                format!(
                    "unreachable code: {n} instruction{} can never execute",
                    if n == 1 { "" } else { "s" }
                ),
            );
        }
    }

    /// The dataflow battery: bounds, retaddr, leak, intercept. All three
    /// lattices are solved once and replayed per block.
    fn dataflow_pass(&mut self) {
        let iv = solve(&self.cfg, Intervals::entry());
        let tn = solve(&self.cfg, Taints::entry());
        let rd = solve(&self.cfg, ReachDefs::entry());

        // First sweep: collect m31 clobber sites (a `wmr m31` whose
        // source does not derive from the saved return address).
        let mut clobbers: Vec<(usize, u32)> = Vec::new();
        let mut pending = Vec::new();
        for id in 0..self.cfg.blocks.len() {
            let taints = tn.states_in_block(&self.cfg, id);
            let ivals = iv.states_in_block(&self.cfg, id);
            if taints.is_empty() {
                continue; // unreachable block
            }
            let block = &self.cfg.blocks[id];
            for (off, idx) in (block.start..block.end).enumerate() {
                let pc = self.cfg.pc_of(idx);
                let d = self.cfg.insns[idx];
                match d.insn {
                    Insn::Mld { rs1, offset, .. } | Insn::Mst { rs1, offset, .. } => {
                        self.check_bounds(&ivals[off], &d.insn, rs1, offset, pc);
                    }
                    Insn::Wmr {
                        rs1,
                        idx: MregIdx::RETURN_ADDRESS,
                    } if taints[off].get(rs1) & RETADDR == 0 => {
                        clobbers.push((idx, pc));
                    }
                    Insn::Store { rs2, .. } if taints[off].get(rs2) & SECRET != 0 => {
                        pending.push((
                            pc,
                            "secret Metal-register value stored to normal memory".to_owned(),
                        ));
                    }
                    Insn::March {
                        op: MarchOp::Mpst,
                        rs2,
                        ..
                    } if taints[off].get(rs2) & SECRET != 0 => {
                        pending.push((
                            pc,
                            "secret Metal-register value stored to physical memory".to_owned(),
                        ));
                    }
                    Insn::Csr {
                        src: CsrSrc::Reg(rs1),
                        ..
                    } if taints[off].get(rs1) & SECRET != 0 => {
                        pending.push((
                            pc,
                            "secret Metal-register value written to a CSR".to_owned(),
                        ));
                    }
                    Insn::Mexit => {
                        let leaked: Vec<&str> = (1..32)
                            .filter(|&r| taints[off].0[r] & SECRET != 0)
                            .map(|r| Reg::new(r as u8).expect("index < 32").abi_name())
                            .collect();
                        if !leaked.is_empty() {
                            pending.push((
                                pc,
                                format!(
                                    "register{} {} still hold{} a secret Metal-register value \
                                     at mexit",
                                    if leaked.len() == 1 { "" } else { "s" },
                                    leaked.join(", "),
                                    if leaked.len() == 1 { "s" } else { "" }
                                ),
                            ));
                        }
                    }
                    Insn::March {
                        op: MarchOp::Mintercept,
                        rs1,
                        rs2,
                        ..
                    } => {
                        self.check_intercept(&ivals[off], rs1, rs2, pc);
                    }
                    _ => {}
                }
            }
        }
        for (pc, msg) in pending {
            self.diag(Level::Warn, Check::Leak, pc, msg);
        }

        // Second sweep: a clobber only matters if its definition reaches
        // an `mexit` (the architectural consumer of m31).
        if !clobbers.is_empty() {
            let mut reaches = vec![false; clobbers.len()];
            for id in 0..self.cfg.blocks.len() {
                let rdefs = rd.states_in_block(&self.cfg, id);
                if rdefs.is_empty() {
                    continue;
                }
                let block = &self.cfg.blocks[id];
                for (off, idx) in (block.start..block.end).enumerate() {
                    if !matches!(self.cfg.insns[idx].insn, Insn::Mexit) {
                        continue;
                    }
                    let live = rdefs[off].0[M31_SLOT];
                    for (ci, &(cidx, _)) in clobbers.iter().enumerate() {
                        if live & def_bit(cidx) != 0 {
                            reaches[ci] = true;
                        }
                    }
                }
            }
            for (ci, &(_, pc)) in clobbers.iter().enumerate() {
                if reaches[ci] {
                    self.diag(
                        Level::Warn,
                        Check::RetAddr,
                        pc,
                        "m31 overwritten with a non-return-address value reaches mexit; \
                         the mroutine will not resume the interrupted program"
                            .to_owned(),
                    );
                }
            }
        }

        self.budget_pass(&iv);
    }

    /// MRAM data-segment bounds for one `mld`/`mst`.
    fn check_bounds(&mut self, iv: &Intervals, insn: &Insn, rs1: Reg, offset: i32, pc: u32) {
        let mn = if matches!(insn, Insn::Mld { .. }) {
            "mld"
        } else {
            "mst"
        };
        let addr = iv.get(rs1).add_const(offset);
        if addr.is_top() {
            self.report.unresolved_accesses += 1;
            return; // nothing statically known
        }
        let data = u64::from(self.config.data_bytes);
        if addr.as_const().is_none() {
            // A range can still be denied below, but a range that passes
            // is not a proof: alignment within the range is unknown.
            self.report.unresolved_accesses += 1;
        }
        if let Some(a) = addr.as_const() {
            let a64 = u64::from(a);
            if a64 + 4 > data {
                self.diag(
                    Level::Deny,
                    Check::Bounds,
                    pc,
                    format!("{mn} offset {a:#x} is outside the {data}-byte MRAM data segment"),
                );
            } else if a % 4 != 0 {
                self.diag(
                    Level::Deny,
                    Check::Bounds,
                    pc,
                    format!("{mn} offset {a:#x} is not 4-byte aligned"),
                );
            }
        } else if addr.lo + 4 > data {
            self.diag(
                Level::Deny,
                Check::Bounds,
                pc,
                format!(
                    "{mn} offsets {:#x}..={:#x} are outside the {data}-byte MRAM data segment",
                    addr.lo, addr.hi
                ),
            );
        } else if addr.hi + 4 > data {
            self.diag(
                Level::Warn,
                Check::Bounds,
                pc,
                format!(
                    "{mn} offset may reach {:#x}, beyond the {data}-byte MRAM data segment",
                    addr.hi
                ),
            );
        }
    }

    /// Constant-folds one `mintercept` arm.
    fn check_intercept(&mut self, iv: &Intervals, rs1: Reg, rs2: Reg, pc: u32) {
        let (sel, arg) = (iv.get(rs1).as_const(), iv.get(rs2).as_const());
        let (Some(sel), Some(arg)) = (sel, arg) else {
            self.diag(
                Level::Warn,
                Check::Intercept,
                pc,
                "mintercept selector or target cannot be resolved statically".to_owned(),
            );
            return;
        };
        let selector = InterceptSelector::decode(sel);
        let entry = arg >> 1;
        let enabled = arg & 1 != 0;
        if u64::from(entry) >= MAX_MROUTINES as u64 {
            self.diag(
                Level::Deny,
                Check::Intercept,
                pc,
                format!("mintercept target entry {entry} exceeds the {MAX_MROUTINES}-slot table"),
            );
            return;
        }
        let opcode = match selector {
            InterceptSelector::OpcodeClass { opcode } | InterceptSelector::Exact { opcode, .. } => {
                opcode
            }
        };
        if opcode == METAL_OPCODE {
            self.diag(
                Level::Warn,
                Check::Intercept,
                pc,
                format!(
                    "intercept selector {selector} captures the Metal opcode itself; \
                     menter would recurse through the intercept table"
                ),
            );
        }
        if enabled {
            self.report.intercepts.push((selector, entry, pc));
        }
    }

    /// Worst-case instruction count: every reachable block's length,
    /// multiplied by the trip bound of each loop containing it.
    fn budget_pass(&mut self, iv: &Solution<Intervals>) {
        let backs = self.cfg.back_edges();
        // (blocks of the loop, trip bound) per back edge.
        let mut loops: Vec<(Vec<usize>, Option<u64>)> = Vec::new();
        for &(tail, head) in &backs {
            let body = self.cfg.natural_loop(tail, head);
            let bound = self.loop_bound(iv, &body, head);
            if bound.is_none() {
                let pc = self.cfg.pc_of(self.cfg.blocks[head].start);
                self.diag(
                    Level::Warn,
                    Check::Budget,
                    pc,
                    format!(
                        "loop at {pc:#010x} has no statically-derivable trip bound; \
                         worst-case instruction count is unbounded"
                    ),
                );
            }
            loops.push((body, bound));
        }
        let mut wcet: Option<u64> = Some(0);
        for (id, block) in self.cfg.blocks.iter().enumerate() {
            if !self.cfg.reachable[block.start] {
                continue;
            }
            let mut mult: Option<u64> = Some(1);
            for (body, bound) in &loops {
                if body.contains(&id) {
                    mult = match (mult, bound) {
                        (Some(m), Some(b)) => Some(m.saturating_mul((*b).max(1))),
                        _ => None,
                    };
                }
            }
            let len = (block.end - block.start) as u64;
            wcet = match (wcet, mult) {
                (Some(w), Some(m)) => Some(w.saturating_add(len.saturating_mul(m))),
                _ => None,
            };
        }
        if let Some(w) = wcet {
            if w > self.config.budget {
                self.diag(
                    Level::Deny,
                    Check::Budget,
                    self.config.base,
                    format!(
                        "worst-case instruction count {w} exceeds the budget of {}",
                        self.config.budget
                    ),
                );
            }
        }
        self.report.wcet = wcet;
    }

    /// Bounds the trips of the natural loop `body` headed at `head`:
    /// recognizes a single in-loop `addi r, r, -c` counter paired with a
    /// `bnez r` / `beqz r` exit, seeded by the counter's interval on
    /// entry to the loop.
    fn loop_bound(&self, iv: &Solution<Intervals>, body: &[usize], head: usize) -> Option<u64> {
        // The exit test: a conditional branch in the loop comparing some
        // register against x0.
        let mut counter: Option<Reg> = None;
        for &id in body {
            let last = self.cfg.blocks[id].end - 1;
            if let Insn::Branch {
                cond: Cond::Ne | Cond::Eq,
                rs1,
                rs2: Reg::ZERO,
                ..
            } = self.cfg.insns[last].insn
            {
                // One edge must leave the loop for this to be an exit.
                let leaves = self.cfg.blocks[id].succs.iter().any(|s| !body.contains(s))
                    || self.cfg.blocks[id].succs.len() < 2;
                if leaves {
                    counter = Some(rs1);
                    break;
                }
            }
        }
        let r = counter?;
        // Exactly one in-loop definition of the counter, a constant
        // decrement.
        let mut step: Option<u64> = None;
        for &id in body {
            let block = &self.cfg.blocks[id];
            for idx in block.start..block.end {
                let d = self.cfg.insns[idx];
                if d.dest != Some(r) {
                    continue;
                }
                match d.insn {
                    Insn::AluImm {
                        op: AluOp::Add,
                        rd,
                        rs1,
                        imm,
                    } if rd == r && rs1 == r && imm < 0 => {
                        if step.is_some() {
                            return None; // multiple defs
                        }
                        step = Some(imm.unsigned_abs() as u64);
                    }
                    _ => return None,
                }
            }
        }
        let c = step?;
        // Initial value: join of the counter's range over all out-states
        // of the head's non-loop predecessors.
        let mut init: Option<crate::domains::Interval> = None;
        for (pid, block) in self.cfg.blocks.iter().enumerate() {
            if body.contains(&pid) || !block.succs.contains(&head) {
                continue;
            }
            let states = iv.states_in_block(&self.cfg, pid);
            let Some(last) = states.last() else {
                continue;
            };
            let mut out = last.clone();
            out.transfer(
                block.end - 1,
                &self.cfg.insns[block.end - 1],
                self.cfg.pc_of(block.end - 1),
            );
            let range = out.get(r);
            init = Some(match init {
                Some(acc) => acc.join(range),
                None => range,
            });
        }
        let init = init?;
        if init.is_top() {
            return None;
        }
        if c == 1 {
            Some(init.hi)
        } else {
            // A stride > 1 only provably hits zero from a known multiple.
            let v = u64::from(init.as_const()?);
            (v % c == 0).then_some(v / c)
        }
    }
}

/// Runs the configured battery over `words` at `config.base`.
#[must_use]
pub fn analyze(words: &[u32], config: &LintConfig, asm: Option<&Assembled>) -> UnitReport {
    let cfg = Cfg::build(config.base, words);
    let mut a = Analyzer {
        cfg,
        config,
        asm,
        report: UnitReport {
            diagnostics: Vec::new(),
            intercepts: Vec::new(),
            wcet: None,
            unresolved_accesses: 0,
        },
    };
    match config.kind {
        UnitKind::Mroutine => {
            a.linear_mroutine_pass();
            if config.battery == Battery::Full {
                a.dataflow_pass();
            }
        }
        UnitKind::Program => a.program_pass(),
    }
    a.report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_words, MRAM_BASE};
    use metal_asm::assemble_at;

    const BASE: u32 = MRAM_BASE + 0x100;

    fn lint(src: &str) -> Vec<Diagnostic> {
        let words = assemble_at(src, BASE).unwrap();
        lint_words(&words, &LintConfig::mroutine(BASE))
    }

    fn report(src: &str) -> UnitReport {
        let words = assemble_at(src, BASE).unwrap();
        analyze(&words, &LintConfig::mroutine(BASE), None)
    }

    fn has(diags: &[Diagnostic], check: Check, level: Level) -> bool {
        diags.iter().any(|d| d.check == check && d.level == level)
    }

    #[test]
    fn oob_mst_denied() {
        let d = lint("li t0, 4096\nmst a0, 0(t0)\nmexit");
        assert!(has(&d, Check::Bounds, Level::Deny), "{d:?}");
    }

    #[test]
    fn in_bounds_mst_clean() {
        let d = lint("li t0, 128\nmst a0, 0(t0)\nmexit");
        assert!(!has(&d, Check::Bounds, Level::Deny), "{d:?}");
        assert!(!has(&d, Check::Bounds, Level::Warn), "{d:?}");
    }

    #[test]
    fn misaligned_mld_denied() {
        let d = lint("li t0, 6\nmld a0, 0(t0)\nmexit");
        assert!(has(&d, Check::Bounds, Level::Deny), "{d:?}");
    }

    #[test]
    fn masked_index_bounded_clean() {
        // andi clamps the index below the segment size: provably fine.
        let d = lint("andi t0, a0, 0xFC\nmld a1, 0(t0)\nmexit");
        assert!(d.iter().all(|x| x.check != Check::Bounds), "{d:?}");
    }

    #[test]
    fn range_straddling_segment_warns() {
        // 0..=8176 after shifting could reach past 4096: warn, not deny.
        let d = lint("andi t0, a0, 0x7FC\nslli t0, t0, 2\nmld a1, 0(t0)\nmexit");
        assert!(has(&d, Check::Bounds, Level::Warn), "{d:?}");
        assert!(!has(&d, Check::Bounds, Level::Deny), "{d:?}");
    }

    #[test]
    fn m31_clobber_reaching_mexit_flagged() {
        let d = lint("li t0, 0x100\nwmr m31, t0\nmexit");
        assert!(has(&d, Check::RetAddr, Level::Warn), "{d:?}");
    }

    #[test]
    fn m31_advance_idiom_clean() {
        // The skip-intercepted idiom: m31 += 4 keeps the RETADDR taint.
        let d = lint("rmr t0, m31\naddi t0, t0, 4\nwmr m31, t0\nmexit");
        assert!(!has(&d, Check::RetAddr, Level::Warn), "{d:?}");
    }

    #[test]
    fn m31_clobber_without_mexit_not_flagged() {
        // The clobbered value never reaches an mexit.
        let d = lint("li t0, 0x100\nwmr m31, t0\nrmr t1, m31\nebreak");
        assert!(!has(&d, Check::RetAddr, Level::Warn), "{d:?}");
    }

    #[test]
    fn leaky_routine_flagged_clean_twin_passes() {
        let leaky = lint("rmr t0, m0\nmexit");
        assert!(has(&leaky, Check::Leak, Level::Warn), "{leaky:?}");
        let clean = lint("rmr t0, m0\nli t0, 0\nmexit");
        assert!(!has(&clean, Check::Leak, Level::Warn), "{clean:?}");
    }

    #[test]
    fn secret_store_to_normal_memory_flagged() {
        let d = lint("rmr t0, m3\nsw t0, 0(a0)\nmexit");
        assert!(has(&d, Check::Leak, Level::Warn), "{d:?}");
    }

    #[test]
    fn secret_kept_in_mram_clean() {
        let d = lint("rmr t0, m3\nmst t0, 0(zero)\nli t0, 0\nmexit");
        assert!(!has(&d, Check::Leak, Level::Warn), "{d:?}");
    }

    #[test]
    fn bounded_loop_has_wcet() {
        let r = report("li t0, 5\nloop: addi t0, t0, -1\nbnez t0, loop\nmexit");
        let w = r.wcet.expect("bounded");
        // 1 (li) + 5 iterations of 2 + 1 (mexit), give or take block
        // accounting: must be finite and past the trip count.
        assert!((10..100).contains(&w), "wcet {w}");
        assert!(!has(&r.diagnostics, Check::Budget, Level::Warn));
    }

    #[test]
    fn data_dependent_loop_warns_unbounded() {
        let r = report("loop: addi t0, t0, -1\nbnez t0, loop\nmexit");
        assert!(r.wcet.is_none());
        assert!(
            has(&r.diagnostics, Check::Budget, Level::Warn),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn budget_overrun_denied() {
        let words = assemble_at(
            "li t0, 5000\nloop: addi t0, t0, -1\nbnez t0, loop\nmexit",
            BASE,
        )
        .unwrap();
        let config = LintConfig::mroutine(BASE); // budget 4096
        let r = analyze(&words, &config, None);
        assert!(
            has(&r.diagnostics, Check::Budget, Level::Deny),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn const_intercept_arm_recorded() {
        // Selector: opcode class 0x23 (STORE); target entry 3, enabled.
        let r = report("li t0, 0x23\nli t1, 7\nmintercept t0, t1\nmexit");
        assert_eq!(r.intercepts.len(), 1);
        let (sel, entry, _) = r.intercepts[0];
        assert_eq!(entry, 3);
        assert!(sel.matches(0x0000_0023));
    }

    #[test]
    fn metal_opcode_selector_warns() {
        let d = lint("li t0, 0x0B\nli t1, 3\nmintercept t0, t1\nmexit");
        assert!(has(&d, Check::Intercept, Level::Warn), "{d:?}");
    }

    #[test]
    fn unresolvable_intercept_warns() {
        let d = lint("mintercept a0, a1\nmexit");
        assert!(has(&d, Check::Intercept, Level::Warn), "{d:?}");
    }

    #[test]
    fn program_metal_insn_denied_only_when_reachable() {
        let words = assemble_at("addi a0, a0, 1\nrmr t0, m3\necall", 0).unwrap();
        let d = lint_words(&words, &LintConfig::program(0));
        assert!(has(&d, Check::Privilege, Level::Deny), "{d:?}");

        let dead = assemble_at("j skip\nrmr t0, m3\nskip: ecall", 0).unwrap();
        let d = lint_words(&dead, &LintConfig::program(0));
        assert!(!has(&d, Check::Privilege, Level::Deny), "{d:?}");
    }

    #[test]
    fn program_menter_is_legal() {
        let words = assemble_at("menter 2\necall", 0).unwrap();
        let d = lint_words(&words, &LintConfig::program(0));
        assert!(!has(&d, Check::Privilege, Level::Deny), "{d:?}");
    }

    #[test]
    fn dead_code_warned_in_mroutine() {
        let d = lint("j done\naddi a0, a0, 1\ndone: mexit");
        assert!(
            d.iter().any(|x| x.message.contains("unreachable code")),
            "{d:?}"
        );
    }

    #[test]
    fn legacy_messages_preserved() {
        let d = lint("ecall\nmexit");
        assert_eq!(
            d[0].message,
            "environment instruction Ecall is not allowed in an mroutine"
        );
        let d = lint("addi t0, t0, 1");
        assert!(d
            .iter()
            .any(|x| x.message == "no mexit (or computed jump) found: the mroutine never returns"));
    }
}
