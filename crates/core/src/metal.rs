//! The Metal extension: operation modes, fast transitions, architectural
//! feature dispatch, interception, and trap delegation.
//!
//! This type implements [`metal_pipeline::Hooks`] and is the heart of
//! the reproduction:
//!
//! * **Metal mode** (paper §2): a privileged operation mode orthogonal
//!   to any OS-visible privilege level. `menter` is deliberately *not*
//!   privileged; everything else in the extension is Metal-mode-only.
//! * **Fast transitions** (§2.2): `menter`/`mexit` are replaced in the
//!   decode stage by the first instruction of the target stream, with
//!   MRAM supplying mroutine code at collocated-RAM latency.
//! * **Architectural features** (§2.3): physical memory access, TLB
//!   modification, ASIDs, page keys, interception, and interrupt state,
//!   all exposed through `march.*` sub-operations executed at EX.
//! * **Delegation** (§2.3): exceptions and interrupts route to
//!   mroutines; undelegated causes fall back to the baseline path.
//! * **Non-interruptibility** (§2.1): interrupts are held while an
//!   mroutine runs; a fault inside an mroutine is fatal (mroutines are
//!   statically verified instead — see [`crate::loader`]).
//! * **Nested layers** (§3.5): interception searches higher layers
//!   first and propagates downward; interrupt delegation searches lower
//!   layers first.

use crate::delegate::DelegationMap;
use crate::ecc::{EccMode, EccStore};
use crate::intercept::InterceptTable;
use crate::mram::{Mram, MramConfig, MRAM_BASE};
use crate::mreg::{EntryCause, MregFile, MSTATUS_INTERCEPT_ENABLE};
use crate::MetalError;
use metal_isa::insn::Insn;
use metal_isa::metal::{MarchOp, Mcr, MENTER_INDIRECT};
use metal_isa::reg::Reg;
use metal_isa::{decode_to, DecodedInsn};
use metal_pipeline::hooks::{CustomExec, DecodeOutcome, Hooks, TrapDisposition, TrapEvent};
use metal_pipeline::state::{HaltReason, MachineState};
use metal_pipeline::trap::{Trap, TrapCause};
use metal_trace::{
    EventKind, FaultSite, MetricsSnapshot, RecoveryAction, TransitionCause, TransitionTable,
};

/// Where mroutine code physically lives — the ablation axis of
/// experiment E1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchStyle {
    /// MRAM collocated with instruction fetch (the Metal design point).
    Mram,
    /// PALcode-style: mroutines live in main memory at `base` and are
    /// fetched through the normal I-cache path (the Alpha design the
    /// paper cites at ~18 cycles per no-op call, §5).
    Palcode {
        /// Physical base address of the mroutine image.
        base: u32,
    },
}

/// Extra dispatch cycles charged for a PALcode-style entry (the
/// pipeline drain on the Alpha).
const PALCODE_DRAIN: u32 = 2;

/// Metal configuration.
#[derive(Clone, Copy, Debug)]
pub struct MetalConfig {
    /// MRAM geometry.
    pub mram: MramConfig,
    /// Where mroutine code lives.
    pub dispatch: DispatchStyle,
    /// Model the decode-stage replacement fast path (§2.2). When false,
    /// `menter`/`mexit` cost a full redirect flush — the second ablation
    /// axis of E1.
    pub decode_replacement: bool,
    /// Number of nested-Metal layers (1 = the base design).
    pub layers: usize,
    /// Check-bit scheme protecting MRAM words and the Metal register
    /// file. Detected errors raise [`TrapCause::MachineCheck`].
    pub ecc: EccMode,
}

impl MetalConfig {
    /// The address window mroutine code executes from, `(start, end)`
    /// with `end` exclusive: MRAM, or the PALcode image in main memory.
    #[must_use]
    pub fn code_window(&self) -> (u32, u32) {
        let start = match self.dispatch {
            DispatchStyle::Mram => MRAM_BASE,
            DispatchStyle::Palcode { base } => base,
        };
        (start, start + self.mram.code_bytes)
    }
}

impl Default for MetalConfig {
    fn default() -> MetalConfig {
        MetalConfig {
            mram: MramConfig::default(),
            dispatch: DispatchStyle::Mram,
            decode_replacement: true,
            layers: 1,
            ecc: EccMode::None,
        }
    }
}

/// One nested-Metal layer: its interception rules and delegation tables.
#[derive(Clone, Debug, Default)]
pub struct Layer {
    /// Interception rules of this layer.
    pub intercepts: InterceptTable,
    /// Trap delegation of this layer.
    pub delegation: DelegationMap,
}

/// Execution mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Normal (application/OS) execution.
    Normal,
    /// Executing an mroutine on behalf of `layer`.
    Metal {
        /// The layer whose tables triggered entry (intercept chaining
        /// searches strictly below this).
        layer: usize,
    },
}

/// Event counters for the extension.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetalStats {
    /// `menter` transitions.
    pub menters: u64,
    /// `mexit` transitions.
    pub mexits: u64,
    /// Intercepted instructions.
    pub intercepts: u64,
    /// Exceptions delivered to mroutines.
    pub delegated_exceptions: u64,
    /// Interrupts delivered to mroutines.
    pub delegated_interrupts: u64,
    /// Nested `menter` calls from Metal mode.
    pub nested_calls: u64,
    /// Machine checks raised by check-bit verification.
    pub machine_checks: u64,
    /// Successful `march.mscrub` repairs.
    pub scrubs: u64,
}

/// One in-flight Metal-mode entry: the frame stack's element.
#[derive(Clone, Copy, Debug)]
struct Frame {
    /// The layer the mroutine executes on behalf of (intercept chaining
    /// searches strictly below it).
    layer: usize,
    /// Entry-table slot.
    entry: u8,
    /// Entry cycle, for latency attribution at `mexit`.
    entered_at: u64,
    /// True for machine-check delivery frames: a further machine check
    /// while one is live is fatal (no recursive recovery).
    mcheck: bool,
    /// The interrupted mroutine's `m31` as a raw (value, check-bits)
    /// pair, banked when a machine check preempts Metal mode; restored
    /// verbatim at `mexit`.
    saved_m31: Option<(u32, u8)>,
}

/// The Metal extension state.
#[derive(Clone, Debug)]
pub struct Metal {
    /// The MRAM (code + data + entry table).
    pub mram: Mram,
    /// Metal registers and control registers.
    pub mregs: MregFile,
    /// Nested layers (index 0 is the lowest/outermost, e.g. the VMM).
    pub layers: Vec<Layer>,
    /// Event counters.
    pub stats: MetalStats,
    /// Per-mroutine transition accounting: entry counts and enter→exit
    /// latency histograms, keyed by entry-table slot.
    pub transitions: TransitionTable,
    config: MetalConfig,
    /// One frame per Metal-mode entry. Empty = normal mode. Entries,
    /// chained intercepts and delegated traps push; `mexit` pops —
    /// hardware tracks the mode nesting, while saving/restoring `m31`
    /// across nested entries is software's responsibility (the
    /// reentrancy requirement of paper §3.5).
    frames: Vec<Frame>,
    /// Site and word/register index of the last delivered machine
    /// check — the implicit operand of `march.mscrub`.
    last_mcheck: Option<(FaultSite, u32)>,
    /// Layer whose tables `mintercept`/`mlayer` currently target, and
    /// the layer attributed to `menter` entries.
    active_layer: usize,
}

impl Metal {
    /// Creates the extension with no mroutines installed (use
    /// [`crate::loader::MetalBuilder`] for the full flow).
    #[must_use]
    pub fn new(config: MetalConfig) -> Metal {
        let layers = config.layers.max(1);
        Metal {
            mram: Mram::new(config.mram, config.ecc),
            mregs: MregFile::new(config.ecc),
            layers: vec![Layer::default(); layers],
            stats: MetalStats::default(),
            transitions: TransitionTable::new(),
            config,
            frames: Vec::new(),
            last_mcheck: None,
            active_layer: layers - 1,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &MetalConfig {
        &self.config
    }

    /// Current operation mode.
    #[must_use]
    pub fn mode(&self) -> Mode {
        match self.frames.last() {
            Some(frame) => Mode::Metal { layer: frame.layer },
            None => Mode::Normal,
        }
    }

    /// PC of an entry's first instruction under the configured dispatch
    /// style.
    #[must_use]
    pub fn entry_pc(&self, entry: u8) -> Option<u32> {
        let info = self.mram.entry(entry)?;
        Some(self.config.code_window().0 + info.offset)
    }

    /// The check-bit store behind a fault site; `None` for sites that
    /// keep no check bits.
    #[must_use]
    pub fn store(&self, site: FaultSite) -> Option<&EccStore> {
        match site {
            FaultSite::MramCode => Some(&self.mram.code),
            FaultSite::MramData => Some(&self.mram.data),
            FaultSite::Mreg => Some(&self.mregs.regs),
            _ => None,
        }
    }

    fn store_mut(&mut self, site: FaultSite) -> Option<&mut EccStore> {
        match site {
            FaultSite::MramCode => Some(&mut self.mram.code),
            FaultSite::MramData => Some(&mut self.mram.data),
            FaultSite::Mreg => Some(&mut self.mregs.regs),
            _ => None,
        }
    }

    /// Flips one bit of word `index` in the store behind `site`, as a
    /// particle strike would. Returns `false` when the site keeps no
    /// check bits or `index` is out of range.
    pub fn flip(&mut self, site: FaultSite, index: usize, bit: u8) -> bool {
        let hit = self
            .store_mut(site)
            .is_some_and(|store| store.flip(index, bit));
        if hit && site == FaultSite::MramCode {
            self.mram.redecode(index);
        }
        hit
    }

    /// Repairs word `index` of the store behind `site`: the `mscrub`
    /// operand. Delivery banked a faulted `m31` into the recovery frame
    /// before repointing the live register at the faulting pc, so the
    /// word to repair is the banked copy; it stands in for the live one
    /// during the scrub.
    fn scrub(&mut self, site: FaultSite, index: usize) -> bool {
        let banked = self
            .frames
            .last_mut()
            .filter(|f| f.mcheck)
            .and_then(|f| f.saved_m31.as_mut());
        if let (FaultSite::Mreg, 31, Some(banked)) = (site, index, banked) {
            let regs = &mut self.mregs.regs;
            let live = regs.raw(31);
            regs.set_raw(31, *banked);
            let repaired = regs.scrub(31);
            *banked = regs.raw(31);
            regs.set_raw(31, live);
            return repaired;
        }
        let repaired = self.store_mut(site).is_some_and(|store| store.scrub(index));
        if repaired && site == FaultSite::MramCode {
            self.mram.redecode(index);
        }
        repaired
    }

    /// Verifies word `index` of the store at `site`. A failed check is
    /// the machine check to raise, with `tval` naming the word.
    #[inline]
    fn checked(&self, site: FaultSite, index: usize, tval: u32) -> Result<(), Trap> {
        match self.store(site).and_then(|store| store.verify(index)) {
            None => Ok(()),
            Some(syndrome) => Err(Trap::new(TrapCause::MachineCheck { site, syndrome }, tval)),
        }
    }

    /// The one instruction fetch for mroutine code, with no mode gating:
    /// the PALcode image or the MRAM window (check bits verified, code
    /// already decoded). Returns the instruction and its fetch latency;
    /// `None` when `pc` lies in neither. Every successful fetch is
    /// traced as an MRAM fetch.
    fn fetch_code(
        &self,
        state: &mut MachineState,
        pc: u32,
    ) -> Option<Result<(DecodedInsn, u32), Trap>> {
        let fetched = if self.in_palcode(pc) {
            // PALcode runs with instruction translation disabled (as on
            // the Alpha): fetch physically through the I-cache path.
            state
                .bus
                .read_u32(pc)
                .map(|word| (decode_to(word), state.icache.access(pc)))
                .map_err(|e| Trap::new(TrapCause::InsnAccessFault, e.addr()))
        } else if self.mram.contains_pc(pc) {
            match self.mram.code_decoded(pc) {
                Ok(decoded) => self
                    .checked(FaultSite::MramCode, ((pc - MRAM_BASE) / 4) as usize, pc)
                    .map(|()| (decoded, self.mram.fetch_latency())),
                Err(_) => Err(Trap::new(TrapCause::InsnAccessFault, pc)),
            }
        } else {
            return None;
        };
        if fetched.is_ok() {
            state.trace.emit(EventKind::MramFetch { pc });
        }
        Some(fetched)
    }

    /// True if `pc` lies in the PALcode image region.
    fn in_palcode(&self, pc: u32) -> bool {
        let (start, end) = self.config.code_window();
        matches!(self.config.dispatch, DispatchStyle::Palcode { .. }) && pc >= start && pc < end
    }

    /// Enters Metal mode at `entry` on behalf of `layer` for `cause`,
    /// returning the decode replacement. `return_pc` is stored in `m31`.
    fn enter(
        &mut self,
        state: &mut MachineState,
        entry: u8,
        layer: usize,
        cause: EntryCause,
        return_pc: u32,
    ) -> Result<DecodeOutcome, Trap> {
        let Some(pc) = self.entry_pc(entry) else {
            return Err(Trap::new(TrapCause::IllegalInstruction, u32::from(entry)));
        };
        let (decoded, latency) = self
            .fetch_code(state, pc)
            .unwrap_or(Err(Trap::new(TrapCause::InsnAccessFault, pc)))?;
        let mut stall = latency.saturating_sub(1);
        if let DispatchStyle::Palcode { .. } = self.config.dispatch {
            stall += PALCODE_DRAIN;
        }
        if !self.config.decode_replacement {
            stall += 2; // full redirect instead of in-slot replacement
        }
        self.push_frame(state, entry, pc, layer, cause, return_pc);
        Ok(DecodeOutcome::Replace {
            decoded,
            pc,
            next_fetch: pc.wrapping_add(4),
            stall,
        })
    }

    /// Enters Metal mode at `entry`, whose first instruction is at `pc`,
    /// on behalf of `layer`: the one push for calls, intercepts and
    /// delegated traps. Sets `m31` to `return_pc` and the entry MCRs.
    fn push_frame(
        &mut self,
        state: &mut MachineState,
        entry: u8,
        pc: u32,
        layer: usize,
        cause: EntryCause,
        return_pc: u32,
    ) {
        let mcheck = matches!(cause, EntryCause::Exception(TrapCause::MachineCheck { .. }));
        let transition_cause = match (cause, self.mode()) {
            (EntryCause::Call, Mode::Normal) => TransitionCause::Call,
            (EntryCause::Call, Mode::Metal { .. }) => TransitionCause::NestedCall,
            (EntryCause::Intercept, _) => TransitionCause::Intercept,
            (EntryCause::Exception(_), _) => TransitionCause::Exception,
            (EntryCause::Interrupt(_), _) => TransitionCause::Interrupt,
        };
        // A machine check may preempt Metal mode: bank the interrupted
        // mroutine's `m31` (raw, check bits and all — it may itself be
        // the corrupted word) so recovery's `mexit` can restore it.
        let saved_m31 = (mcheck && self.mode() != Mode::Normal).then(|| self.mregs.regs.raw(31));
        self.mregs.set(31, return_pc);
        self.mregs.mcause = cause.encode();
        self.mregs.mentry = u32::from(entry);
        self.transitions.record_entry(entry);
        self.frames.push(Frame {
            layer,
            entry,
            entered_at: state.perf.cycles,
            mcheck,
            saved_m31,
        });
        state.trace.emit(EventKind::MEnter {
            entry,
            cause: transition_cause,
            pc,
        });
    }

    /// The entry that intercepts `word` when executing in `mode`, if any.
    fn intercept_lookup(&self, word: u32) -> Option<(u8, usize)> {
        if self.mregs.mstatus & MSTATUS_INTERCEPT_ENABLE == 0 {
            return None;
        }
        let upper = match self.mode() {
            // Normal mode: all layers, highest first (paper §3.5).
            Mode::Normal => self.layers.len(),
            // Metal mode at layer L: only strictly lower layers — the
            // downward propagation rule.
            Mode::Metal { layer } => layer,
        };
        (0..upper)
            .rev()
            .find_map(|l| self.layers[l].intercepts.lookup(word).map(|e| (e, l)))
    }

    /// Delegation lookup: lowest layer first ("interrupts propagate from
    /// lower to higher layers", §3.5; exceptions likewise reach the
    /// outermost software first, as with nested page tables).
    fn delegation_lookup(&self, cause: TrapCause) -> Option<(u8, usize)> {
        (0..self.layers.len()).find_map(|l| self.layers[l].delegation.lookup(cause).map(|e| (e, l)))
    }

    /// True while a machine-check recovery mroutine is on the stack.
    fn in_mcheck(&self) -> bool {
        self.frames.iter().any(|f| f.mcheck)
    }
}

impl Hooks for Metal {
    fn fetch_decoded(
        &mut self,
        state: &mut MachineState,
        pc: u32,
    ) -> Option<Result<(DecodedInsn, u32), Trap>> {
        // Outside Metal mode the PALcode image is ordinary RAM, and MRAM
        // is not executable: normal-mode jumps into the window fault.
        if self.mode() == Mode::Normal {
            return self
                .mram
                .contains_pc(pc)
                .then(|| Err(Trap::new(TrapCause::InsnAccessFault, pc)));
        }
        self.fetch_code(state, pc)
    }

    fn decode_is_sensitive(&self, _state: &MachineState, word: u32, insn: &Insn) -> bool {
        matches!(insn, Insn::Menter { .. } | Insn::Mexit) || self.intercept_lookup(word).is_some()
    }

    fn decode(
        &mut self,
        state: &mut MachineState,
        pc: u32,
        word: u32,
        insn: &Insn,
    ) -> DecodeOutcome {
        // Interception first: it applies to ordinary instructions.
        if !insn.is_metal() {
            if let Some((entry, layer)) = self.intercept_lookup(word) {
                self.stats.intercepts += 1;
                // m31 = the intercepted instruction itself: the handler
                // advances it past the instruction after emulating, or
                // leaves it to re-execute.
                self.mregs.minsn = word;
                // Execution is attributed to the layer owning the matched
                // rule, so chained intercepts keep propagating strictly
                // downward.
                return match self.enter(state, entry, layer, EntryCause::Intercept, pc) {
                    Ok(outcome) => outcome,
                    Err(trap) => DecodeOutcome::Fault { trap, pc: None },
                };
            }
            return DecodeOutcome::Pass;
        }
        match (*insn, self.mode()) {
            (Insn::Menter { rs1, entry }, mode) => {
                let entry = if entry == MENTER_INDIRECT {
                    // Register-indirect entry; the pipeline's decode
                    // interlock guarantees rs1 is not in flight.
                    (state.regs.get(rs1) & 0x3F) as u8
                } else {
                    entry as u8
                };
                let layer = match mode {
                    Mode::Normal => self.active_layer,
                    Mode::Metal { layer } => layer,
                };
                if mode != Mode::Normal {
                    if self.config.layers <= 1 {
                        // Nested calls need the layered design.
                        return DecodeOutcome::Fault {
                            trap: Trap::illegal(word),
                            pc: None,
                        };
                    }
                    self.stats.nested_calls += 1;
                } else {
                    self.stats.menters += 1;
                }
                match self.enter(state, entry, layer, EntryCause::Call, pc.wrapping_add(4)) {
                    Ok(outcome) => outcome,
                    Err(trap) => DecodeOutcome::Fault { trap, pc: None },
                }
            }
            (Insn::Mexit, Mode::Metal { .. }) => {
                // A corrupted return address must be caught before it
                // is consumed. The frame stays intact, so after the
                // recovery mroutine scrubs `m31` this mexit retries.
                if let Err(trap) = self.checked(FaultSite::Mreg, 31, 31) {
                    return DecodeOutcome::Fault { trap, pc: None };
                }
                let target = self.mregs.return_address();
                self.stats.mexits += 1;
                let frame = self.frames.pop().expect("Metal mode has a frame");
                self.transitions.record_exit(
                    frame.entry,
                    state.perf.cycles.saturating_sub(frame.entered_at),
                );
                state.trace.emit(EventKind::MExit {
                    entry: frame.entry,
                    target,
                });
                if let Some(banked) = frame.saved_m31 {
                    self.mregs.regs.set_raw(31, banked);
                }
                // A nested mexit unwinds into the *outer mroutine*, whose
                // code lives in MRAM; only the outermost mexit returns to
                // the normal fetch path. Either way the return fetch is
                // the one the engines would make at `target`.
                let fetched = match self.fetch_decoded(state, target) {
                    Some(fetched) => fetched,
                    None => state.fetch_decoded(target),
                };
                match fetched {
                    Ok((decoded, latency)) => {
                        let mut stall = latency.saturating_sub(1);
                        if !self.config.decode_replacement {
                            stall += 2;
                        }
                        DecodeOutcome::Replace {
                            decoded,
                            pc: target,
                            next_fetch: target.wrapping_add(4),
                            stall,
                        }
                    }
                    // The return fetch faulted: the fault belongs to the
                    // return address, taken in normal mode.
                    Err(trap) => DecodeOutcome::Fault {
                        trap,
                        pc: Some(target),
                    },
                }
            }
            // Metal-mode-only instructions in normal mode trap (Table 1).
            (_, Mode::Normal) => DecodeOutcome::Fault {
                trap: Trap::illegal(word),
                pc: None,
            },
            // rmr/wmr/mld/mst/march in Metal mode execute at EX.
            _ => DecodeOutcome::Pass,
        }
    }

    fn exec_custom(
        &mut self,
        state: &mut MachineState,
        pc: u32,
        word: u32,
        insn: &Insn,
        rs1: u32,
        rs2: u32,
    ) -> Result<CustomExec, Trap> {
        let exec = self.execute(state, word, insn, rs1, rs2)?;
        state.trace.emit(EventKind::CustomExec { pc, word });
        Ok(exec)
    }

    fn on_trap(&mut self, state: &mut MachineState, event: &TrapEvent) -> TrapDisposition {
        let is_mcheck = if let TrapCause::MachineCheck { site, syndrome } = event.cause {
            self.stats.machine_checks += 1;
            state.trace.emit(EventKind::MachineCheck {
                site,
                syndrome,
                addr: event.tval,
            });
            // Record which word faulted — the implicit `mscrub` operand.
            self.last_mcheck = Some((
                site,
                match site {
                    FaultSite::MramCode => event.tval.wrapping_sub(MRAM_BASE) / 4,
                    FaultSite::MramData => event.tval / 4,
                    _ => event.tval,
                },
            ));
            true
        } else {
            false
        };
        if let Mode::Metal { .. } = self.mode() {
            // A fault inside a non-interruptible mroutine: there is no
            // handler to recurse into. Static verification is supposed
            // to prevent this (paper §2.1). The one exception is a
            // machine check — transient hardware faults cannot be
            // verified away — which preempts the mroutine unless
            // recovery itself is already on the stack (recursing into
            // possibly-corrupted recovery code cannot terminate).
            if !is_mcheck || self.in_mcheck() {
                return TrapDisposition::Fatal;
            }
        }
        let Some((entry, layer)) = self.delegation_lookup(event.cause) else {
            // The baseline mtvec path is a normal-mode construct; an
            // undelegated machine check caught mid-mroutine has no
            // handler at all.
            if is_mcheck && self.mode() != Mode::Normal {
                return TrapDisposition::Fatal;
            }
            return TrapDisposition::Default;
        };
        let Some(pc) = self.entry_pc(entry) else {
            return TrapDisposition::Fatal;
        };
        let cause = match event.cause {
            TrapCause::Interrupt(line) => {
                self.stats.delegated_interrupts += 1;
                self.mregs.soft_ipend |= 1 << line;
                EntryCause::Interrupt(line)
            }
            other => {
                self.stats.delegated_exceptions += 1;
                EntryCause::Exception(other)
            }
        };
        self.mregs.mbadaddr = event.tval;
        state.trace.emit(EventKind::TrapDelegated {
            entry,
            layer: layer as u8,
            code: cause.encode(),
        });
        self.push_frame(state, entry, pc, layer, cause, event.pc);
        // Delegated dispatch still reads the handler from MRAM next
        // fetch; charge only the non-MRAM penalty.
        let stall = match self.config.dispatch {
            DispatchStyle::Mram => 0,
            DispatchStyle::Palcode { .. } => PALCODE_DRAIN,
        };
        TrapDisposition::Redirect { target: pc, stall }
    }

    fn interrupts_allowed(&self, _state: &MachineState) -> bool {
        // "Metal mroutines are non-interruptible" (paper §2.1).
        self.mode() == Mode::Normal
    }
}

impl Metal {
    /// Executes a Metal-mode instruction that reached EX (`rmr`, `wmr`,
    /// `mld`, `mst`, `march.*`).
    fn execute(
        &mut self,
        state: &mut MachineState,
        word: u32,
        insn: &Insn,
        rs1: u32,
        rs2: u32,
    ) -> Result<CustomExec, Trap> {
        debug_assert!(
            matches!(self.mode(), Mode::Metal { .. }),
            "decode gate lets Metal instructions reach EX only in Metal mode"
        );
        match *insn {
            Insn::Rmr { idx, .. } => {
                if let Some(n) = idx.mreg_index() {
                    self.checked(FaultSite::Mreg, n, n as u32)?;
                }
                Ok(CustomExec {
                    writeback: Some(self.mregs.read(idx, state)),
                    extra_cycles: 0,
                })
            }
            Insn::Wmr { idx, .. } => {
                // `mabort` is write-sensitive: the recovery mroutine's
                // declaration that the machine check is unrecoverable.
                if matches!(Mcr::from_index(idx), Some(Mcr::Mabort)) {
                    if rs1 != 0 {
                        state.trace.emit(EventKind::Recovery {
                            action: RecoveryAction::Abort,
                        });
                        state.halted = Some(HaltReason::Fatal(format!(
                            "machine-check recovery abort (mabort = {rs1:#x})"
                        )));
                    }
                    return Ok(CustomExec::default());
                }
                self.mregs.write(idx, rs1);
                Ok(CustomExec::default())
            }
            Insn::Mld { offset, .. } => {
                let addr = rs1.wrapping_add(offset as u32);
                let i = self
                    .mram
                    .data_index(addr)
                    .ok_or_else(|| Trap::new(TrapCause::LoadAccessFault, addr))?;
                self.checked(FaultSite::MramData, i, addr)?;
                state.trace.emit(EventKind::MramData { addr, write: false });
                Ok(CustomExec {
                    writeback: Some(self.mram.data.get(i)),
                    extra_cycles: 0,
                })
            }
            Insn::Mst { offset, .. } => {
                let addr = rs1.wrapping_add(offset as u32);
                self.mram
                    .data_store(addr, rs2)
                    .map_err(|_| Trap::new(TrapCause::StoreAccessFault, addr))?;
                state.trace.emit(EventKind::MramData { addr, write: true });
                Ok(CustomExec::default())
            }
            Insn::March { op, .. } => self.exec_march(state, op, insn, rs1, rs2),
            _ => Err(Trap::illegal(word)),
        }
    }

    fn exec_march(
        &mut self,
        state: &mut MachineState,
        op: MarchOp,
        insn: &Insn,
        rs1: u32,
        rs2: u32,
    ) -> Result<CustomExec, Trap> {
        let mut exec = CustomExec::default();
        match op {
            MarchOp::Mpld => {
                let (value, latency) = state.phys_load(rs1)?;
                exec.writeback = Some(value);
                exec.extra_cycles = latency.saturating_sub(1);
            }
            MarchOp::Mpst => {
                let latency = state.phys_store(rs1, rs2)?;
                exec.extra_cycles = latency.saturating_sub(1);
            }
            MarchOp::Mtlbw => {
                state.tlb.install(rs1, metal_mem::tlb::Pte(rs2), state.asid);
            }
            MarchOp::Mtlbi => {
                // `mtlbi x0` flushes the current ASID (register identity,
                // not value: va 0 remains invalidatable).
                let is_x0 = matches!(insn, Insn::March { rs1: r, .. } if *r == Reg::ZERO);
                if is_x0 {
                    let asid = state.asid;
                    state.tlb.flush_asid(asid);
                } else {
                    let asid = state.asid;
                    state.tlb.invalidate(rs1, asid);
                }
            }
            MarchOp::Mtlbp => {
                exec.writeback = Some(state.tlb.probe(rs1, state.asid));
            }
            MarchOp::Masid => {
                state.asid = rs1 as u16;
            }
            MarchOp::Mpkey => {
                state.tlb.set_key_perms(rs1, rs2);
            }
            MarchOp::Mintercept => {
                let ok = self.layers[self.active_layer].intercepts.program(rs1, rs2);
                if !ok {
                    return Err(Trap::new(TrapCause::IllegalInstruction, rs1));
                }
            }
            MarchOp::Mipend => {
                exec.writeback = Some(state.perf.mip_snapshot | self.mregs.soft_ipend);
            }
            MarchOp::Miack => {
                self.mregs.soft_ipend &= !(1 << (rs1 & 31));
            }
            MarchOp::Mlayer => {
                let layer = (rs1 as usize).min(self.layers.len() - 1);
                self.active_layer = layer;
                // Executing code may also reassign its own layer for
                // downward-intercept attribution.
                if let Some(top) = self.frames.last_mut() {
                    top.layer = layer;
                }
            }
            MarchOp::Mtlbiall => {
                state.tlb.flush_all();
            }
            MarchOp::Mscrub => {
                let repaired = self
                    .last_mcheck
                    .is_some_and(|(site, index)| self.scrub(site, index as usize));
                if repaired {
                    self.stats.scrubs += 1;
                    state.trace.emit(EventKind::Recovery {
                        action: RecoveryAction::Retry,
                    });
                }
                exec.writeback = Some(u32::from(repaired));
            }
        }
        Ok(exec)
    }

    /// Publishes the extension's counters and per-mroutine transition
    /// statistics (entry counts, enter→exit latency histograms) into
    /// `snapshot`, alongside whatever the machine already wrote there.
    pub fn publish_metrics(&self, snapshot: &mut MetricsSnapshot) {
        snapshot.set_counter("metal.menters", self.stats.menters);
        snapshot.set_counter("metal.mexits", self.stats.mexits);
        snapshot.set_counter("metal.intercepts", self.stats.intercepts);
        snapshot.set_counter(
            "metal.delegated_exceptions",
            self.stats.delegated_exceptions,
        );
        snapshot.set_counter(
            "metal.delegated_interrupts",
            self.stats.delegated_interrupts,
        );
        snapshot.set_counter("metal.nested_calls", self.stats.nested_calls);
        snapshot.set_counter("metal.machine_checks", self.stats.machine_checks);
        snapshot.set_counter("metal.scrubs", self.stats.scrubs);
        self.transitions.publish(snapshot, "transition");
    }

    /// Installs an mroutine from pre-assembled words. Most callers use
    /// [`crate::loader::MetalBuilder`] instead, which assembles and
    /// verifies sources.
    pub fn install_routine(
        &mut self,
        entry: u8,
        name: &str,
        words: &[u32],
    ) -> Result<u32, MetalError> {
        self.mram.install(entry, name, words)?;
        Ok(self.entry_pc(entry).expect("just installed"))
    }

    /// The PC where the *next* routine will be installed (assemble
    /// sources against this base).
    #[must_use]
    pub fn next_routine_pc(&self) -> u32 {
        let offset = self.mram.config().code_bytes - self.mram.code_free();
        self.config.code_window().0 + offset
    }
}
