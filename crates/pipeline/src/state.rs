//! Architectural and micro-architectural machine state shared by the
//! pipelined core and the functional reference interpreter.

use crate::trap::{Trap, TrapCause};
use metal_isa::csr;
use metal_isa::decoded::{decode_to, DecodedInsn};
use metal_isa::insn::{LoadOp, StoreOp};
use metal_isa::reg::Reg;
use metal_mem::bus::MMIO_BASE;
use metal_mem::tlb::{AccessKind, TlbFault};
use metal_mem::walker::{WalkResult, Walker};
use metal_mem::{Bus, BusSnapshot, Cache, CacheConfig, MemError, Tlb, TlbConfig};
use metal_trace::{CacheKind, EventKind, MetricsSnapshot, TraceHandle};

/// The 32 general-purpose registers with `x0` hard-wired to zero.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegFile {
    regs: [u32; 32],
}

impl RegFile {
    /// All-zero register file.
    #[must_use]
    pub fn new() -> RegFile {
        RegFile { regs: [0; 32] }
    }

    /// Reads a register (`x0` is always 0).
    #[inline]
    #[must_use]
    pub fn get(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register (writes to `x0` are discarded).
    #[inline]
    pub fn set(&mut self, r: Reg, value: u32) {
        if r != Reg::ZERO {
            self.regs[r.index()] = value;
        }
    }

    /// Snapshot of all registers (for differential testing).
    #[must_use]
    pub fn snapshot(&self) -> [u32; 32] {
        self.regs
    }
}

impl Default for RegFile {
    fn default() -> RegFile {
        RegFile::new()
    }
}

/// The baseline core's control and status registers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CsrFile {
    /// Machine status (MIE/MPIE bits).
    pub mstatus: u32,
    /// Trap vector base.
    pub mtvec: u32,
    /// Trap scratch.
    pub mscratch: u32,
    /// Exception PC.
    pub mepc: u32,
    /// Trap cause.
    pub mcause: u32,
    /// Trap value.
    pub mtval: u32,
    /// Interrupt enable bitmap.
    pub mie: u32,
}

impl CsrFile {
    /// Reads a CSR (`None` = unimplemented, an illegal-instruction
    /// condition). `cycle`/`instret` come from the performance counters.
    #[must_use]
    pub fn read(&self, addr: u16, perf: &PerfCounters) -> Option<u32> {
        Some(match addr {
            csr::MSTATUS => self.mstatus,
            csr::MTVEC => self.mtvec,
            csr::MSCRATCH => self.mscratch,
            csr::MEPC => self.mepc,
            csr::MCAUSE => self.mcause,
            csr::MTVAL => self.mtval,
            csr::MIE => self.mie,
            csr::MIP => perf.mip_snapshot,
            csr::CYCLE => perf.cycles as u32,
            csr::CYCLEH => (perf.cycles >> 32) as u32,
            csr::INSTRET => perf.instret as u32,
            csr::INSTRETH => (perf.instret >> 32) as u32,
            _ => return None,
        })
    }

    /// Writes a CSR; returns false for read-only counters and unknown
    /// addresses (an illegal-instruction condition).
    pub fn write(&mut self, addr: u16, value: u32) -> bool {
        match addr {
            csr::MSTATUS => self.mstatus = value,
            csr::MTVEC => self.mtvec = value & !0x3,
            csr::MSCRATCH => self.mscratch = value,
            csr::MEPC => self.mepc = value & !0x1,
            csr::MCAUSE => self.mcause = value,
            csr::MTVAL => self.mtval = value,
            csr::MIE => self.mie = value,
            _ => return false,
        }
        true
    }
}

/// How data and fetch addresses are translated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TranslationMode {
    /// Physical addressing (va == pa).
    Bare,
    /// Software-managed TLB: a miss is a page fault delivered to software
    /// (an mroutine under Metal, the kernel trap handler otherwise).
    SoftTlb,
    /// Hardware walker: a TLB miss triggers a radix-tree walk; only a
    /// failed walk or permission violation faults.
    HwWalker {
        /// Physical base of the root page directory.
        root: u32,
    },
}

/// Why the machine stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HaltReason {
    /// Guest executed `ebreak`; the exit code convention is `a0`.
    Ebreak {
        /// Value of `a0` at the breakpoint.
        code: u32,
    },
    /// An unrecoverable situation (e.g. a fault inside an mroutine).
    Fatal(String),
    /// A watchdog fuel budget expired ([`crate::Engine::run_fuel`]):
    /// the guest was still running when its instruction/cycle budget
    /// ran out. Distinct from `None` (out of `run` limit but not under
    /// a watchdog) so campaign harnesses can classify hangs.
    Timeout,
}

/// Micro-architectural event counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Elapsed cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instret: u64,
    /// Cycles lost to instruction-fetch latency beyond 1.
    pub fetch_stall: u64,
    /// Cycles lost to data-access latency beyond 1.
    pub mem_stall: u64,
    /// Cycles lost to load-use hazards.
    pub loaduse_stall: u64,
    /// Cycles lost to control-flow flushes (branches, jumps, mret).
    pub flush_cycles: u64,
    /// Cycles lost to multi-cycle execute (mul/div).
    pub ex_stall: u64,
    /// Exceptions taken.
    pub exceptions: u64,
    /// Interrupts taken.
    pub interrupts: u64,
    /// Metal-mode entries (menter, intercepts, delegated traps).
    pub metal_entries: u64,
    /// TLB refills performed by the hardware walker.
    pub hw_refills: u64,
    /// Latest interrupt-pending bitmap (for the `mip` CSR).
    pub mip_snapshot: u32,
}

/// Memory-system geometry of a core. The rest of its timing is fixed
/// by the one modelled 5-stage design (the mul/div, MMIO, physical
/// access and cache-hit latencies are constants), and every engine
/// starts at PC 0 in [`TranslationMode::Bare`].
#[derive(Clone, Copy, Debug)]
pub struct CoreConfig {
    /// Instruction cache geometry and miss penalty.
    pub icache: CacheConfig,
    /// Data cache geometry and miss penalty.
    pub dcache: CacheConfig,
    /// TLB geometry.
    pub tlb: TlbConfig,
    /// RAM size in bytes.
    pub ram_bytes: usize,
    /// Enables the shared pre-decoded instruction cache (host-side
    /// speedup only; simulated timing is identical either way).
    pub decode_cache: bool,
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig {
            icache: CacheConfig::default(),
            dcache: CacheConfig::default(),
            tlb: TlbConfig::default(),
            ram_bytes: 4 << 20,
            decode_cache: true,
        }
    }
}

/// Fixed latency of an MMIO data access, in cycles.
const MMIO_LATENCY: u32 = 3;

/// Latency of an uncached physical access (`mpld`/`mpst`), in cycles.
const PHYS_LATENCY: u32 = 6;

/// Direct-mapped slots in the decode cache (a 16 KiB code window at one
/// slot per 4-byte word).
const DECODE_CACHE_SLOTS: usize = 4096;

/// Sentinel physical address marking an empty slot (real fetch
/// addresses are always 4-aligned).
const DECODE_SLOT_EMPTY: u32 = 1;

#[derive(Clone, Copy, Debug)]
struct DecodeSlot {
    pa: u32,
    data: DecodedInsn,
}

/// A direct-mapped cache of pre-decoded instructions keyed by physical
/// address, shared by both execution engines via
/// [`MachineState::fetch_decoded`].
///
/// Coherence uses a generation protocol: every insert marks the
/// containing RAM line code-resident on the bus, the bus bumps its
/// generation on any store to a marked line, and the next fetch flushes
/// the whole cache on a generation mismatch — so self-modifying code
/// always re-decodes. Host-side RAM writes that bypass the bus (program
/// loads) must call [`MachineState::invalidate_decode_cache`].
///
/// The cache is a *host-side* optimization only: a hit skips the RAM
/// read and the decode, but the icache/TLB timing models and their
/// trace events run identically on hits and misses, so enabling it
/// perturbs no simulated observable.
#[derive(Clone, Debug)]
pub struct DecodeCache {
    slots: Vec<DecodeSlot>,
    enabled: bool,
    /// Snapshot of the bus generation the cached contents are valid for.
    generation: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl DecodeCache {
    fn new(enabled: bool) -> DecodeCache {
        DecodeCache {
            slots: vec![
                DecodeSlot {
                    pa: DECODE_SLOT_EMPTY,
                    data: DecodedInsn::illegal(0),
                };
                DECODE_CACHE_SLOTS
            ],
            enabled,
            generation: 0,
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    /// Whether fetches consult the cache at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Fetches served from a cached pre-decoded entry.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Fetches that had to read and decode the word.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Whole-cache flushes (generation mismatches and program loads).
    #[must_use]
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    #[inline]
    fn index(pa: u32) -> usize {
        ((pa >> 2) as usize) & (DECODE_CACHE_SLOTS - 1)
    }

    #[inline]
    fn lookup(&mut self, pa: u32) -> Option<DecodedInsn> {
        let slot = &self.slots[Self::index(pa)];
        if slot.pa == pa {
            self.hits += 1;
            Some(slot.data)
        } else {
            self.misses += 1;
            None
        }
    }

    #[inline]
    fn insert(&mut self, pa: u32, data: DecodedInsn) {
        self.slots[Self::index(pa)] = DecodeSlot { pa, data };
    }

    fn flush(&mut self) {
        for slot in &mut self.slots {
            slot.pa = DECODE_SLOT_EMPTY;
        }
        self.invalidations += 1;
    }

    /// Allocation-free restore of all slots and counters from a snapshot
    /// of another cache with the same geometry.
    fn copy_from(&mut self, other: &DecodeCache) {
        self.slots.copy_from_slice(&other.slots);
        self.enabled = other.enabled;
        self.generation = other.generation;
        self.hits = other.hits;
        self.misses = other.misses;
        self.invalidations = other.invalidations;
    }
}

/// A point-in-time copy of every architectural and micro-architectural
/// field of a [`MachineState`], taken with [`MachineState::snapshot`] and
/// applied with [`MachineState::restore`].
///
/// The trace handle is deliberately *not* captured: trace rings are
/// shared observation channels, not machine state, and a restored
/// machine keeps whatever handle it currently has (subsystem handles are
/// reattached by `restore`). Device state cannot be captured, so a
/// machine with devices on its bus refuses to snapshot — see
/// [`Bus::snapshot`].
#[derive(Clone, Debug)]
pub struct MachineSnapshot {
    regs: RegFile,
    csr: CsrFile,
    bus: BusSnapshot,
    tlb: Tlb,
    icache: Cache,
    dcache: Cache,
    translation: TranslationMode,
    asid: u16,
    perf: PerfCounters,
    halted: Option<HaltReason>,
    decode_cache: DecodeCache,
}

/// Everything the pipeline, the reference interpreter, and the extension
/// hooks share: registers, CSRs, memory system, translation state, and
/// performance counters.
pub struct MachineState {
    /// General-purpose registers.
    pub regs: RegFile,
    /// Baseline CSRs.
    pub csr: CsrFile,
    /// The physical address space.
    pub bus: Bus,
    /// The software-managed TLB.
    pub tlb: Tlb,
    /// Instruction cache (timing only).
    pub icache: Cache,
    /// Data cache (timing only).
    pub dcache: Cache,
    /// Active translation mode.
    pub translation: TranslationMode,
    /// Current address-space ID.
    pub asid: u16,
    /// Performance counters.
    pub perf: PerfCounters,
    /// Set when the machine has stopped.
    pub halted: Option<HaltReason>,
    /// Event sink; disabled by default (see [`MachineState::set_trace`]).
    pub trace: TraceHandle,
    /// Shared pre-decoded instruction cache (see [`DecodeCache`]).
    pub decode_cache: DecodeCache,
}

impl MachineState {
    /// Builds machine state from a core configuration.
    #[must_use]
    pub fn new(config: &CoreConfig) -> MachineState {
        MachineState {
            regs: RegFile::new(),
            csr: CsrFile::default(),
            bus: Bus::new(config.ram_bytes),
            tlb: Tlb::new(config.tlb),
            icache: Cache::new(config.icache),
            dcache: Cache::new(config.dcache),
            translation: TranslationMode::Bare,
            asid: 0,
            perf: PerfCounters::default(),
            halted: None,
            trace: TraceHandle::disabled(),
            decode_cache: DecodeCache::new(config.decode_cache),
        }
    }

    /// Installs a trace handle on the machine and on every subsystem
    /// that emits events directly (TLB lookups, bus MMIO accesses).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.tlb.trace = trace.clone();
        self.bus.trace = trace.clone();
        self.trace = trace;
    }

    /// Captures every architectural and micro-architectural field into a
    /// [`MachineSnapshot`] for later [`MachineState::restore`].
    ///
    /// # Panics
    ///
    /// Panics if a device is attached to the bus (see [`Bus::snapshot`]).
    #[must_use]
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            regs: self.regs.clone(),
            csr: self.csr.clone(),
            bus: self.bus.snapshot(),
            tlb: self.tlb.clone(),
            icache: self.icache.clone(),
            dcache: self.dcache.clone(),
            translation: self.translation,
            asid: self.asid,
            perf: self.perf.clone(),
            halted: self.halted.clone(),
            decode_cache: self.decode_cache.clone(),
        }
    }

    /// Rewinds the machine to a previously captured snapshot without
    /// reallocating RAM or cache arrays — the hot reset path of the
    /// fuzzer and the fault campaigns, which restore between every
    /// case. RAM costs the pages written since the last restore plus
    /// the snapshot's nonzero pages (see [`Bus::restore`]).
    ///
    /// The machine keeps its *current* trace handle; subsystem handles
    /// (TLB, bus) are reattached to it so events keep flowing to whatever
    /// ring is installed now, not the one live at snapshot time.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken from a machine with different
    /// RAM geometry.
    pub fn restore(&mut self, snap: &MachineSnapshot) {
        self.regs = snap.regs.clone();
        self.csr = snap.csr.clone();
        self.bus.restore(&snap.bus);
        self.tlb.clone_from(&snap.tlb);
        self.tlb.trace = self.trace.clone();
        self.icache.clone_from(&snap.icache);
        self.dcache.clone_from(&snap.dcache);
        self.translation = snap.translation;
        self.asid = snap.asid;
        self.perf = snap.perf.clone();
        self.halted = snap.halted.clone();
        self.decode_cache.copy_from(&snap.decode_cache);
    }

    /// The unified metrics view: performance counters, stall breakdown,
    /// and cache/TLB statistics in one snapshot. A ratio gauge (`cpi`,
    /// the hit rates) is left out when its denominator is 0. Extensions
    /// append their own metrics (e.g. Metal's per-mroutine transition
    /// latencies) to the returned snapshot.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        let p = &self.perf;
        snap.set_counter("cycles", p.cycles);
        snap.set_counter("instret", p.instret);
        if p.instret > 0 {
            snap.set_gauge("cpi", p.cycles as f64 / p.instret as f64);
        }
        snap.set_counter("stall.fetch", p.fetch_stall);
        snap.set_counter("stall.mem", p.mem_stall);
        snap.set_counter("stall.loaduse", p.loaduse_stall);
        snap.set_counter("stall.ex", p.ex_stall);
        snap.set_counter("flush.cycles", p.flush_cycles);
        snap.set_counter("trap.exceptions", p.exceptions);
        snap.set_counter("trap.interrupts", p.interrupts);
        snap.set_counter("metal.entries", p.metal_entries);
        snap.set_counter("icache.accesses", self.icache.accesses);
        snap.set_counter("icache.misses", self.icache.misses);
        if let Some(rate) = self.icache.hit_rate() {
            snap.set_gauge("icache.hit_rate", rate);
        }
        snap.set_counter("dcache.accesses", self.dcache.accesses);
        snap.set_counter("dcache.misses", self.dcache.misses);
        if let Some(rate) = self.dcache.hit_rate() {
            snap.set_gauge("dcache.hit_rate", rate);
        }
        snap.set_counter("tlb.lookups", self.tlb.lookups);
        snap.set_counter("tlb.hits", self.tlb.hits);
        if self.tlb.lookups > 0 {
            snap.set_gauge(
                "tlb.hit_rate",
                self.tlb.hits as f64 / self.tlb.lookups as f64,
            );
        }
        snap.set_counter("tlb.hw_refills", p.hw_refills);
        snap.set_counter("decode_cache.hit", self.decode_cache.hits);
        snap.set_counter("decode_cache.miss", self.decode_cache.misses);
        snap.set_counter("decode_cache.invalidate", self.decode_cache.invalidations);
        snap
    }

    fn fault_for(kind: AccessKind, fault: TlbFault, va: u32) -> Trap {
        let cause = match (kind, fault) {
            (AccessKind::Execute, _) => TrapCause::InsnPageFault,
            (AccessKind::Read, TlbFault::KeyViolation) => TrapCause::LoadKeyViolation,
            (AccessKind::Read, _) => TrapCause::LoadPageFault,
            (AccessKind::Write, TlbFault::KeyViolation) => TrapCause::StoreKeyViolation,
            (AccessKind::Write, _) => TrapCause::StorePageFault,
        };
        Trap::new(cause, va)
    }

    /// Translates a virtual address. Returns the physical address and any
    /// extra cycles spent (hardware walker memory accesses).
    pub fn translate(&mut self, va: u32, kind: AccessKind) -> Result<(u32, u32), Trap> {
        match self.translation {
            TranslationMode::Bare => Ok((va, 0)),
            TranslationMode::SoftTlb => match self.tlb.translate(va, self.asid, kind) {
                Ok(pa) => Ok((pa, 0)),
                Err(fault) => Err(Self::fault_for(kind, fault, va)),
            },
            TranslationMode::HwWalker { root } => {
                match self.tlb.translate(va, self.asid, kind) {
                    Ok(pa) => Ok((pa, 0)),
                    Err(TlbFault::Miss) => {
                        let walker = Walker::new(root);
                        let (result, accesses) = walker
                            .walk(&self.bus.ram, va)
                            .map_err(|e| Self::mem_trap(kind, e))?;
                        // Each walk access costs a memory round trip.
                        let walk_cycles = accesses * self.dcache.config().miss_penalty;
                        match result {
                            WalkResult::Mapped(pte) => {
                                self.tlb.install(va, pte, self.asid);
                                self.perf.hw_refills += 1;
                                self.trace.emit(EventKind::HwRefill { va });
                                match self.tlb.translate(va, self.asid, kind) {
                                    Ok(pa) => Ok((pa, walk_cycles)),
                                    Err(fault) => Err(Self::fault_for(kind, fault, va)),
                                }
                            }
                            WalkResult::NotMapped { .. } => {
                                Err(Self::fault_for(kind, TlbFault::Miss, va))
                            }
                        }
                    }
                    Err(fault) => Err(Self::fault_for(kind, fault, va)),
                }
            }
        }
    }

    fn mem_trap(kind: AccessKind, e: MemError) -> Trap {
        let addr = e.addr();
        let cause = match (kind, e) {
            (AccessKind::Execute, MemError::Misaligned { .. }) => TrapCause::InsnMisaligned,
            (AccessKind::Execute, _) => TrapCause::InsnAccessFault,
            (AccessKind::Read, MemError::Misaligned { .. }) => TrapCause::LoadMisaligned,
            (AccessKind::Read, _) => TrapCause::LoadAccessFault,
            (AccessKind::Write, MemError::Misaligned { .. }) => TrapCause::StoreMisaligned,
            (AccessKind::Write, _) => TrapCause::StoreAccessFault,
        };
        Trap::new(cause, addr)
    }

    /// Charges the icache model for the fetch of `pa` and emits the
    /// access event — identical on decode-cache hits and misses.
    #[inline]
    fn icache_access(&mut self, pa: u32) -> u32 {
        let latency = self.icache.access(pa);
        self.trace.emit(EventKind::CacheAccess {
            which: CacheKind::ICache,
            addr: pa,
            hit: latency == Cache::HIT_LATENCY,
        });
        latency
    }

    /// Fetches a pre-decoded instruction, consulting the decode cache.
    /// Returns the decoded form and the fetch latency in cycles (icache
    /// hit = 1). Words with no legal decoding are returned with
    /// [`metal_isa::DispatchTag::Illegal`], not as errors — the trap is
    /// raised where the word would execute.
    pub fn fetch_decoded(&mut self, pc: u32) -> Result<(DecodedInsn, u32), Trap> {
        if !pc.is_multiple_of(4) {
            return Err(Trap::new(TrapCause::InsnMisaligned, pc));
        }
        let (pa, walk_cycles) = self.translate(pc, AccessKind::Execute)?;
        if pa >= MMIO_BASE {
            return Err(Trap::new(TrapCause::InsnAccessFault, pc));
        }
        if self.decode_cache.enabled {
            if self.decode_cache.generation != self.bus.code_generation() {
                // A store hit a code-resident line since we last looked:
                // drop every cached entry and start a fresh epoch.
                self.decode_cache.flush();
                self.bus.clear_code_marks();
                self.decode_cache.generation = self.bus.code_generation();
            }
            if let Some(d) = self.decode_cache.lookup(pa) {
                let latency = self.icache_access(pa);
                return Ok((d, latency + walk_cycles));
            }
        }
        let word = self
            .bus
            .read_u32(pa)
            .map_err(|e| Self::mem_trap(AccessKind::Execute, e))?;
        let latency = self.icache_access(pa);
        let d = decode_to(word);
        if self.decode_cache.enabled {
            self.decode_cache.insert(pa, d);
            self.bus.mark_code(pa);
        }
        Ok((d, latency + walk_cycles))
    }

    /// Flushes the decode cache and its bus-side code marks. Must be
    /// called after host-side RAM writes that bypass the bus (program
    /// loads), which the generation protocol cannot observe.
    pub fn invalidate_decode_cache(&mut self) {
        if self.decode_cache.enabled {
            self.decode_cache.flush();
            self.bus.clear_code_marks();
            self.decode_cache.generation = self.bus.code_generation();
        }
    }

    /// Loads raw segments into RAM, clears any halt, and invalidates the
    /// decode cache. The shared tail of both engines' `load_segments`.
    ///
    /// # Panics
    ///
    /// Panics if a segment does not fit in RAM.
    pub fn load_image<'a>(&mut self, segments: impl IntoIterator<Item = (u32, &'a [u8])>) {
        for (base, data) in segments {
            self.bus
                .ram
                .load(base, data)
                .unwrap_or_else(|e| panic!("segment at {base:#x} does not fit in RAM: {e}"));
        }
        self.halted = None;
        self.invalidate_decode_cache();
    }

    /// Performs a data load. Returns the (sign/zero-extended) value and
    /// the access latency in cycles.
    pub fn load(&mut self, va: u32, op: LoadOp) -> Result<(u32, u32), Trap> {
        if !va.is_multiple_of(op.bytes()) {
            return Err(Trap::new(TrapCause::LoadMisaligned, va));
        }
        let (pa, walk_cycles) = self.translate(va, AccessKind::Read)?;
        let raw = match op {
            LoadOp::Lb => self.bus.read_u8(pa).map(|b| b as i8 as i32 as u32),
            LoadOp::Lbu => self.bus.read_u8(pa).map(u32::from),
            LoadOp::Lh => self.bus.read_u16(pa).map(|h| h as i16 as i32 as u32),
            LoadOp::Lhu => self.bus.read_u16(pa).map(u32::from),
            LoadOp::Lw => self.bus.read_u32(pa),
        }
        .map_err(|e| Self::mem_trap(AccessKind::Read, e))?;
        let latency = if pa >= MMIO_BASE {
            MMIO_LATENCY
        } else {
            let latency = self.dcache.access(pa);
            self.trace.emit(EventKind::CacheAccess {
                which: CacheKind::DCache,
                addr: pa,
                hit: latency == Cache::HIT_LATENCY,
            });
            latency
        };
        Ok((raw, latency + walk_cycles))
    }

    /// Performs a data store. Returns the access latency in cycles.
    pub fn store(&mut self, va: u32, op: StoreOp, value: u32) -> Result<u32, Trap> {
        if !va.is_multiple_of(op.bytes()) {
            return Err(Trap::new(TrapCause::StoreMisaligned, va));
        }
        let (pa, walk_cycles) = self.translate(va, AccessKind::Write)?;
        match op {
            StoreOp::Sb => self.bus.write_u8(pa, value as u8),
            StoreOp::Sh => self.bus.write_u16(pa, value as u16),
            StoreOp::Sw => self.bus.write_u32(pa, value),
        }
        .map_err(|e| Self::mem_trap(AccessKind::Write, e))?;
        let latency = if pa >= MMIO_BASE {
            MMIO_LATENCY
        } else {
            let latency = self.dcache.access(pa);
            self.trace.emit(EventKind::CacheAccess {
                which: CacheKind::DCache,
                addr: pa,
                hit: latency == Cache::HIT_LATENCY,
            });
            latency
        };
        Ok(latency + walk_cycles)
    }

    /// Physical (MMU-bypassing) word load for `mpld`. Never allocates in
    /// the data cache (paper §2: MRAM/physical paths avoid cache side
    /// effects); costs `PHYS_LATENCY`.
    pub fn phys_load(&mut self, pa: u32) -> Result<(u32, u32), Trap> {
        let value = self
            .bus
            .read_u32(pa)
            .map_err(|e| Self::mem_trap(AccessKind::Read, e))?;
        Ok((value, PHYS_LATENCY))
    }

    /// Physical word store for `mpst`.
    pub fn phys_store(&mut self, pa: u32, value: u32) -> Result<u32, Trap> {
        self.bus
            .write_u32(pa, value)
            .map_err(|e| Self::mem_trap(AccessKind::Write, e))?;
        Ok(PHYS_LATENCY)
    }
}

impl std::fmt::Debug for MachineState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MachineState")
            .field("asid", &self.asid)
            .field("translation", &self.translation)
            .field("halted", &self.halted)
            .field("cycles", &self.perf.cycles)
            .field("instret", &self.perf.instret)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metal_mem::tlb::Pte;

    fn machine() -> MachineState {
        MachineState::new(&CoreConfig {
            ram_bytes: 1 << 20,
            ..CoreConfig::default()
        })
    }

    #[test]
    fn regfile_x0_pinned() {
        let mut r = RegFile::new();
        r.set(Reg::ZERO, 55);
        assert_eq!(r.get(Reg::ZERO), 0);
        r.set(Reg::A0, 55);
        assert_eq!(r.get(Reg::A0), 55);
    }

    #[test]
    fn csr_read_write() {
        let mut c = CsrFile::default();
        let perf = PerfCounters {
            cycles: 0x1_0000_0007,
            ..PerfCounters::default()
        };
        assert!(c.write(csr::MTVEC, 0x1003));
        assert_eq!(c.read(csr::MTVEC, &perf), Some(0x1000), "low bits masked");
        assert_eq!(c.read(csr::CYCLE, &perf), Some(7));
        assert_eq!(c.read(csr::CYCLEH, &perf), Some(1));
        assert!(!c.write(csr::CYCLE, 0), "counters are read-only");
        assert!(c.read(0x123, &perf).is_none());
    }

    #[test]
    fn bare_translation_passthrough() {
        let mut m = machine();
        m.bus.ram.write_u32(0x100, 0xABCD).unwrap();
        let (v, _) = m.load(0x100, LoadOp::Lw).unwrap();
        assert_eq!(v, 0xABCD);
    }

    #[test]
    fn load_sign_extension() {
        let mut m = machine();
        m.bus.ram.write_u32(0x100, 0xFFFF_FF80).unwrap();
        assert_eq!(m.load(0x100, LoadOp::Lb).unwrap().0, 0xFFFF_FF80);
        assert_eq!(m.load(0x100, LoadOp::Lbu).unwrap().0, 0x80);
        assert_eq!(m.load(0x100, LoadOp::Lh).unwrap().0, 0xFFFF_FF80);
        assert_eq!(m.load(0x100, LoadOp::Lhu).unwrap().0, 0xFF80);
    }

    #[test]
    fn soft_tlb_miss_is_page_fault() {
        let mut m = machine();
        m.translation = TranslationMode::SoftTlb;
        let err = m.load(0x5000, LoadOp::Lw).unwrap_err();
        assert_eq!(err.cause, TrapCause::LoadPageFault);
        assert_eq!(err.tval, 0x5000);
        // Install a mapping (page-granular) and retry through it.
        m.tlb.install(0x5000, Pte::new(0x1000, Pte::V | Pte::R), 0);
        m.bus.ram.write_u32(0x1100, 99).unwrap();
        assert_eq!(m.load(0x5100, LoadOp::Lw).unwrap().0, 99);
        // Store to a read-only page faults differently.
        let err = m.store(0x5000, StoreOp::Sw, 0).unwrap_err();
        assert_eq!(err.cause, TrapCause::StorePageFault);
    }

    #[test]
    fn hw_walker_refills() {
        let mut m = machine();
        // Build a page table rooted at 0x10000 mapping va 0x40000 -> pa 0x200.
        let root = 0x1_0000;
        let walker = Walker::new(root);
        let mut next = 0x2_0000u32;
        let mut alloc = || {
            let p = next;
            next += 0x1000;
            p
        };
        walker
            .map(&mut m.bus.ram, 0x4_0000, 0x0, Pte::R | Pte::W, &mut alloc)
            .unwrap();
        m.bus.ram.write_u32(0x0, 0x1234).unwrap();
        m.translation = TranslationMode::HwWalker { root };
        let (v, cycles) = m.load(0x4_0000, LoadOp::Lw).unwrap();
        assert_eq!(v, 0x1234);
        assert!(cycles > 1, "walk charged extra cycles, got {cycles}");
        assert_eq!(m.perf.hw_refills, 1);
        // Second access hits the TLB: cheap.
        let (_, cycles2) = m.load(0x4_0000, LoadOp::Lw).unwrap();
        assert!(cycles2 < cycles);
        assert_eq!(m.perf.hw_refills, 1);
    }

    #[test]
    fn misaligned_accesses_trap() {
        let mut m = machine();
        assert_eq!(
            m.load(0x101, LoadOp::Lw).unwrap_err().cause,
            TrapCause::LoadMisaligned
        );
        assert_eq!(
            m.store(0x102, StoreOp::Sw, 0).unwrap_err().cause,
            TrapCause::StoreMisaligned
        );
        assert_eq!(
            m.fetch_decoded(0x2).unwrap_err().cause,
            TrapCause::InsnMisaligned
        );
    }

    #[test]
    fn fetch_from_mmio_faults() {
        let mut m = machine();
        assert_eq!(
            m.fetch_decoded(MMIO_BASE).unwrap_err().cause,
            TrapCause::InsnAccessFault
        );
    }

    #[test]
    fn decode_cache_hits_and_invalidates_on_bus_stores() {
        let mut m = machine();
        m.bus.ram.write_u32(0x100, 0x0000_0013).unwrap(); // nop
        m.invalidate_decode_cache();
        let inv_base = m.decode_cache.invalidations();
        let (d1, _) = m.fetch_decoded(0x100).unwrap();
        assert_eq!(m.decode_cache.misses(), 1);
        let (d2, _) = m.fetch_decoded(0x100).unwrap();
        assert_eq!(m.decode_cache.hits(), 1);
        assert_eq!(d1, d2);
        // A store through the bus to the fetched line flushes the cache;
        // the next fetch sees the new word.
        m.store(0x100, StoreOp::Sw, 0x02A0_0513).unwrap(); // addi a0, x0, 42
        let (d3, _) = m.fetch_decoded(0x100).unwrap();
        assert_eq!(m.decode_cache.invalidations(), inv_base + 1);
        assert_eq!(d3.word, 0x02A0_0513);
        // A store elsewhere does not flush.
        m.store(0x2000, StoreOp::Sw, 7).unwrap();
        let (_, _) = m.fetch_decoded(0x100).unwrap();
        assert_eq!(m.decode_cache.invalidations(), inv_base + 1);
    }

    #[test]
    fn decode_cache_is_timing_invisible() {
        let observe = |enabled: bool| {
            let mut m = MachineState::new(&CoreConfig {
                ram_bytes: 1 << 20,
                decode_cache: enabled,
                ..CoreConfig::default()
            });
            m.bus.ram.write_u32(0x40, 0x0000_0013).unwrap();
            let mut latencies = Vec::new();
            for _ in 0..5 {
                latencies.push(m.fetch_decoded(0x40).unwrap().1);
            }
            (latencies, m.icache.accesses, m.icache.misses)
        };
        assert_eq!(observe(false), observe(true));
    }

    #[test]
    fn phys_access_bypasses_translation() {
        let mut m = machine();
        m.translation = TranslationMode::SoftTlb;
        // Virtual load faults, physical load succeeds.
        assert!(m.load(0x300, LoadOp::Lw).is_err());
        m.phys_store(0x300, 77).unwrap();
        assert_eq!(m.phys_load(0x300).unwrap().0, 77);
    }

    #[test]
    fn decode_cache_survives_generation_wraparound() {
        let mut m = machine();
        m.bus.ram.write_u32(0x100, 0x0000_0013).unwrap(); // nop
        m.invalidate_decode_cache();
        // Park the bus generation at the wrap boundary. The decode
        // cache resynchronizes on the next fetch (inequality, not
        // ordering, drives the protocol).
        m.bus.force_code_generation(u64::MAX);
        let (d1, _) = m.fetch_decoded(0x100).unwrap();
        assert_eq!(d1.word, 0x0000_0013);
        let (_, _) = m.fetch_decoded(0x100).unwrap();
        assert_eq!(m.decode_cache.hits(), 1, "stable across the boundary");
        // The store wraps the generation to 0; the stale entry must
        // still be dropped even though the counter went "backwards".
        m.store(0x100, StoreOp::Sw, 0x02A0_0513).unwrap(); // addi a0, x0, 42
        assert_eq!(m.bus.code_generation(), 0, "generation wrapped");
        let (d2, _) = m.fetch_decoded(0x100).unwrap();
        assert_eq!(d2.word, 0x02A0_0513, "stale decode served after wrap");
    }

    #[test]
    fn load_image_invalidates_line_straddling_install() {
        let mut m = machine();
        // Cache decodes on both sides of a 64-byte code-line boundary.
        m.bus.ram.write_u32(0x13C, 0x0000_0013).unwrap(); // nop (line 0x100)
        m.bus.ram.write_u32(0x140, 0x0000_0013).unwrap(); // nop (line 0x140)
        m.invalidate_decode_cache();
        let (_, _) = m.fetch_decoded(0x13C).unwrap();
        let (_, _) = m.fetch_decoded(0x140).unwrap();
        // Install a segment straddling that boundary host-side (the
        // path an MRAM/program install takes — invisible to the bus
        // generation protocol, so load_image must flush explicitly).
        let addi_a0 = 0x02A0_0513u32.to_le_bytes(); // addi a0, x0, 42
        let addi_a1 = 0x0150_0593u32.to_le_bytes(); // addi a1, x0, 21
        let mut seg = Vec::new();
        seg.extend_from_slice(&addi_a0);
        seg.extend_from_slice(&addi_a1);
        m.load_image([(0x13C, seg.as_slice())]);
        let (d1, _) = m.fetch_decoded(0x13C).unwrap();
        let (d2, _) = m.fetch_decoded(0x140).unwrap();
        assert_eq!(d1.word, 0x02A0_0513, "pre-boundary word stale");
        assert_eq!(d2.word, 0x0150_0593, "post-boundary word stale");
    }

    #[test]
    fn snapshot_restore_rewinds_all_state() {
        let mut m = machine();
        m.translation = TranslationMode::SoftTlb;
        m.asid = 3;
        m.tlb.install(0x5000, Pte::new(0x1000, Pte::V | Pte::R), 3);
        m.bus.ram.write_u32(0x1100, 99).unwrap();
        m.bus.ram.write_u32(0x100, 0x0000_0013).unwrap();
        m.invalidate_decode_cache();
        m.regs.set(Reg::A0, 7);
        m.csr.mscratch = 0xDEAD;
        m.perf.cycles = 1234;
        let snap = m.snapshot();

        // Diverge everything the snapshot covers.
        m.translation = TranslationMode::Bare;
        let (_, _) = m.fetch_decoded(0x100).unwrap();
        m.translation = TranslationMode::SoftTlb;
        m.tlb.flush_all();
        m.bus.ram.write_u32(0x1100, 0).unwrap();
        m.store(0x100, StoreOp::Sw, 0xFFFF_FFFF).ok();
        m.regs.set(Reg::A0, 0);
        m.csr.mscratch = 0;
        m.perf.cycles = 0;
        m.asid = 9;
        m.halted = Some(HaltReason::Ebreak { code: 1 });

        m.restore(&snap);
        assert_eq!(m.regs.get(Reg::A0), 7);
        assert_eq!(m.csr.mscratch, 0xDEAD);
        assert_eq!(m.perf.cycles, 1234);
        assert_eq!(m.asid, 3);
        assert_eq!(m.halted, None);
        assert_eq!(m.translation, TranslationMode::SoftTlb);
        // TLB entry and RAM contents came back.
        assert_eq!(m.load(0x5100, LoadOp::Lw).unwrap().0, 99);
        // Decode-cache counters rewound with the rest.
        assert_eq!(m.decode_cache.hits(), snap.decode_cache.hits);
        assert_eq!(m.decode_cache.misses(), snap.decode_cache.misses);
    }
}
