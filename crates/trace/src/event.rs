//! Typed trace events.
//!
//! Events are plain `Copy` data — no allocation on the hot path — and
//! deliberately reference nothing from the simulator crates, so every
//! layer (memory system, pipeline, Metal extension) can emit them
//! without dependency cycles.

/// Which pipeline resource a stall was charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallKind {
    /// Instruction-fetch latency beyond one cycle.
    Fetch,
    /// Data-access latency beyond one cycle.
    Mem,
    /// Load-use hazard bubble.
    LoadUse,
    /// Multi-cycle execute (mul/div, custom ops).
    Ex,
    /// Decode-stage hold (mroutine dispatch, PALcode fetch).
    Decode,
}

/// Which cache an access went through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheKind {
    /// Instruction cache.
    ICache,
    /// Data cache.
    DCache,
}

/// Result of a TLB lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlbOutcome {
    /// Translated successfully.
    Hit,
    /// No matching entry.
    Miss,
    /// PTE permission violation.
    Protection,
    /// Page-key violation.
    KeyViolation,
}

/// A hardware structure in which a fault can be injected or detected.
///
/// Lives here (rather than in the ISA or core crates) for the same
/// reason every other event payload does: the memory system, the
/// pipeline, and the Metal extension all need to name fault sites
/// without a dependency cycle. The 3-bit `code` is packed into the
/// machine-check `mcause` encoding, so it is architecturally visible.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// An MRAM code word.
    MramCode,
    /// An MRAM data word.
    MramData,
    /// A Metal register (`m0`–`m31`).
    Mreg,
    /// A guest general-purpose register.
    GuestReg,
    /// A TLB entry.
    Tlb,
    /// A cache tag.
    Cache,
    /// An inter-stage pipeline latch (pipelined core only).
    Latch,
}

impl FaultSite {
    /// All sites, in `code` order.
    pub const ALL: [FaultSite; 7] = [
        FaultSite::MramCode,
        FaultSite::MramData,
        FaultSite::Mreg,
        FaultSite::GuestReg,
        FaultSite::Tlb,
        FaultSite::Cache,
        FaultSite::Latch,
    ];

    /// The 3-bit site code packed into the machine-check cause.
    #[must_use]
    pub fn code(self) -> u32 {
        match self {
            FaultSite::MramCode => 0,
            FaultSite::MramData => 1,
            FaultSite::Mreg => 2,
            FaultSite::GuestReg => 3,
            FaultSite::Tlb => 4,
            FaultSite::Cache => 5,
            FaultSite::Latch => 6,
        }
    }

    /// Decodes a 3-bit site code (7 is reserved).
    #[must_use]
    pub fn from_code(code: u32) -> Option<FaultSite> {
        FaultSite::ALL.get(code as usize).copied()
    }

    /// Stable label used in CLI flags, JSON reports, and event names.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::MramCode => "mram-code",
            FaultSite::MramData => "mram-data",
            FaultSite::Mreg => "mreg",
            FaultSite::GuestReg => "guest-reg",
            FaultSite::Tlb => "tlb",
            FaultSite::Cache => "cache",
            FaultSite::Latch => "latch",
        }
    }

    /// Parses a CLI label back into a site.
    #[must_use]
    pub fn parse(s: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|site| site.label() == s)
    }
}

/// What a machine-check recovery mroutine (or the campaign harness on
/// its behalf) did about a detected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// The fault was scrubbed in place and the faulting instruction
    /// retried (`mscrub` succeeded).
    Retry,
    /// State was rewound to a checkpoint snapshot.
    Rollback,
    /// Recovery gave up (`wmr mabort`): the fault is uncorrectable.
    Abort,
}

/// Why the machine entered Metal mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransitionCause {
    /// An explicit `menter`.
    Call,
    /// A nested `menter` from Metal mode.
    NestedCall,
    /// Instruction interception.
    Intercept,
    /// A delegated exception.
    Exception,
    /// A delegated interrupt.
    Interrupt,
}

impl TransitionCause {
    /// Short label used in exports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TransitionCause::Call => "call",
            TransitionCause::NestedCall => "nested_call",
            TransitionCause::Intercept => "intercept",
            TransitionCause::Exception => "exception",
            TransitionCause::Interrupt => "interrupt",
        }
    }
}

/// One trace event payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// An instruction retired: in the pipeline's WB stage, or in the
    /// interpreter's step. Both engines emit exactly one per `instret`
    /// increment, in retirement order.
    Retire {
        /// PC of the retired instruction.
        pc: u32,
    },
    /// A stall of `cycles` began.
    Stall {
        /// The resource charged.
        kind: StallKind,
        /// Length in cycles.
        cycles: u32,
    },
    /// A control-flow flush redirected fetch.
    Flush {
        /// The redirect target.
        target: u32,
    },
    /// A trap was taken through the baseline path.
    Trap {
        /// Encoded `mcause` value.
        code: u32,
        /// Trap value (faulting address / instruction word).
        tval: u32,
        /// Faulting or interrupted PC.
        pc: u32,
    },
    /// A trap was delegated to an mroutine.
    TrapDelegated {
        /// The handling entry.
        entry: u8,
        /// The layer whose table matched.
        layer: u8,
        /// Encoded cause.
        code: u32,
    },
    /// An external interrupt was injected into the pipeline.
    InterruptInjected {
        /// The interrupt line.
        line: u8,
    },
    /// Metal-mode entry (a transition begins).
    MEnter {
        /// Entry-table index of the mroutine.
        entry: u8,
        /// Why the transition happened.
        cause: TransitionCause,
        /// First PC of the mroutine.
        pc: u32,
    },
    /// Metal-mode exit (the matching transition ends).
    MExit {
        /// Entry-table index of the finishing mroutine.
        entry: u8,
        /// Where execution resumes.
        target: u32,
    },
    /// An MRAM code fetch.
    MramFetch {
        /// The fetched PC.
        pc: u32,
    },
    /// An MRAM data access (`mld`/`mst`).
    MramData {
        /// MRAM data-segment address.
        addr: u32,
        /// True for `mst`.
        write: bool,
    },
    /// A cache access.
    CacheAccess {
        /// Which cache.
        which: CacheKind,
        /// Physical address.
        addr: u32,
        /// True on hit.
        hit: bool,
    },
    /// A TLB lookup.
    TlbLookup {
        /// Virtual address.
        va: u32,
        /// The outcome.
        outcome: TlbOutcome,
    },
    /// The hardware walker refilled the TLB.
    HwRefill {
        /// Virtual address that missed.
        va: u32,
    },
    /// An MMIO device access.
    MmioAccess {
        /// Physical address.
        addr: u32,
        /// True for writes.
        write: bool,
    },
    /// A decode-slot replacement observed by a generic hooks decorator
    /// (the extension-agnostic view of `menter`/`mexit`/interception).
    DecodeReplace {
        /// PC of the replaced slot.
        pc: u32,
        /// PC attributed to the replacement.
        target: u32,
    },
    /// A custom (extension) instruction executed at EX.
    CustomExec {
        /// PC of the instruction.
        pc: u32,
        /// The instruction word.
        word: u32,
    },
    /// A fault was injected into a hardware structure (campaign
    /// harness only — real workloads never emit this).
    FaultInjected {
        /// The structure hit.
        site: FaultSite,
        /// Site-relative address (word address, register index, slot).
        addr: u32,
        /// Bit position flipped or pinned.
        bit: u8,
    },
    /// Detection hardware (parity/ECC) raised a machine check.
    MachineCheck {
        /// The structure where the error was detected.
        site: FaultSite,
        /// ECC syndrome (0 for parity).
        syndrome: u8,
        /// Site-relative address of the corrupted word.
        addr: u32,
    },
    /// A recovery decision was made for a delivered machine check.
    Recovery {
        /// What the recovery path did.
        action: RecoveryAction,
    },
    /// A free-form marker for experiments.
    Marker {
        /// Static label.
        name: &'static str,
        /// Payload.
        value: u64,
    },
}

impl EventKind {
    /// Display name used by exporters.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Retire { .. } => "retire",
            EventKind::Stall { kind, .. } => match kind {
                StallKind::Fetch => "stall.fetch",
                StallKind::Mem => "stall.mem",
                StallKind::LoadUse => "stall.loaduse",
                StallKind::Ex => "stall.ex",
                StallKind::Decode => "stall.decode",
            },
            EventKind::Flush { .. } => "flush",
            EventKind::Trap { .. } => "trap",
            EventKind::TrapDelegated { .. } => "trap.delegated",
            EventKind::InterruptInjected { .. } => "interrupt",
            EventKind::MEnter { .. } => "menter",
            EventKind::MExit { .. } => "mexit",
            EventKind::MramFetch { .. } => "mram.fetch",
            EventKind::MramData { .. } => "mram.data",
            EventKind::CacheAccess { which, .. } => match which {
                CacheKind::ICache => "icache",
                CacheKind::DCache => "dcache",
            },
            EventKind::TlbLookup { .. } => "tlb",
            EventKind::HwRefill { .. } => "tlb.hw_refill",
            EventKind::MmioAccess { .. } => "mmio",
            EventKind::DecodeReplace { .. } => "decode.replace",
            EventKind::CustomExec { .. } => "exec.custom",
            EventKind::FaultInjected { .. } => "fault.injected",
            EventKind::MachineCheck { .. } => "mcheck.delivered",
            EventKind::Recovery { action } => match action {
                RecoveryAction::Retry => "recovery.retry",
                RecoveryAction::Rollback => "recovery.rollback",
                RecoveryAction::Abort => "recovery.abort",
            },
            EventKind::Marker { name, .. } => name,
        }
    }

    /// True for per-access events that dominate volume; the tracer skips
    /// them at [`crate::Detail::Transitions`].
    #[must_use]
    pub fn is_fine_grained(&self) -> bool {
        matches!(
            self,
            EventKind::Retire { .. }
                | EventKind::CacheAccess { .. }
                | EventKind::TlbLookup { .. }
                | EventKind::MramFetch { .. }
                | EventKind::MramData { .. }
                | EventKind::MmioAccess { .. }
                | EventKind::CustomExec { .. }
        )
    }
}

/// A timestamped event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The cycle at which the event occurred.
    pub cycle: u64,
    /// The payload.
    pub kind: EventKind,
}
