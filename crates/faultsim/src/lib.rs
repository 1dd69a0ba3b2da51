//! # metal-faultsim: deterministic transient-fault campaigns
//!
//! Runs seeded fault-injection campaigns against either Metal
//! execution engine through the shared [`metal_pipeline::Engine`]
//! trait, exercising the full robustness stack the paper's
//! architecture enables: ECC/parity detection hardware raises
//! machine-check exceptions, the per-layer delegation map routes them
//! to an mcode recovery mroutine, and `march.mscrub` repairs the
//! flagged word from the golden MRAM copy (or by SECDED syndrome
//! correction) before `mexit` re-executes the faulting instruction.
//!
//! Every campaign is a pure function of its seed: case seeds mix the
//! campaign seed with the global case index, the shared runner
//! (`metal_util::shard`) merges outcomes in index order, and the JSON
//! report has sorted keys — so `mfault --seed S --cases N` is
//! bit-reproducible across runs *and* across `--jobs` values.
//!
//! * [`FaultSpec`] — fault specs (transient / stuck-at) and their
//!   application to MRAM words, register files, TLB entries, cache
//!   tags, and pipeline latches.
//! * [`workload`] — victim programs: a live-site loop victim and
//!   grammar-generated fuzz programs, both with the shipped recovery
//!   mroutine delegated at entry 7.
//! * [`campaign`] — golden-run capture, seeded injection, and the
//!   masked / corrected / uncorrectable / SDC / hang classification.

pub mod campaign;
pub(crate) mod fault;
pub mod workload;

pub use campaign::{
    run, CampaignConfig, CaseOutcome, Classification, EngineChoice, KindChoice, Report, Tally,
    WorkloadKind,
};
pub use fault::{FaultKind, FaultSpec};
