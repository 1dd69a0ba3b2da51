//! Cycle-level 5-stage pipelined RISC core.
//!
//! The paper prototypes Metal "on a 5-stage pipelined RISC processor"
//! (§2); this crate is that processor as a cycle-level simulator:
//!
//! * [`pipeline::Core`] — IF/ID/EX/MEM/WB with forwarding, load-use
//!   hazards, branch flushes, variable-latency memory, and traps.
//! * [`func::Interp`] — a functional reference interpreter used for
//!   differential testing (same [`state::MachineState`], no timing).
//! * [`engine::Engine`] — the common trait over both engines
//!   (construct / load / run / inspect), so harnesses are written once.
//! * [`hooks::Hooks`] — the extension interface Metal attaches to
//!   (pre-decoded fetch, decode replacement, custom execute, trap
//!   delegation).
//!
//! Both engines fetch through [`state::DecodeCache`], a shared
//! physical-address-keyed cache of pre-decoded instructions kept
//! coherent with self-modifying code by a bus generation counter.
//!
//! The baseline (non-Metal) processor is `Core<NoHooks>`: Metal
//! instructions raise illegal-instruction traps and all traps vector
//! through `mtvec`, exactly the conventional design Metal replaces.

pub(crate) mod engine;
pub(crate) mod func;
pub mod hooks;
pub(crate) mod pipeline;
pub mod state;
pub mod trap;

pub use engine::{Engine, EngineSnapshot, HANG_WINDOW};
pub use func::Interp;
pub use hooks::{CustomExec, DecodeOutcome, Hooks, NoHooks, TrapDisposition, TrapEvent};
pub use pipeline::Core;
pub use state::{
    CoreConfig, CsrFile, DecodeCache, HaltReason, MachineSnapshot, MachineState, PerfCounters,
    RegFile, TranslationMode,
};
pub use trap::{Trap, TrapCause, MACHINE_CHECK_BASE};
