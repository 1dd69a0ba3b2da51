//! Dependency-free support utilities shared across the workspace.
//!
//! The simulator builds in hermetic environments with no access to a
//! crates.io mirror, so anything that would conventionally be an external
//! dependency lives here instead:
//!
//! * [`Rng`] — a small deterministic PRNG used by the randomized
//!   ("property") tests in place of a property-testing framework.
//! * [`json`] — a minimal JSON writer and reader, enough for metrics
//!   snapshots and Chrome trace-event files.
//! * [`cli`] — the argument-parsing helpers shared by the `msim`,
//!   `masm`, and `mdis` binaries.
//! * [`shard`] — the deterministic case runner behind the `mfuzz` and
//!   `mfault` campaigns.
//! * [`Mutex`] — a mutex whose `lock()` ignores poison, shared by the
//!   devices and the trace ring.

pub mod cli;
pub mod json;
pub(crate) mod rng;
pub mod shard;
pub(crate) mod sync;

pub use json::{Json, JsonError};
pub use rng::Rng;
pub use sync::Mutex;
