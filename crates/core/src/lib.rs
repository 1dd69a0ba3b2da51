//! Metal: an open architecture for developing processor features.
//!
//! This crate is the paper's primary contribution, implemented against
//! the `metal-pipeline` 5-stage core via its extension-hook interface:
//!
//! * [`mram`] — the RAM collocated with instruction fetch that holds up
//!   to 64 mroutines and their private data.
//! * [`MregFile`] — the Metal register file `m0..m31` and control
//!   registers.
//! * [`Metal`] — Metal mode, the `menter`/`mexit` decode-stage fast
//!   path, interception, delegation, and the `march.*` architectural
//!   features (physical memory, TLB, ASIDs, page keys).
//! * [`InterceptTable`] — the instruction-interception table.
//! * [`Layer`] — one nested-Metal layer's interception table and
//!   exception/interrupt delegation map.
//! * [`loader`] — the boot-time mroutine loader, which verifies each
//!   mroutine with `metal-lint` before installing it.
//! * [`arch`] — the one definition of architectural state that the
//!   campaign tools and differential tests compare.
//!
//! # Quick start
//!
//! ```
//! use metal_core::loader::MetalBuilder;
//! use metal_pipeline::state::CoreConfig;
//! use metal_pipeline::HaltReason;
//!
//! // An mroutine that doubles a0, bound to entry 7.
//! let mut core = MetalBuilder::new()
//!     .routine(7, "double", "slli a0, a0, 1\n mexit")
//!     .build_core(CoreConfig::default())
//!     .unwrap();
//!
//! // A guest program that invokes it.
//! let program = metal_asm::assemble_at("li a0, 21\n menter 7\n ebreak", 0).unwrap();
//! let bytes: Vec<u8> = program.iter().flat_map(|w| w.to_le_bytes()).collect();
//! core.load_segments([(0u32, bytes.as_slice())], 0);
//! assert_eq!(core.run(10_000), Some(HaltReason::Ebreak { code: 42 }));
//! ```

pub mod arch;
pub(crate) mod delegate;
pub(crate) mod ecc;
pub(crate) mod intercept;
pub mod loader;
pub(crate) mod metal;
pub mod mram;
pub(crate) mod mreg;

pub use ecc::{EccCheck, EccMode};
pub use intercept::{InterceptRule, InterceptTable};
pub use loader::MetalBuilder;
pub use metal::{DispatchStyle, Layer, Metal, MetalConfig, MetalStats, Mode};
pub use mram::{Mram, MramConfig, MRAM_BASE};
pub use mreg::{EntryCause, MregFile};

use core::fmt;

/// Errors from MRAM management and the mroutine loader.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetalError {
    /// Entry number outside the 64-entry table.
    BadEntry {
        /// The offending entry number.
        entry: u8,
    },
    /// Entry already bound to another mroutine.
    EntryInUse {
        /// The occupied entry.
        entry: u8,
    },
    /// A trap cause passed to the wrong delegation API (an interrupt
    /// cause to the exception map, or vice versa).
    BadCause {
        /// The misused cause code.
        code: u32,
    },
    /// MRAM code segment exhausted.
    CodeOverflow {
        /// Bytes that would be needed.
        needed: u32,
        /// Segment capacity.
        capacity: u32,
    },
    /// Code fetch outside the MRAM window or misaligned.
    CodeFetch {
        /// The bad PC.
        pc: u32,
    },
    /// Data-segment access out of bounds or misaligned.
    DataAccess {
        /// The bad offset.
        addr: u32,
    },
    /// An mroutine failed to assemble.
    Assemble {
        /// Routine name.
        routine: String,
        /// Assembler error text.
        message: String,
    },
    /// An mroutine failed static verification.
    Verify {
        /// Routine name.
        routine: String,
        /// The findings, at least one of them a denial.
        diagnostics: Vec<metal_lint::Diagnostic>,
    },
    /// The PALcode image does not fit in RAM.
    PalcodeImage {
        /// Image base address.
        base: u32,
    },
}

impl fmt::Display for MetalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetalError::BadEntry { entry } => write!(f, "entry {entry} outside the entry table"),
            MetalError::EntryInUse { entry } => write!(f, "entry {entry} already bound"),
            MetalError::BadCause { code } => {
                write!(f, "cause {code:#x} passed to the wrong delegation API")
            }
            MetalError::CodeOverflow { needed, capacity } => {
                write!(f, "MRAM code overflow: need {needed} of {capacity} bytes")
            }
            MetalError::CodeFetch { pc } => write!(f, "bad MRAM code fetch at {pc:#010x}"),
            MetalError::DataAccess { addr } => {
                write!(f, "bad MRAM data access at offset {addr:#x}")
            }
            MetalError::Assemble { routine, message } => {
                write!(f, "mroutine {routine:?} failed to assemble: {message}")
            }
            MetalError::Verify {
                routine,
                diagnostics,
            } => {
                write!(f, "mroutine {routine:?} failed verification")?;
                for d in diagnostics {
                    write!(f, "; {}", d.render(routine))?;
                }
                Ok(())
            }
            MetalError::PalcodeImage { base } => {
                write!(f, "PALcode image at {base:#010x} does not fit in RAM")
            }
        }
    }
}

impl std::error::Error for MetalError {}
