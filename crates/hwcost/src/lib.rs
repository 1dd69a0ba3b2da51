//! Structural hardware-cost model for the Metal processor.
//!
//! The paper evaluates hardware cost by synthesizing the prototype "with
//! and without Metal" using Yosys and a Synopsys standard-cell library
//! and counting wires and cells (Table 2): Metal costs **+16.1% wires**
//! and **+14.3% cells** on a 5-stage pipelined core.
//!
//! We have no HDL toolchain in this environment, so the substitution is
//! a *structural estimator*: the processor is described as a hierarchy
//! of parameterized blocks (flop arrays, register files, CAMs, ALUs,
//! muxes, random logic), each mapped to standard-cell counts with
//! constants representative of a NAND2-equivalent library. The headline
//! number — the **relative** cost of adding Metal — then emerges from
//! which blocks Metal adds (MRAM, the Metal register file, the entry
//! table, the intercept CAM, mode/replacement logic) versus what a
//! 5-stage core already contains.
//!
//! Absolute counts are calibrated to the paper's scale via
//! [`ProcessorConfig::paper`] (the paper does not publish its cache or
//! MRAM geometry; we pick sizes that reproduce its baseline cell count
//! and document them in EXPERIMENTS.md). The ablation API
//! ([`processor::metal_processor`] over custom [`MetalHwConfig`]) sweeps
//! MRAM size, entry-table slots, and intercept slots for experiment E8.

pub(crate) mod blocks;
pub(crate) mod library;
pub mod processor;
pub(crate) mod report;

pub use blocks::{Component, Cost};
pub use processor::{baseline_processor, metal_processor, MetalHwConfig, ProcessorConfig};
pub use report::{table2, Table2};
