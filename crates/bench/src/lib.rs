//! Benchmark harness: regenerates every table and figure of the paper.
//!
//! Each experiment in [`experiments`] corresponds to a row of the
//! per-experiment index in `DESIGN.md`:
//!
//! | id | artifact |
//! |----|----------|
//! | T1 | Table 1 — the Metal instructions |
//! | F1 | Figure 1 — workflow / hardware components |
//! | F2 | Figure 2 — kenter/kexit mroutines (plus a live syscall) |
//! | T2 | Table 2 — hardware cost (wires/cells) |
//! | E1 | mode-transition overhead: Metal vs PALcode vs trap |
//! | E2 | user-defined privilege levels: syscall + ring-ladder cost |
//! | E3 | custom page tables: TLB-refill latency, three designs |
//! | E4 | STM: throughput, abort rates, instruction counts |
//! | E5 | user-level interrupts: latency + polling CPU occupancy |
//! | E6 | in-process isolation: vault-gate cost |
//! | E7 | nested Metal: chained interception |
//! | E8 | hardware-cost ablation over MRAM geometry |
//! | E9 | shadow stack: call-heavy workload overhead |
//!
//! Run `cargo run -p metal-bench --bin reproduce -- all` to print
//! everything (or a single id, lower-cased, e.g. `-- e1`).

pub mod experiments;
pub mod harness;

pub use harness::{run_to_halt, std_config};
