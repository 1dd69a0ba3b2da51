//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p metal-bench --bin reproduce -- all
//! cargo run --release -p metal-bench --bin reproduce -- table2 e1 e3
//! cargo run --release -p metal-bench --bin reproduce -- --metrics metrics.json e1
//! ```
//!
//! `--metrics <path>` additionally runs the canonical instrumented
//! workload and writes its unified metrics snapshot (cycles, instret,
//! stall breakdown, cache/TLB hit rates, per-mroutine transition
//! latency histograms) as a machine-readable JSON document.

use metal_bench::{experiments, harness};
use metal_util::outln;

fn main() {
    let mut metrics_path: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--metrics" {
            match args.next() {
                Some(path) => metrics_path = Some(path),
                None => {
                    eprintln!("--metrics requires a file path");
                    std::process::exit(2);
                }
            }
        } else {
            ids.push(arg);
        }
    }
    let ids: Vec<&str> = if ids.is_empty() || ids.iter().any(|a| a == "all") {
        experiments::ALL.to_vec()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    let mut failed = false;
    for id in ids {
        match experiments::run(id) {
            Some(report) => {
                outln!("{report}");
                outln!("{}", "-".repeat(72));
            }
            None => {
                eprintln!(
                    "unknown experiment {id:?}; known ids: {}",
                    experiments::ALL.join(", ")
                );
                failed = true;
            }
        }
    }
    if let Some(path) = metrics_path {
        let snapshot = harness::metrics_run();
        if let Err(e) = std::fs::write(&path, snapshot.to_json_string()) {
            eprintln!("cannot write {path}: {e}");
            failed = true;
        } else {
            outln!("wrote metrics snapshot to {path}");
        }
    }
    if failed {
        std::process::exit(2);
    }
}
