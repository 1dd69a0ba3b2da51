//! Shared measurement helpers.

use metal_mem::CacheConfig;
use metal_pipeline::state::CoreConfig;
use metal_pipeline::{Engine, HaltReason};

/// A realistic small-core memory configuration: 4 KiB caches, 15-cycle
/// miss penalty (the setting all experiments share unless they sweep
/// it).
#[must_use]
pub fn std_config() -> CoreConfig {
    CoreConfig {
        icache: CacheConfig {
            size_bytes: 4 * 1024,
            line_bytes: 32,
            miss_penalty: 15,
        },
        dcache: CacheConfig {
            size_bytes: 4 * 1024,
            line_bytes: 32,
            miss_penalty: 15,
        },
        ram_bytes: 16 << 20,
        ..CoreConfig::default()
    }
}

/// Assembles `src`, loads it at 0, runs to halt on either engine;
/// panics on non-`ebreak` halts (experiment programs are
/// library-internal).
pub fn run_to_halt<E: Engine>(engine: &mut E, src: &str, limit: u64) -> u32 {
    let bytes = metal_asm::assemble_image(src, 0).unwrap_or_else(|e| panic!("bench program: {e}"));
    engine.load_segments([(0u32, bytes.as_slice())], 0);
    match engine.run(limit) {
        Some(HaltReason::Ebreak { code }) => code,
        other => panic!("bench program did not complete: {other:?}"),
    }
}

/// Cycles per operation: the cycles `total_with` adds over
/// `total_without`, divided by `ops`.
#[must_use]
pub fn per_op(total_with: u64, total_without: u64, ops: u64) -> f64 {
    (total_with as f64 - total_without as f64) / ops as f64
}

/// Runs the canonical instrumented workload — the E1 no-op mroutine
/// call loop on the Metal design point, with full tracing enabled — and
/// returns the unified metrics snapshot: cycles, instret, the stall
/// breakdown, cache/TLB hit rates, and per-mroutine transition counts
/// with latency histograms.
#[must_use]
pub fn metrics_run() -> metal_trace::MetricsSnapshot {
    use metal_trace::{TraceConfig, TraceHandle};
    let mut core = metal_core::MetalBuilder::new()
        .routine(0, "noop", "mexit")
        .build_core(std_config())
        .expect("canonical workload builds");
    core.state
        .set_trace(TraceHandle::enabled(TraceConfig::default()));
    run_to_halt(
        &mut core,
        "li s1, 200\nloop:\n menter 0\n addi s1, s1, -1\n bnez s1, loop\n ebreak",
        10_000_000,
    );
    let mut snap = core.state.metrics_snapshot();
    core.hooks.publish_metrics(&mut snap);
    snap
}

#[cfg(test)]
mod tests {
    use super::metrics_run;

    #[test]
    fn metrics_run_snapshot_is_pinned_and_deterministic() {
        let snap = metrics_run();
        for name in [
            "metal.menters",
            "metal.mexits",
            "transition.entry0.completions",
        ] {
            assert_eq!(snap.counter(name), Some(200), "{name}");
        }
        assert_eq!(snap.counter("instret"), Some(401));
        assert_eq!(snap.to_json_string(), metrics_run().to_json_string());
    }
}
