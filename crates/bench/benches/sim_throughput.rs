//! Simulator throughput: simulated instructions per host second for the
//! pipelined core and the functional reference interpreter, and the
//! decode-cache A/B comparison on both engines (the shared pre-decoded
//! instruction cache must pay for itself).
//!
//! Results land in `BENCH_sim_throughput.json` (unified metrics format)
//! so successive runs can be diffed by machine.

use metal_bench::harness::std_config;
use metal_bench::microbench::{bench_fn, bench_pair, black_box, fast_mode, Pair};
use metal_pipeline::{Core, CoreConfig, Engine, Interp, NoHooks};
use metal_trace::MetricsSnapshot;

const LOOPS: u64 = 5_000;

fn program() -> Vec<u8> {
    let src = format!(
        "li s1, {LOOPS}\nloop:\n addi a0, a0, 1\n xor a1, a1, a0\n addi s1, s1, -1\n bnez s1, loop\n ebreak"
    );
    metal_asm::assemble_at(&src, 0)
        .unwrap()
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect()
}

/// One full simulation of the loop program on either engine.
fn sim_once<E: Engine<Hooks = NoHooks>>(config: CoreConfig, image: &[u8]) {
    let mut engine = E::new(config, NoHooks);
    engine.load_segments([(0u32, image)], 0);
    black_box(engine.run(10_000_000));
}

/// Decode-cache off vs on for one engine; returns the paired result.
fn decode_cache_ab<E: Engine<Hooks = NoHooks>>(image: &[u8]) -> Pair {
    let off = CoreConfig {
        decode_cache: false,
        ..std_config()
    };
    let on = std_config();
    let pair = bench_pair(
        "sim_throughput",
        &format!("{}_decode_cache_off", E::name()),
        || sim_once::<E>(off, image),
        &format!("{}_decode_cache_on", E::name()),
        || sim_once::<E>(on, image),
    );
    if !fast_mode() {
        println!(
            "sim_throughput/{}_decode_cache_speedup: {:.2}x (off {:.1} ns / on {:.1} ns)",
            E::name(),
            pair.a / pair.b,
            pair.a,
            pair.b
        );
    }
    pair
}

fn main() {
    let image = program();
    let interp_ns = bench_fn("sim_throughput", "reference_interp", || {
        sim_once::<Interp<NoHooks>>(std_config(), &image);
    });
    // The decode cache A/B, on both engines through the same generic
    // setup: off is the A side, on is the B side, so speedup = a/b.
    let core_pair = decode_cache_ab::<Core<NoHooks>>(&image);
    let interp_pair = decode_cache_ab::<Interp<NoHooks>>(&image);
    if fast_mode() {
        return;
    }
    let mut snap = MetricsSnapshot::new();
    snap.set_gauge("bench.pipelined_core.ns_per_run", core_pair.b);
    snap.set_gauge("bench.reference_interp.ns_per_run", interp_ns);
    for (engine, pair) in [("pipeline", &core_pair), ("interp", &interp_pair)] {
        snap.set_gauge(
            &format!("bench.{engine}.decode_cache_off.ns_per_run"),
            pair.a,
        );
        snap.set_gauge(
            &format!("bench.{engine}.decode_cache_on.ns_per_run"),
            pair.b,
        );
        if pair.b > 0.0 {
            snap.set_gauge(
                &format!("bench.{engine}.decode_cache_speedup"),
                pair.a / pair.b,
            );
        }
    }
    // Workspace root, so successive runs diff the same file regardless
    // of the bench binary's working directory.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_sim_throughput.json"
    );
    match std::fs::write(path, snap.to_json_string()) {
        Ok(()) => println!("sim_throughput: wrote BENCH_sim_throughput.json"),
        Err(e) => eprintln!("sim_throughput: cannot write {path}: {e}"),
    }
}
