//! Per-layer attribution of the host cost of one simulated instruction.
//!
//! A traced run of the workload on each engine counts what every
//! retired instruction asked of each layer (fetches, decode-cache
//! misses, data accesses, device ticks, MRAM fetches, trace emission
//! points) and records the fetch and data addresses of a steady-state
//! window. Each layer is then timed on its own, replaying that window
//! through the layer's public entry point on a fresh machine. Counts
//! times cost gives each layer's share of the engine's measured ns per
//! instruction; what the layers leave is the engine's own control logic
//! (pipeline stages or interpreter dispatch).

use crate::sim::mips;
use crate::workload::Workload;
use crate::{median, repeat, timed, Metrics, Tally};
use metal_core::{EccMode, Metal, MetalBuilder, MRAM_BASE};
use metal_isa::insn::LoadOp;
use metal_isa::{decode_to, DecodedInsn};
use metal_pipeline::state::{CoreConfig, MachineState};
use metal_pipeline::{Core, DecodeOutcome, Engine, Hooks, Interp};
use metal_trace::{CacheKind, Detail, Event, EventKind, TraceConfig, TraceHandle};
use std::hint::black_box;
use std::time::Duration;

/// Trace-ring capacity of the profiling run: the last this-many events
/// are the steady-state window the replayed streams come from.
const WINDOW: usize = 1 << 18;
/// Longest address stream replayed per layer.
const STREAM: usize = 4096;
/// Operations per timed pass of a layer.
const PASS_OPS: usize = 1 << 16;

/// What one engine asked of each layer per retired instruction, from
/// its traced run.
struct Profile {
    fetches: f64,
    mram_fetches: f64,
    decode_misses: f64,
    data: f64,
    ticks: f64,
    events: f64,
    tlb_lookups: f64,
    metal_entries: f64,
    icache_miss_rate: f64,
    dcache_miss_rate: f64,
    /// Host ns per instruction with tracing on.
    traced_ns: f64,
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Runs the workload once on engine `E` with full tracing and returns
/// its per-instruction profile and the trace window.
fn profile<E: Engine<Hooks = Metal>>(
    workload: &Workload,
    tally: &mut Tally,
) -> (Profile, Vec<Event>) {
    let (mut engine, _) = workload.build::<E>();
    let trace = TraceHandle::enabled(TraceConfig {
        capacity: WINDOW,
        detail: Detail::Full,
    });
    engine.state_mut().set_trace(trace.clone());
    let (secs, result) = timed(|| workload.run(&mut engine));
    tally.check(result.map(|_| ()));
    let window = trace.events();
    let count =
        |pred: fn(&EventKind) -> bool| window.iter().filter(|e| pred(&e.kind)).count() as u64;
    let retires = count(|k| matches!(k, EventKind::Retire { .. }));
    let mram = count(|k| matches!(k, EventKind::Retire { pc } if *pc >= MRAM_BASE));
    let s = engine.state();
    let n = s.perf.instret;
    let stats = &engine.hooks().stats;
    let profile = Profile {
        fetches: ratio(s.icache.accesses, n),
        // MRAM fetches have no counter: take the share of instructions
        // retired from MRAM in the window.
        mram_fetches: ratio(mram, retires),
        decode_misses: ratio(s.decode_cache.misses(), n),
        data: ratio(s.dcache.accesses, n),
        ticks: ratio(s.perf.cycles, n),
        events: ratio(window.len() as u64 + trace.dropped(), n),
        tlb_lookups: ratio(s.tlb.lookups, n),
        metal_entries: ratio(stats.menters + stats.intercepts, n),
        icache_miss_rate: ratio(s.icache.misses, s.icache.accesses),
        dcache_miss_rate: ratio(s.dcache.misses, s.dcache.accesses),
        traced_ns: secs * 1e9 / n.max(1) as f64,
    };
    (profile, window)
}

/// Host ns per call of `op` over `stream`, replayed in passes of at
/// least [`PASS_OPS`] calls: the best pass, like the engines' figures.
fn ns_per_op<T: Copy>(budget: Duration, stream: &[T], mut op: impl FnMut(T)) -> f64 {
    let reps = PASS_OPS.div_ceil(stream.len()).max(1);
    let samples = repeat(budget, 5, |_| {
        let (secs, ()) = timed(|| {
            for _ in 0..reps {
                for &x in stream {
                    op(x);
                }
            }
        });
        secs * 1e9 / (reps * stream.len()) as f64
    });
    samples.into_iter().fold(f64::INFINITY, f64::min)
}

/// Host ns per operation of each layer.
struct LayerCost {
    fetch: f64,
    decode: f64,
    hooks: f64,
    data: f64,
    tick: f64,
    mram_fetch: f64,
    transition: f64,
    trace_off: f64,
}

/// Times every layer on the pipelined machine, replaying the fetch and
/// data addresses of the profiled window.
fn layer_costs(
    workload: &Workload,
    window: &[Event],
    budget: Duration,
    metrics: &mut Metrics,
) -> LayerCost {
    let (mut core, _) = workload.build::<Core<Metal>>();
    let pcs: Vec<u32> = window
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Retire { pc } if pc < MRAM_BASE => Some(pc),
            _ => None,
        })
        .take(STREAM)
        .collect();
    let addrs: Vec<u32> = window
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::CacheAccess {
                which: CacheKind::DCache,
                addr,
                ..
            } => Some(addr & !3),
            _ => None,
        })
        .take(STREAM)
        .collect();
    let decoded: Vec<DecodedInsn> = pcs
        .iter()
        .map(|&pc| decode_to(core.state.bus.ram.read_u32(pc).unwrap_or(0)))
        .collect();
    let words: Vec<u32> = decoded.iter().map(|d| d.word).collect();
    let ticks: Vec<u64> = (0..STREAM as u64).collect();
    let slice = budget / 10;

    // Fetch as the engines do it: the extension's MRAM check, then
    // translation, decode-cache lookup and the I-cache model.
    let fetch = ns_per_op(slice, &pcs, |pc| {
        let fetched = match core.hooks.fetch_decoded(&mut core.state, pc) {
            Some(r) => r,
            None => core.state.fetch_decoded(pc),
        };
        // Consume the word only: passing the whole decoded instruction
        // through `black_box` costs more than the fetch itself.
        black_box(fetched.map(|(d, latency)| d.word ^ latency).ok());
    });
    let decode = ns_per_op(slice, &words, |w| {
        black_box(decode_to(black_box(w)).tag);
    });
    let hooks = ns_per_op(slice, &decoded, |d| {
        black_box(core.hooks.decode_is_sensitive(&core.state, d.word, &d.insn));
    });
    // Translation, D-cache model and bus/RAM read.
    let data = ns_per_op(slice, &addrs, |a| {
        black_box(core.state.load(a, LoadOp::Lw).ok());
    });
    let tick = ns_per_op(slice, &ticks, |c| {
        black_box(core.state.bus.tick(c));
    });

    // MRAM fetch with SECDED verification, on an ECC-protected routine.
    let (metal, _, _) = MetalBuilder::new()
        .ecc(EccMode::Secded)
        .routine(
            0,
            "body",
            &format!("{}mexit", "addi a1, a1, 1\n ".repeat(31)),
        )
        .build()
        .expect("MRAM routine builds");
    let mram_pcs: Vec<u32> = (0..32).map(|k| MRAM_BASE + 4 * k).collect();
    let mram_fetch = ns_per_op(slice, &mram_pcs, |pc| {
        black_box(metal.mram.code_verify(pc));
        black_box(metal.mram.code_decoded(pc).map(|d| d.word).ok());
    });

    // A Metal-mode round trip through the decode hook: `menter` into the
    // routine, then its `mexit` back out.
    let mut state = MachineState::new(&CoreConfig::default());
    let menter = decode_to(metal_asm::assemble_at("menter 0", 0).expect("menter assembles")[0]);
    let mexit_pc = MRAM_BASE + 4 * 31;
    let mexit = metal
        .mram
        .code_decoded(mexit_pc)
        .expect("routine ends in mexit");
    let mut metal = metal;
    let round_trip = [(menter, 0), (mexit, mexit_pc)];
    let transition = 2.0
        * ns_per_op(slice, &round_trip, |(d, pc)| {
            let outcome = metal.decode(&mut state, pc, d.word, &d.insn);
            black_box(matches!(outcome, DecodeOutcome::Replace { .. }));
        });

    let off = TraceHandle::disabled();
    let trace_off = ns_per_op(slice, &pcs, |pc| {
        black_box(&off).emit(EventKind::Retire { pc });
    });
    let on = TraceHandle::enabled(TraceConfig {
        capacity: STREAM,
        detail: Detail::Full,
    });
    let trace_on = ns_per_op(slice, &pcs, |pc| on.emit(EventKind::Retire { pc }));

    let snaps = repeat(slice, 3, |_| timed(|| core.snapshot()));
    let snapshot_us = median(snaps.iter().map(|(t, _)| t * 1e6).collect());
    let pristine = &snaps[0].1;
    let restore_us = median(repeat(slice, 3, |_| {
        timed(|| core.restore(pristine)).0 * 1e6
    }));

    for (name, value) in [
        ("layer.fetch_ns", fetch),
        ("layer.decode_ns", decode),
        ("layer.hooks_ns", hooks),
        ("layer.data_ns", data),
        ("layer.tick_ns", tick),
        ("layer.mram_fetch_ns", mram_fetch),
        ("layer.transition_ns", transition),
        ("layer.trace_off_ns", trace_off),
        ("layer.trace_on_ns", trace_on),
    ] {
        metrics.put(name, value, "ns");
    }
    metrics.put("layer.snapshot_us", snapshot_us, "us");
    metrics.put("layer.restore_us", restore_us, "us");
    LayerCost {
        fetch,
        decode,
        hooks,
        data,
        tick,
        mram_fetch,
        transition,
        trace_off,
    }
}

/// Splits an engine's measured ns per instruction into layer shares.
fn attribute(engine: &str, p: &Profile, cost: &LayerCost, total_ns: f64, metrics: &mut Metrics) {
    let fetch = p.fetches * cost.fetch + p.mram_fetches * cost.mram_fetch;
    let decode = p.decode_misses * cost.decode;
    // Every decoded instruction asks the extension whether it is
    // sensitive; each Metal entry is one round trip.
    let hooks = (p.fetches + p.mram_fetches) * cost.hooks + p.metal_entries * cost.transition;
    let data = p.data * cost.data;
    let tick = p.ticks * cost.tick;
    let trace = p.events * cost.trace_off;
    let core = total_ns - (fetch + decode + hooks + data + tick + trace);
    for (layer, value) in [
        ("fetch", fetch),
        ("decode", decode),
        ("hooks", hooks),
        ("data", data),
        ("tick", tick),
        ("trace", trace),
        ("core", core),
        ("total", total_ns),
    ] {
        metrics.put(format!("attr.{engine}.{layer}_ns"), value, "ns");
    }
    metrics.put(
        format!("attr.{engine}.trace_overhead"),
        p.traced_ns / total_ns - 1.0,
        "ratio",
    );
}

/// Reports the per-layer simulator metrics for `workload`.
pub fn measure(
    workload: &Workload,
    budget: &dyn Fn(f64) -> Duration,
    tally: &mut Tally,
    metrics: &mut Metrics,
) {
    let (core_profile, window) = profile::<Core<Metal>>(workload, tally);
    let (interp_profile, _) = profile::<Interp<Metal>>(workload, tally);
    let cost = layer_costs(workload, &window, budget(0.3), metrics);

    // The engines' own ns per instruction, tracing off: best of
    // repeated runs, like the end-to-end figures.
    let (mut core, core_snap) = workload.build::<Core<Metal>>();
    let core_mips = repeat(budget(0.08), 3, |_| {
        mips(workload, &mut core, &core_snap, tally)
    });
    let (mut interp, interp_snap) = workload.build::<Interp<Metal>>();
    let interp_mips = repeat(budget(0.06), 3, |_| {
        mips(workload, &mut interp, &interp_snap, tally)
    });
    let best = |xs: Vec<f64>| xs.into_iter().fold(0.0, f64::max);
    let core_ns = 1e3 / best(core_mips);
    let interp_ns = 1e3 / best(interp_mips);
    attribute("pipeline", &core_profile, &cost, core_ns, metrics);
    attribute("interp", &interp_profile, &cost, interp_ns, metrics);

    let p = &core_profile;
    for (name, value) in [
        ("pipeline.cpi", p.ticks),
        ("pipeline.fetches_per_insn", p.fetches),
        ("pipeline.icache_miss_rate", p.icache_miss_rate),
        ("pipeline.decode_cache_misses_per_insn", p.decode_misses),
        ("pipeline.data_per_insn", p.data),
        ("pipeline.dcache_miss_rate", p.dcache_miss_rate),
        ("pipeline.tlb_lookups_per_insn", p.tlb_lookups),
        ("pipeline.mram_fetches_per_insn", p.mram_fetches),
        ("pipeline.metal_entries_per_insn", p.metal_entries),
        ("pipeline.events_per_insn", p.events),
    ] {
        metrics.put(name, value, "count");
    }
}
