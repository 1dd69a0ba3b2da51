//! The observability layer's two contracts, tested end to end:
//!
//! 1. **Zero perturbation** — running with full tracing enabled (Metal
//!    emitting its own MRAM-fetch and custom-execute events) yields
//!    bit-identical architectural state and identical cycle counts to
//!    the untraced run. Observation must never change what is observed.
//! 2. **Well-formed export** — the Chrome trace-event JSON parses, its
//!    timestamps are monotonically non-decreasing, duration events are
//!    balanced, and the transition events the Metal workload generates
//!    actually appear.

use metal_core::{Metal, MetalBuilder};
use metal_isa::reg::Reg;
use metal_pipeline::state::CoreConfig;
use metal_pipeline::{Core, Engine};
use metal_trace::{Detail, TraceConfig, TraceHandle};
use metal_util::{Json, Rng};

/// A guest that exercises every event source: mroutine calls (MRAM
/// fetch + data + transitions), arithmetic, loads/stores (D-cache),
/// and branches.
fn guest(rng: &mut Rng) -> String {
    let steps = rng.range_usize(4, 24);
    let mut body = String::new();
    for _ in 0..steps {
        let step = match rng.range_u32(0, 6) {
            0 => format!("addi a0, a0, {}", rng.range_i32(-512, 512)),
            1 => "menter 0".to_owned(),
            2 => "menter 1".to_owned(),
            3 => format!("sw a0, {}(s0)", rng.range_u32(0, 16) * 4),
            4 => format!("lw t0, {}(s0)\n add a0, a0, t0", rng.range_u32(0, 16) * 4),
            _ => "add a1, a1, a0".to_owned(),
        };
        body.push_str(&step);
        body.push('\n');
    }
    format!("li s0, 0x8000\nli a0, 7\nli a1, 11\n{body}ebreak")
}

fn build_metal() -> Metal {
    let (metal, _, _) = MetalBuilder::new()
        .routine(
            0,
            "bump",
            "rmr t0, m0\n addi t0, t0, 1\n wmr m0, t0\n mexit",
        )
        .routine(1, "store", "mst a0, 0(zero)\n mld t0, 0(zero)\n mexit")
        .build()
        .expect("routines verify");
    metal
}

fn run(metal: Metal, image: &[u8], trace: Option<TraceHandle>) -> Core<Metal> {
    let mut core = Core::new(CoreConfig::default(), metal);
    if let Some(handle) = trace {
        core.state.set_trace(handle);
    }
    core.load_segments([(0u32, image)], 0);
    core.run(5_000_000);
    core
}

/// Tracing (full detail) never perturbs the
/// simulation: identical registers, memory, cycle counts, retirement
/// counts, and Metal-side state.
#[test]
fn tracing_is_zero_perturbation() {
    let mut rng = Rng::new(0x0b5e_0001);
    for case in 0..24 {
        let src = guest(&mut rng);
        let image = metal_asm::assemble_image(&src, 0).expect("guest assembles");

        let plain = run(build_metal(), &image, None);
        let traced = run(
            build_metal(),
            &image,
            Some(TraceHandle::enabled(TraceConfig::default())),
        );

        assert_eq!(
            plain.state.perf.cycles, traced.state.perf.cycles,
            "case {case}: cycle counts diverged\nguest:\n{src}"
        );
        assert_eq!(
            plain.state.perf.instret, traced.state.perf.instret,
            "case {case}: retirement counts diverged"
        );
        assert_eq!(
            plain.state.regs.snapshot(),
            traced.state.regs.snapshot(),
            "case {case}: registers diverged\nguest:\n{src}"
        );
        assert_eq!(plain.state.halted, traced.state.halted, "case {case}");
        let dump = |core: &Core<Metal>| core.state.bus.ram.dump(0x8000, 64 * 4).unwrap().to_vec();
        assert_eq!(dump(&plain), dump(&traced), "case {case}: memory diverged");
        assert_eq!(
            plain.hooks.mram.data(),
            traced.hooks.mram.data(),
            "case {case}: MRAM diverged"
        );
        assert_eq!(
            plain.hooks.stats, traced.hooks.stats,
            "case {case}: Metal stats diverged"
        );
        // The traced run actually recorded something.
        assert!(
            !traced.state.trace.events().is_empty(),
            "case {case}: no events recorded"
        );
    }
}

/// The exported Chrome trace parses as JSON, timestamps never go
/// backwards, B/E pairs balance, and the workload's transitions
/// appear as menter/mexit-derived events.
#[test]
fn chrome_export_is_well_formed() {
    let mut rng = Rng::new(0x0b5e_0002);
    for case in 0..12 {
        let src = guest(&mut rng);
        let image = metal_asm::assemble_image(&src, 0).expect("guest assembles");
        let detail = if rng.chance() {
            Detail::Full
        } else {
            Detail::Transitions
        };
        let core = run(
            build_metal(),
            &image,
            Some(TraceHandle::enabled(TraceConfig {
                detail,
                ..TraceConfig::default()
            })),
        );

        let text = core.state.trace.export_chrome();
        let json = Json::parse(&text)
            .unwrap_or_else(|e| panic!("case {case}: export does not parse: {e:?}"));
        let events = json
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");

        let mut last_ts = f64::NEG_INFINITY;
        let mut depth = 0i64;
        let mut names = std::collections::BTreeSet::new();
        for ev in events {
            let ts = ev.get("ts").and_then(Json::as_f64).expect("ts field");
            assert!(
                ts >= last_ts,
                "case {case}: timestamp went backwards: {ts} < {last_ts}"
            );
            last_ts = ts;
            let ph = ev.get("ph").and_then(Json::as_str).expect("ph field");
            match ph {
                "B" => depth += 1,
                "E" => {
                    depth -= 1;
                    assert!(depth >= 0, "case {case}: unmatched E event");
                }
                _ => {}
            }
            if let Some(name) = ev.get("name").and_then(Json::as_str) {
                names.insert(name.to_owned());
            }
        }
        assert_eq!(depth, 0, "case {case}: unbalanced B/E events");
        // Both installed mroutines were called at least once in most
        // guests; require at least one transition span.
        if src.contains("menter") {
            assert!(
                names.iter().any(|n| n.starts_with("mroutine[")),
                "case {case}: no transition spans in {names:?}"
            );
        }
    }
}

/// The unified metrics snapshot carries everything an experiment
/// needs: cycle/instruction counts, the stall breakdown, hit rates,
/// and per-mroutine transition histograms — and survives a JSON
/// round trip.
#[test]
fn metrics_snapshot_is_complete() {
    let src = "li s0, 0x8000\nli s1, 40\nloop:\n menter 0\n sw s1, 0(s0)\n lw t1, 0(s0)\n addi s1, s1, -1\n bnez s1, loop\n ebreak";
    let image = metal_asm::assemble_image(src, 0).expect("guest assembles");
    let core = run(
        build_metal(),
        &image,
        Some(TraceHandle::enabled(TraceConfig::default())),
    );
    assert_eq!(core.state.regs.get(Reg::S1), 0);

    let mut snap = core.state.metrics_snapshot();
    core.hooks.publish_metrics(&mut snap);

    assert_eq!(snap.counter("cycles"), Some(core.state.perf.cycles));
    assert_eq!(snap.counter("instret"), Some(core.state.perf.instret));
    for key in [
        "stall.fetch",
        "stall.mem",
        "stall.loaduse",
        "stall.ex",
        "flush.cycles",
        "icache.accesses",
        "dcache.accesses",
        "metal.menters",
        "metal.mexits",
    ] {
        assert!(snap.counter(key).is_some(), "missing counter {key}");
    }
    assert!(snap.gauge("icache.hit_rate").is_some());
    assert!(snap.gauge("dcache.hit_rate").is_some());
    assert_eq!(snap.counter("metal.menters"), Some(40));
    let latency = snap
        .hist("transition.entry0.latency")
        .expect("latency hist");
    assert_eq!(latency.count(), 40);
    assert!(latency.min() > 0, "transitions take at least a cycle");

    // Round trip through the serialized document.
    let parsed = Json::parse(&snap.to_json_string()).expect("snapshot JSON parses");
    assert_eq!(
        parsed.get("cycles").and_then(Json::as_f64),
        Some(core.state.perf.cycles as f64)
    );
    assert_eq!(
        parsed
            .get("transition.entry0.latency")
            .and_then(|h| h.get("count"))
            .and_then(Json::as_f64),
        Some(40.0)
    );
}

#[test]
fn metrics_snapshot_omits_rates_with_nothing_to_divide() {
    // No load or store: the D-cache and TLB see no access, so their
    // hit rates are left out rather than reported as 0 (a 0% hit rate
    // would be a real measurement).
    let image = metal_asm::assemble_image("li a0, 7\nebreak", 0).expect("guest assembles");
    let core = run(build_metal(), &image, None);
    let snap = core.state.metrics_snapshot();
    assert_eq!(snap.counter("dcache.accesses"), Some(0));
    assert_eq!(snap.gauge("dcache.hit_rate"), None);
    assert_eq!(snap.gauge("tlb.hit_rate"), None);
    assert!(snap.counter("icache.accesses") > Some(0));
    assert!(snap.gauge("icache.hit_rate").is_some());
}
