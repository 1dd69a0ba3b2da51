//! `msim` — run a flat binary image on either execution engine.
//!
//! ```text
//! msim image.bin [--engine pipeline|interp] [--base 0xADDR] [--entry 0xADDR]
//!      [--max-cycles N] [--perf] [--trace out.json] [--metrics out.json]
//! ```
//!
//! Runs the baseline (non-Metal) machine with a console at 0xF0000000
//! and a timer at 0xF0000100. Exits with the guest's `ebreak` code.
//!
//! The run is under the same watchdog as every other tool
//! ([`Engine::run_fuel`]): it stops at `--max-cycles`, or earlier when
//! a [`HANG_WINDOW`]-cycle window passes outside `wfi` with no
//! instruction retired, and then exits 1 saying which of the two
//! happened.
//!
//! `--engine` selects the cycle-accurate pipelined core (the default)
//! or the functional reference interpreter; both go through the same
//! [`Engine`] trait, so everything below the flag is engine-agnostic.
//!
//! `--trace` records the run as a Chrome trace-event file (open it in
//! `chrome://tracing` or Perfetto); `--metrics` writes the unified
//! metrics snapshot (cycles, instret, stall breakdown, cache/TLB hit
//! rates, decode-cache counters) as JSON. Neither flag perturbs
//! architectural state or cycle counts.

use metal_mem::devices::{map, Console, Timer};
use metal_pipeline::{Core, CoreConfig, Engine, HaltReason, Interp, NoHooks, HANG_WINDOW};
use metal_trace::{TraceConfig, TraceHandle};
use metal_util::cli::{fail, parse_num, parse_u32, usage};
use std::io::{self, Write};
use std::process::ExitCode;

const USAGE: &str = "msim image.bin [--engine pipeline|interp] [--base 0xADDR] [--entry 0xADDR] [--max-cycles N] [--perf] [--trace out.json] [--metrics out.json]";

struct Opts {
    image: Vec<u8>,
    base: u32,
    entry: u32,
    max_cycles: u64,
    perf: bool,
    trace_path: Option<String>,
    metrics_path: Option<String>,
}

fn main() -> ExitCode {
    let mut input: Option<String> = None;
    let mut engine_name = "pipeline".to_owned();
    let mut base = 0u32;
    let mut entry: Option<u32> = None;
    let mut max_cycles = 100_000_000u64;
    let mut perf = false;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--engine" => match args.next() {
                Some(name) => engine_name = name,
                None => return usage("msim", USAGE, "missing argument to --engine"),
            },
            "--base" => match args.next().and_then(|v| parse_u32(&v)) {
                Some(v) => base = v,
                None => return usage("msim", USAGE, "bad --base"),
            },
            "--entry" => match args.next().and_then(|v| parse_u32(&v)) {
                Some(v) => entry = Some(v),
                None => return usage("msim", USAGE, "bad --entry"),
            },
            "--max-cycles" => match args.next().and_then(|v| parse_num(&v)) {
                Some(v) => max_cycles = v,
                None => return usage("msim", USAGE, "bad --max-cycles"),
            },
            "--perf" => perf = true,
            "--trace" => match args.next() {
                Some(path) => trace_path = Some(path),
                None => return usage("msim", USAGE, "missing argument to --trace"),
            },
            "--metrics" => match args.next() {
                Some(path) => metrics_path = Some(path),
                None => return usage("msim", USAGE, "missing argument to --metrics"),
            },
            "-h" | "--help" => return usage("msim", USAGE, ""),
            other if input.is_none() && !other.starts_with('-') => {
                input = Some(other.to_owned());
            }
            other => return usage("msim", USAGE, &format!("unknown argument {other:?}")),
        }
    }
    let Some(input) = input else {
        return usage("msim", USAGE, "no input image");
    };
    let image = match std::fs::read(&input) {
        Ok(image) => image,
        Err(e) => return fail("msim", &format!("cannot read {input}: {e}")),
    };
    // `load_segments` treats an out-of-RAM segment as a programming
    // error and panics; turn a bad --base into a proper CLI error.
    let ram = CoreConfig::default().ram_bytes;
    if (base as usize).saturating_add(image.len()) > ram {
        return fail(
            "msim",
            &format!(
                "image of {} bytes at --base {base:#x} does not fit in {ram}-byte RAM",
                image.len()
            ),
        );
    }
    let opts = Opts {
        image,
        base,
        entry: entry.unwrap_or(base),
        max_cycles,
        perf,
        trace_path,
        metrics_path,
    };
    match engine_name.as_str() {
        "pipeline" => run_sim::<Core<NoHooks>>(&opts),
        "interp" => run_sim::<Interp<NoHooks>>(&opts),
        other => usage("msim", USAGE, &format!("unknown engine {other:?}")),
    }
}

fn run_sim<E: Engine<Hooks = NoHooks>>(opts: &Opts) -> ExitCode {
    let mut machine = E::new(CoreConfig::default(), NoHooks);
    if opts.trace_path.is_some() {
        machine
            .state_mut()
            .set_trace(TraceHandle::enabled(TraceConfig::default()));
    }
    let (console, out) = Console::new();
    machine
        .state_mut()
        .bus
        .attach(map::CONSOLE_BASE, map::WINDOW_LEN, Box::new(console));
    machine
        .state_mut()
        .bus
        .attach(map::TIMER_BASE, map::WINDOW_LEN, Box::new(Timer::new()));
    machine.load_segments([(opts.base, opts.image.as_slice())], opts.entry);
    let halt = machine.run_fuel(opts.max_cycles);
    let bytes = out.lock().clone();
    if !bytes.is_empty() {
        // A closed stdout drops the console output, not the exit code.
        let _ = write!(io::stdout(), "{}", String::from_utf8_lossy(&bytes));
    }
    if opts.perf {
        let state = machine.state();
        let p = &state.perf;
        eprintln!(
            "engine {} | cycles {} instret {} CPI {} | stalls: fetch {} mem {} loaduse {} flush {}",
            E::name(),
            p.cycles,
            p.instret,
            rate(p.cycles, p.instret).map_or("n/a".to_owned(), |r| format!("{r:.2}")),
            p.fetch_stall,
            p.mem_stall,
            p.loaduse_stall,
            p.flush_cycles
        );
        let icache = &state.icache;
        let dcache = &state.dcache;
        let tlb = &state.tlb;
        let hits = |hits: u64, total: u64| {
            let pct = rate(hits, total).map_or("n/a".to_owned(), |r| format!("{:.1}%", r * 100.0));
            format!("{hits}/{total} hits ({pct})")
        };
        eprintln!(
            "icache {} | dcache {} | tlb {}, {} hw refills",
            hits(icache.accesses - icache.misses, icache.accesses),
            hits(dcache.accesses - dcache.misses, dcache.accesses),
            hits(tlb.hits, tlb.lookups),
            p.hw_refills,
        );
        let dc = &state.decode_cache;
        eprintln!(
            "decode cache {} | {}, {} invalidations",
            if dc.enabled() { "on" } else { "off" },
            hits(dc.hits(), dc.hits() + dc.misses()),
            dc.invalidations(),
        );
    }
    if let Some(path) = &opts.trace_path {
        if let Err(e) = std::fs::write(path, machine.state().trace.export_chrome()) {
            eprintln!("msim: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("msim: wrote trace to {path}");
    }
    if let Some(path) = &opts.metrics_path {
        let snapshot = machine.state().metrics_snapshot();
        if let Err(e) = std::fs::write(path, snapshot.to_json_string()) {
            eprintln!("msim: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("msim: wrote metrics to {path}");
    }
    match halt {
        HaltReason::Ebreak { code } => {
            eprintln!("msim: ebreak with code {code}");
            ExitCode::from((code & 0xFF) as u8)
        }
        HaltReason::Fatal(msg) => {
            eprintln!("msim: fatal: {msg}");
            ExitCode::FAILURE
        }
        HaltReason::Timeout if machine.state().perf.cycles < opts.max_cycles => {
            eprintln!(
                "msim: hang: no instruction retired within a {HANG_WINDOW}-cycle window \
                 (cycle {})",
                machine.state().perf.cycles
            );
            ExitCode::FAILURE
        }
        HaltReason::Timeout => {
            eprintln!("msim: cycle limit ({}) reached", opts.max_cycles);
            ExitCode::FAILURE
        }
    }
}

/// `num / den`, or `None` when `den` is 0: every rate `--perf` prints
/// reads `n/a` when there is nothing to divide by.
fn rate(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}
