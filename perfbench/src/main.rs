//! Performance benchmark for the Metal reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload alu|memory|metal --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics a user of the
//! toolchain sees: simulated MIPS on both engines, `mfuzz` and `mfault`
//! campaign cases per second, the wall time of `reproduce all`, and the
//! set-up time of the workload's machines. With `--trace 1` it reports
//! per-layer metrics instead: host nanoseconds per operation for each
//! layer a simulated instruction passes through, their attribution to
//! the engines' ns per instruction, simulated event counts, and the
//! phase costs of a campaign case and of each paper experiment.
//!
//! Every run checks its outputs (guest results against a host model,
//! zero fuzz divergences, zero silent corruptions in the fault campaign,
//! deterministic experiment reports) and prints one JSON line last:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.

mod campaign;
mod layers;
mod sim;
mod workload;

use std::time::{Duration, Instant};
use workload::{Kind, Workload};

/// Parsed command line.
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| {
                        format!("unknown workload {value:?} (alu, memory, metal)")
                    })?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Operations attempted and failed, with the failures reported on
/// stderr as they happen.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Records one checked operation.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.batch(1, outcome.err());
    }

    /// Records `attempted` operations of which `failures` failed.
    pub fn batch(&mut self, attempted: u64, failures: impl IntoIterator<Item = String>) {
        self.attempted += attempted;
        for what in failures {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

/// Named metric values in output order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a metric that could not
                // be computed reads as 0.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Calls `f` until `budget` has elapsed and at least `min` calls were
/// made, collecting what each call returns.
pub fn repeat<T>(budget: Duration, min: usize, mut f: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed() < budget {
        out.push(f(out.len()));
    }
    out
}

/// Seconds taken by `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

/// SplitMix64 finalizer: derives independent sub-seeds from the run
/// seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Rounds of end-to-end measurements made at least, whatever the budget.
const MIN_ROUNDS: usize = 3;
/// Workload runs per round on each engine; the pipelined core's rate
/// varies most between runs, so it gets the most samples.
const PIPELINE_RUNS: usize = 3;
const INTERP_RUNS: usize = 2;

/// Measures the end-to-end metrics in rounds until `budget` is spent.
/// Each round sets up the workload's machines afresh, runs the workload
/// a few times on each engine, runs one fresh fuzz and one fresh fault
/// campaign and one `reproduce all` pass, so every metric samples the
/// whole run. The host alternates between fast and slow periods lasting
/// seconds, and a rare fuzz case that runs into the watchdog costs a
/// whole campaign's worth of time; each throughput and wall-time figure
/// is therefore the best of its rounds, while `setup_s` is the median.
fn end_to_end(
    workload: &Workload,
    seed: u64,
    budget: Duration,
    tally: &mut Tally,
    metrics: &mut Metrics,
) {
    let reports = campaign::paper_reports();
    let mut setup = Vec::new();
    let (mut pipeline, mut interp, mut fuzz, mut fault, mut paper) =
        (0.0f64, 0.0f64, 0.0f64, 0.0f64, f64::INFINITY);
    let start = Instant::now();
    while setup.len() < MIN_ROUNDS || start.elapsed() < budget {
        let round = setup.len() as u64;
        let (secs, mut machines) = sim::Machines::build(workload);
        setup.push(secs);
        for _ in 0..PIPELINE_RUNS {
            pipeline = pipeline.max(machines.pipeline_mips(workload, tally));
        }
        for _ in 0..INTERP_RUNS {
            interp = interp.max(machines.interp_mips(workload, tally));
        }
        fuzz = fuzz.max(campaign::fuzz_rate(
            mix(seed, campaign::FUZZ_SALT + round),
            tally,
        ));
        fault = fault.max(campaign::fault_rate(
            mix(seed, campaign::FAULT_SALT + round),
            tally,
        ));
        paper = paper.min(campaign::paper_wall(&reports, tally));
    }
    metrics.put("setup_s", median(setup), "s");
    metrics.put("pipeline_mips", pipeline, "MIPS");
    metrics.put("interp_mips", interp, "MIPS");
    metrics.put("fuzz_cases_per_s", fuzz, "1/s");
    metrics.put("fault_cases_per_s", fault, "1/s");
    metrics.put("paper_wall_s", paper, "s");
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let budget = |share: f64| Duration::from_secs_f64(args.seconds * share);
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let workload = Workload::new(args.kind, args.seed);
    if args.trace {
        layers::measure(&workload, &budget, &mut tally, &mut metrics);
        campaign::phases(args.seed, &budget, &mut tally, &mut metrics);
    } else {
        end_to_end(&workload, args.seed, budget(1.0), &mut tally, &mut metrics);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.to_json()
    );
}
