//! The verification toolchain and the paper reproduction: `mfuzz` and
//! `mfault` campaign throughput and `reproduce all` wall time (end to
//! end), and the host time of each phase of a campaign case and of each
//! experiment (per layer).

use crate::{median, mix, repeat, timed, Metrics, Tally};
use metal_bench::experiments;
use metal_core::Metal;
use metal_faultsim::campaign::{case_seed, FUEL};
use metal_faultsim::{workload, Classification};
use metal_fuzz::{exec, grammar, BugKind, CaseRunner, CoverageMap};
use metal_pipeline::state::{CoreConfig, TranslationMode};
use metal_pipeline::{Core, Engine, HaltReason};
use std::time::Duration;

/// Fuzz cases per campaign (one `mfuzz --cases` invocation).
const FUZZ_CASES: u64 = 192;
/// Fault cases per campaign (one `mfault --cases` invocation).
const FAULT_CASES: u64 = 6;

/// Salts separating the sub-seeds drawn from the run seed.
pub const FUZZ_SALT: u64 = 1 << 32;
pub const FAULT_SALT: u64 = 2 << 32;

/// Runs one `mfuzz`-equivalent campaign and checks it: no divergence
/// between the engines and no case the generator failed to build.
/// Returns cases per second.
pub fn fuzz_rate(seed: u64, tally: &mut Tally) -> f64 {
    let config = metal_fuzz::CampaignConfig {
        seed,
        cases: Some(FUZZ_CASES),
        ..metal_fuzz::CampaignConfig::default()
    };
    let (secs, report) = timed(|| metal_fuzz::run_campaign(&config));
    let attempted = report.cases + report.rejects;
    let rejects = (0..report.rejects).map(|_| format!("fuzz seed {seed}: case rejected"));
    let divergences = report
        .divergences
        .iter()
        .map(|d| format!("fuzz seed {seed}: case {:#x} diverged: {}", d.seed, d.what));
    tally.batch(attempted, rejects.chain(divergences));
    attempted as f64 / secs
}

/// The `mfault` default campaign (pipelined core, loop victim, SECDED,
/// recovery mroutine, single-bit MRAM/MReg faults).
fn fault_config(seed: u64, cases: u64) -> metal_faultsim::CampaignConfig {
    metal_faultsim::CampaignConfig {
        seed,
        cases,
        ..metal_faultsim::CampaignConfig::default()
    }
}

/// Runs one `mfault`-equivalent campaign and checks every case: with
/// SECDED and the recovery mroutine installed no fault may end as
/// silent corruption or a hang, and no case may be skipped. Returns
/// cases per second.
pub fn fault_rate(seed: u64, tally: &mut Tally) -> f64 {
    let (secs, report) = timed(|| metal_faultsim::run(&fault_config(seed, FAULT_CASES)));
    let failures = report
        .outcomes
        .iter()
        .filter(|case| {
            matches!(
                case.class,
                Classification::Sdc | Classification::Hang | Classification::Skipped
            )
        })
        .map(|case| {
            format!(
                "fault seed {seed} case {}: classified {}",
                case.index,
                case.class.label()
            )
        });
    tally.batch(report.outcomes.len() as u64, failures);
    report.outcomes.len() as f64 / secs
}

/// One `reproduce all` pass: every experiment's wall time and report.
fn paper_pass() -> Vec<(f64, String)> {
    experiments::ALL
        .iter()
        .map(|id| timed(|| experiments::run(id).unwrap_or_default()))
        .collect()
}

/// The reports of a first `reproduce all` pass, which later passes must
/// match.
pub fn paper_reports() -> Vec<String> {
    paper_pass().into_iter().map(|(_, r)| r).collect()
}

/// Checks a pass against the first one: every report non-empty and
/// byte-identical (the experiments are deterministic), and the Table 2
/// anchors present.
fn check_paper(pass: &[(f64, String)], first: &[String], tally: &mut Tally) {
    for ((_, report), (id, expected)) in pass.iter().zip(experiments::ALL.iter().zip(first)) {
        tally.check(if report.is_empty() {
            Err(format!("experiment {id}: empty report"))
        } else if report != expected {
            Err(format!("experiment {id}: report differs between passes"))
        } else if *id == "table2" && !(report.contains("16.2%") && report.contains("14.6%")) {
            Err("table2: +16.2% wires / +14.6% cells anchors missing".to_owned())
        } else {
            Ok(())
        });
    }
}

/// Seconds for one checked `reproduce all` pass.
pub fn paper_wall(first: &[String], tally: &mut Tally) -> f64 {
    let pass = paper_pass();
    check_paper(&pass, first, tally);
    pass.iter().map(|(secs, _)| secs).sum()
}

/// Mean of a sample, scaled (0 for an empty one).
fn mean(xs: &[f64], scale: f64) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64 * scale
    }
}

/// Per-case phase costs of a fuzz campaign, timed around the same calls
/// `mfuzz` makes: generate the case, run it on all three machines and
/// diff them, fold its trace into the coverage map.
fn fuzz_phases(seed: u64, budget: Duration, tally: &mut Tally, metrics: &mut Metrics) {
    let mut runner = CaseRunner::new(BugKind::None);
    let mut coverage = CoverageMap::new();
    let (mut generate, mut execute, mut observe) = (Vec::new(), Vec::new(), Vec::new());
    repeat(budget, 16, |i| {
        let case_seed = metal_fuzz::case_seed(seed, 0, i as u64);
        let (t_gen, case) = timed(|| grammar::generate(case_seed));
        let (t_run, result) = timed(|| runner.run(&case));
        generate.push(t_gen);
        execute.push(t_run);
        match result {
            Err(e) => tally.check(Err(format!("fuzz case {case_seed:#x} rejected: {}", e.0))),
            Ok(r) => {
                tally.check(match &r.divergence {
                    Some(what) => Err(format!("fuzz case {case_seed:#x}: divergence {what}")),
                    None => Ok(()),
                });
                if !r.hang {
                    let halt = exec::halt_kind(&r.core.halt);
                    let (t_cov, _) =
                        timed(|| coverage.observe_run(&r.core.events, r.core.tags, halt));
                    observe.push(t_cov);
                }
            }
        }
    });
    let us = 1e6;
    metrics.put("fuzz.generate_us", mean(&generate, us), "us");
    metrics.put("fuzz.execute_us", mean(&execute, us), "us");
    metrics.put("fuzz.coverage_us", mean(&observe, us), "us");
}

/// Per-case phase costs of a fault campaign, timed around the calls a
/// case makes: build the victim, construct and load the machine, take
/// the pristine snapshot, run it to its halt, rewind. A case runs the
/// victim twice (golden and faulty); what the phases leave of the
/// measured per-case time is the state digests, the injection and the
/// classification.
fn fault_phases(seed: u64, budget: Duration, tally: &mut Tally, metrics: &mut Metrics) {
    let config = fault_config(seed, 1);
    let mut phases: [Vec<f64>; 5] = Default::default();
    repeat(budget.mul_f64(0.6), 4, |i| {
        let case = case_seed(config.seed, i as u64);
        let (t_build, built) = timed(|| workload::build(&config, case));
        let built = match built {
            Ok(built) => built,
            Err(e) => return tally.check(Err(format!("fault victim {case:#x}: {e}"))),
        };
        let (t_machine, mut engine) = timed(|| {
            let mut engine = Core::<Metal>::new(CoreConfig::default(), built.metal);
            if built.soft_tlb {
                engine.state_mut().translation = TranslationMode::SoftTlb;
            }
            engine.load_segments([(0u32, built.program.as_slice())], 0);
            engine
        });
        let (t_snapshot, pristine) = timed(|| engine.snapshot());
        let (t_run, halt) = timed(|| engine.run_fuel(FUEL));
        let (t_restore, ()) = timed(|| engine.restore(&pristine));
        for (phase, t) in phases
            .iter_mut()
            .zip([t_build, t_machine, t_snapshot, t_run, t_restore])
        {
            phase.push(t);
        }
        tally.check(match halt {
            HaltReason::Ebreak { .. } => Ok(()),
            other => Err(format!(
                "fault victim {case:#x}: golden run ended {other:?}"
            )),
        });
    });
    let case = repeat(budget.mul_f64(0.4), 3, |_| {
        1.0 / fault_rate(mix(seed, FAULT_SALT), tally)
    });
    let us = 1e6;
    let [build, machine, snapshot, run, restore] = phases.map(|p| mean(&p, us));
    let case_us = median(case) * us;
    metrics.put("fault.build_us", build, "us");
    metrics.put("fault.machine_us", machine, "us");
    metrics.put("fault.snapshot_us", snapshot, "us");
    metrics.put("fault.run_us", run, "us");
    metrics.put("fault.restore_us", restore, "us");
    metrics.put("fault.case_us", case_us, "us");
    metrics.put(
        "fault.unattributed_us",
        case_us - (build + machine + snapshot + 2.0 * run + restore),
        "us",
    );
}

/// Median wall time of each experiment across repeated passes.
fn paper_phases(budget: Duration, tally: &mut Tally, metrics: &mut Metrics) {
    let first = paper_reports();
    let passes = repeat(budget, 3, |_| {
        let pass = paper_pass();
        check_paper(&pass, &first, tally);
        pass
    });
    for (k, id) in experiments::ALL.iter().enumerate() {
        let times = passes.iter().map(|pass| pass[k].0 * 1e3).collect();
        metrics.put(format!("paper.{id}_ms"), median(times), "ms");
    }
}

/// Reports the per-phase metrics of both campaigns and the paper.
pub fn phases(
    seed: u64,
    budget: &dyn Fn(f64) -> Duration,
    tally: &mut Tally,
    metrics: &mut Metrics,
) {
    fuzz_phases(mix(seed, FUZZ_SALT), budget(0.15), tally, metrics);
    fault_phases(seed, budget(0.25), tally, metrics);
    paper_phases(budget(0.12), tally, metrics);
}
