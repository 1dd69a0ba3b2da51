//! `mfault` — deterministic fault-injection campaigns.
//!
//! ```text
//! mfault --seed 7 --cases 500 --ecc secded --sites mram-code,mreg
//! ```
//!
//! Reproducibility contract: the same `--seed`/`--cases`/configuration
//! produces byte-identical classification JSON, for any `--jobs`.

use metal_core::EccMode;
use metal_faultsim::campaign::{
    run, CampaignConfig, Classification, EngineChoice, KindChoice, Report, WorkloadKind,
};
use metal_trace::FaultSite;
use metal_util::cli::{fail, parse_num, usage};
use std::process::ExitCode;

const USAGE: &str = "mfault [--seed N] [--cases N] [--jobs N] [--ecc none|parity|secded] \
[--sites LIST] [--kind transient|stuck|mixed] [--engine pipeline|interp] \
[--workload loop|fuzz] [--no-recover] [--zero-fault] [--json FILE] \
[--max-sdc N] [--min-corrected-pct P]";

fn parse_sites(list: &str) -> Option<Vec<FaultSite>> {
    let mut sites = Vec::new();
    for name in list.split(',') {
        let site = FaultSite::parse(name.trim())?;
        if !sites.contains(&site) {
            sites.push(site);
        }
    }
    if sites.is_empty() {
        None
    } else {
        Some(sites)
    }
}

/// Parses a `--min-corrected-pct` operand: a finite percentage in
/// `0..=100` (a NaN floor would disable the gate).
fn parse_pct(s: &str) -> Option<f64> {
    s.parse::<f64>().ok().filter(|p| (0.0..=100.0).contains(p))
}

/// The corrected rate in percent, or `None` when the campaign
/// evaluated no case (every case skipped, or none run): a rate of
/// nothing, which the summary prints as `n/a` and the
/// `--min-corrected-pct` gate refuses.
fn corrected_pct(report: &Report) -> Option<f64> {
    let tally = report.tally(None);
    (tally.total() > tally.of(Classification::Skipped)).then(|| report.corrected_pct())
}

fn main() -> ExitCode {
    let mut cfg = CampaignConfig::default();
    let mut json_path: Option<String> = None;
    let mut max_sdc: Option<u64> = None;
    let mut min_corrected_pct: Option<f64> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let value = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match arg {
            "-h" | "--help" => return usage("mfault", USAGE, ""),
            "--no-recover" => cfg.recover = false,
            "--zero-fault" => cfg.zero_fault = true,
            "--seed"
            | "--cases"
            | "--jobs"
            | "--ecc"
            | "--sites"
            | "--kind"
            | "--engine"
            | "--workload"
            | "--json"
            | "--max-sdc"
            | "--min-corrected-pct" => {
                let Some(v) = value(&mut i) else {
                    return usage("mfault", USAGE, &format!("{arg} needs a value"));
                };
                let ok = match arg {
                    "--seed" => parse_num(&v).map(|n| cfg.seed = n).is_some(),
                    "--cases" => parse_num(&v).map(|n| cfg.cases = n).is_some(),
                    "--jobs" => parse_num(&v)
                        .filter(|&n| n >= 1)
                        .map(|n| cfg.jobs = n as usize)
                        .is_some(),
                    "--ecc" => EccMode::parse(&v).map(|m| cfg.ecc = m).is_some(),
                    "--sites" => parse_sites(&v).map(|s| cfg.sites = s).is_some(),
                    "--kind" => KindChoice::parse(&v).map(|k| cfg.kind = k).is_some(),
                    "--engine" => EngineChoice::parse(&v).map(|e| cfg.engine = e).is_some(),
                    "--workload" => WorkloadKind::parse(&v).map(|w| cfg.workload = w).is_some(),
                    "--json" => {
                        json_path = Some(v.clone());
                        true
                    }
                    "--max-sdc" => parse_num(&v).map(|n| max_sdc = Some(n)).is_some(),
                    "--min-corrected-pct" => {
                        parse_pct(&v).map(|p| min_corrected_pct = Some(p)).is_some()
                    }
                    _ => unreachable!(),
                };
                if !ok {
                    return usage("mfault", USAGE, &format!("bad value for {arg}: {v}"));
                }
            }
            other => return usage("mfault", USAGE, &format!("unknown argument: {other}")),
        }
        i += 1;
    }

    let report = run(&cfg);

    println!(
        "mfault: seed {} | {} cases | engine {} | workload {} | ecc {} | kind {} | recovery {}",
        cfg.seed,
        cfg.cases,
        cfg.engine.label(),
        cfg.workload.label(),
        cfg.ecc.label(),
        cfg.kind.label(),
        if cfg.recover { "on" } else { "off" },
    );
    if cfg.zero_fault {
        println!(
            "zero-fault mode: {} divergences over {} cases",
            report.zero_fault_divergences, cfg.cases
        );
    } else {
        println!("{:<20} {:>8}", "class", "cases");
        let total = report.tally(None);
        for class in Classification::ALL {
            let n = total.of(class);
            if n > 0 {
                println!("{:<20} {:>8}", class.label(), n);
            }
        }
        println!();
        println!(
            "{:<12} {:>8} {:>8} {:>10} {:>12} {:>6} {:>6}",
            "site", "injected", "masked", "corrected", "uncorrect.", "sdc", "hang"
        );
        for &site in &cfg.sites {
            let t = report.tally(Some(site));
            println!(
                "{:<12} {:>8} {:>8} {:>10} {:>12} {:>6} {:>6}",
                site.label(),
                t.total(),
                t.of(Classification::Masked),
                t.corrected(),
                t.of(Classification::Uncorrectable),
                t.of(Classification::Sdc),
                t.of(Classification::Hang),
            );
        }
        println!();
        println!(
            "corrected {} | sdc {} | machine checks {} | scrubs {}",
            corrected_pct(&report).map_or("n/a".to_owned(), |p| format!("{p:.1}%")),
            report.count(Classification::Sdc),
            report
                .outcomes
                .iter()
                .map(|o| o.machine_checks)
                .sum::<u64>(),
            report.outcomes.iter().map(|o| o.scrubs).sum::<u64>(),
        );
    }

    if let Some(path) = json_path {
        let text = report.to_json(&cfg).to_string_compact();
        if let Err(e) = std::fs::write(&path, text) {
            return fail("mfault", &format!("cannot write {path}: {e}"));
        }
    }

    if cfg.zero_fault && report.zero_fault_divergences > 0 {
        return fail(
            "mfault",
            &format!(
                "zero-fault campaign diverged in {} cases",
                report.zero_fault_divergences
            ),
        );
    }
    if let Some(cap) = max_sdc {
        let sdc = report.count(Classification::Sdc);
        if sdc > cap {
            return fail("mfault", &format!("{sdc} SDC cases exceed --max-sdc {cap}"));
        }
    }
    if let Some(floor) = min_corrected_pct {
        match corrected_pct(&report) {
            None => {
                return fail(
                    "mfault",
                    &format!("no case was evaluated, so --min-corrected-pct {floor} has nothing to check"),
                );
            }
            Some(pct) if pct < floor => {
                return fail(
                    "mfault",
                    &format!("corrected rate {pct:.1}% below --min-corrected-pct {floor}"),
                );
            }
            Some(_) => {}
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{corrected_pct, parse_pct};
    use metal_faultsim::campaign::Report;

    #[test]
    fn no_evaluated_case_has_no_corrected_rate() {
        assert_eq!(corrected_pct(&Report::default()), None);
    }

    #[test]
    fn corrected_pct_floor_must_be_a_finite_percentage() {
        for bad in ["nan", "inf", "-1", "101", "", "x"] {
            assert_eq!(parse_pct(bad), None, "{bad:?}");
        }
        assert_eq!(parse_pct("95"), Some(95.0));
        assert_eq!(parse_pct("95.5"), Some(95.5));
    }
}
