//! `mfuzz` — coverage-guided differential fuzzing of the Metal engines.
//!
//! ```text
//! mfuzz [--seed N] [--jobs N] [--seconds N | --cases N] [--corpus DIR]
//!       [--replay FILE]... [--inject-bug mul] [--no-shrink] [--lint]
//! ```
//!
//! Generates Metal programs from a weighted grammar and runs each on
//! the pipelined core (decode cache on and off) and the reference
//! interpreter, diffing the architectural state of
//! `metal_core::arch::DIFFERENTIAL` and the retirement order against
//! the interpreter, and `metal_core::arch::ALL` (cycle counts
//! included) between the two cores. Interesting cases (new coverage bits)
//! are written to `--corpus DIR`; any divergence is shrunk to a small
//! repro and written alongside as `div_*.s`.
//!
//! With `--cases N` a campaign is exactly reproducible from its seed:
//! the report, corpus and divergences are the same for any `--jobs`.
//! With `--seconds N` the deadline only decides how many cases run;
//! findings are shrunk after it, so the command can run past it.
//! With `--replay FILE` no fuzzing happens: the artifact is re-run and
//! its recorded expectations checked — the exit code says whether the
//! divergence it witnesses still exists.
//!
//! `--inject-bug mul` plants a known bug (low result bit of `mul`
//! flipped on the cores only) to validate the whole find→shrink→replay
//! loop end to end.
//!
//! `--lint` additionally runs the `metal-lint` static analyzer over
//! every case and reports *soundness* disagreements — a unit that
//! lints clean for privilege or MRAM bounds but faults at runtime —
//! as first-class findings, shrunk and serialized like divergences
//! (`lint_*.s`). With `--replay`, artifacts are re-checked for lint
//! disagreements too.

use metal_fuzz::{artifact, exec::BugKind, run_campaign, CampaignConfig};
use metal_util::cli::{parse_num, usage};
use metal_util::outln;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "mfuzz [--seed N] [--jobs N] [--seconds N | --cases N] [--corpus DIR] [--replay FILE]... [--inject-bug mul] [--no-shrink] [--lint]";

fn main() -> ExitCode {
    let mut config = CampaignConfig::default();
    let mut replays: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => match args.next().and_then(|v| parse_num(&v)) {
                Some(v) => config.seed = v,
                None => return usage("mfuzz", USAGE, "bad --seed"),
            },
            "--jobs" => match args.next().and_then(|v| parse_num(&v)) {
                Some(v) if v >= 1 => config.jobs = v as usize,
                _ => return usage("mfuzz", USAGE, "bad --jobs"),
            },
            "--seconds" => match args.next().and_then(|v| parse_num(&v)) {
                Some(v) => config.seconds = Some(v),
                None => return usage("mfuzz", USAGE, "bad --seconds"),
            },
            "--cases" => match args.next().and_then(|v| parse_num(&v)) {
                Some(v) => config.cases = Some(v),
                None => return usage("mfuzz", USAGE, "bad --cases"),
            },
            "--corpus" => match args.next() {
                Some(dir) => config.corpus_dir = Some(PathBuf::from(dir)),
                None => return usage("mfuzz", USAGE, "missing argument to --corpus"),
            },
            "--replay" => match args.next() {
                Some(path) => replays.push(path),
                None => return usage("mfuzz", USAGE, "missing argument to --replay"),
            },
            "--inject-bug" => match args.next().as_deref().and_then(BugKind::parse) {
                Some(bug) => config.bug = bug,
                None => return usage("mfuzz", USAGE, "bad --inject-bug (try: mul)"),
            },
            "--no-shrink" => config.shrink = false,
            "--lint" => config.lint = true,
            "-h" | "--help" => return usage("mfuzz", USAGE, ""),
            other => return usage("mfuzz", USAGE, &format!("unknown argument {other:?}")),
        }
    }

    if !replays.is_empty() {
        return replay_all(&replays, config.bug, config.lint);
    }

    if config.seconds.is_none() && config.cases.is_none() {
        config.seconds = Some(5);
    }
    let report = run_campaign(&config);
    outln!(
        "mfuzz: {} cases ({} hangs, {} rejects), {} coverage bits, {} corpus artifacts, {} divergences",
        report.cases,
        report.hangs,
        report.rejects,
        report.coverage,
        report.corpus.len(),
        report.divergences.len()
    );
    for div in &report.divergences {
        let via = div
            .artifact
            .as_deref()
            .map(|p| format!(" -> {}", p.display()))
            .unwrap_or_default();
        outln!(
            "  divergence (seed {:#018x}, {} insns): {}{via}",
            div.seed,
            div.insns,
            div.what
        );
    }
    if report.divergences.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn replay_all(paths: &[String], bug: BugKind, lint: bool) -> ExitCode {
    let mut failed = false;
    for path in paths {
        let content = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("mfuzz: cannot read {path}: {e}");
                failed = true;
                continue;
            }
        };
        match artifact::replay(&content, bug) {
            Ok(()) => outln!("replay {path}: ok"),
            Err(e) => {
                outln!("replay {path}: FAILED: {e}");
                failed = true;
            }
        }
        if lint {
            match lint_replay(&content, bug) {
                Ok(None) => outln!("lint {path}: sound"),
                Ok(Some(what)) => {
                    outln!("lint {path}: FAILED: {what}");
                    failed = true;
                }
                Err(e) => {
                    outln!("lint {path}: FAILED: {e}");
                    failed = true;
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Re-runs an artifact's case and checks it for lint-vs-simulator
/// soundness disagreements.
fn lint_replay(content: &str, bug: BugKind) -> Result<Option<String>, String> {
    let (case, _expect) = artifact::parse(content)?;
    let mut runner = metal_fuzz::CaseRunner::new(bug);
    let result = runner.run(&case).map_err(|e| e.0)?;
    metal_fuzz::lint::check_case(&case, &result.core.events, &result.interp.events)
}
