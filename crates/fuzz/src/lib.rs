//! Coverage-guided differential fuzzing for the Metal engines.
//!
//! `metal-fuzz` closes the loop the differential tests open by hand:
//! it *generates* Metal programs from a weighted grammar ([`grammar`]),
//! runs each on the cycle-accurate core (twice: decode cache on and
//! off) and the reference interpreter ([`exec`]), and diffs the
//! architectural state [`metal_core::arch`] defines (guest RAM, CSRs
//! and the TLB included), the retirement order, and — between the two
//! cores — cycle counts. Novelty is judged by a compact coverage bitmap fed from
//! `metal-trace` events ([`CoverageMap`]); interesting inputs are kept as
//! human-readable, replayable artifacts ([`artifact`]); diverging
//! inputs are minimized to small repros ([`shrink`]).
//!
//! Case reset uses the engine snapshot/restore path
//! ([`metal_pipeline::Engine::snapshot`]) so each case costs a copy of
//! the RAM pages it wrote, not a machine rebuild.
//!
//! # Determinism
//!
//! Case `i` of a campaign is generated from
//! `case_seed(campaign seed, 0, i)`, a SplitMix64-style mix, whatever
//! `--jobs` is. Workers run the cases in parallel, but the campaign
//! merges them in index order (see [`run_campaign`]), so:
//!
//! * with `--cases N`, a campaign is **exactly** reproducible for any
//!   `--jobs`: same seed ⇒ same cases, same corpus file names and
//!   contents, same coverage count, same divergences;
//! * with `--seconds T`, the wall clock only decides how many cases
//!   ran (always a prefix of the schedule), so any artifact the run
//!   produces is reproducible from its file name alone (it encodes the
//!   case seed).

pub mod artifact;
pub(crate) mod coverage;
pub mod exec;
pub mod grammar;
pub mod lint;
pub mod shrink;

pub use coverage::CoverageMap;
pub use exec::{BugKind, CaseResult, CaseRunner};
pub use grammar::FuzzCase;

use metal_util::shard;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Campaign parameters (the `mfuzz` command line).
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Campaign seed; every case seed derives from it.
    pub seed: u64,
    /// Worker threads (the report is the same for any value).
    pub jobs: usize,
    /// Wall-clock budget.
    pub seconds: Option<u64>,
    /// Exact case budget (fully deterministic).
    pub cases: Option<u64>,
    /// Where to write corpus and divergence artifacts.
    pub corpus_dir: Option<PathBuf>,
    /// Injected engine bug (validation mode).
    pub bug: BugKind,
    /// Minimize divergences before reporting them.
    pub shrink: bool,
    /// Also lint every case and report lint-verdict vs simulator-fault
    /// disagreements (static-analysis soundness findings).
    pub lint: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 1,
            jobs: 1,
            seconds: None,
            cases: None,
            corpus_dir: None,
            bug: BugKind::None,
            shrink: true,
            lint: false,
        }
    }
}

/// A minimized divergence, ready to report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Seed of the originating case.
    pub seed: u64,
    /// What the oracle saw.
    pub what: String,
    /// The (shrunk) case.
    pub case: FuzzCase,
    /// Instruction count of the shrunk case.
    pub insns: usize,
    /// Artifact path, when a corpus directory was given.
    pub artifact: Option<PathBuf>,
}

/// What a campaign did.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct CampaignReport {
    /// Cases executed.
    pub cases: u64,
    /// Cases that hit a run budget without halting.
    pub hangs: u64,
    /// Cases rejected by the builder/assembler (generator bugs).
    pub rejects: u64,
    /// Bits set in the merged coverage map.
    pub coverage: usize,
    /// Corpus artifacts written this campaign.
    pub corpus: Vec<PathBuf>,
    /// Divergences found (shrunk when configured).
    pub divergences: Vec<Divergence>,
}

/// SplitMix64-style mix of (campaign seed, shard, index) into a case
/// seed. Stable across releases: artifact reproducibility depends on
/// it. Campaigns pass shard 0 for every case.
#[must_use]
pub fn case_seed(campaign: u64, shard: u64, index: u64) -> u64 {
    let mut z = campaign
        .wrapping_add(shard.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Findings shrunk per campaign, in case-index order, before the rest
/// are reported unshrunk.
const SHRINK_CAP: usize = 3;
/// Predicate evaluations allowed per shrink.
const SHRINK_BUDGET: usize = 2_000;

/// An oracle: the artifact tag of its findings, and the check that
/// gives `Some(description)` while a finding persists on a case.
#[derive(Clone, Copy)]
struct Oracle {
    tag: &'static str,
    check: fn(&FuzzCase, &CaseResult) -> Option<String>,
}

/// The engines disagree.
const ENGINES: Oracle = Oracle {
    tag: "div",
    check: |_, result| result.divergence.clone(),
};

/// The linter claims clean about a unit that faults.
const LINT: Oracle = Oracle {
    tag: "lint",
    check: |case, result| {
        lint::check_case(case, &result.core.events, &result.interp.events)
            .ok()
            .flatten()
    },
};

/// What a case hands to the campaign merge. Rejects, hangs and cases
/// with nothing new for their worker's coverage map hand over nothing
/// (a case that is not new to its worker's map, which only holds
/// lower-index cases, cannot be new to the merged map either).
enum Found {
    /// Ran clean and set a bit new to its worker's map; the text is
    /// built only when a corpus directory is set.
    New {
        features: CoverageMap,
        text: Option<String>,
    },
    /// An oracle fired.
    Finding { oracle: Oracle, what: String },
}

/// One worker's machines, novelty filter and counts.
struct Worker {
    runner: CaseRunner,
    coverage: CoverageMap,
    cases: u64,
    hangs: u64,
    rejects: u64,
}

impl Worker {
    /// Runs campaign case `index`; `None` when it has nothing to merge.
    fn run_case(&mut self, config: &CampaignConfig, index: u64) -> Option<Found> {
        let case = grammar::generate(case_seed(config.seed, 0, index));
        let Ok(result) = self.runner.run(&case) else {
            self.rejects += 1;
            return None;
        };
        self.cases += 1;
        if result.hang {
            self.hangs += 1;
            return None;
        }
        let oracles: &[Oracle] = if config.lint {
            &[ENGINES, LINT]
        } else {
            &[ENGINES]
        };
        if let Some((oracle, what)) = oracles
            .iter()
            .find_map(|&o| (o.check)(&case, &result).map(|what| (o, what)))
        {
            return Some(Found::Finding { oracle, what });
        }
        let mut features = CoverageMap::new();
        features.observe_run(
            &result.core.events,
            result.core.tags,
            exec::halt_kind(&result.core.halt),
        );
        if !self.coverage.merge(&features) {
            return None;
        }
        let text = config
            .corpus_dir
            .as_ref()
            .map(|_| artifact::serialize(&case, &result.interp));
        Some(Found::New { features, text })
    }
}

/// Shrinks a finding (when `shrink` is set) under its oracle and writes
/// its artifact as `{tag}_{seed}.s`.
fn report_finding(
    runner: &mut CaseRunner,
    case: &FuzzCase,
    oracle: Oracle,
    what: String,
    shrink: bool,
    corpus_dir: Option<&Path>,
) -> Divergence {
    let shrunk = if shrink {
        shrink::shrink(
            case,
            |cand| {
                runner
                    .run(cand)
                    .map(|r| !r.hang && (oracle.check)(cand, &r).is_some())
                    .unwrap_or(false)
            },
            SHRINK_BUDGET,
        )
    } else {
        case.clone()
    };
    // Re-run the final case: the artifact records the *reference*
    // expectations, so replay keeps failing while the bug lives.
    let (what, reference) = match runner.run(&shrunk) {
        Ok(r) => ((oracle.check)(&shrunk, &r).unwrap_or(what), Some(r.interp)),
        Err(_) => (what, None),
    };
    let artifact = corpus_dir.zip(reference).and_then(|(dir, reference)| {
        let path = dir.join(format!("{}_{:016x}.s", oracle.tag, case.seed));
        let text = artifact::serialize(&shrunk, &reference);
        std::fs::write(&path, text).ok().map(|()| path)
    });
    Divergence {
        seed: case.seed,
        what,
        insns: shrink::insn_count(&shrunk),
        case: shrunk,
        artifact,
    }
}

/// Runs a fuzzing campaign across `config.jobs` worker threads.
///
/// Case `i` is `grammar::generate(case_seed(seed, 0, i))` whatever the
/// worker count, and the shared runner ([`metal_util::shard::run`])
/// hands the cases' findings and coverage to the merge in index order.
/// The merge keeps a case in the corpus when it sets a bit new to the
/// merged coverage map, shrinks the first three findings on the
/// calling thread, and writes the artifacts. So with a `cases` budget
/// the report, its divergences and the corpus are the same for every
/// `jobs` value. With only a `seconds` budget the deadline decides how
/// many cases ran; shrinking happens after it.
#[must_use]
pub fn run_campaign(config: &CampaignConfig) -> CampaignReport {
    let corpus_dir = config.corpus_dir.as_deref();
    if let Some(dir) = corpus_dir {
        let _ = std::fs::create_dir_all(dir);
    }
    let deadline = config
        .seconds
        .map(|s| Instant::now() + Duration::from_secs(s));
    let (workers, found) = shard::run(
        config.jobs,
        config.cases,
        deadline,
        || Worker {
            runner: CaseRunner::new(config.bug),
            coverage: CoverageMap::new(),
            cases: 0,
            hangs: 0,
            rejects: 0,
        },
        |worker, index| worker.run_case(config, index).map(|f| (index, f)),
    );
    let mut report = CampaignReport::default();
    for w in &workers {
        report.cases += w.cases;
        report.hangs += w.hangs;
        report.rejects += w.rejects;
    }
    let mut runner = workers.into_iter().next().map(|w| w.runner);
    let mut merged = CoverageMap::new();
    for (index, found) in found {
        let seed = case_seed(config.seed, 0, index);
        match found {
            Found::New { features, text } => {
                let novel = merged.merge(&features);
                if let (true, Some(dir), Some(text)) = (novel, corpus_dir, text) {
                    let path = dir.join(format!("c{index:06}_{seed:016x}.s"));
                    if std::fs::write(&path, text).is_ok() {
                        report.corpus.push(path);
                    }
                }
            }
            Found::Finding { oracle, what } => {
                let runner = runner.as_mut().expect("a case ran, so a worker exists");
                let shrink = config.shrink && report.divergences.len() < SHRINK_CAP;
                let case = grammar::generate(seed);
                let div = report_finding(runner, &case, oracle, what, shrink, corpus_dir);
                report.divergences.push(div);
            }
        }
    }
    report.coverage = merged.count();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seed_is_well_mixed() {
        // Adjacent (shard, index) pairs land far apart.
        let a = case_seed(1, 0, 0);
        let b = case_seed(1, 0, 1);
        let c = case_seed(1, 1, 0);
        let d = case_seed(2, 0, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert!(
            (a ^ b).count_ones() > 8,
            "consecutive indices differ in many bits"
        );
    }

    #[test]
    fn small_campaign_is_deterministic() {
        let config = CampaignConfig {
            seed: 9,
            jobs: 2,
            cases: Some(40),
            ..CampaignConfig::default()
        };
        let a = run_campaign(&config);
        let b = run_campaign(&config);
        assert_eq!(a.cases, b.cases);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.divergences.len(), b.divergences.len());
        assert!(a.cases + a.rejects == 40);
        assert_eq!(a.divergences.len(), 0, "clean engines must not diverge");
    }

    /// More workers than cases: the runner starts one per case and the
    /// report is the one-worker report.
    #[test]
    fn more_jobs_than_cases_matches_one_job() {
        let run = |jobs| {
            run_campaign(&CampaignConfig {
                seed: 5,
                jobs,
                cases: Some(4),
                ..CampaignConfig::default()
            })
        };
        let one = run(1);
        assert_eq!(one.cases + one.rejects, 4);
        assert_eq!(run(50_000), one);
    }

    /// With `--lint` on and unmodified engines, a campaign reports no
    /// soundness findings: the analyzer never claims clean about a
    /// program that faults.
    #[test]
    fn lint_campaign_reports_no_findings() {
        let config = CampaignConfig {
            seed: 11,
            cases: Some(20),
            lint: true,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&config);
        assert_eq!(report.divergences.len(), 0, "{:?}", report.divergences);
    }
}
