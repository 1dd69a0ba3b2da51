//! Deterministic fault campaigns: golden run, seeded injection,
//! classification against the golden state.
//!
//! Each case is an independent function of `(campaign seed, case
//! index)`: the case seed is derived by splitmix-mixing the two, and
//! the shared runner ([`metal_util::shard::run`]) returns outcomes in
//! index order, so a campaign run on N worker threads produces
//! *bit-identical* results for any `--jobs` value.
//!
//! Per case: build the victim, snapshot it pristine, run it clean to
//! capture the **golden** digest, then rewind, step to a seeded
//! injection point, apply the fault, and run to completion under a
//! watchdog. The final state is classified:
//!
//! | class                   | detected? | state vs golden |
//! |-------------------------|-----------|-----------------|
//! | `masked`                | no        | identical       |
//! | `corrected-retry`       | yes       | identical (scrub + re-execute) |
//! | `corrected-rollback`    | yes       | identical after checkpoint rollback |
//! | `uncorrectable`         | yes       | divergent       |
//! | `sdc`                   | no        | divergent — silent data corruption |
//! | `hang`                  | —         | watchdog fuel expired |
//!
//! A `Fatal` halt with no machine check counts as divergence without
//! detection, i.e. SDC: the machine died for an undiagnosed reason.
//! When recovery declares a fault uncorrectable (`mabort`), the
//! harness plays the host's role: it rolls back to the pristine
//! checkpoint and re-runs — a transient fault clears and the rerun
//! must match golden (`corrected-rollback`); a stuck-at fault
//! persists and stays `uncorrectable`.
//!
//! Runs are compared by digests of the state sets that
//! [`metal_core::arch`] names: [`arch::OUTCOME`] (guest registers, the
//! halt reason, RAM and MRAM data) against golden, because a recovered
//! run legitimately executes extra (recovery) instructions; and
//! [`arch::FULL`], which adds Metal registers, cycles, `instret` and
//! the ASID, for `--zero-fault` reruns. The snapshot, each restore and
//! each digest cost the RAM pages the victim wrote, not the size of
//! RAM, so a case costs mostly the victim build and the engine
//! construction.

use crate::fault::{FaultKind, FaultSpec, CACHE_DSIDE};
use crate::workload;
use metal_core::arch::{self, Machine};
use metal_core::{EccMode, Metal};
use metal_pipeline::state::{CoreConfig, TranslationMode};
use metal_pipeline::{Core, Engine, HaltReason, Interp};
use metal_trace::FaultSite;
use metal_util::json::Json;
use metal_util::{shard, Rng};
use std::collections::BTreeMap;
use std::ops::Range;

/// Watchdog fuel per run, in cycles on either engine (one interpreter
/// step is one cycle).
pub const FUEL: u64 = 2_000_000;

/// Cycles between stuck-at re-assertions.
const CHUNK: u64 = 2_048;

/// Which engine the campaign drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineChoice {
    /// The 5-stage pipelined core (cache/TLB/latch sites live here).
    Pipeline,
    /// The functional reference interpreter.
    Interp,
}

impl EngineChoice {
    /// Parses the `--engine` operand.
    #[must_use]
    pub fn parse(s: &str) -> Option<EngineChoice> {
        match s {
            "pipeline" => Some(EngineChoice::Pipeline),
            "interp" => Some(EngineChoice::Interp),
            _ => None,
        }
    }

    /// CLI/report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EngineChoice::Pipeline => "pipeline",
            EngineChoice::Interp => "interp",
        }
    }
}

/// Which victim programs the campaign runs (see [`crate::workload`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The live-site loop victim (smoke campaigns, coverage bars).
    Loop,
    /// Grammar-generated programs (exploratory campaigns).
    Fuzz,
}

impl WorkloadKind {
    /// Parses the `--workload` operand.
    #[must_use]
    pub fn parse(s: &str) -> Option<WorkloadKind> {
        match s {
            "loop" => Some(WorkloadKind::Loop),
            "fuzz" => Some(WorkloadKind::Fuzz),
            _ => None,
        }
    }

    /// CLI/report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::Loop => "loop",
            WorkloadKind::Fuzz => "fuzz",
        }
    }
}

/// Which fault kinds the schedule draws.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KindChoice {
    /// Single-bit transient flips only.
    Transient,
    /// Stuck-at faults only (readable sites).
    Stuck,
    /// A seeded mix of both.
    Mixed,
}

impl KindChoice {
    /// Parses the `--kind` operand.
    #[must_use]
    pub fn parse(s: &str) -> Option<KindChoice> {
        match s {
            "transient" => Some(KindChoice::Transient),
            "stuck" => Some(KindChoice::Stuck),
            "mixed" => Some(KindChoice::Mixed),
            _ => None,
        }
    }

    /// CLI/report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            KindChoice::Transient => "transient",
            KindChoice::Stuck => "stuck",
            KindChoice::Mixed => "mixed",
        }
    }
}

/// Full campaign configuration (everything `mfault` parses).
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Master seed; every case derives from it and its index.
    pub seed: u64,
    /// Number of cases.
    pub cases: u64,
    /// Worker threads (results are identical for any value).
    pub jobs: usize,
    /// Check-bit scheme on MRAM and the Metal register file.
    pub ecc: EccMode,
    /// Fault sites the schedule draws from.
    pub sites: Vec<FaultSite>,
    /// Fault kinds the schedule draws.
    pub kind: KindChoice,
    /// Engine under test.
    pub engine: EngineChoice,
    /// Victim programs.
    pub workload: WorkloadKind,
    /// Attach and delegate the recovery mroutine.
    pub recover: bool,
    /// Inject nothing; assert the harness itself perturbs nothing.
    pub zero_fault: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 1,
            cases: 100,
            jobs: 1,
            ecc: EccMode::Secded,
            sites: vec![FaultSite::MramCode, FaultSite::MramData, FaultSite::Mreg],
            kind: KindChoice::Transient,
            engine: EngineChoice::Pipeline,
            workload: WorkloadKind::Loop,
            recover: true,
            zero_fault: false,
        }
    }
}

/// The verdict for one injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Classification {
    /// No machine check, final state identical to golden.
    Masked,
    /// Detected, scrubbed in place, re-executed: state identical.
    CorrectedRetry,
    /// Detected, declared uncorrectable, repaired by checkpoint
    /// rollback and clean re-run.
    CorrectedRollback,
    /// Detected but the final state diverged from golden.
    Uncorrectable,
    /// Silent data corruption: divergence with no machine check.
    Sdc,
    /// The watchdog fuel expired.
    Hang,
    /// The case could not run (build failure or golden-run timeout);
    /// no fault was evaluated.
    Skipped,
}

impl Classification {
    /// Every class, in report order (the declaration order).
    pub const ALL: [Classification; 7] = [
        Classification::Masked,
        Classification::CorrectedRetry,
        Classification::CorrectedRollback,
        Classification::Uncorrectable,
        Classification::Sdc,
        Classification::Hang,
        Classification::Skipped,
    ];

    /// Report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Classification::Masked => "masked",
            Classification::CorrectedRetry => "corrected-retry",
            Classification::CorrectedRollback => "corrected-rollback",
            Classification::Uncorrectable => "uncorrectable",
            Classification::Sdc => "sdc",
            Classification::Hang => "hang",
            Classification::Skipped => "skipped",
        }
    }
}

/// One case's result.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// Global case index.
    pub index: u64,
    /// Site attacked (`None` for skipped or zero-fault cases).
    pub site: Option<FaultSite>,
    /// The verdict.
    pub class: Classification,
    /// Machine checks the injected run raised.
    pub machine_checks: u64,
    /// Successful scrubs the recovery mroutine performed.
    pub scrubs: u64,
    /// Whether the injection changed any state at all.
    pub applied: bool,
}

/// Case counts per [`Classification`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally([u64; Classification::ALL.len()]);

impl Tally {
    /// Cases with the given class.
    #[must_use]
    pub fn of(&self, class: Classification) -> u64 {
        self.0[class as usize]
    }

    /// Cases of every class.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Corrected cases (retry + rollback).
    #[must_use]
    pub fn corrected(&self) -> u64 {
        self.of(Classification::CorrectedRetry) + self.of(Classification::CorrectedRollback)
    }
}

/// Aggregated campaign results.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Per-case outcomes, in case-index order.
    pub outcomes: Vec<CaseOutcome>,
    /// Zero-fault divergences (must be 0; only populated with
    /// [`CampaignConfig::zero_fault`]).
    pub zero_fault_divergences: u64,
}

impl Report {
    /// Count of outcomes with the given class.
    #[must_use]
    pub fn count(&self, class: Classification) -> u64 {
        self.outcomes.iter().filter(|o| o.class == class).count() as u64
    }

    /// Per-class counts over the cases that attacked `site`, or over
    /// every case when `site` is `None`.
    #[must_use]
    pub fn tally(&self, site: Option<FaultSite>) -> Tally {
        let mut tally = Tally::default();
        for o in &self.outcomes {
            if site.is_none() || o.site == site {
                tally.0[o.class as usize] += 1;
            }
        }
        tally
    }

    /// Fraction of evaluated (non-skipped) cases that were corrected,
    /// in percent. 100.0 for an empty campaign.
    #[must_use]
    pub fn corrected_pct(&self) -> f64 {
        let tally = self.tally(None);
        let evaluated = tally.total() - tally.of(Classification::Skipped);
        if evaluated == 0 {
            return 100.0;
        }
        tally.corrected() as f64 * 100.0 / evaluated as f64
    }

    /// Serializes the whole report as deterministic JSON (sorted
    /// object keys, cases in index order) — byte-identical across
    /// runs and `--jobs` values for the same configuration.
    #[must_use]
    pub fn to_json(&self, cfg: &CampaignConfig) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        let mut campaign = BTreeMap::new();
        campaign.insert("seed".to_owned(), num(cfg.seed));
        campaign.insert("cases".to_owned(), num(cfg.cases));
        campaign.insert("ecc".to_owned(), Json::Str(cfg.ecc.label().to_owned()));
        campaign.insert("kind".to_owned(), Json::Str(cfg.kind.label().to_owned()));
        campaign.insert(
            "engine".to_owned(),
            Json::Str(cfg.engine.label().to_owned()),
        );
        campaign.insert(
            "workload".to_owned(),
            Json::Str(cfg.workload.label().to_owned()),
        );
        campaign.insert("recover".to_owned(), Json::Bool(cfg.recover));
        campaign.insert(
            "sites".to_owned(),
            Json::Arr(
                cfg.sites
                    .iter()
                    .map(|s| Json::Str(s.label().to_owned()))
                    .collect(),
            ),
        );

        let classes_of = |tally: Tally| {
            Classification::ALL
                .iter()
                .map(|&class| (class.label().to_owned(), num(tally.of(class))))
                .collect::<BTreeMap<_, _>>()
        };

        let mut sites = BTreeMap::new();
        for &site in &cfg.sites {
            let tally = self.tally(Some(site));
            let mut table = classes_of(tally);
            table.insert("injected".to_owned(), num(tally.total()));
            sites.insert(site.label().to_owned(), Json::Obj(table));
        }

        let mut totals = BTreeMap::new();
        totals.insert(
            "machine-checks".to_owned(),
            num(self.outcomes.iter().map(|o| o.machine_checks).sum()),
        );
        totals.insert(
            "scrubs".to_owned(),
            num(self.outcomes.iter().map(|o| o.scrubs).sum()),
        );
        totals.insert(
            "applied".to_owned(),
            num(self.outcomes.iter().filter(|o| o.applied).count() as u64),
        );
        totals.insert(
            "corrected-pct".to_owned(),
            Json::Num((self.corrected_pct() * 100.0).round() / 100.0),
        );
        totals.insert(
            "zero-fault-divergences".to_owned(),
            num(self.zero_fault_divergences),
        );

        let cases = self
            .outcomes
            .iter()
            .map(|o| {
                Json::Arr(vec![
                    num(o.index),
                    Json::Str(o.site.map_or("none", FaultSite::label).to_owned()),
                    Json::Str(o.class.label().to_owned()),
                ])
            })
            .collect();

        let mut root = BTreeMap::new();
        root.insert("campaign".to_owned(), Json::Obj(campaign));
        root.insert(
            "classes".to_owned(),
            Json::Obj(classes_of(self.tally(None))),
        );
        root.insert("sites".to_owned(), Json::Obj(sites));
        root.insert("totals".to_owned(), Json::Obj(totals));
        root.insert("cases".to_owned(), Json::Arr(cases));
        Json::Obj(root)
    }
}

/// Mixes the campaign seed with a global case index. Deliberately
/// *not* a function of the shard, so sharding cannot change results.
#[must_use]
pub fn case_seed(seed: u64, index: u64) -> u64 {
    Rng::new(seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))).next_u64()
}

/// Runs a campaign on the configured engine.
#[must_use]
pub fn run(cfg: &CampaignConfig) -> Report {
    match cfg.engine {
        EngineChoice::Pipeline => run_typed::<Core<Metal>>(cfg),
        EngineChoice::Interp => run_typed::<Interp<Metal>>(cfg),
    }
}

fn run_typed<E: Engine<Hooks = Metal>>(cfg: &CampaignConfig) -> Report {
    let (_, outcomes) = shard::run(
        cfg.jobs,
        Some(cfg.cases),
        None,
        || (),
        |(), i| Some(run_case::<E>(cfg, i)),
    );
    let zero_fault_divergences = outcomes
        .iter()
        .filter(|o| cfg.zero_fault && o.class == Classification::Sdc)
        .count() as u64;
    Report {
        outcomes,
        zero_fault_divergences,
    }
}

/// Draws a fault spec from the case RNG and the workload's live-site
/// map. Sites without readable words degrade stuck-at to transient.
fn draw_spec<E: Engine<Hooks = Metal>>(
    rng: &mut Rng,
    cfg: &CampaignConfig,
    engine: &E,
    code_words: &Range<u32>,
    data_words: &Range<u32>,
    mregs: &[u32],
) -> FaultSpec {
    let site = *rng.pick(&cfg.sites);
    let (index, bit) = match site {
        FaultSite::MramCode => (
            code_words.start + rng.below(code_words.len() as u64) as u32,
            rng.below(32) as u8,
        ),
        FaultSite::MramData => (
            data_words.start + rng.below(data_words.len() as u64) as u32,
            rng.below(32) as u8,
        ),
        FaultSite::Mreg => (*rng.pick(mregs), rng.below(32) as u8),
        FaultSite::GuestReg => (1 + rng.below(31) as u32, rng.below(32) as u8),
        FaultSite::Tlb => (
            rng.below(engine.state().tlb.capacity().max(1) as u64) as u32,
            rng.below(64) as u8,
        ),
        FaultSite::Cache => {
            let conf = engine.state().icache.config();
            let lines = (conf.size_bytes / conf.line_bytes).max(1) as u64;
            let dside = if rng.chance() { CACHE_DSIDE } else { 0 };
            (dside | rng.below(lines) as u32, rng.below(32) as u8)
        }
        FaultSite::Latch => (rng.below(4) as u32, rng.below(64) as u8),
    };
    let forcible = matches!(
        site,
        FaultSite::MramCode | FaultSite::MramData | FaultSite::Mreg | FaultSite::GuestReg
    );
    let kind = match cfg.kind {
        KindChoice::Transient => FaultKind::Transient,
        KindChoice::Stuck | KindChoice::Mixed
            if forcible && (cfg.kind == KindChoice::Stuck || rng.chance()) =>
        {
            FaultKind::StuckAt {
                value: rng.chance(),
            }
        }
        _ => FaultKind::Transient,
    };
    FaultSpec {
        site,
        index,
        bit,
        kind,
    }
}

fn skipped(index: u64) -> CaseOutcome {
    CaseOutcome {
        index,
        site: None,
        class: Classification::Skipped,
        machine_checks: 0,
        scrubs: 0,
        applied: false,
    }
}

/// Runs the machine to completion, re-asserting a stuck-at fault at
/// chunk boundaries.
fn run_faulty<E: Engine<Hooks = Metal>>(engine: &mut E, spec: &FaultSpec) {
    match spec.kind {
        FaultKind::Transient => {
            let _ = engine.run_fuel(FUEL);
        }
        FaultKind::StuckAt { value } => {
            let mut spent = 0u64;
            while engine.state().halted.is_none() && spent < FUEL {
                let _ = engine.run(CHUNK);
                spent += CHUNK;
                if engine.state().halted.is_none() {
                    crate::fault::force(engine, spec, value);
                }
            }
            if engine.state().halted.is_none() {
                engine.state_mut().halted = Some(HaltReason::Timeout);
            }
        }
    }
}

fn run_case<E: Engine<Hooks = Metal>>(cfg: &CampaignConfig, index: u64) -> CaseOutcome {
    let seed = case_seed(cfg.seed, index);
    let mut rng = Rng::new(seed);
    let Ok(built) = workload::build(cfg, seed) else {
        return skipped(index);
    };
    let mut engine = E::new(CoreConfig::default(), built.metal);
    if built.soft_tlb {
        engine.state_mut().translation = TranslationMode::SoftTlb;
    }
    engine.load_segments([(0u32, built.program.as_slice())], 0);
    let pristine = engine.snapshot();

    let golden_halt = engine.run_fuel(FUEL);
    if matches!(golden_halt, HaltReason::Timeout) {
        return skipped(index);
    }
    let golden_instret = engine.state().perf.instret;
    let golden = arch::digest(Machine::of(&engine), arch::OUTCOME);

    if cfg.zero_fault {
        // No injection: rewinding and re-running must reproduce the
        // golden run *exactly*, including timing and Metal scratch
        // state — proof the harness itself perturbs nothing.
        let golden_full = arch::digest(Machine::of(&engine), arch::FULL);
        engine.restore(&pristine);
        let _ = engine.run_fuel(FUEL);
        let class = if arch::digest(Machine::of(&engine), arch::FULL) == golden_full {
            Classification::Masked
        } else {
            Classification::Sdc
        };
        return CaseOutcome {
            index,
            site: None,
            class,
            machine_checks: engine.hooks().stats.machine_checks,
            scrubs: engine.hooks().stats.scrubs,
            applied: false,
        };
    }

    let spec = draw_spec(
        &mut rng,
        cfg,
        &engine,
        &built.code_words,
        &built.data_words,
        &built.mregs,
    );
    // Inject inside the first ~90% of the golden run so the corrupted
    // state has a chance to be consumed before the program ends.
    let window = (golden_instret.saturating_mul(9) / 10).max(1);
    let inject_at = rng.below(window);

    engine.restore(&pristine);
    engine.step_insns(inject_at);
    let applied = crate::fault::apply(&mut engine, &spec);
    run_faulty(&mut engine, &spec);

    let halt = engine
        .state()
        .halted
        .clone()
        .expect("watchdog guarantees a halt");
    let machine_checks = engine.hooks().stats.machine_checks;
    let scrubs = engine.hooks().stats.scrubs;
    let aborted =
        matches!(&halt, HaltReason::Fatal(m) if m.contains("machine-check recovery abort"));

    let class = if matches!(halt, HaltReason::Timeout) {
        Classification::Hang
    } else if aborted {
        // Recovery declared the fault uncorrectable; play the host's
        // role and roll back to the checkpoint. A transient fault is
        // gone after the rewind; a stuck-at fault persists.
        engine.restore(&pristine);
        match spec.kind {
            FaultKind::Transient => {
                let _ = engine.run_fuel(FUEL);
            }
            FaultKind::StuckAt { .. } => {
                if crate::fault::apply(&mut engine, &spec) {
                    run_faulty(&mut engine, &spec);
                } else {
                    let _ = engine.run_fuel(FUEL);
                }
            }
        }
        if arch::digest(Machine::of(&engine), arch::OUTCOME) == golden {
            Classification::CorrectedRollback
        } else {
            Classification::Uncorrectable
        }
    } else if arch::digest(Machine::of(&engine), arch::OUTCOME) == golden {
        if machine_checks > 0 {
            Classification::CorrectedRetry
        } else {
            Classification::Masked
        }
    } else if machine_checks > 0 {
        Classification::Uncorrectable
    } else {
        Classification::Sdc
    };

    CaseOutcome {
        index,
        site: Some(spec.site),
        class,
        machine_checks,
        scrubs,
        applied,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_table_is_in_declaration_order() {
        // `Tally` indexes its counts by `class as usize`.
        for (i, &class) in Classification::ALL.iter().enumerate() {
            assert_eq!(class as usize, i, "{}", class.label());
        }
    }
}
