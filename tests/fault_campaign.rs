//! End-to-end properties of `mfault` campaigns: bit-reproducibility
//! across runs and `--jobs`, harness transparency (zero faults ⇒ zero
//! perturbation), and the headline robustness result — with SECDED
//! and the mcode recovery mroutine, injected single-bit MRAM/MReg
//! faults on a live workload are detected and corrected with zero
//! silent data corruption.

use metal_core::EccMode;
use metal_faultsim::campaign::{
    run, CampaignConfig, Classification, EngineChoice, KindChoice, WorkloadKind,
};
use metal_trace::FaultSite;

fn smoke_config() -> CampaignConfig {
    CampaignConfig {
        seed: 0xFA_017,
        cases: 48,
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

#[test]
fn campaign_is_deterministic_across_jobs() {
    // The MRAM/MReg smoke campaign, and one over the latch, cache, TLB
    // and guest-register sites.
    let pipeline_only = CampaignConfig {
        sites: vec![
            FaultSite::Latch,
            FaultSite::Cache,
            FaultSite::Tlb,
            FaultSite::GuestReg,
        ],
        workload: WorkloadKind::Fuzz,
        ..smoke_config()
    };
    // Each worker reuses one machine for all its cases, and each
    // `jobs` value hands a worker a different sequence of cases. Here
    // consecutive cases differ in everything the reused machine must
    // reset: soft-TLB and bare fuzz guests, transient and stuck-at
    // faults, on the interpreter.
    let reused_interp = CampaignConfig {
        sites: vec![
            FaultSite::MramCode,
            FaultSite::MramData,
            FaultSite::Mreg,
            FaultSite::GuestReg,
            FaultSite::Tlb,
        ],
        kind: KindChoice::Mixed,
        engine: EngineChoice::Interp,
        workload: WorkloadKind::Fuzz,
        ..smoke_config()
    };
    for mut cfg in [smoke_config(), pipeline_only, reused_interp] {
        let baseline = run(&cfg).to_json(&cfg).to_string_compact();
        for jobs in [1, 4] {
            cfg.jobs = jobs;
            let again = run(&cfg).to_json(&cfg).to_string_compact();
            assert_eq!(baseline, again, "campaign diverged at --jobs {jobs}");
        }
    }
}

#[test]
fn zero_fault_campaign_is_state_identical_on_both_engines() {
    for (engine, workload) in [
        (EngineChoice::Pipeline, WorkloadKind::Loop),
        (EngineChoice::Pipeline, WorkloadKind::Fuzz),
        (EngineChoice::Interp, WorkloadKind::Loop),
        (EngineChoice::Interp, WorkloadKind::Fuzz),
    ] {
        let cfg = CampaignConfig {
            cases: 16,
            engine,
            workload,
            zero_fault: true,
            ..smoke_config()
        };
        let report = run(&cfg);
        assert_eq!(
            report.zero_fault_divergences,
            0,
            "snapshot/rerun perturbed state on {} / {}",
            engine.label(),
            workload.label()
        );
        // The detection hardware must also stay silent on clean state.
        let mchecks: u64 = report.outcomes.iter().map(|o| o.machine_checks).sum();
        assert_eq!(mchecks, 0, "spurious machine checks on clean runs");
    }
}

#[test]
fn secded_smoke_campaign_corrects_faults_without_sdc() {
    for engine in [EngineChoice::Pipeline, EngineChoice::Interp] {
        let cfg = CampaignConfig {
            cases: 100,
            engine,
            ..smoke_config()
        };
        let report = run(&cfg);
        assert_eq!(
            report.tally(None).of(Classification::Sdc),
            0,
            "SDC under SECDED + recovery on {}",
            engine.label()
        );
        let pct = report.corrected_pct().expect("cases were evaluated");
        assert!(
            pct >= 95.0,
            "only {pct:.1}% corrected on {}",
            engine.label()
        );
    }
}

#[test]
fn parity_mreg_faults_recover_by_rollback() {
    // Parity detects but cannot locate the bit; MRAM words still scrub
    // from the golden copy (retry), while Metal register faults must
    // go through mabort + checkpoint rollback.
    let cfg = CampaignConfig {
        cases: 60,
        ecc: EccMode::Parity,
        ..smoke_config()
    };
    let report = run(&cfg);
    assert_eq!(report.tally(None).of(Classification::Sdc), 0);
    assert!(report.corrected_pct().is_some_and(|pct| pct >= 95.0));
    let mreg_rollbacks = report
        .outcomes
        .iter()
        .filter(|o| o.site == Some(FaultSite::Mreg) && o.class == Classification::CorrectedRollback)
        .count();
    assert!(
        mreg_rollbacks > 0,
        "expected at least one rollback-recovered mreg parity fault"
    );
    for o in &report.outcomes {
        if o.site == Some(FaultSite::Mreg) {
            assert_eq!(
                o.class,
                Classification::CorrectedRollback,
                "parity cannot scrub a register in place (case {})",
                o.index
            );
        }
    }
}

#[test]
fn without_ecc_nothing_is_detected() {
    let cfg = CampaignConfig {
        cases: 40,
        ecc: EccMode::None,
        ..smoke_config()
    };
    let report = run(&cfg);
    let mchecks: u64 = report.outcomes.iter().map(|o| o.machine_checks).sum();
    assert_eq!(mchecks, 0, "machine checks with detection disabled");
    for o in &report.outcomes {
        assert!(
            matches!(o.class, Classification::Masked | Classification::Sdc),
            "case {} classified {:?} without detection hardware",
            o.index,
            o.class
        );
    }
    // A live workload must expose at least some of the corruption.
    assert!(
        report.tally(None).of(Classification::Sdc) > 0,
        "no-ECC campaign surfaced no SDC at all"
    );
}

#[test]
fn stuck_at_faults_are_corrected_on_live_sites() {
    let cfg = CampaignConfig {
        cases: 40,
        kind: KindChoice::Stuck,
        ..smoke_config()
    };
    let report = run(&cfg);
    assert_eq!(report.tally(None).of(Classification::Sdc), 0);
    assert!(report.corrected_pct().is_some_and(|pct| pct >= 95.0));
}
