//! End-to-end campaign tests: determinism of the seed schedule and the
//! full find→shrink→replay loop against a deliberately injected engine
//! bug.

use metal_fuzz::exec::BugKind;
use metal_fuzz::{artifact, run_campaign, shrink, CampaignConfig};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mfuzz-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn same_seed_same_campaign() {
    // Acceptance: `mfuzz --cases N --seed 1` is deterministic for any
    // `--jobs` — same counts, same coverage, same corpus (names and
    // contents).
    let run = |jobs: usize| {
        let dir = temp_dir(&format!("det-j{jobs}"));
        let report = run_campaign(&CampaignConfig {
            seed: 1,
            jobs,
            cases: Some(300),
            corpus_dir: Some(dir.clone()),
            ..CampaignConfig::default()
        });
        let mut corpus: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let bytes = std::fs::read(e.path()).unwrap();
                (e.file_name().into_string().unwrap(), bytes)
            })
            .collect();
        corpus.sort();
        let _ = std::fs::remove_dir_all(&dir);
        (report, corpus)
    };
    let (a, corpus_a) = run(1);
    assert!(a.coverage > 0, "campaign observed no coverage");
    assert!(!corpus_a.is_empty(), "campaign kept no seeds");
    assert_eq!(a.divergences.len(), 0, "clean engines diverged");
    for jobs in [2, 3] {
        let (b, corpus_b) = run(jobs);
        let counts = |r: &metal_fuzz::CampaignReport| (r.cases, r.hangs, r.rejects, r.coverage);
        assert_eq!(counts(&a), counts(&b), "--jobs 1 vs --jobs {jobs}");
        let names = |c: &[(String, Vec<u8>)]| c.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
        assert_eq!(
            names(&corpus_a),
            names(&corpus_b),
            "corpus file sets differ at --jobs {jobs}"
        );
        assert!(
            corpus_a == corpus_b,
            "corpus contents differ at --jobs {jobs}"
        );
    }
}

#[test]
fn injected_bug_is_found_shrunk_and_replayable() {
    // Acceptance: a seeded engine bug (mul low-bit flip on the cores)
    // is found, shrunk to <= 12 instructions, and the written artifact
    // fails replay while the bug exists and passes once it is gone.
    // The findings, in index order, do not depend on `--jobs`.
    let dir = temp_dir("bug");
    let run = |jobs: usize| {
        run_campaign(&CampaignConfig {
            seed: 7,
            jobs,
            cases: Some(400),
            corpus_dir: Some(dir.clone()),
            bug: BugKind::MulLowBit,
            ..CampaignConfig::default()
        })
    };
    let report = run(2);
    let findings = |r: &metal_fuzz::CampaignReport| {
        r.divergences
            .iter()
            .map(|d| (d.seed, d.what.clone(), d.insns))
            .collect::<Vec<_>>()
    };
    assert_eq!(findings(&run(1)), findings(&report), "--jobs 1 vs --jobs 2");
    assert!(
        !report.divergences.is_empty(),
        "injected bug not found in {} cases",
        report.cases
    );
    let best = report.divergences.iter().min_by_key(|d| d.insns).unwrap();
    assert!(
        best.insns <= 12,
        "best shrink is {} instructions",
        best.insns
    );
    assert!(
        best.case.guest.contains("mul"),
        "shrunk case lost the buggy instruction:\n{}",
        best.case.guest
    );
    let path = best.artifact.as_ref().expect("artifact written");
    let content = std::fs::read_to_string(path).unwrap();
    // While the bug exists, the artifact reproduces it.
    let err = artifact::replay(&content, BugKind::MulLowBit)
        .expect_err("artifact must fail replay under the bug");
    assert!(
        err.contains("diverged") || err.contains("expected"),
        "{err}"
    );
    // Once the bug is fixed, the same artifact passes.
    artifact::replay(&content, BugKind::None).expect("artifact passes on fixed engines");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shrunk_case_is_still_counted_by_insn_count() {
    let case = metal_fuzz::grammar::generate(1);
    let n = shrink::insn_count(&case);
    assert!(n > 0, "generated cases have instructions");
}
