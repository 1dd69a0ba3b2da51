//! Replayable artifacts: a fuzz case plus its expected final state,
//! rendered as a single annotated `.s` file.
//!
//! The format is line-oriented and assembler-adjacent so a human can
//! read the repro directly:
//!
//! ```text
//! # mfuzz artifact v1
//! # seed 0x000000000000002a
//! config softtlb 0
//! delegate 8 2
//! routine 2 skip
//! | rmr t0, m31
//! | addi t0, t0, 4
//! | wmr m31, t0
//! | mexit
//! guest
//! | li a0, 7
//! | ecall
//! | ebreak
//! expect halt ebreak 7
//! expect instret 3
//! expect reg 10 0x00000007
//! ```
//!
//! Expectations are taken from the **reference interpreter**, so a
//! replay passes only when both engines agree with each other *and*
//! with the recorded state — a divergence artifact keeps failing for
//! as long as the bug it witnesses exists.

use crate::coverage::fnv1a;
use crate::exec::{BugKind, CaseResult, CaseRunner, EngineRun};
use crate::grammar::{FuzzCase, RoutineSpec};
use metal_pipeline::{HaltReason, TrapCause};

/// Renders a case and its reference run as an artifact.
#[must_use]
pub fn serialize(case: &FuzzCase, reference: &EngineRun) -> String {
    let mut out = String::new();
    out.push_str("# mfuzz artifact v1\n");
    out.push_str(&format!("# seed {:#018x}\n", case.seed));
    out.push_str(&format!("config softtlb {}\n", u32::from(case.soft_tlb)));
    for &(cause, entry) in &case.delegations {
        out.push_str(&format!("delegate {} {}\n", cause.code(), entry));
    }
    for r in &case.routines {
        out.push_str(&format!("routine {} {}\n", r.entry, r.name));
        for line in r.src.lines().map(str::trim).filter(|l| !l.is_empty()) {
            out.push_str(&format!("| {line}\n"));
        }
    }
    out.push_str("guest\n");
    for line in case.guest.lines().map(str::trim).filter(|l| !l.is_empty()) {
        out.push_str(&format!("| {line}\n"));
    }
    match &reference.halt {
        Some(HaltReason::Ebreak { code }) => {
            out.push_str(&format!("expect halt ebreak {code}\n"));
        }
        Some(HaltReason::Fatal(_)) => out.push_str("expect halt fatal\n"),
        // Budget-limited runs are hangs; artifacts never reach this
        // arm (hangs are discarded), but keep the mapping total.
        Some(HaltReason::Timeout) | None => out.push_str("expect halt none\n"),
    }
    out.push_str(&format!("expect instret {}\n", reference.instret));
    for (i, &v) in reference.regs.iter().enumerate() {
        if v != 0 {
            out.push_str(&format!("expect reg {i} {v:#010x}\n"));
        }
    }
    for (i, &v) in reference.mregs.iter().enumerate() {
        if v != 0 {
            out.push_str(&format!("expect mreg {i} {v:#010x}\n"));
        }
    }
    out.push_str(&format!(
        "expect mramsum {:#018x}\n",
        fnv1a(reference.mram_data.iter().copied())
    ));
    out
}

/// What a replay must observe, parsed back from an artifact.
#[derive(Clone, Debug, Default)]
pub struct Expectations {
    /// Expected halt: `ebreak <code>`, `fatal`, or `none` (hang).
    pub halt: Option<String>,
    /// Expected retired-instruction count.
    pub instret: Option<u64>,
    /// Expected nonzero general registers.
    pub regs: Vec<(usize, u32)>,
    /// Expected nonzero Metal registers.
    pub mregs: Vec<(usize, u32)>,
    /// Expected MRAM data checksum.
    pub mramsum: Option<u64>,
}

fn parse_num(s: &str) -> Result<u64, String> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).map_err(|e| format!("bad number {s:?}: {e}"))
    } else {
        s.parse().map_err(|e| format!("bad number {s:?}: {e}"))
    }
}

/// Parses an artifact back into the case and its expectations.
pub fn parse(content: &str) -> Result<(FuzzCase, Expectations), String> {
    let mut case = FuzzCase {
        seed: 0,
        routines: Vec::new(),
        delegations: Vec::new(),
        soft_tlb: false,
        guest: String::new(),
    };
    let mut expect = Expectations::default();
    // Where `| ` body lines accumulate: None, the guest, or routine i.
    enum Section {
        None,
        Guest,
        Routine(usize),
    }
    let mut section = Section::None;
    for (ln, raw) in content.lines().enumerate() {
        let line = raw.trim();
        let err = |m: String| format!("line {}: {m}", ln + 1);
        if let Some(body) = line.strip_prefix('|') {
            let body = body.trim();
            let buf = match section {
                Section::Guest => &mut case.guest,
                Section::Routine(i) => &mut case.routines[i].src,
                Section::None => return Err(err("body line outside a section".into())),
            };
            if !buf.is_empty() {
                buf.push('\n');
            }
            buf.push_str(body);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# seed ") {
            case.seed = parse_num(rest).map_err(err)?;
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut words = line.split_whitespace();
        match words.next() {
            Some("config") => match (words.next(), words.next()) {
                (Some("softtlb"), Some(v)) => case.soft_tlb = v != "0",
                other => return Err(err(format!("bad config {other:?}"))),
            },
            Some("delegate") => {
                let code = words
                    .next()
                    .ok_or_else(|| err("delegate needs a cause".into()))
                    .and_then(|w| parse_num(w).map_err(err))?;
                let entry = words
                    .next()
                    .ok_or_else(|| err("delegate needs an entry".into()))
                    .and_then(|w| parse_num(w).map_err(err))?;
                let cause = TrapCause::from_code(code as u32)
                    .ok_or_else(|| err(format!("unknown trap cause {code}")))?;
                case.delegations.push((cause, entry as u8));
            }
            Some("routine") => {
                let entry = words
                    .next()
                    .ok_or_else(|| err("routine needs an entry".into()))
                    .and_then(|w| parse_num(w).map_err(err))?;
                let name = words.next().unwrap_or("unnamed").to_owned();
                case.routines.push(RoutineSpec::new(entry as u8, &name, ""));
                section = Section::Routine(case.routines.len() - 1);
            }
            Some("guest") => section = Section::Guest,
            Some("expect") => match words.next() {
                Some("halt") => {
                    expect.halt = Some(words.collect::<Vec<_>>().join(" "));
                }
                Some("instret") => {
                    let n = words
                        .next()
                        .ok_or_else(|| err("expect instret needs a value".into()))?;
                    expect.instret = Some(parse_num(n).map_err(err)?);
                }
                Some(which @ ("reg" | "mreg")) => {
                    let n = words
                        .next()
                        .ok_or_else(|| err("expect reg needs an index".into()))
                        .and_then(|w| parse_num(w).map_err(err))?;
                    let v = words
                        .next()
                        .ok_or_else(|| err("expect reg needs a value".into()))
                        .and_then(|w| parse_num(w).map_err(err))?;
                    let list = if which == "reg" {
                        &mut expect.regs
                    } else {
                        &mut expect.mregs
                    };
                    list.push((n as usize, v as u32));
                }
                Some("mramsum") => {
                    let n = words
                        .next()
                        .ok_or_else(|| err("expect mramsum needs a value".into()))?;
                    expect.mramsum = Some(parse_num(n).map_err(err)?);
                }
                other => return Err(err(format!("unknown expectation {other:?}"))),
            },
            other => return Err(err(format!("unknown directive {other:?}"))),
        }
    }
    // `serialize` always writes these three; without them a replay
    // would check nothing and pass.
    if case.guest.is_empty() {
        return Err("no guest program".to_owned());
    }
    if expect.halt.is_none() || expect.instret.is_none() {
        return Err("missing `expect halt` or `expect instret`".to_owned());
    }
    Ok((case, expect))
}

fn halt_string(halt: &Option<HaltReason>) -> String {
    match halt {
        Some(HaltReason::Ebreak { code }) => format!("ebreak {code}"),
        Some(HaltReason::Fatal(_)) => "fatal".to_owned(),
        Some(HaltReason::Timeout) | None => "none".to_owned(),
    }
}

/// Checks a fresh run against an artifact's expectations.
fn check(result: &CaseResult, expect: &Expectations) -> Result<(), String> {
    if let Some(d) = &result.divergence {
        return Err(format!("engines diverged: {d}"));
    }
    let run = &result.interp;
    if let Some(want) = &expect.halt {
        let got = halt_string(&run.halt);
        if &got != want {
            return Err(format!("halt: expected {want:?}, got {got:?}"));
        }
    }
    if let Some(want) = expect.instret {
        if run.instret != want {
            return Err(format!("instret: expected {want}, got {}", run.instret));
        }
    }
    for &(i, want) in &expect.regs {
        if run.regs[i] != want {
            return Err(format!(
                "x{i}: expected {want:#010x}, got {:#010x}",
                run.regs[i]
            ));
        }
    }
    for &(i, want) in &expect.mregs {
        if run.mregs[i] != want {
            return Err(format!(
                "m{i}: expected {want:#010x}, got {:#010x}",
                run.mregs[i]
            ));
        }
    }
    if let Some(want) = expect.mramsum {
        let got = fnv1a(run.mram_data.iter().copied());
        if got != want {
            return Err(format!(
                "mram checksum: expected {want:#018x}, got {got:#018x}"
            ));
        }
    }
    Ok(())
}

/// Replays an artifact under `bug` injection; `Err` describes the first
/// divergence or expectation mismatch.
pub fn replay(content: &str, bug: BugKind) -> Result<(), String> {
    let (case, expect) = parse(content)?;
    let mut runner = CaseRunner::new(bug);
    let result = runner.run(&case).map_err(|e| e.0)?;
    check(&result, &expect)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar;

    /// Serialization normalizes whitespace (trims lines, drops blank
    /// ones), so roundtrip equality is up to that normalization.
    fn normalize(src: &str) -> String {
        src.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn roundtrip_preserves_case() {
        let mut runner = CaseRunner::new(BugKind::None);
        for seed in [7u64, 42, 1013] {
            let case = grammar::generate(seed);
            let result = runner.run(&case).unwrap();
            let text = serialize(&case, &result.interp);
            let (parsed, expect) = parse(&text).unwrap();
            assert_eq!(parsed.guest, normalize(&case.guest), "seed {seed}");
            assert_eq!(parsed.delegations, case.delegations);
            assert_eq!(parsed.soft_tlb, case.soft_tlb);
            assert_eq!(parsed.seed, case.seed);
            assert_eq!(parsed.routines.len(), case.routines.len(), "seed {seed}");
            for (a, b) in parsed.routines.iter().zip(&case.routines) {
                assert_eq!(a.entry, b.entry);
                assert_eq!(a.src, normalize(&b.src));
            }
            assert!(expect.instret.is_some());
        }
    }

    #[test]
    fn replay_of_recorded_run_passes() {
        let mut runner = CaseRunner::new(BugKind::None);
        let case = grammar::generate(3);
        let result = runner.run(&case).unwrap();
        assert!(result.divergence.is_none() && !result.hang);
        let text = serialize(&case, &result.interp);
        replay(&text, BugKind::None).expect("recorded run replays clean");
    }

    #[test]
    fn replay_detects_tampered_expectation() {
        let mut runner = CaseRunner::new(BugKind::None);
        let case = grammar::generate(3);
        let result = runner.run(&case).unwrap();
        // Mangle the recorded instret to a wrong value.
        let mut lines: Vec<String> = serialize(&case, &result.interp)
            .lines()
            .map(str::to_owned)
            .collect();
        for l in &mut lines {
            if l.starts_with("expect instret") {
                *l = "expect instret 999999".to_owned();
            }
        }
        let err = replay(&lines.join("\n"), BugKind::None).unwrap_err();
        assert!(err.contains("instret"), "{err}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("frobnicate 1 2\n").is_err());
        assert!(parse("| stray body line\n").is_err());
        assert!(parse("delegate 99999 2\n").is_err());
        // Text with nothing to check is not an artifact.
        assert!(parse("").is_err());
        assert!(parse("# comment\n").is_err());
        assert!(parse("guest\n| li a0, 1\n| ebreak\n").is_err());
    }
}
