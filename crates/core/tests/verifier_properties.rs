//! Property tests for the loader's install-time verification (the
//! `metal-lint` install check set): it must accept exactly the programs
//! its rules allow, on arbitrary instruction mixes.

use metal_core::mram::MRAM_BASE;
use metal_isa::insn::{AluOp, Cond, Insn};
use metal_isa::reg::Reg;
use metal_isa::{decode, encode};
use metal_lint::{has_denials, lint_words, Battery, Diagnostic, Level, LintConfig};
use metal_util::Rng;

/// The install check set on the default MRAM geometry (a 16 KiB code
/// window and a 4 KiB data segment), for a routine at `MRAM_BASE`.
fn verify_routine(words: &[u32], nested_allowed: bool) -> Vec<Diagnostic> {
    lint_words(
        words,
        &LintConfig {
            nested_allowed,
            battery: Battery::Install,
            ..LintConfig::mroutine(MRAM_BASE)
        },
    )
}

fn rand_reg(rng: &mut Rng) -> Reg {
    Reg::new(rng.range_u32(0, 32) as u8).unwrap()
}

/// Instructions the verifier must always accept.
fn rand_benign(rng: &mut Rng, len: usize) -> Vec<u32> {
    (0..len)
        .map(|_| {
            let insn = match rng.range_u32(0, 5) {
                0 => Insn::AluImm {
                    op: AluOp::Add,
                    rd: rand_reg(rng),
                    rs1: rand_reg(rng),
                    imm: rng.range_i32(-512, 512),
                },
                1 => Insn::Alu {
                    op: AluOp::Xor,
                    rd: rand_reg(rng),
                    rs1: rand_reg(rng),
                    rs2: rand_reg(rng),
                },
                2 => Insn::Rmr {
                    rd: rand_reg(rng),
                    idx: metal_isa::MregIdx::mreg(rng.range_u32(0, 32) as u8).unwrap(),
                },
                3 => Insn::Mld {
                    rd: rand_reg(rng),
                    rs1: rand_reg(rng),
                    offset: rng.range_i32(-64, 64) & !3,
                },
                _ => Insn::Fence,
            };
            encode(&insn)
        })
        .collect()
}

/// Benign bodies terminated by mexit verify cleanly (no errors).
#[test]
fn benign_routines_accepted() {
    let mut rng = Rng::new(0x7e51_0001);
    for _ in 0..256 {
        let mut words = rand_benign(&mut rng, 12);
        words.push(encode(&Insn::Mexit));
        let diags = verify_routine(&words, false);
        assert!(!has_denials(&diags), "{diags:?}");
    }
}

/// Inserting any environment instruction anywhere is an error.
#[test]
fn environment_instructions_rejected() {
    let mut rng = Rng::new(0x7e51_0002);
    for _ in 0..256 {
        let mut words = rand_benign(&mut rng, 8);
        let pos = rng.range_usize(0, 8);
        let bad = *rng.pick(&[Insn::Ecall, Insn::Mret, Insn::Wfi]);
        words.insert(pos, encode(&bad));
        words.push(encode(&Insn::Mexit));
        let diags = verify_routine(&words, false);
        assert!(has_denials(&diags));
        // The error points at the exact offending offset.
        assert!(diags
            .iter()
            .any(|d| d.level == Level::Deny && d.pc == MRAM_BASE + (pos as u32) * 4));
    }
}

/// In-window branches are fine; any branch that escapes the MRAM
/// window is an error, wherever it sits.
#[test]
fn branch_window_enforced() {
    let mut rng = Rng::new(0x7e51_0003);
    for _ in 0..256 {
        let len = rng.range_usize(2, 16);
        let at = rng.range_usize(0, 16) % len;
        let escape = rng.chance();
        let mut words: Vec<u32> = (0..len).map(|_| encode(&Insn::NOP)).collect();
        let offset = if escape {
            // Below the window start (the routine sits at its base), and
            // within the B-format's 13-bit range.
            -4096i32
        } else {
            // To the start of the routine: always inside.
            -((at as i32) * 4)
        };
        words[at] = encode(&Insn::Branch {
            cond: Cond::Eq,
            rs1: Reg::A0,
            rs2: Reg::A0,
            offset,
        });
        words.push(encode(&Insn::Mexit));
        let diags = verify_routine(&words, false);
        assert_eq!(has_denials(&diags), escape, "{diags:?}");
    }
}

/// The verifier never panics on arbitrary words and flags illegal
/// encodings as errors.
#[test]
fn total_on_garbage() {
    let mut rng = Rng::new(0x7e51_0004);
    for _ in 0..256 {
        let words: Vec<u32> = (0..rng.range_usize(0, 32))
            .map(|_| rng.next_u32())
            .collect();
        let diags = verify_routine(&words, false);
        for w in &words {
            if decode(*w).is_err() {
                assert!(has_denials(&diags));
                break;
            }
        }
    }
}

/// Nested menter flips from error to accepted when layers permit it.
#[test]
fn nested_gate() {
    for entry in 0u32..64 {
        let words = vec![
            encode(&Insn::Menter {
                rs1: Reg::ZERO,
                entry,
            }),
            encode(&Insn::Mexit),
        ];
        assert!(has_denials(&verify_routine(&words, false)));
        assert!(!has_denials(&verify_routine(&words, true)));
    }
}
