//! The shared program grammar: seeded generation of Metal test cases.
//!
//! One generator feeds both the differential test suite
//! (`tests/metal_differential.rs`) and the `mfuzz` campaign loop, so any
//! construct the fuzzer learns to emit is automatically exercised by the
//! fixed-seed regression tests and vice versa.
//!
//! A generated [`FuzzCase`] is *structural* — mroutine sources,
//! delegation table, translation profile, and guest source — rather
//! than just a seed, so the shrinker can delete pieces of it and the
//! artifact writer can serialize it as ready-to-run assembly.
//!
//! Every case is built to terminate: loops are bounded with fixed trip
//! counts, `ecall` and misaligned accesses are only emitted when a
//! delegated handler exists to skip them, and all mroutines pass the
//! static verifier (no escaping branches, no privileged leaks).

use metal_core::MetalBuilder;
use metal_pipeline::trap::TrapCause;
use metal_util::Rng;

/// One mroutine of a generated case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutineSpec {
    /// Entry-table index.
    pub entry: u8,
    /// Diagnostic name.
    pub name: String,
    /// Assembly source.
    pub src: String,
}

impl RoutineSpec {
    pub(crate) fn new(entry: u8, name: &str, src: impl Into<String>) -> RoutineSpec {
        RoutineSpec {
            entry,
            name: name.to_owned(),
            src: src.into(),
        }
    }
}

/// A complete generated test case: everything needed to build a
/// Metal-enabled machine and run one guest program on it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzCase {
    /// The seed this case was generated from (0 for hand-built cases).
    pub seed: u64,
    /// Installed mroutines.
    pub routines: Vec<RoutineSpec>,
    /// Exception delegations `(cause, entry)` programmed at boot.
    pub delegations: Vec<(TrapCause, u8)>,
    /// Start the guest under software-managed translation (with a
    /// TLB-refill mroutine delegated to the page faults).
    pub soft_tlb: bool,
    /// Guest program source, assembled at address 0.
    pub guest: String,
}

impl FuzzCase {
    /// A builder with the case's mroutines and delegations installed.
    #[must_use]
    pub fn metal_builder(&self) -> MetalBuilder {
        let mut builder = MetalBuilder::new();
        for r in &self.routines {
            builder = builder.routine(r.entry, &r.name, &r.src);
        }
        for &(cause, entry) in &self.delegations {
            builder = builder.delegate_exception(cause, entry);
        }
        builder
    }
}

/// Entry used by the trap-skip handler.
pub const SKIP_ENTRY: u8 = 2;
/// Entry used by the soft-TLB refill handler.
pub const REFILL_ENTRY: u8 = 3;
/// Entry that arms `fence` interception.
pub const INTERCEPT_ARM_ENTRY: u8 = 4;
/// Entry handling intercepted `fence` instructions.
pub const INTERCEPT_HANDLER_ENTRY: u8 = 5;
/// Entry used by the generated system (march.*) routine.
pub const SYS_ENTRY: u8 = 6;

/// Guest scratch memory base (loads/stores land in `base..base+64`).
pub const SCRATCH_BASE: u32 = 0x3000;

/// Delegated-trap handler that skips the faulting instruction
/// (`m31 + 4`) — the pattern for `ecall` and misaligned accesses.
const SKIP_HANDLER: &str = "rmr t0, m31\naddi t0, t0, 4\nwmr m31, t0\nmexit";

/// Soft-TLB refill handler: identity-map the faulting page with full
/// permissions and retry the faulting instruction (no skip).
const REFILL_HANDLER: &str =
    "rmr t0, mbadaddr\nsrli t0, t0, 12\nslli t0, t0, 12\nori t1, t0, 15\nmtlbw t0, t1\nmexit";

/// Arms interception of the `fence` opcode (0x0F) to
/// [`INTERCEPT_HANDLER_ENTRY`] and enables intercepts in `mstatus`.
const INTERCEPT_ARM: &str =
    "li t0, 0x0F\nli t1, 11\nmintercept t0, t1\nli t0, 1\nwmr mstatus, t0\nmexit";

/// Intercepted-`fence` handler: bump a counter in MRAM private data,
/// then skip past the intercepted instruction.
const INTERCEPT_HANDLER: &str = "mld t0, 32(zero)\naddi t0, t0, 1\nmst t0, 32(zero)\nrmr t0, m31\naddi t0, t0, 4\nwmr m31, t0\nmexit";

/// A tiny verified mroutine: a few arithmetic ops over a0/a1 and the
/// Metal registers, ending in mexit.
pub fn rand_routine(rng: &mut Rng) -> String {
    let steps = rng.range_usize(1, 8);
    let mut src = String::new();
    for _ in 0..steps {
        let step = match rng.range_u32(0, 7) {
            0 => format!("wmr m{}, a0", rng.range_u32(0, 8)),
            1 => format!("rmr t0, m{}\n add a0, a0, t0", rng.range_u32(0, 8)),
            2 => format!("addi a0, a0, {}", rng.range_i32(-64, 64)),
            3 => "slli a0, a0, 1".to_owned(),
            4 => "xor a0, a0, a1".to_owned(),
            5 => format!("mst a0, {}(zero)", rng.range_u32(0, 16) * 4),
            _ => format!(
                "mld t0, {}(zero)\n add a0, a0, t0",
                rng.range_u32(0, 16) * 4
            ),
        };
        src.push_str(&step);
        src.push('\n');
    }
    src.push_str("mexit");
    src
}

/// A guest program: seeded registers, interleaved arithmetic and
/// menter calls to the two routines, ebreak.
pub fn rand_guest(rng: &mut Rng) -> String {
    let a0 = rng.range_i32(-1000, 1000);
    let a1 = rng.range_i32(-1000, 1000);
    let steps = rng.range_usize(1, 20);
    let mut body = String::new();
    for _ in 0..steps {
        // Weights: 3 addi, 2 menter 0, 2 menter 1, 1 add, 1 mul.
        let step = match rng.range_u32(0, 9) {
            0..=2 => format!("addi a0, a0, {}", rng.range_i32(-512, 512)),
            3..=4 => "menter 0".to_owned(),
            5..=6 => "menter 1".to_owned(),
            7 => "add a1, a1, a0".to_owned(),
            _ => "mul a0, a0, a1".to_owned(),
        };
        body.push_str(&step);
        body.push('\n');
    }
    format!("li a0, {a0}\nli a1, {a1}\n{body}ebreak")
}

/// A self-modifying guest: a loop whose head instruction (`slot`) is
/// overwritten mid-flight with a different `addi` immediate, so later
/// passes execute the patched instruction. The store lands on a line
/// that has already been fetched and decoded — exactly the case the
/// decode cache's generation counter must catch.
///
/// Oracle: pass 1 executes `addi a0, a0, imm1`; the remaining
/// `passes-1` iterations execute the patched `addi a0, a0, imm2`. An
/// engine serving stale decoded state gets a different a0 even when
/// both engines are equally stale, so this is checked against the
/// closed form, not just cross-engine.
pub fn smc_guest(rng: &mut Rng) -> (String, u32) {
    let passes = rng.range_u32(2, 5) as i32;
    let imm1 = rng.range_i32(-100, 100);
    let imm2 = rng.range_i32(-100, 100);
    let patched =
        metal_asm::assemble_at(&format!("addi a0, a0, {imm2}"), 0).expect("patch assembles")[0];
    let src = format!(
        r"
        li a0, 0
        li s1, {passes}
    loop:
    slot:
        addi a0, a0, {imm1}
        la t0, slot
        li t1, {patched}
        sw t1, 0(t0)
        addi s1, s1, -1
        bnez s1, loop
        ebreak
        "
    );
    let expected = (imm1 as u32).wrapping_add((imm2 as u32).wrapping_mul((passes - 1) as u32));
    (src, expected)
}

/// A verified mroutine exercising the `march.*` system surface:
/// physical memory accesses, TLB probes, and page-key programming
/// (key 1, which no generated page uses, so the write is observable in
/// Metal state but never faults the guest).
fn rand_sys_routine(rng: &mut Rng) -> String {
    let steps = rng.range_usize(1, 5);
    let mut src = String::new();
    for _ in 0..steps {
        let step = match rng.range_u32(0, 5) {
            0 => format!(
                "li t0, {}\nmpld t1, t0\nadd a0, a0, t1",
                SCRATCH_BASE + rng.range_u32(0, 16) * 4
            ),
            1 => format!(
                "li t0, {}\nmpst a0, t0",
                SCRATCH_BASE + rng.range_u32(0, 16) * 4
            ),
            2 => format!("li t0, {}\nmtlbp t1, t0\nadd a0, a0, t1", SCRATCH_BASE),
            3 => format!("li t0, 1\nli t1, {}\nmpkey t0, t1", rng.range_u32(0, 4)),
            _ => format!("addi a0, a0, {}", rng.range_i32(-32, 32)),
        };
        src.push_str(&step);
        src.push('\n');
    }
    src.push_str("mexit");
    src
}

/// Page-fault causes routed to the refill handler under soft-TLB cases.
const PAGE_FAULTS: [TrapCause; 3] = [
    TrapCause::InsnPageFault,
    TrapCause::LoadPageFault,
    TrapCause::StorePageFault,
];

/// Skippable causes routed to the skip handler under trap cases.
const SKIP_FAULTS: [TrapCause; 3] = [
    TrapCause::Ecall,
    TrapCause::LoadMisaligned,
    TrapCause::StoreMisaligned,
];

/// Generates a complete case from a seed. Deterministic: the same seed
/// always yields the same case, on every shard of every campaign.
#[must_use]
pub fn generate(seed: u64) -> FuzzCase {
    let mut rng = Rng::new(seed);
    let mut routines = vec![
        RoutineSpec::new(0, "r0", rand_routine(&mut rng)),
        RoutineSpec::new(1, "r1", rand_routine(&mut rng)),
    ];
    let mut delegations: Vec<(TrapCause, u8)> = Vec::new();

    // Translation profile first: it composes with every guest shape.
    let soft_tlb = rng.below(8) == 0;
    if soft_tlb {
        routines.push(RoutineSpec::new(REFILL_ENTRY, "refill", REFILL_HANDLER));
        for cause in PAGE_FAULTS {
            delegations.push((cause, REFILL_ENTRY));
        }
    }

    // Self-modifying guests reuse the differential suite's generator
    // wholesale (its closed-form oracle lives in the test, not here).
    if rng.below(6) == 0 {
        let (guest, _) = smc_guest(&mut rng);
        return FuzzCase {
            seed,
            routines,
            delegations,
            soft_tlb,
            guest,
        };
    }

    let traps = rng.below(4) == 0;
    if traps {
        routines.push(RoutineSpec::new(SKIP_ENTRY, "skip", SKIP_HANDLER));
        for cause in SKIP_FAULTS {
            delegations.push((cause, SKIP_ENTRY));
        }
    }
    let intercept = rng.below(8) == 0;
    if intercept {
        routines.push(RoutineSpec::new(INTERCEPT_ARM_ENTRY, "arm", INTERCEPT_ARM));
        routines.push(RoutineSpec::new(
            INTERCEPT_HANDLER_ENTRY,
            "on_fence",
            INTERCEPT_HANDLER,
        ));
    }
    let mut menter_entries: Vec<u8> = vec![0, 1];
    if rng.below(4) == 0 {
        routines.push(RoutineSpec::new(
            SYS_ENTRY,
            "sys",
            rand_sys_routine(&mut rng),
        ));
        menter_entries.push(SYS_ENTRY);
    }

    let guest = compose_guest(&mut rng, &menter_entries, traps, intercept);
    FuzzCase {
        seed,
        routines,
        delegations,
        soft_tlb,
        guest,
    }
}

/// The composed guest: register seeding, scratch-memory traffic,
/// mroutine calls, mul/div, CSR traffic, an optional bounded loop, and
/// (when handlers exist) deliberate traps and intercepted fences.
fn compose_guest(rng: &mut Rng, menter_entries: &[u8], traps: bool, intercept: bool) -> String {
    let a0 = rng.range_i32(-1000, 1000);
    let a1 = rng.range_i32(-1000, 1000);
    let mut body = format!("li a0, {a0}\nli a1, {a1}\nli s0, {SCRATCH_BASE}\n");
    if intercept {
        body.push_str(&format!("menter {INTERCEPT_ARM_ENTRY}\n"));
    }
    let steps = rng.range_usize(4, 24);
    let mut loop_emitted = false;
    for _ in 0..steps {
        let step = match rng.below(16) {
            0..=3 => format!("addi a0, a0, {}", rng.range_i32(-512, 512)),
            4 => "add a1, a1, a0".to_owned(),
            5 => format!(
                "{} a0, a0, a1",
                rng.pick(&["mul", "mulh", "mulhu", "div", "rem", "remu"])
            ),
            6..=7 => format!("menter {}", rng.pick(menter_entries)),
            8 => format!("sw a0, {}(s0)", rng.range_u32(0, 16) * 4),
            9 => format!("lw t2, {}(s0)\nadd a0, a0, t2", rng.range_u32(0, 16) * 4),
            10 => format!("sb a0, {}(s0)", rng.range_u32(0, 64)),
            11 => format!("lbu t2, {}(s0)\nxor a0, a0, t2", rng.range_u32(0, 64)),
            12 => {
                if rng.chance() {
                    "csrw mscratch, a0".to_owned()
                } else {
                    "csrr t2, mscratch\nadd a0, a0, t2".to_owned()
                }
            }
            13 => {
                if traps && rng.chance() {
                    "ecall".to_owned()
                } else {
                    "xor a0, a0, a1".to_owned()
                }
            }
            14 => {
                if traps {
                    // Misaligned: delegated to the skip handler, so the
                    // load never completes and t2 is untouched.
                    "lw t2, 1(s0)".to_owned()
                } else {
                    "slli a0, a0, 1".to_owned()
                }
            }
            _ => {
                if intercept {
                    "fence".to_owned()
                } else if !loop_emitted {
                    loop_emitted = true;
                    format!(
                        "li t3, {}\nfuzzloop:\naddi a0, a0, {}\naddi t3, t3, -1\nbnez t3, fuzzloop",
                        rng.range_u32(2, 7),
                        rng.range_i32(-16, 16)
                    )
                } else {
                    "srli a0, a0, 3".to_owned()
                }
            }
        };
        body.push_str(&step);
        body.push('\n');
    }
    body.push_str("ebreak");
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [1u64, 0xDEAD, u64::MAX] {
            assert_eq!(generate(seed), generate(seed));
        }
    }

    #[test]
    fn generated_cases_assemble_and_verify() {
        // Every generated case must build a machine and assemble its
        // guest: the campaign loop treats generator-side failures as
        // bugs, not as boring rejects.
        for seed in 0..200u64 {
            let case = generate(seed);
            case.metal_builder()
                .build()
                .unwrap_or_else(|e| panic!("seed {seed}: build failed: {e:?}"));
            metal_asm::assemble_at(&case.guest, 0)
                .unwrap_or_else(|e| panic!("seed {seed}: guest assembly failed: {e}"));
        }
    }

    #[test]
    fn profiles_all_reachable() {
        let (mut tlb, mut traps, mut icpt, mut sys, mut smc) = (false, false, false, false, false);
        for seed in 0..500u64 {
            let case = generate(seed);
            tlb |= case.soft_tlb;
            smc |= case.guest.contains("slot:");
            for r in &case.routines {
                traps |= r.entry == SKIP_ENTRY;
                icpt |= r.entry == INTERCEPT_ARM_ENTRY;
                sys |= r.entry == SYS_ENTRY;
            }
        }
        assert!(
            tlb && traps && icpt && sys && smc,
            "profile coverage: tlb={tlb} traps={traps} intercept={icpt} sys={sys} smc={smc}"
        );
    }
}
