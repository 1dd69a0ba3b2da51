//! Differential testing: the pipelined core and the functional reference
//! interpreter must produce identical architectural state on randomly
//! generated programs.
//!
//! The generator produces self-contained programs: ALU ops over all
//! registers, loads/stores confined to an aligned data window, short
//! forward branches, and a terminating `ebreak`. Any divergence in
//! registers, data memory, or retirement count is a pipeline bug
//! (forwarding, hazard, flush, or trap-precision).

use metal_isa::encode;
use metal_isa::insn::{AluOp, Cond, Insn, LoadOp, MulOp, StoreOp};
use metal_isa::reg::Reg;
use metal_mem::CacheConfig;
use metal_pipeline::{Core, CoreConfig, Engine, Interp, NoHooks};
use metal_util::Rng;

const DATA_BASE: u32 = 0x8000;
const DATA_WORDS: u32 = 64;

fn rand_reg(rng: &mut Rng) -> Reg {
    Reg::new(rng.range_u32(0, 32) as u8).unwrap()
}

/// Destinations exclude s0, the reserved data base pointer.
fn rand_dest(rng: &mut Rng) -> Reg {
    loop {
        let r = rand_reg(rng);
        if r != Reg::S0 {
            return r;
        }
    }
}

fn rand_alu_op(rng: &mut Rng) -> AluOp {
    *rng.pick(&[
        AluOp::Add,
        AluOp::Sub,
        AluOp::Sll,
        AluOp::Slt,
        AluOp::Sltu,
        AluOp::Xor,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Or,
        AluOp::And,
    ])
}

fn rand_cond(rng: &mut Rng) -> Cond {
    *rng.pick(&[Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Ltu, Cond::Geu])
}

/// One random instruction. `index`/`len` allow forward-only branches
/// that stay inside the program.
fn rand_insn(rng: &mut Rng, index: usize, len: usize) -> Insn {
    // A branch at body slot `index` may skip at most the remaining body
    // instructions, landing no further than the terminating ebreak
    // (skip = 0 targets the next instruction).
    let max_skip = ((len - index - 1).min(6)) as i32;
    // Weights mirror the original distribution: 6 ALU, 6 ALU-imm,
    // 2 mul/div, 2 lui, 3 load, 3 store, 2 branch (total 24).
    match rng.range_u32(0, 24) {
        0..=5 => Insn::Alu {
            op: rand_alu_op(rng),
            rd: rand_dest(rng),
            rs1: rand_reg(rng),
            rs2: rand_reg(rng),
        },
        6..=11 => {
            let op = loop {
                let op = rand_alu_op(rng);
                if op != AluOp::Sub {
                    break op; // no subi encoding
                }
            };
            let imm = rng.range_i32(-2048, 2048);
            let imm = match op {
                AluOp::Sll | AluOp::Srl | AluOp::Sra => imm.rem_euclid(32),
                _ => imm,
            };
            Insn::AluImm {
                op,
                rd: rand_dest(rng),
                rs1: rand_reg(rng),
                imm,
            }
        }
        12..=13 => Insn::MulDiv {
            op: MulOp::from_funct3(rng.range_u32(0, 8)).unwrap(),
            rd: rand_dest(rng),
            rs1: rand_reg(rng),
            rs2: rand_reg(rng),
        },
        14..=15 => Insn::Lui {
            rd: rand_dest(rng),
            imm20: rng.range_u32(0, 1 << 20),
        },
        16..=18 => Insn::Load {
            op: *rng.pick(&[LoadOp::Lb, LoadOp::Lh, LoadOp::Lw, LoadOp::Lbu, LoadOp::Lhu]),
            rd: rand_dest(rng),
            rs1: Reg::S0,
            offset: (rng.range_u32(0, DATA_WORDS) * 4) as i32,
        },
        19..=21 => Insn::Store {
            op: *rng.pick(&[StoreOp::Sb, StoreOp::Sh, StoreOp::Sw]),
            rs2: rand_reg(rng),
            rs1: Reg::S0,
            offset: (rng.range_u32(0, DATA_WORDS) * 4) as i32,
        },
        _ => Insn::Branch {
            cond: rand_cond(rng),
            rs1: rand_reg(rng),
            rs2: rand_reg(rng),
            offset: (rng.range_i32(0, max_skip + 1) + 1) * 4,
        },
    }
}

/// A whole program: seeded registers, N body instructions, `ebreak`.
fn rand_program(rng: &mut Rng) -> (Vec<u32>, Vec<Insn>) {
    let seeds = (0..8).map(|_| rng.next_u32()).collect();
    let len = rng.range_usize(4, 60);
    let body = (0..len).map(|i| rand_insn(rng, i, len)).collect();
    (seeds, body)
}

fn build_image(seeds: &[u32], body: &[Insn]) -> Vec<u8> {
    let mut words: Vec<u32> = Vec::new();
    // Seed s0 with the data base: lui s0, DATA_BASE >> 12.
    words.push(encode(&Insn::Lui {
        rd: Reg::S0,
        imm20: DATA_BASE >> 12,
    }));
    // Seed a few registers with arbitrary values (two insns each).
    for (i, &v) in seeds.iter().enumerate() {
        let rd = Reg::new(10 + i as u8).unwrap(); // a0..a7
        let hi = (v.wrapping_add(0x800)) >> 12;
        let lo = (v & 0xFFF) as i32;
        let lo = (lo << 20) >> 20;
        words.push(encode(&Insn::Lui {
            rd,
            imm20: hi & 0xF_FFFF,
        }));
        words.push(encode(&Insn::AluImm {
            op: AluOp::Add,
            rd,
            rs1: rd,
            imm: lo,
        }));
    }
    for insn in body {
        words.push(encode(insn));
    }
    words.push(encode(&Insn::Ebreak));
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

fn config() -> CoreConfig {
    CoreConfig {
        icache: CacheConfig {
            size_bytes: 1024,
            line_bytes: 16,
            hit_latency: 1,
            miss_penalty: 7,
        },
        dcache: CacheConfig {
            size_bytes: 512,
            line_bytes: 16,
            hit_latency: 1,
            miss_penalty: 11,
        },
        ram_bytes: 1 << 17,
        ..CoreConfig::default()
    }
}

#[test]
fn pipeline_matches_reference() {
    let mut rng = Rng::new(0xd1ff_0001);
    for case in 0..256 {
        let (seeds, body) = rand_program(&mut rng);
        let image = build_image(&seeds, &body);

        let mut core = Core::new(config(), NoHooks);
        core.load_segments([(0u32, image.as_slice())], 0);
        let core_halt = core.run(500_000);

        let mut interp = Interp::new(config(), NoHooks);
        interp.load_segments([(0u32, image.as_slice())], 0);
        let interp_halt = interp.run(250_000);

        assert_eq!(&core_halt, &interp_halt, "case {case}: halt reasons differ");
        assert!(core_halt.is_some(), "case {case}: program must halt");
        assert_eq!(
            core.state.regs.snapshot(),
            interp.state.regs.snapshot(),
            "case {case}: register files diverged"
        );
        assert_eq!(
            core.state.perf.instret, interp.state.perf.instret,
            "case {case}: retirement counts diverged"
        );
        let core_data = core
            .state
            .bus
            .ram
            .dump(DATA_BASE, DATA_WORDS * 4)
            .unwrap()
            .to_vec();
        let interp_data = interp
            .state
            .bus
            .ram
            .dump(DATA_BASE, DATA_WORDS * 4)
            .unwrap()
            .to_vec();
        assert_eq!(core_data, interp_data, "case {case}: data memory diverged");
    }
}
