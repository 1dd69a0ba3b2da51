//! The guest programs whose simulation speed the benchmark measures.
//!
//! Each workload is a fixed-length loop whose *values* come from the
//! seed, so every seed retires the same number of instructions while
//! the data differ. Each has a host-side reference model that computes
//! the value the guest leaves in `a0`, which is how a run is checked.

use metal_bench::harness::std_config;
use metal_core::{EccMode, Metal, MetalBuilder};
use metal_isa::Reg;
use metal_mem::Pte;
use metal_pipeline::state::TranslationMode;
use metal_pipeline::{Engine, EngineSnapshot, HaltReason};
use metal_util::Rng;

/// Watchdog fuel for one workload run (cycles or interpreter steps).
const FUEL: u64 = 50_000_000;

/// Physical (and, under the identity TLB, virtual) base of guest data.
const DATA_BASE: u32 = 0x1_0000;

/// ALU loop iterations (9 instructions each).
const ALU_ITERS: u32 = 110_000;
/// Words in the memory workload's array: 64 KiB, 16x the D-cache.
const MEM_WORDS: u32 = 16 * 1024;
/// Read-modify-write passes over the array before the checksum pass.
const MEM_PASSES: u32 = 10;
/// Metal loop iterations (one intercepted store and one `menter` each).
const METAL_ITERS: u32 = 40_000;
/// Words in the Metal workload's store ring (a power of two).
const METAL_RING_WORDS: u32 = 1024;

/// Which guest program a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// ALU loop whose only memory access is one store per iteration
    /// to a fixed slot: decode-cache and D-cache hits throughout.
    Alu,
    /// Read-modify-write sweeps over an array 16x the D-cache, under
    /// software-TLB translation.
    Memory,
    /// Every iteration calls an mroutine and has a store intercepted
    /// by an ECC-protected mroutine that performs it physically.
    Metal,
}

impl Kind {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "alu" => Some(Kind::Alu),
            "memory" => Some(Kind::Memory),
            "metal" => Some(Kind::Metal),
            _ => None,
        }
    }
}

/// A generated guest: program image, initial data, and the expected
/// result.
#[derive(Clone, Debug)]
pub struct Workload {
    kind: Kind,
    /// The seeded constant the mroutine adds (Metal workload only).
    bump: u32,
    program: Vec<u8>,
    data: Vec<u8>,
    /// The value the guest must leave in `a0` at `ebreak`.
    expect_a0: u32,
}

fn image(src: &str) -> Vec<u8> {
    metal_asm::assemble_at(src, 0)
        .unwrap_or_else(|e| panic!("workload program does not assemble: {e}"))
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect()
}

impl Workload {
    /// Generates the workload's inputs from `seed`.
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let mut rng = Rng::new(seed);
        match kind {
            Kind::Alu => alu(&mut rng),
            Kind::Memory => memory(&mut rng),
            Kind::Metal => metal(&mut rng),
        }
    }

    /// The mroutines and delegations the workload needs.
    fn metal_builder(&self) -> MetalBuilder {
        let builder = MetalBuilder::new();
        if self.kind != Kind::Metal {
            return builder;
        }
        builder
            .ecc(EccMode::Secded)
            .routine(0, "bump", &format!("addi a1, a1, {}\n mexit", self.bump))
            // Intercept every store (opcode 0x23) into entry 10.
            .routine(
                9,
                "arm",
                "li t0, 0x23\n li t1, 21\n mintercept t0, t1\n li t0, 1\n wmr mstatus, t0\n mexit",
            )
            // Count the store in MRAM data, perform it physically, and
            // resume after it.
            .routine(
                10,
                "store",
                "mld t0, 0(zero)\n addi t0, t0, 1\n mst t0, 0(zero)\n mpst s0, a1\n \
                 rmr t1, m31\n addi t1, t1, 4\n wmr m31, t1\n mexit",
            )
    }

    /// Builds a machine of engine type `E` with the program loaded and
    /// ready to run; the returned snapshot rewinds it to that point.
    pub fn build<E: Engine<Hooks = Metal>>(&self) -> (E, EngineSnapshot<Metal>) {
        let mut engine: E = self
            .metal_builder()
            .build_engine(std_config())
            .unwrap_or_else(|e| panic!("workload mroutines do not build: {e}"));
        engine.load_segments(
            [
                (0u32, self.program.as_slice()),
                (DATA_BASE, self.data.as_slice()),
            ],
            0,
        );
        if self.kind == Kind::Memory {
            // Identity-map code and data with global entries, so every
            // translation is a software-TLB hit and no refill is needed.
            let flags = Pte::V | Pte::R | Pte::W | Pte::X | Pte::G;
            let state = engine.state_mut();
            for page in (0..DATA_BASE + MEM_WORDS * 4).step_by(4096) {
                state.tlb.install(page, Pte::new(page, flags), 0);
            }
            state.translation = TranslationMode::SoftTlb;
        }
        let snap = engine.snapshot();
        (engine, snap)
    }

    /// Runs a built machine to its halt. Returns the retired
    /// instructions, or a description of what went wrong.
    pub fn run<E: Engine<Hooks = Metal>>(&self, engine: &mut E) -> Result<u64, String> {
        let start = engine.state().perf.instret;
        match engine.run_fuel(FUEL) {
            HaltReason::Ebreak { .. } => {}
            other => return Err(format!("{} halted with {other:?}", E::name())),
        }
        let a0 = engine.state().regs.get(Reg::A0);
        if a0 != self.expect_a0 {
            return Err(format!(
                "{} left a0 = {a0:#x}, expected {:#x}",
                E::name(),
                self.expect_a0
            ));
        }
        Ok(engine.state().perf.instret - start)
    }
}

fn alu(rng: &mut Rng) -> Workload {
    let (mut a0, mut a1) = (rng.next_u32() & 0x7FF, rng.next_u32() & 0x7FF);
    let src = format!(
        "li a0, {a0}\n li a1, {a1}\n li s1, {ALU_ITERS}\n li s2, {DATA_BASE}\n\
         loop:\n addi a0, a0, 1\n xor a1, a1, a0\n slli t0, a1, 3\n add a1, a1, t0\n\
         srli t1, a1, 7\n xor a1, a1, t1\n sw a1, 0(s2)\n addi s1, s1, -1\n bnez s1, loop\n\
         mv a0, a1\n ebreak"
    );
    for _ in 0..ALU_ITERS {
        a0 = a0.wrapping_add(1);
        a1 ^= a0;
        a1 = a1.wrapping_add(a1 << 3);
        a1 ^= a1 >> 7;
    }
    Workload {
        kind: Kind::Alu,
        bump: 0,
        program: image(&src),
        data: Vec::new(),
        expect_a0: a1,
    }
}

fn memory(rng: &mut Rng) -> Workload {
    let words: Vec<u32> = (0..MEM_WORDS).map(|_| rng.next_u32()).collect();
    let step = rng.next_u32() & 0x7FF;
    let src = format!(
        "li s0, {DATA_BASE}\n li s2, {MEM_WORDS}\n li a2, {step}\n li s3, {MEM_PASSES}\n\
         outer:\n mv t0, s0\n mv t1, s2\n\
         inner:\n lw t2, 0(t0)\n add t2, t2, a2\n sw t2, 0(t0)\n addi t0, t0, 4\n\
         addi t1, t1, -1\n bnez t1, inner\n\
         addi a2, a2, 1\n addi s3, s3, -1\n bnez s3, outer\n\
         mv t0, s0\n mv t1, s2\n li a0, 0\n\
         sum:\n lw t2, 0(t0)\n add a0, a0, t2\n addi t0, t0, 4\n addi t1, t1, -1\n bnez t1, sum\n\
         ebreak"
    );
    // Each pass adds the same value to every word, then bumps it.
    let added = (0..MEM_PASSES).fold(0u32, |acc, p| acc.wrapping_add(step + p));
    let expect = words
        .iter()
        .fold(0u32, |acc, w| acc.wrapping_add(w.wrapping_add(added)));
    Workload {
        kind: Kind::Memory,
        bump: 0,
        program: image(&src),
        data: words.iter().flat_map(|w| w.to_le_bytes()).collect(),
        expect_a0: expect,
    }
}

fn metal(rng: &mut Rng) -> Workload {
    let bump = 1 + (rng.next_u32() & 0x3FF);
    let mut a1 = rng.next_u32() & 0x7FF;
    let mask = METAL_RING_WORDS * 4 - 1;
    // The store goes through the intercept mroutine; the checksum pass
    // reads the ring back with ordinary loads.
    let src = format!(
        "li a1, {a1}\n li s2, {DATA_BASE}\n li s3, {mask}\n li t2, 0\n menter 9\n li s1, {METAL_ITERS}\n\
         loop:\n add s0, s2, t2\n sw a1, 0(s0)\n menter 0\n addi t2, t2, 4\n and t2, t2, s3\n\
         addi s1, s1, -1\n bnez s1, loop\n\
         li a0, 0\n li t1, {METAL_RING_WORDS}\n mv t0, s2\n\
         sum:\n lw t3, 0(t0)\n add a0, a0, t3\n addi t0, t0, 4\n addi t1, t1, -1\n bnez t1, sum\n\
         ebreak"
    );
    let mut ring = vec![0u32; METAL_RING_WORDS as usize];
    for i in 0..METAL_ITERS {
        ring[(i % METAL_RING_WORDS) as usize] = a1;
        a1 = a1.wrapping_add(bump);
    }
    Workload {
        kind: Kind::Metal,
        bump,
        program: image(&src),
        data: Vec::new(),
        expect_a0: ring.iter().fold(0u32, |acc, w| acc.wrapping_add(*w)),
    }
}
