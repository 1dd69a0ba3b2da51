//! A preemptive multitasking OS kernel in ~90 lines of mcode.
//!
//! Two processes run at the *same virtual addresses* in different
//! address spaces; the timer interrupt is delegated to a context-switch
//! mroutine that saves/restores full register state with physical
//! accesses and swaps the ASID — no hardware scheduler, no kernel trap
//! path, just the building blocks the paper says vendors should expose
//! (§2.3) composed by software (§3).
//!
//! Run with: `cargo run --example preemptive_scheduler`

use metal_core::MetalBuilder;
use metal_ext::sched::{self, asid_of, write_pcb};
use metal_mem::devices::{map, Timer};
use metal_mem::tlb::Pte;
use metal_pipeline::state::{CoreConfig, TranslationMode};
use metal_pipeline::{Engine, HaltReason};

const CODE_VA: u32 = 0x1_0000;
const DATA_VA: u32 = 0x2_0000;
const FRAMES: [(u32, u32); 2] = [(0x3_0000, 0x3_8000), (0x3_4000, 0x3_C000)];

fn main() {
    let mut core = sched::install(MetalBuilder::new())
        .build_core(CoreConfig {
            tlb: metal_mem::TlbConfig { entries: 64 },
            ..CoreConfig::default()
        })
        .expect("scheduler mroutines verify");
    core.state
        .bus
        .attach(map::TIMER_BASE, map::WINDOW_LEN, Box::new(Timer::new()));

    // Global identity mapping for the boot pages; per-ASID mappings for
    // each process's code and data — same VA, different frames.
    for i in 0..8 {
        let addr = i * 0x1000;
        core.state.tlb.install(
            addr,
            Pte::new(addr, Pte::V | Pte::R | Pte::W | Pte::X | Pte::G),
            0,
        );
    }
    for (pid, (code_pa, data_pa)) in FRAMES.iter().enumerate() {
        let asid = asid_of(pid as u32) as u16;
        core.state
            .tlb
            .install(CODE_VA, Pte::new(*code_pa, Pte::V | Pte::R | Pte::X), asid);
        core.state
            .tlb
            .install(DATA_VA, Pte::new(*data_pa, Pte::V | Pte::R | Pte::W), asid);
    }
    core.state.translation = TranslationMode::SoftTlb;

    // Process bodies: count at DATA_VA; process 0 exits at 3000.
    let p0 = format!(
        "li s0, {DATA_VA:#x}\nloop:\n lw t0, 0(s0)\n addi t0, t0, 1\n sw t0, 0(s0)\n \
         li t1, 3000\n blt t0, t1, loop\n mv a0, t0\n ebreak"
    );
    let p1 = format!(
        "li s0, {DATA_VA:#x}\nloop:\n lw t0, 0(s0)\n addi t0, t0, 1\n sw t0, 0(s0)\n j loop"
    );
    for (src, (code_pa, _)) in [&p0, &p1].iter().zip(FRAMES.iter()) {
        let bytes = metal_asm::assemble_image(src, CODE_VA).expect("process assembles");
        core.state.bus.ram.load(*code_pa, &bytes).unwrap();
    }
    write_pcb(&mut core.state.bus.ram, 0, CODE_VA, 0);
    write_pcb(&mut core.state.bus.ram, 1, CODE_VA, 0);

    // Boot: enable the timer interrupt, 2000-cycle quantum (the full
    // register save/restore costs ~400 cycles of physical accesses, as a
    // real PALcode context switch would), enter pid 0.
    let boot = format!(
        "li t0, 1\n csrw mie, t0\n csrrsi zero, mstatus, 8\n li a0, 2000\n menter {}\n menter {}",
        sched::entries::INIT,
        sched::entries::START
    );
    let bytes = metal_asm::assemble_image(&boot, 0).unwrap();
    core.load_segments([(0u32, bytes.as_slice())], 0);

    let halt = core.run(10_000_000);
    assert_eq!(halt, Some(HaltReason::Ebreak { code: 3000 }));

    let p0_count = core.state.bus.ram.read_u32(FRAMES[0].1).unwrap();
    let p1_count = core.state.bus.ram.read_u32(FRAMES[1].1).unwrap();
    println!("process 0 counted to {p0_count} (then exited)");
    println!("process 1 counted to {p1_count} (still runnable)");
    println!(
        "preemptions (timer interrupts delegated to the switch mroutine): {}",
        core.hooks.stats.delegated_interrupts
    );
    println!(
        "both processes used VA {DATA_VA:#x}; the ASID-tagged TLB kept them in\n\
         different frames with zero page-table work on each switch."
    );
}
