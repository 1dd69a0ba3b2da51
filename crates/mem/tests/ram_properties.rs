//! Randomized property tests for RAM's touched-page map, driven by a
//! deterministic seeded RNG: writes, page-straddling loads, snapshots
//! and restores (also across buses) against a plain byte-vector model.

use metal_mem::{Bus, BusSnapshot, PAGE_SIZE};
use metal_util::Rng;

/// Not a multiple of the page size, so the last page is short.
const SIZE: usize = 5 * PAGE_SIZE as usize + 1000;

/// A bus and the bytes its RAM must hold.
struct Machine {
    bus: Bus,
    model: Vec<u8>,
}

impl Machine {
    fn new() -> Machine {
        Machine {
            bus: Bus::new(SIZE),
            model: vec![0; SIZE],
        }
    }

    /// RAM agrees with the model, and its page view lists exactly the
    /// model's pages that hold a nonzero byte.
    fn check(&self, context: &str) {
        let ram = &self.bus.ram;
        assert!(
            ram.dump(0, SIZE as u32).unwrap() == self.model.as_slice(),
            "{context}: RAM differs from the model"
        );
        let expected: Vec<(usize, &[u8])> = self
            .model
            .chunks(PAGE_SIZE as usize)
            .enumerate()
            .filter(|(_, page)| page.iter().any(|&b| b != 0))
            .collect();
        assert_eq!(
            ram.pages().collect::<Vec<_>>(),
            expected,
            "{context}: page view"
        );
    }
}

/// Half the values are zero, so pages are often written back to zero.
fn value(rng: &mut Rng) -> u32 {
    if rng.chance() {
        0
    } else {
        rng.next_u32()
    }
}

fn random_write(rng: &mut Rng, m: &mut Machine) {
    let ram = &mut m.bus.ram;
    match rng.below(4) {
        0 => {
            let addr = rng.below(SIZE as u64) as usize;
            let v = value(rng) as u8;
            ram.write_u8(addr as u32, v).unwrap();
            m.model[addr] = v;
        }
        1 => {
            let addr = rng.below(SIZE as u64 / 2) as usize * 2;
            let v = value(rng) as u16;
            ram.write_u16(addr as u32, v).unwrap();
            m.model[addr..addr + 2].copy_from_slice(&v.to_le_bytes());
        }
        2 => {
            let addr = rng.below(SIZE as u64 / 4) as usize * 4;
            let v = value(rng);
            ram.write_u32(addr as u32, v).unwrap();
            m.model[addr..addr + 4].copy_from_slice(&v.to_le_bytes());
        }
        _ => {
            // Straddle a page boundary, the last (short) page's included.
            let boundary = rng.range_usize(1, SIZE / PAGE_SIZE as usize + 1) * PAGE_SIZE as usize;
            let start = boundary - rng.range_usize(1, 300);
            let end = (boundary + rng.range_usize(0, 300)).min(SIZE);
            let bytes: Vec<u8> = (start..end).map(|_| value(rng) as u8).collect();
            ram.load(start as u32, &bytes).unwrap();
            m.model[start..end].copy_from_slice(&bytes);
        }
    }
}

#[test]
fn touched_pages_match_a_dense_model() {
    for seed in 0..64 {
        let mut rng = Rng::new(seed);
        let mut machines = [Machine::new(), Machine::new()];
        let mut snapshots: Vec<(BusSnapshot, Vec<u8>)> = Vec::new();
        for step in 0..400 {
            let which = rng.below(2) as usize;
            let m = &mut machines[which];
            match rng.below(20) {
                0 => snapshots.push((m.bus.snapshot(), m.model.clone())),
                1 if !snapshots.is_empty() => {
                    // Any snapshot, whichever bus it was taken on.
                    let (snap, model) = &snapshots[rng.below(snapshots.len() as u64) as usize];
                    m.bus.restore(snap);
                    m.model.clone_from(model);
                }
                _ => random_write(&mut rng, m),
            }
            m.check(&format!("seed {seed}, step {step}"));
        }
    }
}

#[test]
fn a_page_written_back_to_zero_is_not_listed() {
    let mut bus = Bus::new(SIZE);
    bus.ram.write_u32(2 * PAGE_SIZE, 0xDEAD_BEEF).unwrap();
    bus.ram.load(SIZE as u32 - 3, &[1, 2, 3]).unwrap();
    assert_eq!(bus.ram.pages().count(), 2);
    bus.ram.write_u32(2 * PAGE_SIZE, 0).unwrap();
    bus.ram.load(SIZE as u32 - 3, &[0; 3]).unwrap();
    assert_eq!(bus.ram.pages().count(), 0);
    // Restoring the all-zero image leaves RAM all zero.
    let empty = Bus::new(SIZE).snapshot();
    bus.ram.write_u8(7, 7).unwrap();
    bus.restore(&empty);
    assert!(bus
        .ram
        .dump(0, SIZE as u32)
        .unwrap()
        .iter()
        .all(|&b| b == 0));
}
