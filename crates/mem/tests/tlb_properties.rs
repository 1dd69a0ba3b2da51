//! Randomized property tests for the software-managed TLB, driven by a
//! deterministic seeded RNG.

use metal_mem::tlb::{AccessKind, Pte, Tlb, TlbConfig, TlbFault};
use metal_util::Rng;
use std::collections::HashMap;

#[derive(Clone, Debug)]
enum Op {
    Install {
        va: u32,
        pa: u32,
        flags: u32,
        asid: u16,
    },
    Translate {
        va: u32,
        asid: u16,
        kind: AccessKind,
    },
    Invalidate {
        va: u32,
        asid: u16,
    },
    FlushAsid {
        asid: u16,
    },
    FlushAll,
    SetKey {
        key: u32,
        perms: u32,
    },
}

fn rand_kind(rng: &mut Rng) -> AccessKind {
    *rng.pick(&[AccessKind::Read, AccessKind::Write, AccessKind::Execute])
}

fn rand_op(rng: &mut Rng) -> Op {
    // Small universes so collisions and evictions actually happen.
    let va = (rng.next_u64() % 16) as u32 * 0x1000;
    let pa = (rng.next_u64() % 16) as u32 * 0x1000;
    let asid = (rng.next_u64() % 3) as u16;
    match rng.next_u64() % 12 {
        0..=3 => Op::Install {
            va,
            pa,
            // Always valid; low bits choose R/W/X/G.
            flags: Pte::V | (((rng.next_u64() % 16) as u32) << 1),
            asid,
        },
        4..=7 => Op::Translate {
            va,
            asid,
            kind: rand_kind(rng),
        },
        8 => Op::Invalidate { va, asid },
        9 => Op::FlushAsid { asid },
        10 => Op::FlushAll,
        _ => Op::SetKey {
            key: (rng.next_u64() % 16) as u32,
            perms: (rng.next_u64() % 4) as u32,
        },
    }
}

/// Invariant: at most one valid entry ever matches a (vpn, asid)
/// pair — duplicates would make translation nondeterministic.
#[test]
fn no_duplicate_matches() {
    let mut rng = Rng::new(0x711b_0001);
    for _case in 0..256 {
        let mut tlb = Tlb::new(TlbConfig { entries: 4 });
        let steps = rng.range_usize(1, 120);
        for _ in 0..steps {
            match rand_op(&mut rng) {
                Op::Install {
                    va,
                    pa,
                    flags,
                    asid,
                } => tlb.install(va, Pte::new(pa, flags), asid),
                Op::Translate { va, asid, kind } => {
                    let _ = tlb.translate(va, asid, kind);
                }
                Op::Invalidate { va, asid } => tlb.invalidate(va, asid),
                Op::FlushAsid { asid } => tlb.flush_asid(asid),
                Op::FlushAll => tlb.flush_all(),
                Op::SetKey { key, perms } => tlb.set_key_perms(key, perms),
            }
            // Check the invariant after every step.
            for asid in 0u16..3 {
                for vpn in 0u32..16 {
                    let matches = tlb
                        .iter_entries()
                        .filter(|(v, a, pte)| {
                            *v == vpn && pte.valid() && (pte.global() || *a == asid)
                        })
                        .count();
                    assert!(
                        matches <= 1,
                        "vpn {vpn} asid {asid} matched {matches} entries"
                    );
                }
            }
        }
    }
}

/// A model-based check: after a sequence of installs (no global
/// entries, fixed ASID, no evictions because the TLB is large),
/// translate agrees with a HashMap model.
#[test]
fn translate_matches_model() {
    let mut rng = Rng::new(0x711b_0002);
    for _case in 0..256 {
        let mut tlb = Tlb::new(TlbConfig { entries: 64 });
        let mut model: HashMap<u32, Pte> = HashMap::new();
        for _ in 0..rng.range_usize(1, 32) {
            let vp = (rng.next_u64() % 32) as u32;
            let pp = (rng.next_u64() % 32) as u32;
            let perm = (rng.next_u64() % 8) as u32;
            let pte = Pte::new(pp << 12, Pte::V | (perm << 1));
            tlb.install(vp << 12, pte, 1);
            model.insert(vp, pte);
        }
        for _ in 0..rng.range_usize(1, 64) {
            let vp = (rng.next_u64() % 32) as u32;
            let kind = rand_kind(&mut rng);
            let got = tlb.translate((vp << 12) | 0x123, 1, kind);
            match model.get(&vp) {
                None => assert_eq!(got, Err(TlbFault::Miss)),
                Some(pte) if pte.permits(kind) => {
                    assert_eq!(got, Ok(pte.phys_base() | 0x123));
                }
                Some(_) => assert_eq!(got, Err(TlbFault::Protection)),
            }
        }
    }
}

/// Occupancy never exceeds capacity, and install of N distinct pages
/// into an N-entry TLB keeps all of them resident (LRU never evicts
/// under exact fit).
#[test]
fn capacity_respected() {
    for n in 1usize..16 {
        let mut tlb = Tlb::new(TlbConfig { entries: n });
        for i in 0..n as u32 {
            tlb.install(i << 12, Pte::new(i << 12, Pte::V | Pte::R), 0);
        }
        assert_eq!(tlb.occupancy(), n);
        for i in 0..n as u32 {
            assert!(tlb.translate(i << 12, 0, AccessKind::Read).is_ok());
        }
        // One more distinct page evicts exactly one entry.
        tlb.install(0x8000_0000, Pte::new(0x1000, Pte::V | Pte::R), 0);
        assert_eq!(tlb.occupancy(), n);
    }
}
