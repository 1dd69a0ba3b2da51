//! The one definition of a Metal machine's architectural state.
//!
//! The list, in comparison order: halt reason, x-registers, Metal
//! registers `m0..m31` (compared pairwise with the x-registers: `x0`,
//! `m0`, `x1`, …), MRAM data, Metal stats, ASID, `instret`, CSRs,
//! translation mode, TLB slots (vpn, ASID, PTE; an empty slot reads vpn
//! `0xffffffff`), page-key masks, guest RAM, `cycles`, and the Metal
//! control registers (`mstatus`, `mcause`, `mentry`, `minsn`,
//! `mbadaddr`, `mscratch`, `soft_ipend`). Fields added to the list come
//! after the older ones. Left out, because no architectural behavior
//! depends on them: caches, TLB LRU stamps, the decode cache, the trace,
//! other performance counters, and Metal's transition latencies.
//!
//! A [`StateSet`] names a subset of the list. `mfault` compares
//! [`digest`]s of a run and its golden run; `mfuzz` and the
//! differential tests report the [`first_difference`] of two engines.

use crate::Metal;
use metal_pipeline::state::MachineState;
use metal_pipeline::Engine;
use std::borrow::Cow;

#[derive(Clone, Copy)]
enum Field {
    Halt,
    XRegs,
    Mregs,
    MramData,
    Stats,
    Asid,
    Instret,
    Csrs,
    Translation,
    Tlb,
    PageKeys,
    Ram,
    Cycles,
    Mcrs,
}

const LIST: [Field; 14] = [
    Field::Halt,
    Field::XRegs,
    Field::Mregs,
    Field::MramData,
    Field::Stats,
    Field::Asid,
    Field::Instret,
    Field::Csrs,
    Field::Translation,
    Field::Tlb,
    Field::PageKeys,
    Field::Ram,
    Field::Cycles,
    Field::Mcrs,
];

/// A subset of the architectural-state list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StateSet(u16);

impl StateSet {
    const fn of(fields: &[Field]) -> StateSet {
        let (mut bits, mut i) = (0, 0);
        while i < fields.len() {
            bits |= 1 << fields[i] as u16;
            i += 1;
        }
        StateSet(bits)
    }

    fn fields(self) -> impl Iterator<Item = Field> {
        LIST.into_iter()
            .filter(move |&f| self.0 & 1 << f as u16 != 0)
    }
}

/// The halt reason alone.
pub const HALT: StateSet = StateSet::of(&[Field::Halt]);

/// A program's outcome, which a fault campaign compares with its golden
/// run: halt, x-registers, MRAM data and RAM. Recovery legitimately
/// runs extra instructions and scratches Metal registers.
pub const OUTCOME: StateSet =
    StateSet::of(&[Field::Halt, Field::XRegs, Field::MramData, Field::Ram]);

/// [`OUTCOME`] plus Metal registers, the ASID, `instret` and `cycles`:
/// what a rerun without a fault must reproduce.
pub const FULL: StateSet = StateSet(
    OUTCOME.0 | StateSet::of(&[Field::Mregs, Field::Asid, Field::Instret, Field::Cycles]).0,
);

/// What two engines must agree on: everything but `cycles`, which the
/// interpreter counts in steps.
pub const DIFFERENTIAL: StateSet = StateSet(ALL.0 & !(1 << Field::Cycles as u16));

/// The whole list.
pub const ALL: StateSet = StateSet((1 << LIST.len()) - 1);

/// A machine as the list reads it.
#[derive(Clone, Copy)]
pub struct Machine<'a> {
    /// Registers, CSRs, memory and translation state.
    pub state: &'a MachineState,
    /// The Metal extension.
    pub metal: &'a Metal,
}

impl<'a> Machine<'a> {
    /// The machine of a Metal-hooked engine.
    pub fn of<E: Engine<Hooks = Metal>>(engine: &'a E) -> Machine<'a> {
        Machine {
            state: engine.state(),
            metal: engine.hooks(),
        }
    }
}

/// A field's value on one machine.
enum Value<'a> {
    /// One value, named and shown as text.
    Text(&'static str, String),
    /// Words; the function names word `i`.
    Words(fn(usize) -> String, Vec<u32>),
    /// Bytes, named `<name>[<address>]`.
    Bytes(&'static str, Cow<'a, [u8]>),
}

const CSRS: [&str; 7] = [
    "mstatus", "mtvec", "mscratch", "mepc", "mcause", "mtval", "mie",
];

const MCRS: [&str; 7] = [
    "mstatus",
    "mcause",
    "mentry",
    "minsn",
    "mbadaddr",
    "mscratch",
    "soft_ipend",
];

fn value(m: Machine<'_>, field: Field) -> Value<'_> {
    let (s, c, r, ram) = (m.state, &m.state.csr, &m.metal.mregs, &m.state.bus.ram);
    match field {
        Field::Halt => Value::Text("halt", format!("{:?}", s.halted)),
        Field::XRegs => Value::Words(|i| format!("x{i}"), s.regs.snapshot().to_vec()),
        Field::Mregs => Value::Words(
            |i| format!("m{i}"),
            (0..32).map(|n| m.metal.mregs.get(n)).collect(),
        ),
        Field::MramData => Value::Bytes(
            "mram data",
            m.metal
                .mram
                .data()
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .collect(),
        ),
        Field::Stats => Value::Text("Metal stats", format!("{:?}", m.metal.stats)),
        Field::Asid => Value::Text("asid", s.asid.to_string()),
        Field::Instret => Value::Text("instret", s.perf.instret.to_string()),
        Field::Csrs => Value::Words(
            |i| format!("csr {}", CSRS[i]),
            vec![
                c.mstatus, c.mtvec, c.mscratch, c.mepc, c.mcause, c.mtval, c.mie,
            ],
        ),
        Field::Translation => Value::Text("translation", format!("{:?}", s.translation)),
        Field::Tlb => Value::Words(
            |i| format!("tlb[{}].{}", i / 3, ["vpn", "asid", "pte"][i % 3]),
            s.tlb
                .slots()
                .flat_map(|e| e.map_or([u32::MAX, 0, 0], |(v, a, p)| [v, a.into(), p.0]))
                .collect(),
        ),
        Field::PageKeys => Value::Words(|i| format!("key[{i}]"), s.tlb.key_masks().to_vec()),
        Field::Ram => Value::Bytes("ram", ram.dump(0, ram.size() as u32).expect("RAM").into()),
        Field::Cycles => Value::Text("cycles", s.perf.cycles.to_string()),
        Field::Mcrs => Value::Words(
            |i| format!("mcr {}", MCRS[i]),
            vec![
                r.mstatus,
                r.mcause,
                r.mentry,
                r.minsn,
                r.mbadaddr,
                r.mscratch,
                r.soft_ipend,
            ],
        ),
    }
}

/// FNV-1a over 64-bit words.
fn fnv(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

/// A hash of the fields of `set`, for equality tests only. Byte strings
/// are hashed in place, eight bytes per step. RAM is hashed as its
/// nonzero pages, each after its index, then its size: the hash
/// depends only on the contents and costs the pages the program wrote.
#[must_use]
pub fn digest(m: Machine<'_>, set: StateSet) -> u64 {
    let bytes = |h, b: &[u8]| {
        let h = b.chunks(8).fold(h, |h, chunk| {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            fnv(h, u64::from_le_bytes(word))
        });
        fnv(h, b.len() as u64)
    };
    set.fields().fold(0xCBF2_9CE4_8422_2325, |h, field| {
        let h = fnv(h, field as u64);
        if let Field::Ram = field {
            let ram = &m.state.bus.ram;
            let h = ram
                .pages()
                .fold(h, |h, (i, page)| bytes(fnv(h, i as u64), page));
            return fnv(h, ram.size() as u64);
        }
        match value(m, field) {
            Value::Text(_, text) => bytes(h, text.as_bytes()),
            Value::Words(_, words) => words.into_iter().fold(h, |h, w| fnv(h, w.into())),
            Value::Bytes(_, b) => bytes(h, &b),
        }
    })
}

/// The first element two machines disagree on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Difference {
    /// The element: `halt`, `x10`, `csr mepc`, `tlb[3].pte`, `ram[0x3004]`, ….
    pub field: String,
    /// Its value on the first machine.
    pub left: String,
    /// Its value on the second machine.
    pub right: String,
}

/// The first element, in list order, on which `a` and `b` differ among
/// the fields of `set`; `None` when they agree on all of them.
#[must_use]
pub fn first_difference(a: Machine<'_>, b: Machine<'_>, set: StateSet) -> Option<Difference> {
    let found = set.fields().filter_map(|field| {
        let (i, name, left, right) = match (value(a, field), value(b, field)) {
            (Value::Text(name, l), Value::Text(_, r)) => {
                (l != r).then(|| (0, name.into(), l, r))?
            }
            (Value::Words(name, l), Value::Words(_, r)) => {
                let i = first(&l, &r)?;
                let show = |w: &[u32]| w.get(i).map_or("absent".into(), |w| format!("{w:#010x}"));
                (i, name(i), show(&l), show(&r))
            }
            (Value::Bytes(name, l), Value::Bytes(_, r)) => {
                let i = first(&l, &r)?;
                let show = |b: &[u8]| b.get(i).map_or("absent".into(), |b| format!("{b:#04x}"));
                (i, format!("{name}[{i:#x}]"), show(&l), show(&r))
            }
            _ => unreachable!("a field has one shape"),
        };
        let rank = match field {
            Field::XRegs => (field as usize, 2 * i),
            Field::Mregs => (Field::XRegs as usize, 2 * i + 1),
            _ => (field as usize, i),
        };
        let d = Difference {
            field: name,
            left,
            right,
        };
        Some((rank, d))
    });
    found.min_by_key(|&(rank, _)| rank).map(|(_, d)| d)
}

/// The index of the first differing element; one `memcmp` when equal.
fn first<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
    (a != b).then(|| {
        let i = a.iter().zip(b).position(|(x, y)| x != y);
        i.unwrap_or(a.len().min(b.len()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mreg::MSTATUS_INTERCEPT_ENABLE;
    use crate::MetalConfig;
    use metal_isa::reg::Reg;
    use metal_mem::Pte;
    use metal_pipeline::state::CoreConfig;

    fn pair() -> [(MachineState, Metal); 2] {
        let config = CoreConfig {
            ram_bytes: 64 << 10,
            ..CoreConfig::default()
        };
        std::array::from_fn(|_| {
            (
                MachineState::new(&config),
                Metal::new(MetalConfig::default()),
            )
        })
    }

    fn machine((state, metal): &(MachineState, Metal)) -> Machine<'_> {
        Machine { state, metal }
    }

    /// The difference after `change` is applied to the second machine.
    fn differ_by(change: impl FnOnce(&mut MachineState)) -> Difference {
        let [a, mut b] = pair();
        change(&mut b.0);
        first_difference(machine(&a), machine(&b), ALL).expect("states differ")
    }

    #[test]
    fn first_difference_names_the_element() {
        let d = differ_by(|s| s.bus.ram.write_u8(0x3004, 0xAB).unwrap());
        assert_eq!(
            (d.field.as_str(), d.left.as_str(), d.right.as_str()),
            ("ram[0x3004]", "0x00", "0xab")
        );
        let d = differ_by(|s| s.csr.mepc = 0x40);
        assert_eq!(
            (d.field.as_str(), d.right.as_str()),
            ("csr mepc", "0x00000040")
        );
        let d = differ_by(|s| s.tlb.install(0x5000, Pte::new(0x5000, Pte::V | Pte::R), 2));
        assert_eq!(
            (d.field.as_str(), d.left.as_str(), d.right.as_str()),
            ("tlb[0].vpn", "0xffffffff", "0x00000005")
        );
        let d = differ_by(|s| s.regs.set(Reg::T0, 7));
        assert_eq!(
            (d.field.as_str(), d.left.as_str(), d.right.as_str()),
            ("x5", "0x00000000", "0x00000007")
        );
        let [a, mut b] = pair();
        b.1.mram.data_store(0x40, 0x1200).unwrap();
        let d = first_difference(machine(&a), machine(&b), ALL).expect("MRAM data differs");
        assert_eq!(
            (d.field.as_str(), d.left.as_str(), d.right.as_str()),
            ("mram data[0x41]", "0x00", "0x12")
        );
    }

    #[test]
    fn metal_control_registers_are_in_the_list() {
        let [a, mut b] = pair();
        b.1.mregs.mstatus |= MSTATUS_INTERCEPT_ENABLE;
        let d = first_difference(machine(&a), machine(&b), DIFFERENTIAL).expect("mstatus differs");
        assert_eq!(
            (d.field.as_str(), d.left.as_str(), d.right.as_str()),
            ("mcr mstatus", "0x00000000", "0x00000001")
        );
        // Not part of a fault campaign's comparison.
        for set in [OUTCOME, FULL] {
            assert_eq!(digest(machine(&a), set), digest(machine(&b), set));
        }
    }

    #[test]
    fn ram_digest_depends_only_on_contents() {
        let [mut a, mut b] = pair();
        let (ra, rb) = (&mut a.0.bus.ram, &mut b.0.bus.ram);
        ra.write_u32(0x3000, 7).unwrap();
        ra.write_u32(0x8000, 9).unwrap();
        // Same contents by another history: other order, other widths,
        // and a page written nonzero and then zeroed.
        rb.write_u32(0x8000, 9).unwrap();
        rb.write_u32(0x5000, 1).unwrap();
        rb.write_u8(0x5000, 0).unwrap();
        rb.load(0x3000, &7u32.to_le_bytes()).unwrap();
        assert_eq!(digest(machine(&a), OUTCOME), digest(machine(&b), OUTCOME));
        b.0.bus.ram.write_u8(0x5001, 1).unwrap();
        assert_ne!(digest(machine(&a), OUTCOME), digest(machine(&b), OUTCOME));
    }

    #[test]
    fn digests_follow_the_sets() {
        let [a, mut b] = pair();
        for set in [OUTCOME, FULL, DIFFERENTIAL, ALL] {
            assert_eq!(
                digest(machine(&a), set),
                digest(machine(&b), set),
                "{set:?}"
            );
        }
        b.0.perf.cycles += 1;
        assert_eq!(digest(machine(&a), OUTCOME), digest(machine(&b), OUTCOME));
        assert_ne!(digest(machine(&a), FULL), digest(machine(&b), FULL));
        assert_eq!(
            first_difference(machine(&a), machine(&b), DIFFERENTIAL),
            None
        );
        let d = first_difference(machine(&a), machine(&b), ALL).expect("cycles differ");
        assert_eq!(d.field, "cycles");
    }
}
