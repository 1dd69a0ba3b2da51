//! Software-managed TLB with address-space IDs and page keys.
//!
//! The paper's prototype exposes "TLB modification instructions, … page
//! keys and address space IDs" to Metal (§2.3). The TLB is *never*
//! refilled by hardware when Metal owns translation: a miss raises an
//! exception that is delivered to an mroutine, which walks whatever
//! page-table structure the OS chose and installs the mapping with
//! `mtlbw` — that is the "custom page tables" application (§3.2).

use crate::{page_number, page_offset};
use metal_trace::{EventKind, TlbOutcome, TraceHandle};

/// Access type used for permission checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch.
    Execute,
    /// Data load.
    Read,
    /// Data store.
    Write,
}

/// A PTE-format word: PPN in bits 31:12, flags in bits 11:0.
///
/// | bit | meaning |
/// |-----|---------|
/// | 0   | valid   |
/// | 1   | readable |
/// | 2   | writable |
/// | 3   | executable |
/// | 4   | global (matches every ASID) |
/// | 5..9| page key (4 bits) |
/// | 10  | accessed (set by software walkers) |
/// | 11  | dirty (set by software walkers) |
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Pte(pub u32);

impl Pte {
    /// Valid bit.
    pub const V: u32 = 1 << 0;
    /// Readable bit.
    pub const R: u32 = 1 << 1;
    /// Writable bit.
    pub const W: u32 = 1 << 2;
    /// Executable bit.
    pub const X: u32 = 1 << 3;
    /// Global bit.
    pub const G: u32 = 1 << 4;
    /// Accessed bit.
    pub const A: u32 = 1 << 10;
    /// Dirty bit.
    pub const D: u32 = 1 << 11;

    /// Builds a PTE from a physical page base address and flags.
    #[must_use]
    pub fn new(ppn_addr: u32, flags: u32) -> Pte {
        Pte((ppn_addr & !0xFFF) | (flags & 0xFFF))
    }

    /// Base physical address of the page.
    #[must_use]
    pub fn phys_base(self) -> u32 {
        self.0 & !0xFFF
    }

    /// True if the valid bit is set.
    #[must_use]
    pub fn valid(self) -> bool {
        self.0 & Pte::V != 0
    }

    /// True if the global bit is set.
    #[must_use]
    pub fn global(self) -> bool {
        self.0 & Pte::G != 0
    }

    /// The 4-bit page key.
    #[must_use]
    pub fn key(self) -> u8 {
        ((self.0 >> KEY_SHIFT) & KEY_MASK) as u8
    }

    /// Returns a copy with the page key set.
    #[must_use]
    pub fn with_key(self, key: u8) -> Pte {
        Pte((self.0 & !(KEY_MASK << KEY_SHIFT)) | ((u32::from(key) & KEY_MASK) << KEY_SHIFT))
    }

    /// True if the PTE permits the access (ignoring page keys).
    #[must_use]
    pub fn permits(self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => self.0 & Pte::R != 0,
            AccessKind::Write => self.0 & Pte::W != 0,
            AccessKind::Execute => self.0 & Pte::X != 0,
        }
    }
}

/// Why a TLB lookup failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TlbFault {
    /// No entry matches (software must refill).
    Miss,
    /// An entry matches but the PTE forbids this access.
    Protection,
    /// An entry matches but the page key forbids this access.
    KeyViolation,
}

/// TLB geometry.
#[derive(Clone, Copy, Debug)]
pub struct TlbConfig {
    /// Number of entries (fully associative).
    pub entries: usize,
}

impl Default for TlbConfig {
    fn default() -> TlbConfig {
        TlbConfig { entries: 32 }
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    vpn: u32,
    asid: u16,
    pte: Pte,
    /// LRU stamp.
    stamp: u64,
}

/// Position of the page key in a PTE (bits 5..9).
const KEY_SHIFT: u32 = 5;
/// Width mask of the page key.
const KEY_MASK: u32 = 0xF;
/// Page keys the PTE format can name.
const KEYS: usize = KEY_MASK as usize + 1;

/// Per-key permission mask: bit 0 = read allowed, bit 1 = write allowed.
/// Execute is not key-gated (matches how protection keys work on x86).
const KEY_READ: u32 = 1 << 0;
const KEY_WRITE: u32 = 1 << 1;

/// A fully associative, software-managed TLB.
#[derive(Clone, Debug)]
pub struct Tlb {
    entries: Vec<Option<Entry>>,
    key_perms: [u32; KEYS],
    clock: u64,
    /// Statistics: lookups, hits.
    pub lookups: u64,
    /// Statistics: hits.
    pub hits: u64,
    /// Event sink; disabled by default.
    pub trace: TraceHandle,
}

impl Tlb {
    /// Creates an empty TLB. All page keys initially allow read+write
    /// (key 0 is the conventional "no key" default).
    #[must_use]
    pub fn new(config: TlbConfig) -> Tlb {
        Tlb {
            entries: vec![None; config.entries],
            key_perms: [KEY_READ | KEY_WRITE; KEYS],
            clock: 0,
            lookups: 0,
            hits: 0,
            trace: TraceHandle::disabled(),
        }
    }

    /// Number of entry slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Fault injection: flips one bit of the entry in `slot` — bits
    /// 0–31 hit the PTE, bits 32–63 the VPN. Returns false (a masked
    /// fault by construction) when the slot is empty or out of range.
    /// TLB entries carry no check bits, so injected flips are never
    /// detected — they surface as wrong translations or spurious
    /// faults, or stay invisible.
    pub fn inject_entry_bit(&mut self, slot: usize, bit: u8) -> bool {
        let Some(Some(entry)) = self.entries.get_mut(slot) else {
            return false;
        };
        let word = 1u32 << (bit & 31);
        if bit & 63 < 32 {
            entry.pte.0 ^= word;
        } else {
            entry.vpn ^= word;
        }
        true
    }

    /// Translates `va` under `asid` for the given access kind.
    ///
    /// On success returns the physical address and marks the entry
    /// most-recently-used.
    pub fn translate(&mut self, va: u32, asid: u16, kind: AccessKind) -> Result<u32, TlbFault> {
        self.lookups += 1;
        self.clock += 1;
        let vpn = page_number(va);
        let clock = self.clock;
        let Some(slot) = self.find(vpn, asid) else {
            self.trace.emit(EventKind::TlbLookup {
                va,
                outcome: TlbOutcome::Miss,
            });
            return Err(TlbFault::Miss);
        };
        let entry = self.entries[slot]
            .as_mut()
            .expect("find returned occupied slot");
        entry.stamp = clock;
        let pte = entry.pte;
        if !pte.permits(kind) {
            self.trace.emit(EventKind::TlbLookup {
                va,
                outcome: TlbOutcome::Protection,
            });
            return Err(TlbFault::Protection);
        }
        let perms = self.key_perms[usize::from(pte.key())];
        let key_ok = match kind {
            AccessKind::Read => perms & KEY_READ != 0,
            AccessKind::Write => perms & KEY_WRITE != 0,
            AccessKind::Execute => true,
        };
        if !key_ok {
            self.trace.emit(EventKind::TlbLookup {
                va,
                outcome: TlbOutcome::KeyViolation,
            });
            return Err(TlbFault::KeyViolation);
        }
        self.hits += 1;
        self.trace.emit(EventKind::TlbLookup {
            va,
            outcome: TlbOutcome::Hit,
        });
        Ok(pte.phys_base() | page_offset(va))
    }

    fn find(&self, vpn: u32, asid: u16) -> Option<usize> {
        self.entries.iter().position(|e| {
            e.is_some_and(|e| e.vpn == vpn && e.pte.valid() && (e.pte.global() || e.asid == asid))
        })
    }

    /// Installs a mapping for `va` under `asid` (the `mtlbw` instruction).
    ///
    /// Replaces an existing entry for the same (vpn, asid) if present,
    /// otherwise evicts the least-recently-used entry.
    pub fn install(&mut self, va: u32, pte: Pte, asid: u16) {
        let vpn = page_number(va);
        self.clock += 1;
        let entry = Entry {
            vpn,
            asid,
            pte,
            stamp: self.clock,
        };
        // Evict every entry the new mapping would shadow or be shadowed
        // by — same vpn with a matching asid, or either side global —
        // so no (vpn, asid) pair can ever match two entries.
        for slot in &mut self.entries {
            let conflicts = slot.is_some_and(|e| {
                e.vpn == vpn && (e.asid == asid || e.pte.global() || pte.global())
            });
            if conflicts {
                *slot = None;
            }
        }
        if let Some(i) = self.entries.iter().position(Option::is_none) {
            self.entries[i] = Some(entry);
            return;
        }
        let victim = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.map(|e| e.stamp).unwrap_or(0))
            .map(|(i, _)| i)
            .expect("TLB has at least one entry");
        self.entries[victim] = Some(entry);
    }

    /// Probes for a mapping without updating LRU or permission checks
    /// (the `mtlbp` instruction). Returns the raw PTE word or 0.
    #[must_use]
    pub fn probe(&self, va: u32, asid: u16) -> u32 {
        let vpn = page_number(va);
        self.find(vpn, asid)
            .and_then(|i| self.entries[i])
            .map_or(0, |e| e.pte.0)
    }

    /// Invalidates the entry matching `va` under `asid` (`mtlbi`).
    pub fn invalidate(&mut self, va: u32, asid: u16) {
        let vpn = page_number(va);
        if let Some(i) = self.find(vpn, asid) {
            self.entries[i] = None;
        }
    }

    /// Invalidates all non-global entries of `asid` (`mtlbi` with `x0`).
    pub fn flush_asid(&mut self, asid: u16) {
        for e in &mut self.entries {
            if e.is_some_and(|e| e.asid == asid && !e.pte.global()) {
                *e = None;
            }
        }
    }

    /// Invalidates everything (`mtlbiall`).
    pub fn flush_all(&mut self) {
        self.entries.fill(None);
    }

    /// Sets the permission mask of a page key (`mpkey`): bit 0 = read,
    /// bit 1 = write. Out-of-range keys are ignored.
    pub fn set_key_perms(&mut self, key: u32, perms: u32) {
        if let Some(slot) = self.key_perms.get_mut(key as usize) {
            *slot = perms & (KEY_READ | KEY_WRITE);
        }
    }

    /// Reads a page key's permission mask.
    #[must_use]
    pub fn key_perms(&self, key: u32) -> u32 {
        self.key_perms.get(key as usize).copied().unwrap_or(0)
    }

    /// Count of currently valid entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Iterates over valid entries as `(vpn, asid, pte)` for diagnostics
    /// and invariant checks.
    pub fn iter_entries(&self) -> impl Iterator<Item = (u32, u16, Pte)> + '_ {
        self.slots().flatten()
    }

    /// Every slot in slot order as `(vpn, asid, pte)`, `None` when
    /// empty: the TLB's architectural contents (LRU stamps excluded).
    pub fn slots(&self) -> impl Iterator<Item = Option<(u32, u16, Pte)>> + '_ {
        self.entries
            .iter()
            .map(|e| e.map(|e| (e.vpn, e.asid, e.pte)))
    }

    /// The permission mask of every page key, in key order.
    #[must_use]
    pub fn key_masks(&self) -> &[u32] {
        &self.key_perms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rw_pte(base: u32) -> Pte {
        Pte::new(base, Pte::V | Pte::R | Pte::W)
    }

    #[test]
    fn miss_then_hit() {
        let mut tlb = Tlb::new(TlbConfig::default());
        assert_eq!(
            tlb.translate(0x1234, 1, AccessKind::Read),
            Err(TlbFault::Miss)
        );
        tlb.install(0x1234, rw_pte(0x8000), 1);
        assert_eq!(tlb.translate(0x1234, 1, AccessKind::Read), Ok(0x8234));
        assert_eq!(tlb.translate(0x1FFC, 1, AccessKind::Write), Ok(0x8FFC));
    }

    #[test]
    fn asid_isolation() {
        let mut tlb = Tlb::new(TlbConfig::default());
        tlb.install(0x1000, rw_pte(0x8000), 1);
        assert_eq!(
            tlb.translate(0x1000, 2, AccessKind::Read),
            Err(TlbFault::Miss)
        );
        assert!(tlb.translate(0x1000, 1, AccessKind::Read).is_ok());
    }

    #[test]
    fn global_entries_match_all_asids() {
        let mut tlb = Tlb::new(TlbConfig::default());
        tlb.install(0x1000, Pte::new(0x8000, Pte::V | Pte::R | Pte::G), 1);
        assert!(tlb.translate(0x1000, 2, AccessKind::Read).is_ok());
        // flush_asid must not remove global entries.
        tlb.flush_asid(1);
        assert!(tlb.translate(0x1000, 7, AccessKind::Read).is_ok());
        tlb.flush_all();
        assert_eq!(
            tlb.translate(0x1000, 7, AccessKind::Read),
            Err(TlbFault::Miss)
        );
    }

    #[test]
    fn protection_checked() {
        let mut tlb = Tlb::new(TlbConfig::default());
        tlb.install(0x2000, Pte::new(0x9000, Pte::V | Pte::R), 0);
        assert_eq!(
            tlb.translate(0x2000, 0, AccessKind::Write),
            Err(TlbFault::Protection)
        );
        assert_eq!(
            tlb.translate(0x2000, 0, AccessKind::Execute),
            Err(TlbFault::Protection)
        );
        assert!(tlb.translate(0x2000, 0, AccessKind::Read).is_ok());
    }

    #[test]
    fn page_keys_gate_access() {
        let mut tlb = Tlb::new(TlbConfig::default());
        let pte = Pte::new(0x9000, Pte::V | Pte::R | Pte::W).with_key(3);
        tlb.install(0x2000, pte, 0);
        assert!(tlb.translate(0x2000, 0, AccessKind::Write).is_ok());
        tlb.set_key_perms(3, 1); // read-only
        assert_eq!(
            tlb.translate(0x2000, 0, AccessKind::Write),
            Err(TlbFault::KeyViolation)
        );
        assert!(tlb.translate(0x2000, 0, AccessKind::Read).is_ok());
        tlb.set_key_perms(3, 0); // no access
        assert_eq!(
            tlb.translate(0x2000, 0, AccessKind::Read),
            Err(TlbFault::KeyViolation)
        );
        // Execute is never key-gated.
        let xpte = Pte::new(0x9000, Pte::V | Pte::X).with_key(3);
        tlb.install(0x3000, xpte, 0);
        assert!(tlb.translate(0x3000, 0, AccessKind::Execute).is_ok());
    }

    #[test]
    fn key_count_is_fixed_by_the_pte_key_field() {
        let mut tlb = Tlb::new(TlbConfig::default());
        assert_eq!(tlb.key_masks().len(), 16);
        assert_eq!(Pte(0).with_key(0xFF).key(), 15);
        // A guest key past the PTE field's range names no slot.
        tlb.set_key_perms(16, 0);
        assert_eq!(tlb.key_perms(16), 0);
        assert!(tlb.key_masks().iter().all(|&m| m == KEY_READ | KEY_WRITE));
    }

    #[test]
    fn lru_eviction() {
        let mut tlb = Tlb::new(TlbConfig { entries: 2 });
        tlb.install(0x1000, rw_pte(0x8000), 0);
        tlb.install(0x2000, rw_pte(0x9000), 0);
        // Touch page 1 so page 2 is LRU.
        tlb.translate(0x1000, 0, AccessKind::Read).unwrap();
        tlb.install(0x3000, rw_pte(0xA000), 0);
        assert!(tlb.translate(0x1000, 0, AccessKind::Read).is_ok());
        assert_eq!(
            tlb.translate(0x2000, 0, AccessKind::Read),
            Err(TlbFault::Miss)
        );
    }

    #[test]
    fn reinstall_replaces_not_duplicates() {
        let mut tlb = Tlb::new(TlbConfig::default());
        tlb.install(0x1000, rw_pte(0x8000), 0);
        tlb.install(0x1000, rw_pte(0x9000), 0);
        assert_eq!(tlb.occupancy(), 1);
        assert_eq!(tlb.translate(0x1000, 0, AccessKind::Read), Ok(0x9000));
    }

    #[test]
    fn invalidate_single() {
        let mut tlb = Tlb::new(TlbConfig::default());
        tlb.install(0x1000, rw_pte(0x8000), 0);
        tlb.install(0x2000, rw_pte(0x9000), 0);
        tlb.invalidate(0x1000, 0);
        assert_eq!(
            tlb.translate(0x1000, 0, AccessKind::Read),
            Err(TlbFault::Miss)
        );
        assert!(tlb.translate(0x2000, 0, AccessKind::Read).is_ok());
    }

    #[test]
    fn probe_does_not_check_permissions() {
        let mut tlb = Tlb::new(TlbConfig::default());
        let pte = Pte::new(0x9000, Pte::V); // no R/W/X
        tlb.install(0x2000, pte, 0);
        assert_eq!(tlb.probe(0x2000, 0), pte.0);
        assert_eq!(tlb.probe(0x5000, 0), 0);
    }

    #[test]
    fn stats_track_hits() {
        let mut tlb = Tlb::new(TlbConfig::default());
        let _ = tlb.translate(0x1000, 0, AccessKind::Read);
        tlb.install(0x1000, rw_pte(0x8000), 0);
        let _ = tlb.translate(0x1000, 0, AccessKind::Read);
        assert_eq!(tlb.lookups, 2);
        assert_eq!(tlb.hits, 1);
    }
}
