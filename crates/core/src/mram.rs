//! MRAM: the RAM collocated with the instruction fetch unit.
//!
//! "Critically, Metal stores mroutines in a RAM collocated with the
//! processor's instruction fetch unit to offer microcode level overhead.
//! … The RAM partitions code and data into separate segments, which hold
//! mroutines and mroutine private data. Accesses to the RAM do not alter
//! processor caches." (paper §2)
//!
//! MRAM code occupies the physical-address window starting at
//! [`MRAM_BASE`]; fetches from that window are served by the Metal fetch
//! hook in one cycle and never touch the I-cache. The data segment is a
//! separate little address space reachable only through `mld`/`mst`.

use crate::ecc::{EccMode, EccStore};
use crate::MetalError;
use metal_isa::metal::MAX_MROUTINES;
use metal_isa::{decode_to, DecodedInsn};

/// Base address of the MRAM code window. mroutine PCs live here.
pub const MRAM_BASE: u32 = 0xFFF0_0000;

/// Geometry of the MRAM.
#[derive(Clone, Copy, Debug)]
pub struct MramConfig {
    /// Code segment size in bytes.
    pub code_bytes: u32,
    /// Data segment size in bytes.
    pub data_bytes: u32,
    /// Fetch latency from MRAM in cycles (1 = collocated, the design
    /// point; larger values ablate the collocation claim).
    pub fetch_latency: u32,
}

impl Default for MramConfig {
    fn default() -> MramConfig {
        MramConfig {
            code_bytes: 16 * 1024,
            data_bytes: 4 * 1024,
            fetch_latency: 1,
        }
    }
}

/// One installed mroutine.
#[derive(Clone, Debug)]
pub struct MroutineInfo {
    /// Entry number (0..64).
    pub entry: u8,
    /// Human-readable name (diagnostics only).
    pub name: String,
    /// Byte offset of the first instruction in the code segment.
    pub offset: u32,
    /// Length in bytes.
    pub len: u32,
}

/// The MRAM: code segment, data segment, and the 64-entry table. Both
/// segments are [`EccStore`]s that keep a golden copy. On top of the
/// code store sits its pre-decoded view, filled at install time: the
/// software analogue of the paper's decode-collocated MRAM, so mroutine
/// fetches never pay a per-cycle decode.
#[derive(Clone, Debug)]
pub struct Mram {
    config: MramConfig,
    /// Code words. The golden copy is the install image: code is
    /// read-only after install, so it never goes stale.
    pub(crate) code: EccStore,
    /// `decoded[i]` decodes code word `i`. Every write to a code word
    /// re-decodes it: `install` here, fault flips and scrubs through
    /// [`Mram::redecode`].
    decoded: Vec<DecodedInsn>,
    /// Data words (`mld`/`mst`). The golden copy tracks every store, so
    /// scrubbing a corrupted data word restores the latest store.
    pub(crate) data: EccStore,
    entries: Vec<Option<MroutineInfo>>,
    next_offset: u32,
}

impl Mram {
    /// Creates an empty MRAM whose words `ecc` protects.
    #[must_use]
    pub fn new(config: MramConfig, ecc: EccMode) -> Mram {
        let words = (config.code_bytes / 4) as usize;
        Mram {
            code: EccStore::new(ecc, words, true),
            // Word 0 has no legal decoding, so the empty pre-decoded
            // segment is consistent with the empty code segment.
            decoded: vec![DecodedInsn::illegal(0); words],
            data: EccStore::new(ecc, (config.data_bytes / 4) as usize, true),
            entries: vec![None; MAX_MROUTINES],
            next_offset: 0,
            config,
        }
    }

    /// The geometry.
    #[must_use]
    pub fn config(&self) -> MramConfig {
        self.config
    }

    /// Installs an mroutine's code at the next free offset and binds it
    /// to `entry`. Returns the mroutine's PC.
    pub fn install(&mut self, entry: u8, name: &str, words: &[u32]) -> Result<u32, MetalError> {
        if usize::from(entry) >= MAX_MROUTINES {
            return Err(MetalError::BadEntry { entry });
        }
        if self.entries[usize::from(entry)].is_some() {
            return Err(MetalError::EntryInUse { entry });
        }
        let len = (words.len() * 4) as u32;
        if self.next_offset + len > self.config.code_bytes {
            return Err(MetalError::CodeOverflow {
                needed: self.next_offset + len,
                capacity: self.config.code_bytes,
            });
        }
        let offset = self.next_offset;
        let word_base = (offset / 4) as usize;
        // Pre-decode at load time.
        for (i, &word) in words.iter().enumerate() {
            self.code.set(word_base + i, word);
            self.decoded[word_base + i] = decode_to(word);
        }
        self.next_offset += len;
        self.entries[usize::from(entry)] = Some(MroutineInfo {
            entry,
            name: name.to_owned(),
            offset,
            len,
        });
        Ok(MRAM_BASE + offset)
    }

    /// Looks up an entry; `None` if unbound.
    #[must_use]
    pub fn entry(&self, entry: u8) -> Option<&MroutineInfo> {
        self.entries.get(usize::from(entry))?.as_ref()
    }

    /// True if `pc` lies inside the MRAM code window.
    #[must_use]
    pub fn contains_pc(&self, pc: u32) -> bool {
        pc >= MRAM_BASE && pc < MRAM_BASE + self.config.code_bytes
    }

    /// The code word index of an MRAM PC; `None` outside the window or
    /// misaligned.
    fn code_index(&self, pc: u32) -> Option<usize> {
        (self.contains_pc(pc) && pc.is_multiple_of(4)).then(|| ((pc - MRAM_BASE) / 4) as usize)
    }

    /// Reads the pre-decoded instruction at an MRAM PC.
    pub fn code_decoded(&self, pc: u32) -> Result<DecodedInsn, MetalError> {
        let i = self.code_index(pc).ok_or(MetalError::CodeFetch { pc })?;
        Ok(self.decoded[i])
    }

    /// Re-decodes code word `i` after a write to the code store that
    /// bypassed `install`.
    pub(crate) fn redecode(&mut self, i: usize) {
        self.decoded[i] = decode_to(self.code.get(i));
    }

    /// Validates the code word at an MRAM PC against its check bits.
    /// `None` = clean (or ECC off, or not a code PC); `Some(syndrome)` =
    /// machine check.
    #[must_use]
    pub fn code_verify(&self, pc: u32) -> Option<u8> {
        self.code.verify(self.code_index(pc)?)
    }

    /// Fetch latency for MRAM code.
    #[must_use]
    pub fn fetch_latency(&self) -> u32 {
        self.config.fetch_latency
    }

    /// The data word index of a data-segment byte offset; `None` out of
    /// bounds or misaligned.
    pub(crate) fn data_index(&self, addr: u32) -> Option<usize> {
        let i = addr as usize / 4;
        (addr.is_multiple_of(4) && i < self.data.words().len()).then_some(i)
    }

    /// Loads a word from the data segment.
    pub fn data_load(&self, addr: u32) -> Result<u32, MetalError> {
        let i = self
            .data_index(addr)
            .ok_or(MetalError::DataAccess { addr })?;
        Ok(self.data.get(i))
    }

    /// Stores a word to the data segment: the write port `mst` and host
    /// loaders that prime mroutine private data share.
    pub fn data_store(&mut self, addr: u32, value: u32) -> Result<(), MetalError> {
        let i = self
            .data_index(addr)
            .ok_or(MetalError::DataAccess { addr })?;
        self.data.set(i, value);
        Ok(())
    }

    /// The data segment's words.
    #[must_use]
    pub fn data(&self) -> &[u32] {
        self.data.words()
    }

    /// Bytes of code segment still free.
    #[must_use]
    pub fn code_free(&self) -> u32 {
        self.config.code_bytes - self.next_offset
    }

    /// Iterates over installed mroutines.
    pub fn routines(&self) -> impl Iterator<Item = &MroutineInfo> {
        self.entries.iter().filter_map(Option::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word(mram: &Mram, pc: u32) -> Result<u32, MetalError> {
        mram.code_decoded(pc).map(|d| d.word)
    }

    #[test]
    fn install_and_fetch() {
        let mut mram = Mram::new(MramConfig::default(), EccMode::None);
        let pc = mram.install(3, "demo", &[0x11, 0x22, 0x33]).unwrap();
        assert_eq!(pc, MRAM_BASE);
        assert_eq!(mram.entry(3).map(|info| info.offset), Some(0));
        assert_eq!(word(&mram, pc), Ok(0x11));
        assert_eq!(word(&mram, pc + 8), Ok(0x33));
        assert!(mram.contains_pc(pc + 8));
        // Second routine goes after the first.
        let pc2 = mram.install(4, "demo2", &[0xAA]).unwrap();
        assert_eq!(pc2, MRAM_BASE + 12);
        assert_eq!(word(&mram, pc2), Ok(0xAA));
    }

    #[test]
    fn entry_bounds_and_duplicates() {
        let mut mram = Mram::new(MramConfig::default(), EccMode::None);
        assert!(matches!(
            mram.install(64, "x", &[0]),
            Err(MetalError::BadEntry { entry: 64 })
        ));
        mram.install(5, "a", &[0]).unwrap();
        assert!(matches!(
            mram.install(5, "b", &[0]),
            Err(MetalError::EntryInUse { entry: 5 })
        ));
    }

    #[test]
    fn code_overflow_detected() {
        let mut mram = Mram::new(
            MramConfig {
                code_bytes: 16,
                data_bytes: 16,
                fetch_latency: 1,
            },
            EccMode::None,
        );
        mram.install(0, "a", &[0; 3]).unwrap();
        assert!(matches!(
            mram.install(1, "b", &[0; 2]),
            Err(MetalError::CodeOverflow { .. })
        ));
        // Exactly filling works.
        mram.install(1, "b", &[0]).unwrap();
        assert_eq!(mram.code_free(), 0);
    }

    #[test]
    fn data_segment_roundtrip() {
        let mut mram = Mram::new(MramConfig::default(), EccMode::None);
        mram.data_store(8, 0xDEAD_BEEF).unwrap();
        assert_eq!(mram.data_load(8), Ok(0xDEAD_BEEF));
        assert_eq!(mram.data()[2], 0xDEAD_BEEF);
        assert!(mram.data_load(2).is_err(), "misaligned");
        let last = MramConfig::default().data_bytes - 4;
        mram.data_store(last, 1).unwrap();
        assert!(mram.data_store(last + 4, 1).is_err(), "out of bounds");
        assert!(mram.data_store(u32::MAX - 3, 1).is_err(), "no overflow");
    }

    #[test]
    fn flipped_code_is_fetched_flipped_and_scrub_repairs_the_view() {
        let mut mram = Mram::new(MramConfig::default(), EccMode::Secded);
        let pc = mram.install(0, "r", &[0x0000_0013, 0x0010_0073]).unwrap();
        assert_eq!(mram.code_verify(pc), None);
        assert!(mram.code.flip(0, 7));
        mram.redecode(0);
        // The fetch sees the flipped word; the stale check bits report
        // a locatable syndrome.
        assert_eq!(mram.code_decoded(pc), Ok(decode_to(0x0000_0013 ^ 0x80)));
        let syndrome = mram.code_verify(pc).expect("flip detected");
        assert_eq!(syndrome & 0x80, 0, "single-bit flip is locatable");
        assert!(mram.code.scrub(0));
        mram.redecode(0);
        assert_eq!(mram.code_verify(pc), None);
        assert_eq!(mram.code_decoded(pc), Ok(decode_to(0x0000_0013)));
    }

    #[test]
    fn code_fetch_bounds() {
        let mram = Mram::new(MramConfig::default(), EccMode::None);
        assert!(word(&mram, MRAM_BASE - 4).is_err());
        assert!(word(&mram, MRAM_BASE + 2).is_err());
        assert!(word(&mram, MRAM_BASE + MramConfig::default().code_bytes).is_err());
        assert_eq!(mram.code_verify(MRAM_BASE + 2), None);
    }
}
