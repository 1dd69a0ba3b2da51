//! Parity/ECC metadata modeled on MRAM and the Metal register file.
//!
//! The fault-tolerance story of the paper's architecture (reliability
//! features *in mcode*) needs detection hardware the mcode can react
//! to. This module models the per-word check bits: a single parity bit
//! (detects any odd number of flipped bits, corrects nothing) or a
//! SECDED Hamming code over the 32 data bits plus an overall parity
//! bit (corrects single-bit errors via the syndrome, detects
//! double-bit errors). Detection raises
//! `TrapCause::MachineCheck { site, syndrome }`; repair is left to a
//! recovery mroutine (`mscrub`), keeping the hardware model minimal.
//!
//! Syndrome byte convention: bit 7 set means syndrome decoding cannot
//! locate the error (parity detection, double-bit error, or an invalid
//! Hamming position) — the word is uncorrectable in place and recovery
//! must fall back to a golden copy or checkpoint rollback.
//!
//! [`EccStore`] is the one word store that keeps these check bits, for
//! MRAM code, MRAM data and the Metal register file alike.

/// Which check-bit scheme protects a structure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EccMode {
    /// No check bits; faults are silent (the baseline).
    #[default]
    None,
    /// One parity bit per word: detects odd-weight errors, corrects
    /// nothing.
    Parity,
    /// Hamming SECDED over 32 data bits (6 syndrome bits + overall
    /// parity): corrects single-bit errors, detects double-bit errors.
    Secded,
}

impl EccMode {
    /// Stable label used in CLI flags and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EccMode::None => "none",
            EccMode::Parity => "parity",
            EccMode::Secded => "secded",
        }
    }

    /// Parses a CLI label.
    #[must_use]
    pub fn parse(s: &str) -> Option<EccMode> {
        match s {
            "none" => Some(EccMode::None),
            "parity" => Some(EccMode::Parity),
            "secded" => Some(EccMode::Secded),
            _ => None,
        }
    }

    /// Computes the check byte for a data word.
    #[must_use]
    pub fn encode(self, word: u32) -> u8 {
        match self {
            EccMode::None => 0,
            EccMode::Parity => (word.count_ones() & 1) as u8,
            EccMode::Secded => {
                let c = hamming_checks(word);
                let overall = (word.count_ones() + u32::from(c).count_ones()) & 1;
                c | ((overall as u8) << 6)
            }
        }
    }

    /// Validates a stored word against its check byte.
    #[must_use]
    pub fn check(self, word: u32, check: u8) -> EccCheck {
        match self {
            EccMode::None => EccCheck::Clean,
            EccMode::Parity => {
                if (word.count_ones() & 1) as u8 == check & 1 {
                    EccCheck::Clean
                } else {
                    EccCheck::Error {
                        corrected: None,
                        syndrome: 0x80,
                    }
                }
            }
            EccMode::Secded => {
                let syn = hamming_checks(word) ^ (check & 0x3F);
                let total = (word.count_ones() + u32::from(check & 0x7F).count_ones()) & 1;
                match (syn, total) {
                    (0, 0) => EccCheck::Clean,
                    // Odd error weight: a single flipped bit the
                    // syndrome locates (or an error confined to the
                    // check bits, leaving the data word intact).
                    (syn, 1) => match locate_data_bit(syn) {
                        Some(bit) => EccCheck::Error {
                            corrected: Some(word ^ (1 << bit)),
                            syndrome: syn,
                        },
                        None if syn == 0 || u32::from(syn).is_power_of_two() => EccCheck::Error {
                            corrected: Some(word),
                            syndrome: syn,
                        },
                        None => EccCheck::Error {
                            corrected: None,
                            syndrome: 0x80 | syn,
                        },
                    },
                    // Even error weight with a nonzero syndrome:
                    // double-bit error, detected but not locatable.
                    (syn, _) => EccCheck::Error {
                        corrected: None,
                        syndrome: 0x80 | syn,
                    },
                }
            }
        }
    }
}

/// Result of validating a word against its check bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EccCheck {
    /// Word and check bits agree.
    Clean,
    /// Mismatch. `corrected` carries the repaired data word when the
    /// syndrome locates the error; `syndrome` is reported in the
    /// machine-check cause (bit 7 set = not locatable).
    Error {
        /// The repaired word, when single-bit correction applies.
        corrected: Option<u32>,
        /// The reported syndrome.
        syndrome: u8,
    },
}

/// Words protected by per-word check bits: the one store behind MRAM
/// code, MRAM data and the Metal register file.
///
/// [`EccStore::set`] is the only write port and always encodes, so a
/// legitimately written word verifies clean. [`EccStore::flip`] models
/// a particle strike: it changes the word and leaves its check bits
/// and golden copy stale, which is what makes the flip detectable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EccStore {
    mode: EccMode,
    words: Vec<u32>,
    check: Vec<u8>,
    /// Write-through copy of every `set`, for structures that keep one;
    /// `scrub` repairs from it instead of from the syndrome.
    golden: Option<Vec<u32>>,
}

impl EccStore {
    /// `len` zero words. A zero word's check byte is zero in every mode,
    /// so a fresh store needs no encoding pass.
    #[must_use]
    pub fn new(mode: EccMode, len: usize, golden: bool) -> EccStore {
        EccStore {
            mode,
            words: vec![0; len],
            check: vec![0; len],
            golden: golden.then(|| vec![0; len]),
        }
    }

    /// The stored words.
    #[must_use]
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Word `i`.
    #[must_use]
    pub fn get(&self, i: usize) -> u32 {
        self.words[i]
    }

    /// Writes word `i` with fresh check bits (and golden copy).
    pub fn set(&mut self, i: usize, value: u32) {
        self.words[i] = value;
        self.check[i] = self.mode.encode(value);
        if let Some(golden) = &mut self.golden {
            golden[i] = value;
        }
    }

    /// Validates word `i` against its check bits. `None` = clean (or
    /// ECC off); `Some(syndrome)` = machine check.
    #[inline]
    #[must_use]
    pub fn verify(&self, i: usize) -> Option<u8> {
        if self.mode == EccMode::None {
            return None;
        }
        match self.mode.check(self.words[i], self.check[i]) {
            EccCheck::Clean => None,
            EccCheck::Error { syndrome, .. } => Some(syndrome),
        }
    }

    /// Flips one bit of word `i`, leaving its check bits stale. Returns
    /// `false` out of range.
    pub fn flip(&mut self, i: usize, bit: u8) -> bool {
        let Some(word) = self.words.get_mut(i) else {
            return false;
        };
        *word ^= 1 << (bit & 31);
        true
    }

    /// Repairs word `i`: from the golden copy when the store keeps one,
    /// otherwise by syndrome correction. Returns `false` out of range or
    /// when the check bits cannot locate the error (parity, double-bit).
    pub fn scrub(&mut self, i: usize) -> bool {
        if i >= self.words.len() {
            return false;
        }
        let word = match &self.golden {
            Some(golden) => golden[i],
            None => match self.mode.check(self.words[i], self.check[i]) {
                EccCheck::Clean => self.words[i],
                EccCheck::Error {
                    corrected: Some(word),
                    ..
                } => word,
                EccCheck::Error {
                    corrected: None, ..
                } => return false,
            },
        };
        self.set(i, word);
        true
    }

    /// Word `i` with its check bits as stored, for banking a word
    /// without laundering a corruption: a `get` + `set` round trip would
    /// re-encode the check bits.
    #[must_use]
    pub fn raw(&self, i: usize) -> (u32, u8) {
        (self.words[i], self.check[i])
    }

    /// Restores a pair captured by [`EccStore::raw`] verbatim.
    pub fn set_raw(&mut self, i: usize, (word, check): (u32, u8)) {
        self.words[i] = word;
        self.check[i] = check;
    }
}

/// Codeword position of each data bit (positions that are powers of
/// two hold check bits, as in a classic Hamming layout).
const DATA_POS: [u8; 32] = build_data_positions();

const fn build_data_positions() -> [u8; 32] {
    let mut table = [0u8; 32];
    let mut pos: u8 = 0;
    let mut i = 0;
    while i < 32 {
        pos += 1;
        if !pos.is_power_of_two() {
            table[i] = pos;
            i += 1;
        }
    }
    table
}

/// `CHECK_MASKS[k]` selects the data bits whose codeword position has
/// bit `k` set: check bit `k` is the parity of those bits.
const CHECK_MASKS: [u32; 6] = build_check_masks();

const fn build_check_masks() -> [u32; 6] {
    let mut masks = [0u32; 6];
    let mut i = 0;
    while i < 32 {
        let mut k = 0;
        while k < 6 {
            if DATA_POS[i] >> k & 1 == 1 {
                masks[k] |= 1 << i;
            }
            k += 1;
        }
        i += 1;
    }
    masks
}

/// The 6 Hamming check bits of a data word: six masked parities, the
/// XOR tree a hardware encoder would use.
#[inline]
fn hamming_checks(word: u32) -> u8 {
    let mut c = 0u8;
    for (k, &mask) in CHECK_MASKS.iter().enumerate() {
        c |= (((word & mask).count_ones() & 1) as u8) << k;
    }
    c
}

/// Maps a syndrome back to the data-bit index it names, if any.
fn locate_data_bit(syn: u8) -> Option<u32> {
    DATA_POS.iter().position(|&p| p == syn).map(|i| i as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metal_util::Rng;

    #[test]
    fn clean_words_verify() {
        let mut rng = Rng::new(0x5EED);
        for mode in [EccMode::None, EccMode::Parity, EccMode::Secded] {
            for _ in 0..200 {
                let w = rng.next_u32();
                assert_eq!(mode.check(w, mode.encode(w)), EccCheck::Clean);
            }
        }
    }

    #[test]
    fn parity_detects_single_flips_without_correcting() {
        let mut rng = Rng::new(1);
        for _ in 0..200 {
            let w = rng.next_u32();
            let check = EccMode::Parity.encode(w);
            let bit = rng.below(32) as u32;
            match EccMode::Parity.check(w ^ (1 << bit), check) {
                EccCheck::Error {
                    corrected: None,
                    syndrome,
                } => assert_eq!(syndrome, 0x80),
                other => panic!("parity flip not detected: {other:?}"),
            }
        }
    }

    #[test]
    fn secded_corrects_every_single_bit_flip() {
        let mut rng = Rng::new(2);
        for _ in 0..50 {
            let w = rng.next_u32();
            let check = EccMode::Secded.encode(w);
            for bit in 0..32u32 {
                match EccMode::Secded.check(w ^ (1 << bit), check) {
                    EccCheck::Error {
                        corrected: Some(fixed),
                        syndrome,
                    } => {
                        assert_eq!(fixed, w, "bit {bit}");
                        assert_eq!(syndrome & 0x80, 0, "bit {bit}");
                    }
                    other => panic!("single flip of bit {bit} not corrected: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn secded_flags_double_bit_flips_uncorrectable() {
        let mut rng = Rng::new(3);
        for _ in 0..200 {
            let w = rng.next_u32();
            let check = EccMode::Secded.encode(w);
            let a = rng.below(32) as u32;
            let mut b = rng.below(32) as u32;
            while b == a {
                b = rng.below(32) as u32;
            }
            match EccMode::Secded.check(w ^ (1 << a) ^ (1 << b), check) {
                EccCheck::Error {
                    corrected: None,
                    syndrome,
                } => assert_ne!(syndrome & 0x80, 0, "bits {a},{b}"),
                other => panic!("double flip {a},{b} misclassified: {other:?}"),
            }
        }
    }

    /// The original encoder, kept as the reference: XOR together the
    /// codeword positions of the set data bits.
    fn hamming_checks_by_position(word: u32) -> u8 {
        let mut c = 0u8;
        for (i, &pos) in DATA_POS.iter().enumerate() {
            if word >> i & 1 == 1 {
                c ^= pos;
            }
        }
        c
    }

    #[test]
    fn masked_parities_match_the_positional_encoder() {
        // Both encoders are linear over GF(2), so agreement on zero and
        // on the 32 one-bit words implies agreement on every word; the
        // random words check that implication.
        assert_eq!(hamming_checks(0), 0);
        for bit in 0..32 {
            let w = 1u32 << bit;
            assert_eq!(
                hamming_checks(w),
                hamming_checks_by_position(w),
                "bit {bit}"
            );
        }
        let mut rng = Rng::new(0xECC);
        for _ in 0..1_000_000 {
            let w = rng.next_u32();
            assert_eq!(
                hamming_checks(w),
                hamming_checks_by_position(w),
                "{w:#010x}"
            );
        }
    }

    #[test]
    fn secded_check_bytes_are_pinned() {
        for (word, check) in [
            (0x0000_0000, 0x00),
            (0x0000_0001, 0x43),
            (0x8000_0000, 0x26),
            (0xFFFF_FFFF, 0x18),
            (0xDEAD_BEEF, 0x63),
            (0x1234_5678, 0x6D),
            (0xA5A5_A5A5, 0x72),
            (0x0000_FFFF, 0x1E),
        ] {
            assert_eq!(EccMode::Secded.encode(word), check, "{word:#010x}");
        }
    }

    #[test]
    fn secded_check_bit_flips_leave_the_word_intact() {
        let mut rng = Rng::new(4);
        for _ in 0..50 {
            let w = rng.next_u32();
            let check = EccMode::Secded.encode(w);
            for bit in 0..7 {
                match EccMode::Secded.check(w, check ^ (1 << bit)) {
                    EccCheck::Error {
                        corrected: Some(fixed),
                        syndrome,
                    } => {
                        assert_eq!(fixed, w, "check bit {bit}");
                        assert_eq!(syndrome & 0x80, 0, "check bit {bit}");
                    }
                    other => panic!("check bit {bit} flip misclassified: {other:?}"),
                }
            }
            // Bit 7 of the check byte is not stored.
            assert_eq!(EccMode::Secded.check(w, check ^ 0x80), EccCheck::Clean);
        }
    }

    #[test]
    fn data_positions_skip_check_slots() {
        for pos in DATA_POS {
            assert!(!pos.is_power_of_two());
            assert!(pos <= 38);
        }
    }
}
