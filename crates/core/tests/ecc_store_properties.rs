//! Randomized property tests for the check-bit store behind MRAM code,
//! MRAM data and the Metal registers, driven by a deterministic seeded
//! RNG: random `set`/`flip`/`verify`/`scrub` and raw round trips
//! against a plain model, under every check-bit scheme, with and
//! without a golden copy.

use metal_core::{EccMode, EccStore};
use metal_util::Rng;

const WORDS: usize = 12;
const MODES: [EccMode; 3] = [EccMode::None, EccMode::Parity, EccMode::Secded];

/// What the store must hold: each word as stored, the word its check
/// bits were computed from, and the last legitimately written word.
struct Model {
    mode: EccMode,
    golden: bool,
    stored: Vec<u32>,
    encoded: Vec<u32>,
    written: Vec<u32>,
}

impl Model {
    fn new(mode: EccMode, golden: bool) -> Model {
        Model {
            mode,
            golden,
            stored: vec![0; WORDS],
            encoded: vec![0; WORDS],
            written: vec![0; WORDS],
        }
    }

    /// Number of bits flipped since word `i`'s check bits were computed.
    fn distance(&self, i: usize) -> u32 {
        (self.stored[i] ^ self.encoded[i]).count_ones()
    }

    /// The store holds exactly the model's words and check bits.
    fn check(&self, store: &EccStore, context: &str) {
        assert_eq!(store.words(), self.stored.as_slice(), "{context}: words");
        for i in 0..WORDS {
            assert_eq!(
                store.raw(i),
                (self.stored[i], self.mode.encode(self.encoded[i])),
                "{context}: raw pair of word {i}"
            );
        }
    }

    /// The syndrome `verify` must report for word `i`.
    fn verify(&self, store: &EccStore, i: usize, context: &str) {
        let got = store.verify(i);
        match (self.mode, self.distance(i)) {
            (EccMode::None, _) | (_, 0) => assert_eq!(got, None, "{context}"),
            // A flip is detected; parity cannot locate it.
            (EccMode::Parity, d) if d % 2 == 1 => assert_eq!(got, Some(0x80), "{context}"),
            (EccMode::Parity, _) => assert_eq!(got, None, "{context}: even weight"),
            (EccMode::Secded, 1) => {
                let syndrome = got.unwrap_or_else(|| panic!("{context}: flip missed"));
                assert_eq!(syndrome & 0x80, 0, "{context}: single flip is locatable");
            }
            (EccMode::Secded, _) => {
                let syndrome = got.unwrap_or_else(|| panic!("{context}: double flip missed"));
                assert_ne!(syndrome & 0x80, 0, "{context}: double flip is not");
            }
        }
    }

    /// Scrubs word `i` and checks the result against the model.
    fn scrub(&mut self, store: &mut EccStore, i: usize, context: &str) {
        let repaired = store.scrub(i);
        let d = self.distance(i);
        if self.golden {
            // A golden-copy scrub always repairs, to the last write.
            assert!(repaired, "{context}");
            self.stored[i] = self.written[i];
            self.encoded[i] = self.written[i];
            return;
        }
        let expected = match (self.mode, d) {
            // Nothing detected: the word is re-encoded as it stands.
            (EccMode::None, _) | (_, 0) | (EccMode::Parity, 2) => {
                self.encoded[i] = self.stored[i];
                true
            }
            // The syndrome locates a single flip under SECDED only.
            (EccMode::Secded, 1) => {
                self.stored[i] = self.encoded[i];
                true
            }
            _ => false,
        };
        assert_eq!(repaired, expected, "{context}: distance {d}");
    }
}

fn run(mode: EccMode, golden: bool, seed: u64) {
    let mut rng = Rng::new(seed);
    let mut store = EccStore::new(mode, WORDS, golden);
    let mut model = Model::new(mode, golden);
    // A fresh store verifies clean: a zero word's check byte is zero.
    for i in 0..WORDS {
        assert_eq!(store.verify(i), None);
    }
    for step in 0..2_000 {
        let i = rng.below(WORDS as u64) as usize;
        let context = format!("{mode:?} golden={golden} seed={seed} step={step}");
        match rng.below(5) {
            0 => {
                let value = if rng.chance() { 0 } else { rng.next_u32() };
                store.set(i, value);
                model.stored[i] = value;
                model.encoded[i] = value;
                model.written[i] = value;
            }
            1 => {
                // At most two flipped bits per word, where SECDED's
                // guarantees hold: at distance two, undo one of them.
                let mut bit = rng.below(32) as u8;
                if model.distance(i) >= 2 {
                    let diff = model.stored[i] ^ model.encoded[i];
                    bit = diff.trailing_zeros() as u8;
                }
                assert!(store.flip(i, bit), "{context}");
                model.stored[i] ^= 1 << bit;
            }
            2 => model.verify(&store, i, &context),
            3 => model.scrub(&mut store, i, &context),
            _ => {
                // Bank the raw pair, overwrite, restore: the banked pair
                // comes back with its stale check bits, so a flip in it
                // is still detected.
                let banked = store.raw(i);
                let (stored, encoded) = (model.stored[i], model.encoded[i]);
                let other = rng.next_u32();
                store.set(i, other);
                assert_eq!(store.verify(i), None, "{context}: set encodes");
                store.set_raw(i, banked);
                model.written[i] = other;
                model.stored[i] = stored;
                model.encoded[i] = encoded;
                model.verify(&store, i, &context);
            }
        }
        model.check(&store, &context);
    }
    assert!(!store.flip(WORDS, 0), "flip out of range");
    assert!(!store.scrub(WORDS), "scrub out of range");
}

#[test]
fn store_matches_model_under_every_scheme() {
    for mode in MODES {
        for golden in [false, true] {
            for seed in 0..8 {
                run(mode, golden, seed);
            }
        }
    }
}
