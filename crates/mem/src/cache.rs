//! Timing-only cache model.
//!
//! The simulator keeps all data in [`crate::PhysMemory`]; caches model
//! *latency* only. This is what gives the PALcode-vs-Metal comparison its
//! teeth: PALcode-style handlers are fetched through the I-cache and main
//! memory (a no-op call costs ~18 cycles on the Alpha, paper §5), while
//! mroutines come from MRAM collocated with instruction fetch at
//! single-cycle latency, and "accesses to the RAM do not alter processor
//! caches" (paper §2).

/// Geometry and miss cost of one cache.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Cycles a miss adds to [`Cache::HIT_LATENCY`] (memory access).
    pub miss_penalty: u32,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            size_bytes: 4 * 1024,
            line_bytes: 32,
            miss_penalty: 15,
        }
    }
}

/// A direct-mapped, timing-only cache.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// One tag per line; `None` = invalid.
    tags: Vec<Option<u32>>,
    /// Statistics.
    pub accesses: u64,
    /// Statistics.
    pub misses: u64,
}

impl Cache {
    /// Cycles for a hit, on every cache of the modelled core.
    pub const HIT_LATENCY: u32 = 1;

    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two line count.
    #[must_use]
    pub fn new(config: CacheConfig) -> Cache {
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            config.size_bytes.is_multiple_of(config.line_bytes),
            "size must be a multiple of the line size"
        );
        let lines = (config.size_bytes / config.line_bytes) as usize;
        assert!(lines.is_power_of_two(), "line count must be a power of two");
        Cache {
            config,
            tags: vec![None; lines],
            accesses: 0,
            misses: 0,
        }
    }

    /// The configuration this cache was built with.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    fn index_and_tag(&self, addr: u32) -> (usize, u32) {
        let line = addr / self.config.line_bytes;
        let index = (line as usize) & (self.tags.len() - 1);
        (index, line)
    }

    /// Performs an access and returns its latency in cycles, filling the
    /// line on a miss.
    pub fn access(&mut self, addr: u32) -> u32 {
        self.accesses += 1;
        let (index, tag) = self.index_and_tag(addr);
        if self.tags[index] == Some(tag) {
            Cache::HIT_LATENCY
        } else {
            self.misses += 1;
            self.tags[index] = Some(tag);
            Cache::HIT_LATENCY + self.config.miss_penalty
        }
    }

    /// Fault injection: flips one bit of a line's tag. Returns false
    /// (masked by construction) when the line is invalid or out of
    /// range. Tags only influence hit/miss latency, never data, so an
    /// injected flip is architecturally invisible — it models the
    /// timing-only blast radius of metadata corruption in this cache
    /// model.
    pub fn inject_tag_bit(&mut self, line: usize, bit: u8) -> bool {
        match self.tags.get_mut(line) {
            Some(Some(tag)) => {
                *tag ^= 1 << (bit & 31);
                true
            }
            _ => false,
        }
    }

    /// True if `addr` would hit, without updating state or statistics.
    #[must_use]
    pub fn peek(&self, addr: u32) -> bool {
        let (index, tag) = self.index_and_tag(addr);
        self.tags[index] == Some(tag)
    }

    /// Invalidates everything.
    pub fn flush(&mut self) {
        self.tags.fill(None);
    }

    /// Hit rate over the lifetime of the cache.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        1.0 - (self.misses as f64 / self.accesses as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 32,
            miss_penalty: 9,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = cache();
        assert_eq!(c.access(0x40), 10);
        assert_eq!(c.access(0x44), 1, "same line hits");
        assert_eq!(c.access(0x5C), 1, "line covers 32 bytes");
        assert_eq!(c.access(0x60), 10, "next line misses");
    }

    #[test]
    fn conflict_eviction() {
        let mut c = cache(); // 4 lines of 32 B.
        assert_eq!(c.access(0x00), 10);
        assert_eq!(c.access(0x80), 10, "maps to the same index");
        assert_eq!(c.access(0x00), 10, "evicted by the conflict");
    }

    #[test]
    fn flush_invalidates() {
        let mut c = cache();
        c.access(0);
        assert!(c.peek(0));
        c.flush();
        assert!(!c.peek(0));
        assert_eq!(c.access(0), 10);
    }

    #[test]
    fn stats() {
        let mut c = cache();
        c.access(0);
        c.access(0);
        c.access(4);
        c.access(32);
        assert_eq!(c.accesses, 4);
        assert_eq!(c.misses, 2);
        assert!((c.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_geometry() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 96,
            line_bytes: 33,
            miss_penalty: 1,
        });
    }
}
