//! The physical address space: RAM plus memory-mapped devices.

use crate::{MemError, PhysMemory, PAGE_SIZE};
use metal_trace::{EventKind, TraceHandle};

/// Base of the MMIO window. Everything below is RAM-or-fault.
pub const MMIO_BASE: u32 = 0xF000_0000;

/// Granularity of the code-residency bitmap, in bytes. One bit tracks
/// one line; a store anywhere in a marked line bumps the generation.
pub const CODE_LINE_BYTES: u32 = 64;

/// A memory-mapped device.
///
/// Devices are word-addressed: the bus only forwards naturally aligned
/// 32-bit accesses (sub-word MMIO raises [`MemError::Device`]).
pub trait Device: Send {
    /// Short name for diagnostics.
    fn name(&self) -> &'static str;
    /// The interrupt line this device drives, if any (0..32).
    fn irq_line(&self) -> Option<u8>;
    /// Reads the word-sized register at byte `offset` from the window base.
    fn read(&mut self, offset: u32) -> Result<u32, MemError>;
    /// Writes the word-sized register at byte `offset`.
    fn write(&mut self, offset: u32, value: u32) -> Result<(), MemError>;
    /// Advances device time to `cycle`.
    fn tick(&mut self, cycle: u64);
    /// Level-triggered interrupt output.
    fn irq_pending(&self) -> bool;
}

struct Window {
    base: u32,
    len: u32,
    device: Box<dyn Device>,
}

/// The system bus: routes physical addresses to RAM or device windows and
/// aggregates interrupt lines.
pub struct Bus {
    /// System RAM at physical address 0.
    pub ram: PhysMemory,
    windows: Vec<Window>,
    /// Event sink; disabled by default.
    pub trace: TraceHandle,
    /// One bit per [`CODE_LINE_BYTES`] RAM line: set when a decode cache
    /// holds an instruction fetched from that line. Empty overhead when
    /// no consumer marks lines.
    code_lines: Vec<u64>,
    /// Bumped on every store that hits a marked line. Decode caches
    /// compare against their own snapshot and flush on mismatch, which
    /// makes cached pre-decoded instructions safe under self-modifying
    /// code.
    code_generation: u64,
}

impl Bus {
    /// Creates a bus with `ram_bytes` of RAM and no devices.
    #[must_use]
    pub fn new(ram_bytes: usize) -> Bus {
        let lines = ram_bytes.div_ceil(CODE_LINE_BYTES as usize);
        Bus {
            ram: PhysMemory::new(ram_bytes),
            windows: Vec::new(),
            trace: TraceHandle::disabled(),
            code_lines: vec![0; lines.div_ceil(64)],
            code_generation: 0,
        }
    }

    /// Marks the RAM line holding `addr` as code-resident: a later store
    /// to that line will bump [`Bus::code_generation`]. Out-of-RAM
    /// addresses are ignored.
    #[inline]
    pub fn mark_code(&mut self, addr: u32) {
        let line = (addr / CODE_LINE_BYTES) as usize;
        if let Some(word) = self.code_lines.get_mut(line / 64) {
            *word |= 1 << (line % 64);
        }
    }

    /// Clears every code-residency mark (the decode cache was flushed;
    /// nothing cached remains to protect).
    pub fn clear_code_marks(&mut self) {
        self.code_lines.fill(0);
    }

    /// Generation counter for cached code: changes whenever a store may
    /// have modified a code-resident line.
    #[inline]
    #[must_use]
    pub fn code_generation(&self) -> u64 {
        self.code_generation
    }

    /// Bumps the generation if the store at `[addr, addr + len)` touches
    /// a marked line. The counter wraps: consumers compare for
    /// *inequality* against their own snapshot, so wraparound is benign
    /// (the astronomically unlikely exact-2^64-stores alias aside).
    #[inline]
    fn note_store(&mut self, addr: u32, len: u32) {
        let first = (addr / CODE_LINE_BYTES) as usize;
        let last = ((addr + (len - 1)) / CODE_LINE_BYTES) as usize;
        for line in first..=last {
            let marked = self
                .code_lines
                .get(line / 64)
                .is_some_and(|w| w & (1 << (line % 64)) != 0);
            if marked {
                self.code_generation = self.code_generation.wrapping_add(1);
                return;
            }
        }
    }

    /// Forces the code generation counter to an arbitrary value. A test
    /// and fuzzing hook (e.g. to exercise wraparound behaviour); never
    /// needed in normal operation.
    pub fn force_code_generation(&mut self, generation: u64) {
        self.code_generation = generation;
    }

    /// Captures everything [`Bus::restore`] needs to rewind the bus:
    /// the RAM pages that hold a nonzero byte plus the code-residency
    /// bitmap and its generation, at the cost of the pages the program
    /// wrote. Snapshot/restore serves device-less runs (the fuzzer and
    /// the fault campaigns reset a machine thousands of times per
    /// second); device state cannot be captured, so a bus with devices
    /// refuses.
    ///
    /// # Panics
    ///
    /// Panics, naming the device, if any device window is attached.
    #[must_use]
    pub fn snapshot(&self) -> BusSnapshot {
        if let Some(w) = self.windows.first() {
            panic!(
                "cannot snapshot a bus with device {:?} attached: device state is not captured",
                w.device.name()
            );
        }
        BusSnapshot {
            ram_size: self.ram.size(),
            pages: self.ram.pages().map(|(i, p)| (i, p.into())).collect(),
            code_lines: self.code_lines.clone(),
            code_generation: self.code_generation,
        }
    }

    /// Restores RAM and code-mark state from a snapshot without
    /// reallocating: zeroes the pages this bus has written, then copies
    /// in the snapshot's pages. Exact for any snapshot of a RAM of the
    /// same size, whichever bus it was taken on.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken from a bus with a different RAM
    /// size.
    pub fn restore(&mut self, snap: &BusSnapshot) {
        assert_eq!(
            self.ram.size(),
            snap.ram_size,
            "RAM size mismatch on restore"
        );
        self.ram.clear();
        for (i, page) in &snap.pages {
            self.ram
                .load((i * PAGE_SIZE as usize) as u32, page)
                .expect("snapshot page within RAM");
        }
        self.code_lines.copy_from_slice(&snap.code_lines);
        self.code_generation = snap.code_generation;
    }

    /// Maps `device` at `[base, base + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the window overlaps RAM or an existing window.
    pub fn attach(&mut self, base: u32, len: u32, device: Box<dyn Device>) {
        assert!(
            base >= MMIO_BASE || (base as u64 >= self.ram.size() as u64),
            "device window overlaps RAM"
        );
        for w in &self.windows {
            let disjoint = base + len <= w.base || w.base + w.len <= base;
            assert!(disjoint, "device window overlaps {}", w.device.name());
        }
        self.windows.push(Window { base, len, device });
    }

    fn window_mut(&mut self, addr: u32) -> Option<(&mut Window, u32)> {
        self.windows
            .iter_mut()
            .find(|w| addr >= w.base && addr < w.base + w.len)
            .map(|w| {
                let off = addr - w.base;
                (w, off)
            })
    }

    /// Reads a word.
    pub fn read_u32(&mut self, addr: u32) -> Result<u32, MemError> {
        if self.ram.contains(addr, 4) {
            return self.ram.read_u32(addr);
        }
        match self.window_mut(addr) {
            Some((w, off)) => {
                if !addr.is_multiple_of(4) {
                    return Err(MemError::Misaligned { addr });
                }
                let result = w.device.read(off);
                self.trace
                    .emit(EventKind::MmioAccess { addr, write: false });
                result
            }
            None => Err(MemError::OutOfBounds { addr }),
        }
    }

    /// Writes a word.
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        if self.ram.contains(addr, 4) {
            self.note_store(addr, 4);
            return self.ram.write_u32(addr, value);
        }
        match self.window_mut(addr) {
            Some((w, off)) => {
                if !addr.is_multiple_of(4) {
                    return Err(MemError::Misaligned { addr });
                }
                let result = w.device.write(off, value);
                self.trace.emit(EventKind::MmioAccess { addr, write: true });
                result
            }
            None => Err(MemError::OutOfBounds { addr }),
        }
    }

    /// Reads a half-word (RAM only; devices are word-addressed).
    pub fn read_u16(&mut self, addr: u32) -> Result<u16, MemError> {
        if self.ram.contains(addr, 2) {
            return self.ram.read_u16(addr);
        }
        if self.window_mut(addr).is_some() {
            return Err(MemError::Device { addr });
        }
        Err(MemError::OutOfBounds { addr })
    }

    /// Reads a byte (RAM only; devices are word-addressed).
    pub fn read_u8(&mut self, addr: u32) -> Result<u8, MemError> {
        if self.ram.contains(addr, 1) {
            return self.ram.read_u8(addr);
        }
        if self.window_mut(addr).is_some() {
            return Err(MemError::Device { addr });
        }
        Err(MemError::OutOfBounds { addr })
    }

    /// Writes a half-word (RAM only).
    pub fn write_u16(&mut self, addr: u32, value: u16) -> Result<(), MemError> {
        if self.ram.contains(addr, 2) {
            self.note_store(addr, 2);
            return self.ram.write_u16(addr, value);
        }
        if self.window_mut(addr).is_some() {
            return Err(MemError::Device { addr });
        }
        Err(MemError::OutOfBounds { addr })
    }

    /// Writes a byte (RAM only).
    pub fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), MemError> {
        if self.ram.contains(addr, 1) {
            self.note_store(addr, 1);
            return self.ram.write_u8(addr, value);
        }
        if self.window_mut(addr).is_some() {
            return Err(MemError::Device { addr });
        }
        Err(MemError::OutOfBounds { addr })
    }

    /// Advances all devices to `cycle` and returns the level-triggered
    /// interrupt bitmap (bit N set = IRQ line N asserted).
    pub fn tick(&mut self, cycle: u64) -> u32 {
        let mut pending = 0u32;
        for w in &mut self.windows {
            w.device.tick(cycle);
            if w.device.irq_pending() {
                if let Some(line) = w.device.irq_line() {
                    pending |= 1 << line;
                }
            }
        }
        pending
    }
}

/// A point-in-time copy of the bus's RAM and code-mark state (see
/// [`Bus::snapshot`]). RAM is kept sparse: its size plus the pages that
/// hold a nonzero byte, in index order.
#[derive(Clone, Debug)]
pub struct BusSnapshot {
    ram_size: usize,
    pages: Vec<(usize, Box<[u8]>)>,
    code_lines: Vec<u64>,
    code_generation: u64,
}

impl std::fmt::Debug for Bus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bus(ram = {} bytes, devices = [", self.ram.size())?;
        for w in &self.windows {
            write!(f, "{}@{:#x} ", w.device.name(), w.base)?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial one-register device for bus routing tests.
    struct Scratch {
        value: u32,
        irq: bool,
    }

    impl Device for Scratch {
        fn name(&self) -> &'static str {
            "scratch"
        }
        fn irq_line(&self) -> Option<u8> {
            Some(5)
        }
        fn read(&mut self, offset: u32) -> Result<u32, MemError> {
            match offset {
                0 => Ok(self.value),
                _ => Err(MemError::Device { addr: offset }),
            }
        }
        fn write(&mut self, offset: u32, value: u32) -> Result<(), MemError> {
            match offset {
                0 => {
                    self.value = value;
                    self.irq = value == 0xFEED;
                    Ok(())
                }
                _ => Err(MemError::Device { addr: offset }),
            }
        }
        fn tick(&mut self, _cycle: u64) {}
        fn irq_pending(&self) -> bool {
            self.irq
        }
    }

    fn bus() -> Bus {
        let mut b = Bus::new(4096);
        b.attach(
            MMIO_BASE,
            0x100,
            Box::new(Scratch {
                value: 7,
                irq: false,
            }),
        );
        b
    }

    #[test]
    fn ram_routing() {
        let mut b = bus();
        b.write_u32(0x10, 0xABCD).unwrap();
        assert_eq!(b.read_u32(0x10), Ok(0xABCD));
        assert_eq!(b.read_u8(0x10), Ok(0xCD));
    }

    #[test]
    fn device_routing() {
        let mut b = bus();
        assert_eq!(b.read_u32(MMIO_BASE), Ok(7));
        b.write_u32(MMIO_BASE, 42).unwrap();
        assert_eq!(b.read_u32(MMIO_BASE), Ok(42));
        assert_eq!(b.read_u32(MMIO_BASE + 8), Err(MemError::Device { addr: 8 }));
    }

    #[test]
    fn unmapped_hole_faults() {
        let mut b = bus();
        assert_eq!(
            b.read_u32(0x8000),
            Err(MemError::OutOfBounds { addr: 0x8000 })
        );
        assert_eq!(
            b.read_u32(MMIO_BASE + 0x1000),
            Err(MemError::OutOfBounds {
                addr: MMIO_BASE + 0x1000
            })
        );
    }

    #[test]
    fn subword_mmio_rejected() {
        let mut b = bus();
        assert_eq!(
            b.read_u8(MMIO_BASE),
            Err(MemError::Device { addr: MMIO_BASE })
        );
        assert_eq!(
            b.write_u16(MMIO_BASE, 1),
            Err(MemError::Device { addr: MMIO_BASE })
        );
    }

    #[test]
    fn irq_aggregation() {
        let mut b = bus();
        assert_eq!(b.tick(0), 0);
        b.write_u32(MMIO_BASE, 0xFEED).unwrap();
        assert_eq!(b.tick(1), 1 << 5);
        assert_eq!(b.tick(2), 1 << 5, "the line stays asserted");
    }

    #[test]
    fn code_generation_bumps_only_on_marked_lines() {
        let mut b = bus();
        assert_eq!(b.code_generation(), 0);
        // Unmarked stores never bump, wherever they land.
        b.write_u32(0x100, 1).unwrap();
        assert_eq!(b.code_generation(), 0);
        // Mark the line holding 0x100; a store to any byte of it bumps.
        b.mark_code(0x100);
        b.write_u8(0x100 + CODE_LINE_BYTES - 1, 2).unwrap();
        assert_eq!(b.code_generation(), 1);
        // Stores to adjacent lines are invisible.
        b.write_u32(0x100 + CODE_LINE_BYTES, 3).unwrap();
        assert_eq!(b.code_generation(), 1);
        // Clearing marks stops the bumping.
        b.clear_code_marks();
        b.write_u32(0x100, 4).unwrap();
        assert_eq!(b.code_generation(), 1);
        // MMIO writes never touch the counter.
        b.mark_code(0x100);
        b.write_u32(MMIO_BASE, 5).unwrap();
        assert_eq!(b.code_generation(), 1);
    }

    #[test]
    fn snapshot_restore_roundtrips_ram_and_marks() {
        let mut b = Bus::new(4096);
        b.write_u32(0x10, 0xAAAA).unwrap();
        b.mark_code(0x40);
        b.write_u32(0x40, 1).unwrap(); // bumps generation to 1
        let snap = b.snapshot();
        let generation = b.code_generation();
        // Diverge: overwrite RAM, clear marks, bump generation again.
        b.write_u32(0x10, 0xBBBB).unwrap();
        b.mark_code(0x80);
        b.write_u32(0x80, 2).unwrap();
        assert_ne!(b.code_generation(), generation);
        b.restore(&snap);
        assert_eq!(b.read_u32(0x10), Ok(0xAAAA));
        assert_eq!(b.code_generation(), generation);
        // The restored mark set is the snapshot's: 0x40 is marked (store
        // bumps), 0x80 is not (store is invisible).
        b.write_u32(0x80, 3).unwrap();
        assert_eq!(b.code_generation(), generation);
        b.write_u32(0x40, 4).unwrap();
        assert_eq!(b.code_generation(), generation + 1);
    }

    #[test]
    fn generation_wraps_instead_of_overflowing() {
        let mut b = Bus::new(4096);
        b.force_code_generation(u64::MAX);
        b.mark_code(0x0);
        b.write_u32(0x0, 1).unwrap();
        assert_eq!(b.code_generation(), 0, "wrapped, not panicked");
    }

    #[test]
    #[should_panic(expected = "RAM size mismatch")]
    fn restore_rejects_mismatched_geometry() {
        let small = Bus::new(2048);
        let mut big = Bus::new(4096);
        big.restore(&small.snapshot());
    }

    #[test]
    #[should_panic(expected = "device \"scratch\" attached")]
    fn snapshot_refuses_attached_devices() {
        let _ = bus().snapshot();
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_windows_rejected() {
        let mut b = bus();
        b.attach(
            MMIO_BASE + 0x80,
            0x100,
            Box::new(Scratch {
                value: 0,
                irq: false,
            }),
        );
    }
}
