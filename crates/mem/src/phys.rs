//! Flat physical memory.

use crate::{MemError, PAGE_SHIFT, PAGE_SIZE};

/// Byte-addressable physical RAM starting at address 0.
///
/// All accesses are bounds-checked; word and half-word accesses must be
/// naturally aligned (the pipeline raises a misaligned-access exception
/// on [`MemError::Misaligned`]).
///
/// Every write marks its 4 KiB page as touched, and a page that is not
/// marked holds only zeros. Snapshot, restore and digest walk the
/// marked pages ([`PhysMemory::pages`], [`crate::Bus::restore`]), so
/// they cost what a program wrote, not the size of RAM.
pub struct PhysMemory {
    data: Vec<u8>,
    /// One byte per page: 1 if the page may hold a nonzero byte.
    touched: Vec<u8>,
}

impl PhysMemory {
    /// Allocates `size` bytes of zeroed RAM. The host zeroes a page on
    /// its first write, so construction does not cost the size of RAM.
    #[must_use]
    pub fn new(size: usize) -> PhysMemory {
        PhysMemory {
            data: vec![0; size],
            touched: vec![0; size.div_ceil(PAGE_SIZE as usize)],
        }
    }

    /// Total size in bytes.
    #[must_use]
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// True if `addr..addr+len` lies within RAM.
    #[must_use]
    pub fn contains(&self, addr: u32, len: u32) -> bool {
        (addr as u64 + len as u64) <= self.data.len() as u64
    }

    fn check(&self, addr: u32, len: u32) -> Result<usize, MemError> {
        if !self.contains(addr, len) {
            return Err(MemError::OutOfBounds { addr });
        }
        if !addr.is_multiple_of(len) {
            return Err(MemError::Misaligned { addr });
        }
        Ok(addr as usize)
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> Result<u8, MemError> {
        let i = self.check(addr, 1)?;
        Ok(self.data[i])
    }

    /// Reads a little-endian half-word.
    pub fn read_u16(&self, addr: u32) -> Result<u16, MemError> {
        let i = self.check(addr, 2)?;
        Ok(u16::from_le_bytes([self.data[i], self.data[i + 1]]))
    }

    /// Reads a little-endian word.
    pub fn read_u32(&self, addr: u32) -> Result<u32, MemError> {
        let i = self.check(addr, 4)?;
        Ok(u32::from_le_bytes([
            self.data[i],
            self.data[i + 1],
            self.data[i + 2],
            self.data[i + 3],
        ]))
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), MemError> {
        let i = self.check(addr, 1)?;
        self.data[i] = value;
        self.touched[i >> PAGE_SHIFT] = 1;
        Ok(())
    }

    /// Writes a little-endian half-word.
    pub fn write_u16(&mut self, addr: u32, value: u16) -> Result<(), MemError> {
        let i = self.check(addr, 2)?;
        self.data[i..i + 2].copy_from_slice(&value.to_le_bytes());
        self.touched[i >> PAGE_SHIFT] = 1;
        Ok(())
    }

    /// Writes a little-endian word.
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        let i = self.check(addr, 4)?;
        self.data[i..i + 4].copy_from_slice(&value.to_le_bytes());
        self.touched[i >> PAGE_SHIFT] = 1;
        Ok(())
    }

    /// Copies a byte slice into RAM (program loading).
    pub fn load(&mut self, addr: u32, bytes: &[u8]) -> Result<(), MemError> {
        if !self.contains(addr, bytes.len() as u32) {
            return Err(MemError::OutOfBounds { addr });
        }
        let (i, end) = (addr as usize, addr as usize + bytes.len());
        self.data[i..end].copy_from_slice(bytes);
        if i < end {
            self.touched[i >> PAGE_SHIFT..=(end - 1) >> PAGE_SHIFT].fill(1);
        }
        Ok(())
    }

    /// The pages that hold a nonzero byte, as `(page index, bytes)` in
    /// index order. Only touched pages are read; the last page is short
    /// when the size is not a multiple of [`PAGE_SIZE`].
    pub fn pages(&self) -> impl Iterator<Item = (usize, &[u8])> {
        self.data
            .chunks(PAGE_SIZE as usize)
            .enumerate()
            .zip(&self.touched)
            .filter(|&((_, page), &touched)| touched != 0 && page.iter().any(|&b| b != 0))
            .map(|(page, _)| page)
    }

    /// Zeroes every touched page and clears the marks: all of RAM reads
    /// zero again, at the cost of the pages written since the last clear.
    pub(crate) fn clear(&mut self) {
        let pages = self.data.chunks_mut(PAGE_SIZE as usize);
        for (page, touched) in pages.zip(&mut self.touched) {
            if *touched != 0 {
                page.fill(0);
                *touched = 0;
            }
        }
    }

    /// Reads a byte slice out of RAM.
    pub fn dump(&self, addr: u32, len: u32) -> Result<&[u8], MemError> {
        if !self.contains(addr, len) {
            return Err(MemError::OutOfBounds { addr });
        }
        Ok(&self.data[addr as usize..(addr + len) as usize])
    }
}

impl std::fmt::Debug for PhysMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PhysMemory({} bytes)", self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_widths() {
        let mut m = PhysMemory::new(64);
        m.write_u32(0, 0x1122_3344).unwrap();
        assert_eq!(m.read_u32(0), Ok(0x1122_3344));
        assert_eq!(m.read_u16(0), Ok(0x3344));
        assert_eq!(m.read_u16(2), Ok(0x1122));
        assert_eq!(m.read_u8(3), Ok(0x11));
        m.write_u8(1, 0xAB).unwrap();
        assert_eq!(m.read_u32(0), Ok(0x1122_AB44));
        m.write_u16(2, 0xCDEF).unwrap();
        assert_eq!(m.read_u32(0), Ok(0xCDEF_AB44));
    }

    #[test]
    fn bounds_checked() {
        let mut m = PhysMemory::new(8);
        assert_eq!(m.read_u32(8), Err(MemError::OutOfBounds { addr: 8 }));
        assert_eq!(m.read_u32(6), Err(MemError::OutOfBounds { addr: 6 }));
        assert_eq!(
            m.write_u32(0xFFFF_FFFC, 0),
            Err(MemError::OutOfBounds { addr: 0xFFFF_FFFC })
        );
        assert!(m.read_u8(7).is_ok());
    }

    #[test]
    fn alignment_checked() {
        let m = PhysMemory::new(16);
        assert_eq!(m.read_u32(2), Err(MemError::Misaligned { addr: 2 }));
        assert_eq!(m.read_u16(1), Err(MemError::Misaligned { addr: 1 }));
        assert!(m.read_u8(1).is_ok());
    }

    #[test]
    fn load_and_dump() {
        let mut m = PhysMemory::new(16);
        m.load(4, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.dump(4, 4).unwrap(), &[1, 2, 3, 4]);
        assert!(m.load(14, &[0; 4]).is_err());
    }
}
