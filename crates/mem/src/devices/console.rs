//! A write-only MMIO console.

use crate::bus::Device;
use crate::MemError;
use metal_util::Mutex;
use std::sync::Arc;

/// Register offsets.
const REG_TX: u32 = 0x0;
const REG_STATUS: u32 = 0x4;

/// A console device: bytes written to `TX` accumulate in a host-visible
/// buffer.
pub struct Console {
    buffer: Arc<Mutex<Vec<u8>>>,
}

impl Console {
    /// Creates the console and a handle to its output buffer.
    #[must_use]
    pub fn new() -> (Console, Arc<Mutex<Vec<u8>>>) {
        let buffer = Arc::new(Mutex::new(Vec::new()));
        (
            Console {
                buffer: Arc::clone(&buffer),
            },
            buffer,
        )
    }
}

impl Device for Console {
    fn name(&self) -> &'static str {
        "console"
    }

    fn irq_line(&self) -> Option<u8> {
        None
    }

    fn read(&mut self, offset: u32) -> Result<u32, MemError> {
        match offset {
            // TX reads as 0; STATUS is always "ready".
            REG_TX => Ok(0),
            REG_STATUS => Ok(1),
            _ => Err(MemError::Device { addr: offset }),
        }
    }

    fn write(&mut self, offset: u32, value: u32) -> Result<(), MemError> {
        match offset {
            REG_TX => {
                self.buffer.lock().push(value as u8);
                Ok(())
            }
            _ => Err(MemError::Device { addr: offset }),
        }
    }

    fn tick(&mut self, _cycle: u64) {}

    fn irq_pending(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_bytes() {
        let (mut console, out) = Console::new();
        for b in b"hi!" {
            console.write(REG_TX, u32::from(*b)).unwrap();
        }
        assert_eq!(out.lock().as_slice(), b"hi!");
        assert_eq!(console.read(REG_STATUS), Ok(1));
    }

    #[test]
    fn bad_register_rejected() {
        let (mut console, _) = Console::new();
        assert!(console.read(0x40).is_err());
        assert!(console.write(0x40, 0).is_err());
    }
}
