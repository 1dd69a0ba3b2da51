//! A DPDK/SPDK-style packet device.
//!
//! The paper motivates user-level interrupts with kernel-bypass libraries
//! that currently *poll* NICs from userspace, burning whole cores
//! (§3.4). This device simulates that hardware: the host schedules packet
//! arrivals at future cycles; the device raises its IRQ while packets are
//! queued; the guest reads length/data words and acknowledges. Both
//! polling and interrupt-driven guests exercise the same registers, so
//! experiment E5 can compare delivery latency and CPU occupancy.

use crate::bus::Device;
use crate::devices::map::NIC_IRQ;
use crate::MemError;
use metal_util::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

const REG_STATUS: u32 = 0x0;
const REG_LEN: u32 = 0x4;
const REG_DATA: u32 = 0x8;
const REG_ACK: u32 = 0xC;
const REG_RX_COUNT: u32 = 0x10;
const REG_ARRIVAL_LO: u32 = 0x14;
const REG_ARRIVAL_HI: u32 = 0x18;

/// A packet scheduled for delivery.
#[derive(Clone, Debug)]
struct Scheduled {
    arrival: u64,
    data: Vec<u8>,
}

/// A received-but-unacknowledged packet.
#[derive(Clone, Debug)]
struct Queued {
    arrival: u64,
    data: Vec<u8>,
    read_pos: usize,
}

#[derive(Debug, Default)]
struct Shared {
    /// Future arrivals, sorted by cycle.
    schedule: VecDeque<Scheduled>,
    /// Completed deliveries: (arrival cycle, ack cycle).
    completions: Vec<(u64, u64)>,
}

/// Host-side handle: schedule packets and collect latency statistics.
#[derive(Clone)]
pub struct NicHandle {
    shared: Arc<Mutex<Shared>>,
}

impl NicHandle {
    /// Schedules a packet to arrive at an absolute cycle. Arrivals must
    /// be pushed in non-decreasing cycle order.
    ///
    /// # Panics
    ///
    /// Panics if `arrival` is earlier than a previously scheduled packet.
    pub fn schedule(&self, arrival: u64, data: impl Into<Vec<u8>>) {
        let mut shared = self.shared.lock();
        if let Some(last) = shared.schedule.back() {
            assert!(
                arrival >= last.arrival,
                "arrivals must be scheduled in order"
            );
        }
        shared.schedule.push_back(Scheduled {
            arrival,
            data: data.into(),
        });
    }

    /// Drains the completion log: `(arrival cycle, ack cycle)` pairs.
    #[must_use]
    pub fn take_completions(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.shared.lock().completions)
    }
}

/// The packet device.
pub struct Nic {
    shared: Arc<Mutex<Shared>>,
    queue: VecDeque<Queued>,
    rx_count: u32,
    now: u64,
}

impl Nic {
    /// Creates the device and its host-side handle.
    #[must_use]
    pub fn new() -> (Nic, NicHandle) {
        let shared = Arc::new(Mutex::new(Shared::default()));
        (
            Nic {
                shared: Arc::clone(&shared),
                queue: VecDeque::new(),
                rx_count: 0,
                now: 0,
            },
            NicHandle { shared },
        )
    }

    fn head(&self) -> Option<&Queued> {
        self.queue.front()
    }
}

impl Device for Nic {
    fn name(&self) -> &'static str {
        "nic"
    }

    fn irq_line(&self) -> Option<u8> {
        Some(NIC_IRQ)
    }

    fn read(&mut self, offset: u32) -> Result<u32, MemError> {
        match offset {
            REG_STATUS => Ok(u32::from(!self.queue.is_empty())),
            REG_LEN => Ok(self.head().map_or(0, |p| p.data.len() as u32)),
            REG_DATA => {
                let Some(head) = self.queue.front_mut() else {
                    return Ok(0);
                };
                let mut word = [0u8; 4];
                for (i, byte) in word.iter_mut().enumerate() {
                    if let Some(&b) = head.data.get(head.read_pos + i) {
                        *byte = b;
                    }
                }
                head.read_pos += 4;
                Ok(u32::from_le_bytes(word))
            }
            REG_RX_COUNT => Ok(self.rx_count),
            REG_ARRIVAL_LO => Ok(self.head().map_or(0, |p| p.arrival as u32)),
            REG_ARRIVAL_HI => Ok(self.head().map_or(0, |p| (p.arrival >> 32) as u32)),
            _ => Err(MemError::Device { addr: offset }),
        }
    }

    fn write(&mut self, offset: u32, value: u32) -> Result<(), MemError> {
        match offset {
            REG_ACK => {
                if value & 1 != 0 {
                    if let Some(head) = self.queue.pop_front() {
                        self.shared
                            .lock()
                            .completions
                            .push((head.arrival, self.now));
                    }
                }
                Ok(())
            }
            _ => Err(MemError::Device { addr: offset }),
        }
    }

    fn tick(&mut self, cycle: u64) {
        self.now = cycle;
        let mut shared = self.shared.lock();
        while shared.schedule.front().is_some_and(|p| p.arrival <= cycle) {
            let p = shared.schedule.pop_front().expect("checked non-empty");
            self.queue.push_back(Queued {
                arrival: p.arrival,
                data: p.data,
                read_pos: 0,
            });
            self.rx_count = self.rx_count.wrapping_add(1);
        }
    }

    fn irq_pending(&self) -> bool {
        !self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_and_ack() {
        let (mut nic, handle) = Nic::new();
        handle.schedule(100, &b"\x01\x02\x03\x04\x05"[..]);
        nic.tick(50);
        assert_eq!(nic.read(REG_STATUS), Ok(0));
        assert!(!nic.irq_pending());
        nic.tick(100);
        assert!(nic.irq_pending());
        assert_eq!(nic.read(REG_LEN), Ok(5));
        assert_eq!(nic.read(REG_DATA), Ok(0x0403_0201));
        assert_eq!(nic.read(REG_DATA), Ok(0x0000_0005));
        nic.tick(120);
        nic.write(REG_ACK, 1).unwrap();
        assert!(!nic.irq_pending());
        assert_eq!(handle.take_completions(), vec![(100, 120)]);
    }

    #[test]
    fn multiple_packets_queue() {
        let (mut nic, handle) = Nic::new();
        handle.schedule(10, &b"a"[..]);
        handle.schedule(20, &b"bc"[..]);
        nic.tick(25);
        assert_eq!(nic.read(REG_RX_COUNT), Ok(2));
        assert_eq!(nic.read(REG_LEN), Ok(1));
        nic.write(REG_ACK, 1).unwrap();
        assert_eq!(nic.read(REG_LEN), Ok(2));
        assert!(nic.irq_pending());
        nic.write(REG_ACK, 1).unwrap();
        assert!(!nic.irq_pending());
    }

    #[test]
    fn arrival_cycle_readable() {
        let (mut nic, handle) = Nic::new();
        handle.schedule(0x1_0000_0005, &b"x"[..]);
        nic.tick(0x1_0000_0005);
        assert_eq!(nic.read(REG_ARRIVAL_LO), Ok(5));
        assert_eq!(nic.read(REG_ARRIVAL_HI), Ok(1));
    }

    #[test]
    #[should_panic(expected = "scheduled in order")]
    fn out_of_order_schedule_rejected() {
        let (_nic, handle) = Nic::new();
        handle.schedule(100, &b"a"[..]);
        handle.schedule(50, &b"b"[..]);
    }

    #[test]
    fn ack_empty_queue_is_noop() {
        let (mut nic, handle) = Nic::new();
        nic.write(REG_ACK, 1).unwrap();
        assert!(handle.take_completions().is_empty());
    }
}
