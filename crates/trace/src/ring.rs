//! A fixed-capacity ring buffer of trace events.
//!
//! When full, the oldest events are overwritten and counted in
//! `dropped`, so a long run keeps the most recent window instead of
//! growing without bound or silently truncating the interesting tail.

use crate::event::Event;

/// Fixed-capacity event storage with overwrite-oldest semantics.
#[derive(Debug)]
pub struct Ring {
    buf: Vec<Event>,
    capacity: usize,
    /// Index of the oldest event once the buffer has wrapped.
    head: usize,
    dropped: u64,
}

impl Ring {
    /// Creates an empty ring holding at most `capacity` events
    /// (a zero capacity is bumped to one).
    #[must_use]
    pub fn new(capacity: usize) -> Ring {
        Ring {
            buf: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&mut self, event: Event) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of events evicted by overwrite.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events, newest first.
    pub(crate) fn newest_first(&self) -> impl Iterator<Item = &Event> {
        // Once wrapped, the slots before `head` hold the newest events.
        let (newer, older) = self.buf.split_at(self.head);
        newer.iter().rev().chain(older.iter().rev())
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn to_vec(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn marker(cycle: u64) -> Event {
        Event {
            cycle,
            kind: EventKind::Marker {
                name: "t",
                value: cycle,
            },
        }
    }

    #[test]
    fn keeps_everything_under_capacity() {
        let mut ring = Ring::new(4);
        for c in 0..3 {
            ring.push(marker(c));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 0);
        let cycles: Vec<u64> = ring.to_vec().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2]);
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let mut ring = Ring::new(4);
        for c in 0..10 {
            ring.push(marker(c));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        let cycles: Vec<u64> = ring.to_vec().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
    }
}
