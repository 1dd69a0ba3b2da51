//! metal-trace: structured observability for the Metal simulator.
//!
//! Three pieces:
//!
//! 1. **Event tracing** — a [`TraceHandle`] that every layer of the
//!    simulator (bus, TLB, pipeline, Metal extension) can clone and emit
//!    typed [`Event`]s into. Events land in a fixed-capacity ring
//!    buffer; a disabled handle is a `None` and costs one branch per
//!    emission site, so tracing never perturbs timing when off.
//! 2. **Chrome export** — [`TraceHandle::export_chrome`] turns the ring into a
//!    `chrome://tracing` / Perfetto-loadable JSON document, with
//!    mroutine transitions as a flame graph.
//! 3. **Metrics** — [`MetricsSnapshot`] unifies the pipeline's perf
//!    counters, the cache/TLB statistics, and Metal's per-mroutine
//!    transition latencies into one JSON-serializable document.
//!
//! The crate depends only on `metal-util`; events are plain data so the
//! memory system can emit them without a dependency cycle through the
//! pipeline.

pub(crate) mod chrome;
pub(crate) mod event;
pub(crate) mod metrics;
pub(crate) mod ring;

pub use event::{
    CacheKind, Event, EventKind, FaultSite, RecoveryAction, StallKind, TlbOutcome, TransitionCause,
};
pub use metrics::{Histogram, Metric, MetricsSnapshot, TransitionSlot, TransitionTable};
pub use ring::Ring;

use metal_util::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How much to record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Detail {
    /// Transitions, stalls, flushes, traps, interrupts — the events
    /// whose volume is bounded by control flow.
    Transitions,
    /// Everything, including per-access cache/TLB/MRAM/retire events.
    #[default]
    Full,
}

/// Tracer configuration.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Ring capacity in events.
    pub capacity: usize,
    /// Recording granularity.
    pub detail: Detail,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            capacity: 1 << 20,
            detail: Detail::Full,
        }
    }
}

/// The enabled-tracer recording path, deliberately out of line.
#[cold]
#[inline(never)]
fn record(shared: &Shared, cycle: u64, kind: EventKind) {
    if shared.detail == Detail::Transitions && kind.is_fine_grained() {
        return;
    }
    shared.ring.lock().push(Event { cycle, kind });
}

struct Shared {
    /// Current simulation cycle, published by the pipeline once per
    /// tick so emitters below the pipeline (bus, TLB) can timestamp
    /// events without threading the cycle through every call.
    now: AtomicU64,
    detail: Detail,
    ring: Mutex<Ring>,
}

/// A cloneable handle to a tracer, or a no-op when disabled.
///
/// The handle is `Send + Sync` (atomics + a mutex around the ring), so
/// cores stay movable across threads. The hot-path contract: when
/// disabled, [`TraceHandle::emit`] is a single `Option` check.
#[derive(Clone, Default)]
pub struct TraceHandle(Option<Arc<Shared>>);

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => write!(f, "TraceHandle(disabled)"),
            Some(shared) => write!(
                f,
                "TraceHandle(enabled, {} events)",
                shared.ring.lock().len()
            ),
        }
    }
}

impl TraceHandle {
    /// A handle that records nothing.
    #[must_use]
    pub fn disabled() -> TraceHandle {
        TraceHandle(None)
    }

    /// A handle that records into a fresh ring.
    #[must_use]
    pub fn enabled(config: TraceConfig) -> TraceHandle {
        TraceHandle(Some(Arc::new(Shared {
            now: AtomicU64::new(0),
            detail: config.detail,
            ring: Mutex::new(Ring::new(config.capacity)),
        })))
    }

    /// Publishes the current cycle (called by the pipeline each tick).
    #[inline]
    pub fn set_now(&self, cycle: u64) {
        if let Some(shared) = &self.0 {
            shared.now.store(cycle, Ordering::Relaxed);
        }
    }

    /// The last published cycle (0 until the first tick).
    #[must_use]
    pub fn now(&self) -> u64 {
        match &self.0 {
            Some(shared) => shared.now.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Records `kind` at the current cycle. No-op when disabled; when
    /// the ring is full the oldest event is evicted.
    ///
    /// The recording path is kept out of line (`#[cold]`) so the
    /// dozens of inlined emission sites in the simulator's hot loops
    /// cost only a null check when tracing is off.
    #[inline]
    pub fn emit(&self, kind: EventKind) {
        if let Some(shared) = &self.0 {
            record(shared, shared.now.load(Ordering::Relaxed), kind);
        }
    }

    /// A snapshot of the retained events, oldest first. Empty when
    /// disabled.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        match &self.0 {
            Some(shared) => shared.ring.lock().to_vec(),
            None => Vec::new(),
        }
    }

    /// The retained events stamped at `cycle` or later, oldest first.
    /// Costs the events returned, not the ring: it reads back from the
    /// newest (e.g. one cycle's events, with `cycle` the current one).
    #[must_use]
    pub fn events_since(&self, cycle: u64) -> Vec<Event> {
        let Some(shared) = &self.0 else {
            return Vec::new();
        };
        let ring = shared.ring.lock();
        let mut out: Vec<Event> = ring
            .newest_first()
            .take_while(|e| e.cycle >= cycle)
            .copied()
            .collect();
        out.reverse();
        out
    }

    /// Events evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        match &self.0 {
            Some(shared) => shared.ring.lock().dropped(),
            None => 0,
        }
    }

    /// Exports the retained events as a Chrome trace-event JSON
    /// document.
    #[must_use]
    pub fn export_chrome(&self) -> String {
        chrome::export(&self.events(), self.dropped())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = TraceHandle::disabled();
        assert!(t.0.is_none(), "a disabled handle has no ring");
        t.set_now(99);
        t.emit(EventKind::Flush { target: 4 });
        assert_eq!(t.now(), 0);
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn clones_share_one_ring() {
        let t = TraceHandle::enabled(TraceConfig::default());
        let u = t.clone();
        t.set_now(10);
        u.emit(EventKind::Flush { target: 8 });
        t.emit(EventKind::Retire { pc: 0 });
        let events = t.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].cycle, 10);
    }

    #[test]
    fn transitions_detail_drops_fine_grained() {
        let t = TraceHandle::enabled(TraceConfig {
            capacity: 16,
            detail: Detail::Transitions,
        });
        t.emit(EventKind::Retire { pc: 0 });
        t.emit(EventKind::TlbLookup {
            va: 0,
            outcome: TlbOutcome::Hit,
        });
        t.emit(EventKind::MEnter {
            entry: 1,
            cause: TransitionCause::Call,
            pc: 0,
        });
        let events = t.events();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0].kind, EventKind::MEnter { .. }));
    }

    #[test]
    fn ring_capacity_is_respected_via_handle() {
        let t = TraceHandle::enabled(TraceConfig {
            capacity: 4,
            detail: Detail::Full,
        });
        for i in 0..10 {
            t.set_now(i);
            t.emit(EventKind::Retire { pc: i as u32 });
        }
        assert_eq!(t.events().len(), 4);
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.events()[0].cycle, 6);
    }

    #[test]
    fn events_since_reads_the_newest_cycles_across_the_wrap() {
        let t = TraceHandle::enabled(TraceConfig {
            capacity: 5,
            detail: Detail::Full,
        });
        assert!(t.events_since(0).is_empty());
        for i in 0..7u32 {
            t.set_now(u64::from(i / 2));
            t.emit(EventKind::Retire { pc: i });
        }
        // The ring holds pcs 2..=6 at cycles 1, 1, 2, 2, 3, its oldest
        // slot no longer at index 0.
        let pcs = |cycle| -> Vec<u32> {
            t.events_since(cycle)
                .iter()
                .map(|e| match e.kind {
                    EventKind::Retire { pc } => pc,
                    _ => unreachable!(),
                })
                .collect()
        };
        assert_eq!(pcs(3), [6]);
        assert_eq!(pcs(2), [4, 5, 6]);
        assert_eq!(pcs(0), [2, 3, 4, 5, 6]);
        assert!(pcs(4).is_empty());
        assert!(TraceHandle::disabled().events_since(0).is_empty());
    }

    #[test]
    fn export_of_empty_handle_parses() {
        let t = TraceHandle::enabled(TraceConfig::default());
        let doc = metal_util::Json::parse(&t.export_chrome()).unwrap();
        assert!(doc.get("traceEvents").is_some());
    }
}
