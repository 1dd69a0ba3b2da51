//! A tiny mutex wrapper over [`std::sync::Mutex`] whose `lock()`
//! returns the guard directly.
//!
//! The simulator has no meaningful poison story — a panicked thread
//! means the run is already dead — so propagating `PoisonError` through
//! every device, the trace ring and test adds noise without safety.
//! This keeps the ergonomic `handle.lock().push(..)` shape at every
//! call site.

use std::sync::MutexGuard;

/// A mutual-exclusion primitive; `lock()` never fails.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wraps `value`.
    pub fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, ignoring poison (the protected data is plain
    /// statistics/buffers with no invariants a panic could break).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_returns_guard_directly() {
        let m = Mutex::new(vec![1u8]);
        m.lock().push(2);
        assert_eq!(*m.lock(), vec![1, 2]);
    }

    #[test]
    fn survives_poison() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison it");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}
