//! The deterministic case runner behind the `mfuzz` and `mfault`
//! campaigns. A case's result may depend only on its global index
//! (worker state only caches, e.g. reusable machines), so results
//! merged in index order do not depend on how many workers ran them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Runs cases `0, 1, 2, ...` on `min(jobs, cases)` workers until
/// `cases` have run or `deadline` has passed (callers set at least
/// one). There is always a worker on the calling thread, so a failed
/// spawn only means fewer workers. Each worker builds its state once
/// with `init` and takes indices from one shared counter, so its own
/// indices increase. It checks the deadline before taking an index and
/// runs every index it takes, so the cases that ran are a prefix
/// `0..k`. Returns the workers' states (in no particular order) and,
/// in index order, the results of the cases that returned one; a case
/// with nothing to merge returns `None` and costs no memory.
pub fn run<S, R, I, F>(
    jobs: usize,
    cases: Option<u64>,
    deadline: Option<Instant>,
    init: I,
    case: F,
) -> (Vec<S>, Vec<R>)
where
    S: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, u64) -> Option<R> + Sync,
{
    let workers = cases
        .map_or(jobs, |n| jobs.min(usize::try_from(n).unwrap_or(usize::MAX)))
        .max(1);
    let next = AtomicU64::new(0);
    let work = || {
        let mut state = init();
        let mut done = Vec::new();
        loop {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            // Relaxed: the counter publishes no data; results reach the
            // caller through the join.
            let index = next.fetch_add(1, Ordering::Relaxed);
            if cases.is_some_and(|n| index >= n) {
                break;
            }
            if let Some(result) = case(&mut state, index) {
                done.push((index, result));
            }
        }
        (state, done)
    };
    let finished = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers)
            .map_while(|_| std::thread::Builder::new().spawn_scoped(scope, work).ok())
            .collect();
        let mut finished = vec![work()];
        finished.extend(
            spawned
                .into_iter()
                .map(|h| h.join().expect("campaign worker panicked")),
        );
        finished
    });
    let (states, done): (Vec<S>, Vec<_>) = finished.into_iter().unzip();
    let mut results: Vec<(u64, R)> = done.into_iter().flatten().collect();
    results.sort_unstable_by_key(|&(index, _)| index);
    (states, results.into_iter().map(|(_, r)| r).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_index_order_for_any_jobs() {
        let expect: Vec<u64> = (0..100).filter(|i| i % 3 != 1).collect();
        for jobs in [1, 2, 3, 8] {
            let (states, results) = run(
                jobs,
                Some(100),
                None,
                || 0u64,
                |seen, i| {
                    *seen += 1;
                    (i % 3 != 1).then_some(i)
                },
            );
            assert_eq!(states.len(), jobs, "one state per worker");
            assert_eq!(states.iter().sum::<u64>(), 100, "every case ran once");
            assert_eq!(results, expect, "None results are dropped");
        }
    }

    #[test]
    fn workers_never_outnumber_cases() {
        let (states, results) = run(50_000, Some(4), None, || (), |(), i| Some(i));
        assert_eq!(states.len(), 4);
        assert_eq!(results, vec![0, 1, 2, 3]);
        let (states, results) = run(8, Some(0), None, || (), |(), i| Some(i));
        assert_eq!(states.len(), 1, "one worker even with nothing to run");
        assert!(results.is_empty());
    }

    #[test]
    fn deadline_cuts_off_a_prefix() {
        let (_, results) = run(2, None, Some(Instant::now()), || (), |(), i| Some(i));
        assert!(results.is_empty(), "a passed deadline runs nothing");
        let deadline = Instant::now() + Duration::from_millis(20);
        let (_, results) = run(
            2,
            None,
            Some(deadline),
            || (),
            |(), i| {
                std::thread::sleep(Duration::from_millis(1));
                Some(i)
            },
        );
        assert!(!results.is_empty());
        assert_eq!(results, (0..results.len() as u64).collect::<Vec<_>>());
    }
}
