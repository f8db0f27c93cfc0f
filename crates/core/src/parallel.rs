//! Std-only work-stealing thread pool for the characterization pipeline.
//!
//! The runtime has no external dependencies: [`parallel_map`] is built on
//! [`std::thread::scope`] plus an atomic work counter, so idle workers
//! steal the next index as soon as they finish one — a chunked
//! work-stealing schedule without any channel or queue machinery.
//!
//! Determinism contract: the *schedule* (which worker runs which index,
//! and in what wall-clock order) is nondeterministic, but results are
//! always reassembled in index order, so any computation whose items are
//! independent produces output bit-identical to a serial loop. Every
//! parallel path in the pipeline (workload fan-out in
//! [`Study::run_threads`](crate::study::Study::run_threads), the E14
//! scenario fan-out in [`pairs`](crate::pairs)) is built on this
//! property, and `tests/determinism.rs` verifies it end to end.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

use gwc_obs::recorder::PoolWorker;
use gwc_obs::span::Inherited;

/// Threads to use by default: the machine's available parallelism, or 1
/// if that cannot be determined.
pub fn available_threads() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `f` to every index in `0..n` on up to `threads` worker
/// threads and returns the results in index order.
///
/// Workers pull indices from a shared atomic counter (work stealing), so
/// uneven item costs balance automatically. With `threads <= 1` (or a
/// single item) this is exactly a serial loop on the calling thread.
///
/// Equivalent to [`parallel_map_named`] with the pool name `"pool"`.
///
/// # Panics
///
/// Propagates a panic from `f` (the first panicking worker observed).
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_named("pool", n, threads, f)
}

/// [`parallel_map`] with a pool name for observability: when a recorder
/// is installed (see `gwc-obs`), every worker reports its task count,
/// steal count (tasks claimed beyond an even `n / workers` share), busy
/// time, and wall time under this name, and each task's duration lands
/// in the `pool.task_ns.{name}` latency histogram. Workers also enter
/// the caller's open spans, so a task's spans get the paths the serial
/// loop would give them, at any thread count. With no recorder
/// installed the per-task clock reads and the span hand-over are
/// skipped entirely and the schedule is unchanged — results are
/// bit-identical either way.
///
/// # Panics
///
/// Propagates a panic from `f` (the first panicking worker observed).
pub fn parallel_map_named<T, F>(pool: &str, n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let rec = gwc_obs::recorder();
    let workers = threads.min(n);
    if workers <= 1 {
        let Some(rec) = rec else {
            return (0..n).map(f).collect();
        };
        let task_hist = format!("pool.task_ns.{pool}");
        let wall = Instant::now();
        let mut busy_ns = 0u64;
        let out = (0..n)
            .map(|i| {
                let t0 = Instant::now();
                let v = f(i);
                let task_ns = t0.elapsed().as_nanos() as u64;
                busy_ns += task_ns;
                rec.record_hist(&task_hist, task_ns);
                v
            })
            .collect();
        rec.record_pool_worker(
            pool,
            0,
            &PoolWorker {
                tasks: n as u64,
                steals: 0,
                busy_ns,
                wall_ns: wall.elapsed().as_nanos() as u64,
            },
        );
        return out;
    }
    // `Option<&MetricsRecorder>` is `Copy`, so each worker closure can
    // take its own copy without touching the `Arc`.
    let rec = rec.as_deref();
    let parent = &Inherited::capture();
    let fair_share = (n / workers) as u64;
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    thread::scope(|scope| {
        let next = &next;
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let _entered = parent.enter();
                    let task_hist = rec.map(|_| format!("pool.task_ns.{pool}"));
                    let wall = Instant::now();
                    let mut busy_ns = 0u64;
                    let mut produced = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let t0 = rec.map(|_| Instant::now());
                        produced.push((i, f(i)));
                        if let (Some(t0), Some(rec)) = (t0, rec) {
                            let task_ns = t0.elapsed().as_nanos() as u64;
                            busy_ns += task_ns;
                            rec.record_hist(
                                task_hist.as_deref().unwrap_or("pool.task_ns"),
                                task_ns,
                            );
                        }
                    }
                    if let Some(rec) = rec {
                        let tasks = produced.len() as u64;
                        rec.record_pool_worker(
                            pool,
                            w,
                            &PoolWorker {
                                tasks,
                                steals: tasks.saturating_sub(fair_share),
                                busy_ns,
                                wall_ns: wall.elapsed().as_nanos() as u64,
                            },
                        );
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            for (i, value) in handle.join().expect("worker panicked") {
                slots[i] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|v| v.expect("every index produced exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order() {
        for threads in [1, 2, 3, 8, 64] {
            let got = parallel_map(100, threads, |i| i * i);
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "at {threads} threads");
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        parallel_map(hits.len(), 7, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(parallel_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, 4, |i| i + 41), vec![41]);
    }

    #[test]
    fn uneven_work_balances() {
        // Items with wildly different costs still land in order.
        let got = parallel_map(32, 4, |i| {
            let spin = if i % 7 == 0 { 20_000 } else { 10 };
            let mut acc = i as u64;
            for _ in 0..spin {
                acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            }
            (i, acc)
        });
        for (i, (idx, _)) in got.iter().enumerate() {
            assert_eq!(i, *idx);
        }
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn named_pool_reports_per_worker_stats() {
        use gwc_obs::metrics::MetricsRecorder;
        use std::sync::Arc;

        let rec = Arc::new(MetricsRecorder::default());
        let guard = gwc_obs::install(rec.clone());
        let got = parallel_map_named("pool-stats-probe", 64, 4, |i| i);
        drop(guard);
        assert_eq!(got, (0..64).collect::<Vec<_>>());
        let snap = rec.snapshot();
        let workers = snap
            .pools
            .iter()
            .find(|(name, _)| name == "pool-stats-probe")
            .map(|(_, w)| w)
            .expect("pool recorded");
        assert!(!workers.is_empty() && workers.len() <= 4);
        let tasks: u64 = workers.iter().map(|(_, s)| s.tasks).sum();
        assert_eq!(tasks, 64, "every task attributed to exactly one worker");
        for (_, s) in workers {
            assert!(s.wall_ns >= s.busy_ns, "busy time bounded by wall time");
        }
    }

    #[test]
    fn serial_named_pool_records_single_worker() {
        use gwc_obs::metrics::MetricsRecorder;
        use std::sync::Arc;

        let rec = Arc::new(MetricsRecorder::default());
        let guard = gwc_obs::install(rec.clone());
        let got = parallel_map_named("pool-serial-probe", 5, 1, |i| i * 2);
        drop(guard);
        assert_eq!(got, vec![0, 2, 4, 6, 8]);
        let snap = rec.snapshot();
        let workers = snap
            .pools
            .iter()
            .find(|(name, _)| name == "pool-serial-probe")
            .map(|(_, w)| w)
            .expect("pool recorded");
        assert_eq!(workers.len(), 1);
        assert_eq!(workers[0].1.tasks, 5);
        assert_eq!(workers[0].1.steals, 0);
    }
}
