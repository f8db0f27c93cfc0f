//! Std-only work-stealing thread pool for the characterization pipeline.
//!
//! The runtime has no external dependencies: [`parallel_map_named`] is
//! built on [`std::thread::scope`] plus an atomic work counter, so idle
//! workers steal the next index as soon as they finish one — a chunked
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

use gwc_obs::recorder::PoolWorker;
use gwc_obs::span::{thread_ord, Inherited};

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
/// `pool` names the pool for observability. When a recorder is
/// installed (see `gwc-obs`), workers enter the caller's open spans, so
/// a task's spans get the paths the serial loop would give them, at any
/// thread count; and every worker reports its thread, its task count
/// and its steals (tasks claimed beyond an even `n / workers` share)
/// under this name. The pool reads no clock: the recorder times each
/// worker from the spans its tasks open. With no recorder installed the
/// span hand-over is skipped and the schedule is unchanged — results
/// are bit-identical either way.
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
        let out = (0..n).map(f).collect();
        if let Some(rec) = rec {
            let stats = PoolWorker {
                thread: thread_ord(),
                tasks: n as u64,
                steals: 0,
            };
            rec.record_pool_worker(pool, 0, &Inherited::capture(), &stats);
        }
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
                    let mut produced = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        produced.push((i, f(i)));
                    }
                    if let Some(rec) = rec {
                        let tasks = produced.len() as u64;
                        let stats = PoolWorker {
                            thread: thread_ord(),
                            tasks,
                            steals: tasks.saturating_sub(fair_share),
                        };
                        rec.record_pool_worker(pool, w, parent, &stats);
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
    use gwc_obs::metrics::{MetricsRecorder, MetricsSnapshot, PoolWorkerStat};
    use std::sync::Arc;

    /// The worker rows `snap` reports for `pool`.
    fn workers<'s>(snap: &'s MetricsSnapshot, pool: &str) -> &'s [(usize, PoolWorkerStat)] {
        snap.pools
            .iter()
            .find(|(name, _)| name == pool)
            .map(|(_, w)| w.as_slice())
            .expect("pool recorded")
    }

    #[test]
    fn preserves_index_order() {
        for threads in [1, 2, 3, 8, 64] {
            let got = parallel_map_named("test", 100, threads, |i| i * i);
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "at {threads} threads");
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        parallel_map_named("test", hits.len(), 7, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(parallel_map_named("test", 0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map_named("test", 1, 4, |i| i + 41), vec![41]);
    }

    #[test]
    fn uneven_work_balances() {
        // Items with wildly different costs still land in order.
        let got = parallel_map_named("test", 32, 4, |i| {
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
        let rec = Arc::new(MetricsRecorder::default());
        let guard = gwc_obs::install(rec.clone());
        let got = parallel_map_named("pool-stats-probe", 64, 4, |i| i);
        drop(guard);
        assert_eq!(got, (0..64).collect::<Vec<_>>());
        let snap = rec.snapshot();
        let workers = workers(&snap, "pool-stats-probe");
        assert!(!workers.is_empty() && workers.len() <= 4);
        let tasks: u64 = workers.iter().map(|(_, s)| s.tasks).sum();
        assert_eq!(tasks, 64, "every task attributed to exactly one worker");
        for (_, s) in workers {
            assert_eq!(s.busy_ns, 0, "a task that opens no span is untimed");
        }
    }

    #[test]
    fn serial_named_pool_records_single_worker() {
        let rec = Arc::new(MetricsRecorder::default());
        let guard = gwc_obs::install(rec.clone());
        let got = parallel_map_named("pool-serial-probe", 5, 1, |i| i * 2);
        drop(guard);
        assert_eq!(got, vec![0, 2, 4, 6, 8]);
        let snap = rec.snapshot();
        let workers = workers(&snap, "pool-serial-probe");
        assert_eq!(workers.len(), 1);
        assert_eq!(workers[0].1.tasks, 5);
        assert_eq!(workers[0].1.steals, 0);
    }

    /// One long task and several short ones on two workers. The long
    /// task waits at a barrier for the last short one and then runs on,
    /// so whichever worker ran the short tasks sits idle at the end of
    /// the pool's makespan, and its busy fraction must show that idle
    /// tail. Each worker's busy time is the summed duration of the task
    /// spans its thread closed.
    #[test]
    fn idle_worker_reads_below_full_busy() {
        use std::sync::Barrier;
        use std::time::Duration;

        // Task 0 blocks its worker, so the other worker claims tasks
        // 1..=5 in order and meets it at the barrier in task 5.
        let last_short = Barrier::new(2);
        let rec = Arc::new(MetricsRecorder::default());
        let guard = gwc_obs::install(rec.clone());
        let got = {
            let _probe = gwc_obs::span!("probe");
            parallel_map_named("idle-probe", 6, 2, |i| {
                let _task = gwc_obs::span!("task");
                if i == 0 || i == 5 {
                    last_short.wait();
                }
                if i == 0 {
                    thread::sleep(Duration::from_millis(20));
                }
                i
            })
        };
        drop(guard);
        assert_eq!(got, (0..6).collect::<Vec<_>>());
        let snap = rec.snapshot();
        let tasks: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.path == "probe/task")
            .collect();
        assert_eq!(tasks.len(), 6);
        let makespan = tasks.iter().map(|e| e.end_ns).max().unwrap()
            - tasks.iter().map(|e| e.start_ns).min().unwrap();
        // (tasks, busy) per thread, from the spans and from the report.
        let mut per_thread = std::collections::BTreeMap::<u64, (u64, u64)>::new();
        for e in &tasks {
            let (count, busy) = per_thread.entry(e.thread).or_default();
            *count += 1;
            *busy += e.dur_ns();
        }
        let mut per_thread: Vec<(u64, u64)> = per_thread.into_values().collect();
        let rows = workers(&snap, "idle-probe");
        let mut reported: Vec<(u64, u64)> =
            rows.iter().map(|(_, w)| (w.tasks, w.busy_ns)).collect();
        per_thread.sort_unstable();
        reported.sort_unstable();
        assert_eq!(reported, per_thread, "busy time is the task spans' sum");
        assert_eq!([reported[0].0, reported[1].0], [1, 5]);
        for (_, w) in rows {
            assert_eq!(w.wall_ns, makespan, "every worker spans the makespan");
        }
        // The short tasks' worker sat idle while the long task slept out
        // its 20 ms after the barrier (half of that is asserted, as
        // scheduling slack), so its busy fraction reads well below 1.
        let (_, short) = rows
            .iter()
            .find(|(_, w)| w.tasks == 5)
            .expect("short tasks");
        assert!(short.wall_ns - short.busy_ns >= 10_000_000, "{short:?}");
    }
}
