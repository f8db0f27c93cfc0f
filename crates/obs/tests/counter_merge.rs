//! Determinism-style counter merge test: totals recorded through the
//! installed recorder are invariant to how many threads produced them.

use std::sync::Arc;
use std::thread;

use gwc_obs::metrics::MetricsRecorder;

/// Splits 8_400 increments of three counters across `threads` threads
/// and returns the aggregated totals.
fn totals_at(threads: usize) -> Vec<(String, u64)> {
    const EVENTS: usize = 8_400; // divisible by 1, 2, 4, 8 and by 3
    let rec = Arc::new(MetricsRecorder::default());
    let guard = gwc_obs::install(rec.clone());
    thread::scope(|scope| {
        for t in 0..threads {
            let per = EVENTS / threads;
            scope.spawn(move || {
                for i in 0..per {
                    let event = t * per + i;
                    match event % 3 {
                        0 => gwc_obs::count("alpha", 1),
                        1 => gwc_obs::count("beta", 2),
                        _ => gwc_obs::count("gamma", event as u64),
                    }
                }
            });
        }
    });
    drop(guard);
    rec.snapshot().counters
}

#[test]
fn counter_totals_are_thread_count_invariant() {
    let serial = totals_at(1);
    let names: Vec<&str> = serial.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["alpha", "beta", "gamma"]);
    assert_eq!(serial[0].1, 2_800);
    assert_eq!(serial[1].1, 2 * 2_800);
    for threads in [2usize, 4, 8] {
        assert_eq!(
            totals_at(threads),
            serial,
            "counter totals diverged at {threads} threads"
        );
    }
}

#[test]
fn pool_worker_stats_merge_across_threads() {
    use gwc_obs::recorder::PoolWorker;
    let rec = MetricsRecorder::default();
    thread::scope(|scope| {
        for w in 0..4usize {
            let rec = &rec;
            scope.spawn(move || {
                rec.record_pool_worker(
                    "study",
                    w,
                    &PoolWorker {
                        tasks: (w + 1) as u64,
                        steals: w as u64,
                        busy_ns: 10,
                        wall_ns: 20,
                    },
                );
            });
        }
    });
    let snap = rec.snapshot();
    assert_eq!(snap.pools.len(), 1);
    let (name, workers) = &snap.pools[0];
    assert_eq!(name, "study");
    assert_eq!(workers.len(), 4);
    let tasks: u64 = workers.iter().map(|(_, s)| s.tasks).sum();
    assert_eq!(tasks, 1 + 2 + 3 + 4);
    assert_eq!(workers[3].1.steals, 3);
}
