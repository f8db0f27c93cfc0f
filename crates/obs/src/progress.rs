//! Live progress accounting: work-unit totals and completion ticks.
//!
//! Every execution layer declares how many work units it is about to
//! run ([`declare`]) and ticks a completion counter as units retire
//! ([`tick`]), each against one of a fixed set of [`Domain`]s — whole
//! workloads, kernel launches, block ranges, pipeline stages, and pool
//! tasks. The counters are plain process-global atomics, so the
//! background sampler ([`crate::sampler`]) can read a consistent
//! [`ProgressSnapshot`] at any instant without touching engine state,
//! and derive throughput and an ETA from consecutive snapshots.
//!
//! Like every other instrumentation site, progress calls are gated on
//! [`crate::enabled`]: with no recorder installed each call is one
//! relaxed atomic load and a branch — no allocation, no lock
//! (`tests/noop_alloc.rs` pins this). [`crate::install`] resets the
//! counters and bumps the *epoch*, so consumers that outlive several
//! recorder installations (e.g. a sampler spanning several installs) can
//! tell a counter reset from a counter decrease: within one epoch, every
//! value is monotone non-decreasing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One progress domain: completed vs declared work units.
#[derive(Debug)]
pub struct Domain {
    done: AtomicU64,
    total: AtomicU64,
}

impl Domain {
    const fn new() -> Domain {
        Domain {
            done: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }

    fn counts(&self) -> Counts {
        Counts {
            done: self.done.load(Ordering::Relaxed),
            total: self.total.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.done.store(0, Ordering::Relaxed);
        self.total.store(0, Ordering::Relaxed);
    }
}

/// Workloads characterized by the study loop.
pub static WORKLOADS: Domain = Domain::new();
/// Kernel launches retired (serial or sharded, one unit per launch).
pub static LAUNCHES: Domain = Domain::new();
/// Blocks executed by the interpreter (both backends, every shard).
pub static BLOCKS: Domain = Domain::new();
/// Pipeline stages completed.
pub static STAGES: Domain = Domain::new();
/// Pool tasks completed by `parallel_map` fan-outs.
pub static TASKS: Domain = Domain::new();

/// Bumped on every [`reset`]; lets consumers distinguish a counter
/// reset (new run) from a decrease (impossible within an epoch).
static EPOCH: AtomicU64 = AtomicU64::new(0);

/// The most recently entered pipeline stage, for display ("study",
/// "reduce", ...). Empty before the first stage of an epoch.
static STAGE: Mutex<String> = Mutex::new(String::new());

/// Declares `n` more work units in a domain. One branch when disabled.
#[inline]
pub fn declare(domain: &Domain, n: u64) {
    if crate::enabled() {
        domain.total.fetch_add(n, Ordering::Relaxed);
    }
}

/// Marks `n` work units of a domain complete. One branch when disabled.
#[inline]
pub fn tick(domain: &Domain, n: u64) {
    if crate::enabled() {
        domain.done.fetch_add(n, Ordering::Relaxed);
    }
}

/// Records the name of the pipeline stage now running. One branch when
/// disabled (the copy into the slot happens only when enabled).
#[inline]
pub fn set_stage(name: &str) {
    if crate::enabled() {
        let mut stage = STAGE.lock().unwrap_or_else(|p| p.into_inner());
        stage.clear();
        stage.push_str(name);
    }
}

/// Zeroes every domain, clears the stage label, and bumps the epoch.
/// Called by [`crate::install`] so each recorded run starts from a
/// clean progress slate.
pub(crate) fn reset() {
    for d in [&WORKLOADS, &LAUNCHES, &BLOCKS, &STAGES, &TASKS] {
        d.reset();
    }
    STAGE.lock().unwrap_or_else(|p| p.into_inner()).clear();
    EPOCH.fetch_add(1, Ordering::Relaxed);
}

/// `(done, total)` of one domain at a snapshot instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Work units completed.
    pub done: u64,
    /// Work units declared. May trail `done` transiently (totals are
    /// declared incrementally as work is discovered) and may exceed it
    /// at the end of a run that skipped declared work.
    pub total: u64,
}

/// A consistent view of every progress domain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Reset generation the counts belong to.
    pub epoch: u64,
    /// Current pipeline stage name ("" before the first stage).
    pub stage: String,
    /// Workload progress.
    pub workloads: Counts,
    /// Launch progress.
    pub launches: Counts,
    /// Block progress.
    pub blocks: Counts,
    /// Stage progress.
    pub stages: Counts,
    /// Pool-task progress.
    pub tasks: Counts,
}

impl ProgressSnapshot {
    /// Every domain as `(name, counts)`, in a fixed order.
    pub fn domains(&self) -> [(&'static str, Counts); 5] {
        [
            ("workloads", self.workloads),
            ("launches", self.launches),
            ("blocks", self.blocks),
            ("stages", self.stages),
            ("tasks", self.tasks),
        ]
    }

    /// Sum of completed units across all domains — the stall watchdog's
    /// "any progress at all" signal.
    pub fn done_sum(&self) -> u64 {
        self.domains().iter().map(|(_, c)| c.done).sum()
    }
}

/// Reads all domains. The epoch is read before and after; on a
/// concurrent [`reset`] the read retries, so the returned counts all
/// belong to the returned epoch.
pub fn snapshot() -> ProgressSnapshot {
    loop {
        let epoch = EPOCH.load(Ordering::Relaxed);
        let snap = ProgressSnapshot {
            epoch,
            stage: STAGE.lock().unwrap_or_else(|p| p.into_inner()).clone(),
            workloads: WORKLOADS.counts(),
            launches: LAUNCHES.counts(),
            blocks: BLOCKS.counts(),
            stages: STAGES.counts(),
            tasks: TASKS.counts(),
        };
        if EPOCH.load(Ordering::Relaxed) == epoch {
            return snap;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRecorder;
    use std::sync::Arc;

    #[test]
    fn disabled_calls_do_not_move_counters() {
        let _gate = crate::recorder::test_gate();
        let before = snapshot();
        declare(&WORKLOADS, 5);
        tick(&WORKLOADS, 2);
        set_stage("study");
        let after = snapshot();
        assert_eq!(before, after, "disabled progress calls must be inert");
    }

    #[test]
    fn install_resets_and_bumps_epoch() {
        let rec = Arc::new(MetricsRecorder::default());
        let guard = crate::install(rec.clone());
        let epoch_a = snapshot().epoch;
        declare(&LAUNCHES, 3);
        tick(&LAUNCHES, 1);
        set_stage("study");
        let mid = snapshot();
        assert_eq!(mid.launches, Counts { done: 1, total: 3 });
        assert_eq!(mid.stage, "study");
        drop(guard);

        let rec2 = Arc::new(MetricsRecorder::default());
        let guard2 = crate::install(rec2);
        let fresh = snapshot();
        assert_eq!(fresh.launches, Counts::default());
        assert_eq!(fresh.stage, "");
        assert!(fresh.epoch > epoch_a, "install bumps the epoch");
        drop(guard2);
    }

    #[test]
    fn done_sum_spans_all_domains() {
        let rec = Arc::new(MetricsRecorder::default());
        let _guard = crate::install(rec);
        tick(&WORKLOADS, 1);
        tick(&BLOCKS, 4);
        tick(&TASKS, 2);
        assert_eq!(snapshot().done_sum(), 7);
    }
}
