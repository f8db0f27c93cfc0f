//! The [`Recorder`] trait and the process-global installation point.
//!
//! Instrumentation sites call the free functions in the crate root
//! ([`crate::count`], [`crate::span!`], …); those route to whatever
//! recorder is installed here, or do nothing. Typed hooks
//! ([`Recorder::record_pool_worker`], [`Recorder::record_workload`],
//! …) exist for the structured facts the metrics report tabulates — they
//! keep the report builder free of name-parsing.

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

/// Receives observability events from the instrumented pipeline.
///
/// Every method has a no-op default body, so recorders implement only
/// what they aggregate. Methods take `&self` and must be thread-safe:
/// the pipeline calls them concurrently from pool workers.
pub trait Recorder: Send + Sync {
    /// A span closed: `path` is its `/`-separated hierarchical name.
    fn record_span(&self, path: &str, nanos: u64) {
        let _ = (path, nanos);
    }

    /// A span closed, with its full timeline event: the recording
    /// thread's ordinal (see [`crate::span::thread_ord`]) and the span's
    /// monotonic start/end instants. Aggregating recorders usually want
    /// [`Recorder::record_span`] instead; timeline recorders
    /// ([`crate::trace::TraceRecorder`]) override this one.
    fn record_span_event(&self, path: &str, thread: u64, start: Instant, end: Instant) {
        let _ = (path, thread, start, end);
    }

    /// Records one sample into the named latency histogram.
    fn record_hist(&self, name: &str, value: u64) {
        let _ = (name, value);
    }

    /// Adds `delta` to a monotonic counter.
    fn add_counter(&self, name: &str, delta: u64) {
        let _ = (name, delta);
    }

    /// Folds `value` into the named counter as a running maximum — a
    /// high-water mark (e.g. `observer.bytes_peak`) rather than a sum.
    fn max_counter(&self, name: &str, value: u64) {
        let _ = (name, value);
    }

    /// Sets a gauge to its latest value.
    fn set_gauge(&self, name: &str, value: f64) {
        let _ = (name, value);
    }

    /// A kernel launch retired: reported once per launched kernel (a
    /// co-scheduled pair reports each member).
    fn record_kernel_launch(&self, kernel: &str, stats: &KernelLaunch) {
        let _ = (kernel, stats);
    }

    /// One pool worker finished its run of a `parallel_map`.
    fn record_pool_worker(&self, pool: &str, worker: usize, stats: &PoolWorker) {
        let _ = (pool, worker, stats);
    }

    /// One workload finished characterization.
    fn record_workload(&self, name: &str, kernels: u64, nanos: u64) {
        let _ = (name, kernels, nanos);
    }

    /// A kernel launch retired with an execution-cost profile: per-µop-
    /// class retired counts plus the launch's hottest pcs. Reported once
    /// per launched kernel (after [`Recorder::record_kernel_launch`]).
    /// The slices are borrowed from the caller's stack.
    fn record_exec_profile(&self, kernel: &str, classes: &[ExecClass], hotspots: &[ExecHotspot]) {
        let _ = (kernel, classes, hotspots);
    }
}

/// Per-launch statistics reported by [`Recorder::record_kernel_launch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelLaunch {
    /// Warp-level dynamic instructions (lock-step issues, "warp steps").
    pub warp_instrs: u64,
    /// Thread-level dynamic instructions retired.
    pub thread_instrs: u64,
    /// Blocks executed.
    pub blocks: u64,
    /// Warps executed.
    pub warps: u64,
    /// Block-wide barriers released.
    pub barriers: u64,
    /// Launch wall time (0 when the caller did not time the launch,
    /// e.g. on the recorder-free path).
    pub wall_ns: u64,
}

/// One µop class's retired counts within an execution-cost profile
/// ([`Recorder::record_exec_profile`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecClass {
    /// Class name (`int_alu`, `fp_alu`, `mem_global`, …).
    pub class: &'static str,
    /// Warp-level µops retired in this class.
    pub warp_uops: u64,
    /// Active lane-slots summed over those µops.
    pub lane_uops: u64,
}

/// One hotspot pc within an execution-cost profile
/// ([`Recorder::record_exec_profile`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecHotspot {
    /// Decoded µop index within the kernel.
    pub pc: u64,
    /// The µop's class name.
    pub class: &'static str,
    /// Warp-level µops retired at this pc.
    pub warp_uops: u64,
    /// Active lane-slots summed over those µops.
    pub lane_uops: u64,
}

/// Per-worker statistics reported by [`Recorder::record_pool_worker`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolWorker {
    /// Tasks this worker claimed and ran.
    pub tasks: u64,
    /// Tasks claimed beyond an even `n / workers` share — work the
    /// stealing schedule moved here from slower workers.
    pub steals: u64,
    /// Time spent inside task bodies.
    pub busy_ns: u64,
    /// Worker lifetime (spawn to exit); `busy_ns / wall_ns` is the
    /// worker's busy fraction.
    pub wall_ns: u64,
}

impl PoolWorker {
    /// Fraction of the worker's lifetime spent inside task bodies.
    pub fn busy_frac(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.wall_ns as f64
        }
    }
}

/// A recorder that ignores every event (useful as an explicit stand-in).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// Fans every event out to several recorders in order — how `regen`
/// runs the metrics aggregator and the trace timeline side by side
/// through the single global install point.
#[derive(Default)]
pub struct TeeRecorder {
    sinks: Vec<Arc<dyn Recorder>>,
}

impl TeeRecorder {
    /// A tee over `sinks`; events fan out in the given order.
    pub fn new(sinks: Vec<Arc<dyn Recorder>>) -> Self {
        Self { sinks }
    }
}

impl std::fmt::Debug for TeeRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeeRecorder")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl Recorder for TeeRecorder {
    fn record_span(&self, path: &str, nanos: u64) {
        for s in &self.sinks {
            s.record_span(path, nanos);
        }
    }
    fn record_span_event(&self, path: &str, thread: u64, start: Instant, end: Instant) {
        for s in &self.sinks {
            s.record_span_event(path, thread, start, end);
        }
    }
    fn record_hist(&self, name: &str, value: u64) {
        for s in &self.sinks {
            s.record_hist(name, value);
        }
    }
    fn add_counter(&self, name: &str, delta: u64) {
        for s in &self.sinks {
            s.add_counter(name, delta);
        }
    }
    fn max_counter(&self, name: &str, value: u64) {
        for s in &self.sinks {
            s.max_counter(name, value);
        }
    }
    fn set_gauge(&self, name: &str, value: f64) {
        for s in &self.sinks {
            s.set_gauge(name, value);
        }
    }
    fn record_kernel_launch(&self, kernel: &str, stats: &KernelLaunch) {
        for s in &self.sinks {
            s.record_kernel_launch(kernel, stats);
        }
    }
    fn record_pool_worker(&self, pool: &str, worker: usize, stats: &PoolWorker) {
        for s in &self.sinks {
            s.record_pool_worker(pool, worker, stats);
        }
    }
    fn record_workload(&self, name: &str, kernels: u64, nanos: u64) {
        for s in &self.sinks {
            s.record_workload(name, kernels, nanos);
        }
    }
    fn record_exec_profile(&self, kernel: &str, classes: &[ExecClass], hotspots: &[ExecHotspot]) {
        for s in &self.sinks {
            s.record_exec_profile(kernel, classes, hotspots);
        }
    }
}

pub(crate) static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);
/// Serializes installations: tests that install a recorder hold this
/// for their whole scope, so concurrent recorder-using tests queue
/// instead of seeing each other's data.
static INSTALL_GATE: Mutex<()> = Mutex::new(());

/// Installs `rec` as the process-global recorder until the returned
/// guard drops. Installation is exclusive: a second caller blocks until
/// the first guard drops (this is what makes recorder-using tests safe
/// to run in the same process).
pub fn install(rec: Arc<dyn Recorder>) -> RecorderGuard {
    let gate = INSTALL_GATE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    *RECORDER.write().expect("recorder slot poisoned") = Some(rec);
    ENABLED.store(true, std::sync::atomic::Ordering::SeqCst);
    RecorderGuard { _gate: gate }
}

/// Uninstalls the global recorder when dropped.
pub struct RecorderGuard {
    _gate: MutexGuard<'static, ()>,
}

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        ENABLED.store(false, std::sync::atomic::Ordering::SeqCst);
        *RECORDER.write().expect("recorder slot poisoned") = None;
    }
}

impl std::fmt::Debug for RecorderGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RecorderGuard")
    }
}

/// Holds the installation gate *without* installing a recorder — for
/// unit tests that exercise the disabled path and must not race with a
/// concurrently installed recorder.
#[cfg(test)]
pub(crate) fn test_gate() -> MutexGuard<'static, ()> {
    INSTALL_GATE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The installed recorder, if any. The disabled path is one relaxed
/// atomic load; the enabled path takes a read lock and clones the `Arc`.
#[inline]
pub fn recorder() -> Option<Arc<dyn Recorder>> {
    if !crate::enabled() {
        return None;
    }
    RECORDER.read().ok()?.clone()
}
