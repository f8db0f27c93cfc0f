//! The process-global installation point, and the typed facts its
//! hooks carry.
//!
//! Instrumentation sites call the free functions in the crate root
//! ([`crate::count`], [`crate::span!`], …); those route to the
//! [`MetricsRecorder`] installed here, or do nothing. Typed hooks
//! ([`MetricsRecorder::record_pool_worker`],
//! [`MetricsRecorder::record_workload`], …) exist for the structured
//! facts the metrics report tabulates — they keep the report builder
//! free of name-parsing.

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use crate::metrics::MetricsRecorder;

/// Per-launch statistics reported by [`MetricsRecorder::record_kernel_launch`].
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
/// ([`MetricsRecorder::record_exec_profile`]).
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
/// ([`MetricsRecorder::record_exec_profile`]).
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

/// Per-worker statistics reported by [`MetricsRecorder::record_pool_worker`].
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

pub(crate) static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: RwLock<Option<Arc<MetricsRecorder>>> = RwLock::new(None);
/// Serializes installations: tests that install a recorder hold this
/// for their whole scope, so concurrent recorder-using tests queue
/// instead of seeing each other's data.
static INSTALL_GATE: Mutex<()> = Mutex::new(());

/// Installs `rec` as the process-global recorder until the returned
/// guard drops. Installation is exclusive: a second caller blocks until
/// the first guard drops (this is what makes recorder-using tests safe
/// to run in the same process).
pub fn install(rec: Arc<MetricsRecorder>) -> RecorderGuard {
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
pub fn recorder() -> Option<Arc<MetricsRecorder>> {
    if !crate::enabled() {
        return None;
    }
    RECORDER.read().ok()?.clone()
}
