//! Observability for the characterization pipeline: hierarchical spans,
//! counters, and one recorder, [`metrics::MetricsRecorder`], that keeps
//! each closed span once, as an event. Every span view reads that event
//! list: the schema-versioned metrics report ([`report`]), whose every
//! timed row — wall times, pool busy times, latency series — derives
//! from the events, the self-time tree and flame stacks ([`selftime`]),
//! and the Chrome trace timeline ([`trace`]). A span is the only clock
//! reading an interval gets. Everything is read from a finished run;
//! nothing samples it while it runs.
//!
//! The pipeline is instrumented at every layer — `gwc-simt` records
//! per-kernel launch statistics and execution profiles, the `gwc-core`
//! pool records per-worker utilization, `gwc-characterize` records its
//! observers' memory high-water mark, and `gwc-bench` records
//! per-stage and per-experiment wall times — but all of it flows through
//! one process-global recorder that is **absent by default**.
//!
//! # Disabled-path cost contract
//!
//! With no recorder installed, every instrumentation call is one relaxed
//! atomic load and a branch — no allocation, no clock read, no lock. The
//! [`span!`] macro defers even its `format!` until the enabled check has
//! passed, so dynamic span names cost nothing when recording is off.
//! `tests/noop_alloc.rs` enforces zero allocations on the disabled hot
//! path with a counting global allocator, and the pipeline's determinism
//! and golden-snapshot suites run without a recorder, demonstrating that
//! instrumentation does not perturb results.
//!
//! # Recording
//!
//! Install a [`metrics::MetricsRecorder`] for the lifetime of a run:
//!
//! ```
//! use std::sync::Arc;
//! use gwc_obs::metrics::MetricsRecorder;
//!
//! let rec = Arc::new(MetricsRecorder::default());
//! let guard = gwc_obs::install(rec.clone());
//! {
//!     let _study = gwc_obs::span!("study");
//!     gwc_obs::count("kernels.profiled", 3);
//! }
//! drop(guard); // recording stops; `rec` keeps the data
//! let snap = rec.snapshot();
//! assert_eq!(snap.counters[0], ("kernels.profiled".to_string(), 3));
//! ```
//!
//! Spans nest per thread: a span opened while another is active on the
//! same thread records under the parent's path (`"study/observe"`).
//! Worker threads start with an empty span stack; a pool task enters
//! its caller's stack ([`span::Inherited`]) so it nests as it would have
//! on the caller's thread.

#![deny(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod selftime;
pub mod span;
pub mod trace;

pub use recorder::{install, recorder, ExecClass, ExecHotspot, RecorderGuard};
pub use span::SpanGuard;

use std::sync::atomic::Ordering;

/// Whether a recorder is currently installed (the one-branch fast path).
#[inline]
pub fn enabled() -> bool {
    recorder::ENABLED.load(Ordering::Relaxed)
}

/// Adds `delta` to the named counter. One branch when disabled.
#[inline]
pub fn count(name: &str, delta: u64) {
    if let Some(r) = recorder() {
        r.add_counter(name, delta);
    }
}

/// Folds `value` into the named counter as a running maximum — for
/// high-water marks like `observer.bytes_peak`. One branch when
/// disabled.
#[inline]
pub fn count_max(name: &str, value: u64) {
    if let Some(r) = recorder() {
        r.max_counter(name, value);
    }
}

/// Reports a launch's execution-cost profile
/// ([`metrics::MetricsRecorder::record_exec_profile`]). The slices may borrow from the
/// caller's stack; one branch when disabled.
#[inline]
pub fn exec_profile(kernel: &str, classes: &[ExecClass], hotspots: &[ExecHotspot]) {
    if let Some(r) = recorder() {
        r.record_exec_profile(kernel, classes, hotspots);
    }
}

/// Opens a timed span; the span ends (and records) when the returned
/// guard drops. The name is a `format!` spec evaluated **only when a
/// recorder is installed**, so dynamic names are free on the disabled
/// path.
#[macro_export]
macro_rules! span {
    ($($arg:tt)*) => {
        if $crate::enabled() {
            $crate::SpanGuard::begin(format!($($arg)*))
        } else {
            $crate::SpanGuard::noop()
        }
    };
}
