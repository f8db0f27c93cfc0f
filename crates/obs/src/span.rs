//! Hierarchical timed spans.
//!
//! A [`SpanGuard`] measures the interval between its creation and its
//! drop on a monotonic clock ([`std::time::Instant`]) and reports it to
//! the installed recorder under a `/`-separated path. Spans
//! opened while another span is active *on the same thread* nest under
//! it: the reported path is the thread's span stack joined with `/`.
//!
//! Construct spans with the [`crate::span!`] macro — it performs the
//! enabled check before evaluating the name, which keeps dynamic names
//! allocation-free on the disabled path.
//!
//! A thread starts with an empty stack. Work handed to another thread
//! nests where it would have on the handing thread by carrying an
//! [`Inherited`] snapshot of that thread's stack across and entering it
//! there, so span paths do not depend on which thread ran the work.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

thread_local! {
    static STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    static THREAD_ORD: u64 = NEXT_THREAD_ORD.fetch_add(1, Ordering::Relaxed);
}

static NEXT_THREAD_ORD: AtomicU64 = AtomicU64::new(1);

/// Name prefix of a kernel launch's span: `launch/<kernel>`, or
/// `launch/<a>+<b>` for a co-scheduled pair. The recorder reads each
/// kernel's wall time and the launch latency series from these spans
/// ([`crate::metrics::MetricsRecorder::snapshot`]).
pub const LAUNCH: &str = "launch";

/// Name prefix of a study workload's span: `workload/<name>`. The
/// recorder reads each workload's wall time from these spans.
pub const WORKLOAD: &str = "workload";

/// A small stable ordinal for the calling thread, assigned on first use
/// (the process's first instrumented thread — usually main — is 1).
/// Trace timelines key their rows on this instead of
/// [`std::thread::ThreadId`], whose integer form is unstable.
pub fn thread_ord() -> u64 {
    THREAD_ORD.with(|t| *t)
}

/// An open span; ends (and records) on drop. See [`crate::span!`].
#[derive(Debug)]
pub struct SpanGuard {
    start: Option<Instant>,
}

impl SpanGuard {
    /// Opens a span named `name` on the current thread's span stack.
    ///
    /// Prefer [`crate::span!`], which skips this entirely (including the
    /// name construction) when no recorder is installed.
    pub fn begin(name: String) -> SpanGuard {
        STACK.with(|s| s.borrow_mut().push(name));
        SpanGuard {
            start: Some(Instant::now()),
        }
    }

    /// An inert span: no clock read, no stack push, nothing on drop.
    pub fn noop() -> SpanGuard {
        SpanGuard { start: None }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        let path = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        // The recorder may have been uninstalled while the span was
        // open; the stack bookkeeping above must happen regardless.
        if let Some(r) = crate::recorder() {
            r.record_span_event(path, thread_ord(), start, end);
        }
    }
}

/// A snapshot of one thread's open span names, outermost first, for
/// work that runs on another thread (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Inherited(Vec<String>);

impl Inherited {
    /// The calling thread's open span names. Empty, without allocating,
    /// when no recorder is installed.
    pub fn capture() -> Self {
        if !crate::enabled() {
            return Self::default();
        }
        Self(STACK.with(|s| s.borrow().clone()))
    }

    /// The snapshot's names joined into a span path (empty when none).
    pub(crate) fn path(&self) -> String {
        self.0.join("/")
    }

    /// Opens the snapshot's names on the calling thread's span stack,
    /// untimed, until the returned guard drops: spans opened meanwhile
    /// record under them. The snapshot's spans themselves record only on
    /// the thread that opened them.
    pub fn enter(&self) -> Entered {
        if self.0.is_empty() {
            return Entered(None);
        }
        Entered(Some(STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let depth = stack.len();
            stack.extend(self.0.iter().cloned());
            depth
        })))
    }
}

/// An entered [`Inherited`] snapshot: the stack depth it was entered
/// at, if it had names. Leaves it on drop.
#[derive(Debug)]
pub struct Entered(Option<usize>);

impl Drop for Entered {
    fn drop(&mut self) {
        if let Some(depth) = self.0 {
            STACK.with(|s| s.borrow_mut().truncate(depth));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::metrics::MetricsRecorder;
    use std::sync::Arc;

    #[test]
    fn nested_spans_record_hierarchical_paths() {
        let rec = Arc::new(MetricsRecorder::default());
        let guard = crate::install(rec.clone());
        {
            let _outer = crate::span!("outer");
            let _inner = crate::span!("inner-{}", 1);
        }
        drop(guard);
        let snap = rec.snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["outer", "outer/inner-1"]);
    }

    #[test]
    fn entered_snapshot_nests_spans_of_another_thread() {
        let rec = Arc::new(MetricsRecorder::default());
        let guard = crate::install(rec.clone());
        {
            let _outer = crate::span!("outer/x");
            let _inner = crate::span!("inner");
            let parent = super::Inherited::capture();
            std::thread::spawn(move || {
                let _entered = parent.enter();
                let _task = crate::span!("task");
            })
            .join()
            .unwrap();
        }
        drop(guard);
        let snap = rec.snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["outer/x", "outer/x/inner", "outer/x/inner/task"]);
    }

    #[test]
    fn disabled_spans_leave_no_trace() {
        let _gate = crate::recorder::test_gate();
        let rec = Arc::new(MetricsRecorder::default());
        {
            let _s = crate::span!("not-recorded");
        }
        // Never installed: nothing may have been recorded anywhere.
        assert!(rec.snapshot().spans.is_empty());
    }
}
