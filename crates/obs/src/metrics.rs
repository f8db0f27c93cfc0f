//! [`MetricsRecorder`]: the one recorder, behind `regen --metrics`,
//! `--trace`, `--trace-summary` and `--flame` alike.
//!
//! It keeps each closed span once, as a [`SpanEvent`] (path, thread
//! ordinal, start, end), and aggregates everything else into ordered
//! maps keyed by name. Every span view derives from a snapshot's event
//! list: the per-path aggregates ([`MetricsSnapshot::spans`]), the
//! self-time tree ([`crate::selftime::fold`]) and the Chrome trace
//! ([`crate::trace::export`]). So does every timed row of the report:
//! the kernels' and workloads' wall times, the pool workers' busy and
//! wall times, and the latency series ([`MetricsRecorder::snapshot`]).
//! No instrumentation site reads a clock besides its span. A
//! snapshot's *shape* is deterministic
//! for a given pipeline run — only the recorded times vary between
//! runs. That is what makes the metrics report schema snapshot-testable
//! while timings are not.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::recorder::{ExecClass, ExecHotspot, KernelLaunch, PoolWorker};
use crate::span::{Inherited, LAUNCH, WORKLOAD};

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// `/`-separated hierarchical span name.
    pub path: String,
    /// Recording thread's ordinal (see [`crate::span::thread_ord`]).
    pub thread: u64,
    /// Start, in nanoseconds since the recorder was constructed.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was constructed.
    pub end_ns: u64,
}

impl SpanEvent {
    /// The span's duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One span path with its aggregate (snapshot form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// `/`-separated hierarchical span name.
    pub path: String,
    /// Times the span closed.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
}

/// One workload's characterization record (snapshot form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadStat {
    /// Workload name.
    pub name: String,
    /// Kernels (profile labels) the workload produced.
    pub kernels: u64,
    /// Summed duration of the workload's `workload/<name>` spans.
    pub wall_ns: u64,
}

/// One kernel's launch aggregate (snapshot form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelStat {
    /// Kernel name.
    pub name: String,
    /// Launches retired.
    pub launches: u64,
    /// Summed launch statistics.
    pub totals: KernelLaunch,
    /// Summed duration of the `launch/…` spans naming the kernel. A
    /// co-scheduled pair's span counts for both members: that is the
    /// wall time each kernel experienced while co-resident.
    pub wall_ns: u64,
}

/// One pool worker's statistics (snapshot form).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolWorkerStat {
    /// Tasks this worker claimed and ran.
    pub tasks: u64,
    /// Tasks claimed beyond an even `n / workers` share.
    pub steals: u64,
    /// Summed duration of the worker's task spans.
    pub busy_ns: u64,
    /// The pool's makespan, from its first task's start to its last
    /// task's end: the same for every worker of the pool.
    pub wall_ns: u64,
}

impl PoolWorkerStat {
    /// Fraction of the pool's makespan this worker spent in tasks.
    pub fn busy_frac(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.wall_ns as f64
        }
    }
}

/// One µop class's totals within a kernel's execution-cost aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecClassStat {
    /// Class name (`int_alu`, `fp_alu`, `mem_global`, …).
    pub class: &'static str,
    /// Warp-level µops retired in this class, summed over launches.
    pub warp_uops: u64,
    /// Active lane-slots summed over those µops.
    pub lane_uops: u64,
}

/// One hotspot pc within a kernel's execution-cost aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecHotspotStat {
    /// Decoded µop index within the kernel.
    pub pc: u64,
    /// The µop's class name.
    pub class: &'static str,
    /// Warp-level µops retired at this pc, summed over launches.
    pub warp_uops: u64,
    /// Active lane-slots summed over those µops.
    pub lane_uops: u64,
}

/// One kernel's execution-cost aggregate (snapshot form). Classes are
/// ordered by name, hotspots by pc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecStat {
    /// Kernel name.
    pub kernel: String,
    /// Per-µop-class totals, summed over the kernel's launches.
    pub classes: Vec<ExecClassStat>,
    /// Hotspot pcs, summed over the kernel's launches.
    pub hotspots: Vec<ExecHotspotStat>,
}

/// The thread-safe recorder every instrumentation site reports to.
///
/// Install it with [`crate::install`], run the pipeline, then call
/// [`MetricsRecorder::snapshot`] for the frozen, deterministically
/// ordered view the report builder consumes. Its methods take `&self`:
/// pool workers call them concurrently.
#[derive(Debug)]
pub struct MetricsRecorder {
    epoch: Instant,
    events: Mutex<Vec<SpanEvent>>,
    counters: Mutex<BTreeMap<String, u64>>,
    kernels: Mutex<BTreeMap<String, (u64, KernelLaunch)>>,
    pools: Mutex<BTreeMap<String, Vec<WorkerRun>>>,
    workloads: Mutex<BTreeMap<String, u64>>,
    execs: Mutex<BTreeMap<String, ExecAgg>>,
}

/// One pool worker's run: its index, the caller's span path it ran its
/// tasks under, and what it reported.
type WorkerRun = (usize, String, PoolWorker);

/// Per-kernel execution-cost aggregation: class totals keyed by class
/// name, hotspot totals keyed by pc.
#[derive(Debug, Default)]
struct ExecAgg {
    classes: BTreeMap<&'static str, (u64, u64)>,
    hotspots: BTreeMap<u64, (&'static str, u64, u64)>,
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            events: Mutex::default(),
            counters: Mutex::default(),
            kernels: Mutex::default(),
            pools: Mutex::default(),
            workloads: Mutex::default(),
            execs: Mutex::default(),
        }
    }
}

/// A frozen, ordered view of everything a [`MetricsRecorder`] saw.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Every closed span, ordered by start time (thread, then path, on
    /// ties).
    pub events: Vec<SpanEvent>,
    /// Per-path aggregates of `events`, ordered by path.
    pub spans: Vec<SpanStat>,
    /// Counters, ordered by name.
    pub counters: Vec<(String, u64)>,
    /// Per-kernel launch aggregates, ordered by kernel name.
    pub kernels: Vec<KernelStat>,
    /// Per-pool, per-worker statistics, ordered by pool name then
    /// worker index.
    pub pools: Vec<(String, Vec<(usize, PoolWorkerStat)>)>,
    /// Per-workload statistics, ordered by workload name.
    pub workloads: Vec<WorkloadStat>,
    /// Latency series, ordered by name: span durations, sorted
    /// ascending. `launch.latency_ns` holds every `launch/…` span,
    /// `pair.latency_ns` the pair launches' (`launch/<a>+<b>`), and
    /// `pool.task_ns.<pool>` the pool's task spans.
    pub hists: Vec<(String, Vec<u64>)>,
    /// Per-kernel execution-cost aggregates, ordered by kernel name.
    pub execs: Vec<ExecStat>,
}

impl MetricsSnapshot {
    /// Top-level spans (no `/` in the path): the stage table.
    pub fn stages(&self) -> Vec<&SpanStat> {
        self.spans
            .iter()
            .filter(|s| !s.path.contains('/'))
            .collect()
    }

    /// Spans sorted by total time, descending (ties broken by path so
    /// the order is deterministic), truncated to `n`.
    pub fn top_spans(&self, n: usize) -> Vec<&SpanStat> {
        let mut sorted: Vec<&SpanStat> = self.spans.iter().collect();
        sorted.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.path.cmp(&b.path)));
        sorted.truncate(n);
        sorted
    }
}

impl MetricsRecorder {
    /// Freezes the current aggregates into an ordered snapshot, and
    /// derives every timed row from the span events:
    ///
    /// - each `launch/<a>[+<b>]` span is one `launch.latency_ns` sample
    ///   (and one `pair.latency_ns` sample for a pair), and adds its
    ///   duration to each named kernel's `wall_ns`;
    /// - each `workload/<name>` span adds its duration to that
    ///   workload's `wall_ns`;
    /// - a pool worker's tasks are the outermost spans its thread
    ///   closed under the caller's span path. They are the
    ///   `pool.task_ns.<pool>` samples, their durations sum to the
    ///   worker's `busy_ns`, and every worker's `wall_ns` is the pool's
    ///   makespan.
    ///
    /// # Panics
    ///
    /// Panics if an aggregate mutex was poisoned (a recorder method
    /// panicked mid-update — instrumentation never should).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut events = self.events.lock().expect("events poisoned").clone();
        events
            .sort_by(|a, b| (a.start_ns, a.thread, &a.path).cmp(&(b.start_ns, b.thread, &b.path)));
        let mut spans: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        let mut hists: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        let mut kernel_ns: BTreeMap<&str, u64> = BTreeMap::new();
        let mut workload_ns: BTreeMap<&str, u64> = BTreeMap::new();
        let mut sample = |series: &str, ns| hists.entry(series.into()).or_default().push(ns);
        for e in &events {
            let (count, total_ns) = spans.entry(&e.path).or_default();
            *count += 1;
            *total_ns += e.dur_ns();
            if let Some(kernels) = named(&e.path, LAUNCH) {
                sample("launch.latency_ns", e.dur_ns());
                if kernels.contains('+') {
                    sample("pair.latency_ns", e.dur_ns());
                }
                for kernel in kernels.split('+') {
                    *kernel_ns.entry(kernel).or_default() += e.dur_ns();
                }
            } else if let Some(workload) = named(&e.path, WORKLOAD) {
                *workload_ns.entry(workload).or_default() += e.dur_ns();
            }
        }
        let spans = spans
            .into_iter()
            .map(|(path, (count, total_ns))| SpanStat {
                path: path.to_string(),
                count,
                total_ns,
            })
            .collect();
        let kernels = self
            .kernels
            .lock()
            .expect("kernels poisoned")
            .iter()
            .map(|(name, (launches, totals))| KernelStat {
                name: name.clone(),
                launches: *launches,
                totals: *totals,
                wall_ns: kernel_ns.get(name.as_str()).copied().unwrap_or(0),
            })
            .collect();
        let workloads = self
            .workloads
            .lock()
            .expect("workloads poisoned")
            .iter()
            .map(|(name, kernels)| WorkloadStat {
                name: name.clone(),
                kernels: *kernels,
                wall_ns: workload_ns.get(name.as_str()).copied().unwrap_or(0),
            })
            .collect();
        let pools = self
            .pools
            .lock()
            .expect("pools poisoned")
            .iter()
            .map(|(name, runs)| {
                let (workers, task_ns) = pool_stats(&events, runs);
                if !task_ns.is_empty() {
                    hists.insert(format!("pool.task_ns.{name}"), task_ns);
                }
                (name.clone(), workers)
            })
            .collect();
        let hists = hists
            .into_iter()
            .map(|(name, mut samples)| {
                samples.sort_unstable();
                (name, samples)
            })
            .collect();
        MetricsSnapshot {
            events,
            spans,
            counters: self
                .counters
                .lock()
                .expect("counters poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            kernels,
            pools,
            workloads,
            hists,
            execs: self
                .execs
                .lock()
                .expect("execs poisoned")
                .iter()
                .map(|(kernel, agg)| ExecStat {
                    kernel: kernel.clone(),
                    classes: agg
                        .classes
                        .iter()
                        .map(|(&class, &(warp_uops, lane_uops))| ExecClassStat {
                            class,
                            warp_uops,
                            lane_uops,
                        })
                        .collect(),
                    hotspots: agg
                        .hotspots
                        .iter()
                        .map(|(&pc, &(class, warp_uops, lane_uops))| ExecHotspotStat {
                            pc,
                            class,
                            warp_uops,
                            lane_uops,
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// A span closed: `path` is its `/`-separated hierarchical name,
    /// `thread` the recording thread's ordinal (see
    /// [`crate::span::thread_ord`]), and `start`/`end` its monotonic
    /// instants.
    pub fn record_span_event(&self, path: String, thread: u64, start: Instant, end: Instant) {
        let event = SpanEvent {
            path,
            thread,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
        };
        self.events.lock().expect("events poisoned").push(event);
    }

    /// Records a span `start_ns..end_ns` after the recorder's epoch.
    #[cfg(test)]
    pub(crate) fn span_at(&self, path: &str, thread: u64, start_ns: u64, end_ns: u64) {
        let at = |ns| self.epoch + std::time::Duration::from_nanos(ns);
        self.record_span_event(path.to_string(), thread, at(start_ns), at(end_ns));
    }

    /// Adds `delta` to a monotonic counter.
    pub fn add_counter(&self, name: &str, delta: u64) {
        let mut counters = self.counters.lock().expect("counters poisoned");
        *counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Folds `value` into the named counter as a running maximum — a
    /// high-water mark (e.g. `observer.bytes_peak`) rather than a sum.
    pub fn max_counter(&self, name: &str, value: u64) {
        let mut counters = self.counters.lock().expect("counters poisoned");
        let e = counters.entry(name.to_string()).or_insert(0);
        *e = (*e).max(value);
    }

    /// A kernel launch retired: reported once per launched kernel (a
    /// co-scheduled pair reports each member).
    pub fn record_kernel_launch(&self, kernel: &str, stats: &KernelLaunch) {
        let mut kernels = self.kernels.lock().expect("kernels poisoned");
        let (launches, totals) = kernels.entry(kernel.to_string()).or_default();
        *launches += 1;
        totals.warp_instrs += stats.warp_instrs;
        totals.thread_instrs += stats.thread_instrs;
        totals.blocks += stats.blocks;
        totals.warps += stats.warps;
        totals.barriers += stats.barriers;
    }

    /// A kernel launch retired with an execution-cost profile: per-µop-
    /// class retired counts plus the launch's hottest pcs. Reported once
    /// per launched kernel (after
    /// [`MetricsRecorder::record_kernel_launch`]). The slices are
    /// borrowed from the caller's stack.
    pub fn record_exec_profile(
        &self,
        kernel: &str,
        classes: &[ExecClass],
        hotspots: &[ExecHotspot],
    ) {
        let mut execs = self.execs.lock().expect("execs poisoned");
        let agg = execs.entry(kernel.to_string()).or_default();
        for c in classes {
            let slot = agg.classes.entry(c.class).or_insert((0, 0));
            slot.0 += c.warp_uops;
            slot.1 += c.lane_uops;
        }
        for h in hotspots {
            let slot = agg.hotspots.entry(h.pc).or_insert((h.class, 0, 0));
            slot.1 += h.warp_uops;
            slot.2 += h.lane_uops;
        }
    }

    /// One pool worker finished its run: `parent` is the caller's span
    /// stack, under which the worker ran its tasks. The snapshot times
    /// the worker from the spans those tasks opened.
    pub fn record_pool_worker(
        &self,
        pool: &str,
        worker: usize,
        parent: &Inherited,
        stats: &PoolWorker,
    ) {
        let mut pools = self.pools.lock().expect("pools poisoned");
        let runs = pools.entry(pool.to_string()).or_default();
        runs.push((worker, parent.path(), *stats));
    }

    /// One workload finished characterization with `kernels` profiles.
    pub fn record_workload(&self, name: &str, kernels: u64) {
        let mut workloads = self.workloads.lock().expect("workloads poisoned");
        *workloads.entry(name.to_string()).or_default() += kernels;
    }
}

/// The last segment of `path` when the one before it is `prefix`:
/// `launch/<a>+<b>` or `study/workload/<name>`.
fn named<'p>(path: &'p str, prefix: &str) -> Option<&'p str> {
    let (head, name) = path.rsplit_once('/')?;
    (head.rsplit('/').next() == Some(prefix)).then_some(name)
}

/// Whether `path` lies strictly below `parent` (every path lies below
/// the empty one).
fn is_under(path: &str, parent: &str) -> bool {
    parent.is_empty()
        || path
            .strip_prefix(parent)
            .is_some_and(|r| r.starts_with('/'))
}

/// One pool's worker rows, and its task spans' durations. A worker's
/// tasks are the outermost spans its thread closed under the caller's
/// span path; `events` is sorted by start, and the spans of one thread
/// nest, so a span inside a task follows it directly.
fn pool_stats(
    events: &[SpanEvent],
    runs: &[WorkerRun],
) -> (Vec<(usize, PoolWorkerStat)>, Vec<u64>) {
    let mut workers: BTreeMap<usize, PoolWorkerStat> = BTreeMap::new();
    let mut task_ns = Vec::new();
    let (mut first, mut last) = (u64::MAX, 0);
    for (worker, parent, run) in runs {
        let slot = workers.entry(*worker).or_default();
        slot.tasks += run.tasks;
        slot.steals += run.steals;
        let mut task: Option<&SpanEvent> = None;
        for e in events {
            if e.thread != run.thread || !is_under(&e.path, parent) {
                continue;
            }
            if task.is_some_and(|t| e.end_ns <= t.end_ns && is_under(&e.path, &t.path)) {
                continue;
            }
            task = Some(e);
            slot.busy_ns += e.dur_ns();
            task_ns.push(e.dur_ns());
            first = first.min(e.start_ns);
            last = last.max(e.end_ns);
        }
    }
    for stat in workers.values_mut() {
        stat.wall_ns = last.saturating_sub(first);
    }
    (workers.into_iter().collect(), task_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_aggregate_by_path() {
        let rec = MetricsRecorder::default();
        rec.span_at("a", 1, 20, 30);
        rec.span_at("a", 1, 0, 5);
        rec.span_at("a/b", 1, 1, 4);
        let snap = rec.snapshot();
        let starts: Vec<u64> = snap.events.iter().map(|e| e.start_ns).collect();
        assert_eq!(starts, [0, 1, 20], "events are ordered by start");
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[0].path, "a");
        assert_eq!(snap.spans[0].count, 2);
        assert_eq!(snap.spans[0].total_ns, 15);
        assert_eq!(snap.stages().len(), 1, "only `a` is top-level");
    }

    #[test]
    fn top_spans_sort_descending_with_deterministic_ties() {
        let rec = MetricsRecorder::default();
        rec.span_at("b", 1, 0, 5);
        rec.span_at("a", 1, 5, 10);
        rec.span_at("c", 1, 10, 19);
        let snap = rec.snapshot();
        let top: Vec<&str> = snap.top_spans(2).iter().map(|s| s.path.as_str()).collect();
        assert_eq!(top, ["c", "a"]);
    }

    #[test]
    fn concurrent_writers_never_lose_events() {
        let rec = MetricsRecorder::default();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let rec = &rec;
                scope.spawn(move || {
                    for i in 0..100 {
                        rec.span_at("w", t + 1, i, i + 1);
                    }
                });
            }
        });
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), 800);
        assert_eq!(snap.spans[0].count, 800);
        assert_eq!(snap.spans[0].total_ns, 800);
    }

    #[test]
    fn pool_worker_busy_frac() {
        let w = PoolWorkerStat {
            tasks: 4,
            steals: 1,
            busy_ns: 30,
            wall_ns: 40,
        };
        assert!((w.busy_frac() - 0.75).abs() < 1e-12);
        assert_eq!(PoolWorkerStat::default().busy_frac(), 0.0);
    }

    #[test]
    fn histograms_aggregate_by_name() {
        let rec = MetricsRecorder::default();
        rec.span_at("study/workload/bfs/launch/k", 1, 10, 40);
        rec.span_at("study/workload/bfs/launch/k", 1, 50, 60);
        rec.span_at("launch/k+j", 1, 200, 290);
        // A workload named `launch` is no launch.
        rec.span_at("study/workload/launch", 1, 300, 301);
        let snap = rec.snapshot();
        assert_eq!(
            snap.hists,
            [
                ("launch.latency_ns".to_string(), vec![10, 30, 90]),
                ("pair.latency_ns".to_string(), vec![90]),
            ]
        );
    }

    #[test]
    fn launch_and_workload_spans_time_their_rows() {
        let rec = MetricsRecorder::default();
        rec.span_at("study/workload/bfs", 1, 0, 100);
        rec.span_at("study/workload/bfs/launch/k", 1, 10, 40);
        rec.span_at("study/workload/bfs/launch/k", 1, 50, 60);
        rec.span_at("launch/k+j", 1, 200, 290);
        for kernel in ["k", "k", "k", "j"] {
            rec.record_kernel_launch(kernel, &KernelLaunch::default());
        }
        rec.record_workload("bfs", 1);
        let snap = rec.snapshot();
        let walls: Vec<(&str, u64, u64)> = snap
            .kernels
            .iter()
            .map(|k| (k.name.as_str(), k.launches, k.wall_ns))
            .collect();
        assert_eq!(walls, [("j", 1, 90), ("k", 3, 130)], "a pair books both");
        assert_eq!(snap.workloads[0].wall_ns, 100);
    }

    #[test]
    fn pool_workers_are_timed_by_their_task_spans() {
        let rec = MetricsRecorder::default();
        let worker = |thread, tasks| PoolWorker {
            thread,
            tasks,
            steals: 0,
        };
        let parent = Inherited::default();
        rec.span_at("a", 2, 5, 15);
        rec.span_at("a/launch/k", 2, 6, 14);
        rec.span_at("b", 2, 15, 25);
        rec.span_at("c", 3, 10, 13);
        rec.span_at("elsewhere", 4, 0, 100);
        rec.record_pool_worker("p", 0, &parent, &worker(2, 2));
        rec.record_pool_worker("p", 1, &parent, &worker(3, 1));
        let snap = rec.snapshot();
        let (name, workers) = &snap.pools[0];
        assert_eq!(name, "p");
        let rows: Vec<(u64, u64, u64)> = workers
            .iter()
            .map(|(_, w)| (w.tasks, w.busy_ns, w.wall_ns))
            .collect();
        assert_eq!(rows, [(2, 20, 20), (1, 3, 20)], "makespan 5..25");
        let tasks = snap.hists.iter().find(|(n, _)| n == "pool.task_ns.p");
        assert_eq!(tasks.map(|(_, ns)| ns.as_slice()), Some(&[3, 10, 10][..]));
    }

    #[test]
    fn kernel_launches_accumulate() {
        let rec = MetricsRecorder::default();
        let s = KernelLaunch {
            warp_instrs: 10,
            thread_instrs: 300,
            blocks: 2,
            warps: 4,
            barriers: 1,
        };
        rec.record_kernel_launch("k", &s);
        rec.record_kernel_launch("k", &s);
        let snap = rec.snapshot();
        assert_eq!(snap.kernels.len(), 1);
        assert_eq!(snap.kernels[0].launches, 2);
        assert_eq!(snap.kernels[0].totals.warp_instrs, 20);
        assert_eq!(snap.kernels[0].totals.barriers, 2);
        assert_eq!(snap.kernels[0].wall_ns, 0, "no launch span");
    }

    #[test]
    fn exec_profiles_accumulate_across_launches() {
        let rec = MetricsRecorder::default();
        let classes = [
            ExecClass {
                class: "fp_alu",
                warp_uops: 3,
                lane_uops: 96,
            },
            ExecClass {
                class: "int_alu",
                warp_uops: 1,
                lane_uops: 32,
            },
        ];
        let hotspots = [ExecHotspot {
            pc: 7,
            class: "fp_alu",
            warp_uops: 3,
            lane_uops: 96,
        }];
        rec.record_exec_profile("k", &classes, &hotspots);
        rec.record_exec_profile("k", &classes[..1], &hotspots);
        let snap = rec.snapshot();
        assert_eq!(snap.execs.len(), 1);
        let e = &snap.execs[0];
        assert_eq!(e.kernel, "k");
        // Ordered by class name: fp_alu before int_alu.
        assert_eq!(e.classes[0].class, "fp_alu");
        assert_eq!(e.classes[0].warp_uops, 6);
        assert_eq!(e.classes[0].lane_uops, 192);
        assert_eq!(e.classes[1].class, "int_alu");
        assert_eq!(e.classes[1].warp_uops, 1);
        assert_eq!(e.hotspots.len(), 1);
        assert_eq!(e.hotspots[0].pc, 7);
        assert_eq!(e.hotspots[0].lane_uops, 192);
    }
}
