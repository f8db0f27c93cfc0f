//! [`MetricsRecorder`]: the one recorder, behind `regen --metrics`,
//! `--trace`, `--trace-summary` and `--flame` alike.
//!
//! It keeps each closed span once, as a [`SpanEvent`] (path, thread
//! ordinal, start, end), and aggregates everything else into ordered
//! maps keyed by name. Every span view derives from a snapshot's event
//! list: the per-path aggregates ([`MetricsSnapshot::spans`]), the
//! self-time tree ([`crate::selftime::fold`]) and the Chrome trace
//! ([`crate::trace::export`]). A snapshot's *shape* is deterministic
//! for a given pipeline run — only the recorded times vary between
//! runs. That is what makes the metrics report schema snapshot-testable
//! while timings are not.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::hist::Histogram;
use crate::recorder::{ExecClass, ExecHotspot, KernelLaunch, PoolWorker};

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
    /// Wall time of the workload's characterization run.
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
    pools: Mutex<BTreeMap<String, BTreeMap<usize, PoolWorker>>>,
    workloads: Mutex<BTreeMap<String, (u64, u64)>>,
    hists: Mutex<BTreeMap<String, Histogram>>,
    execs: Mutex<BTreeMap<String, ExecAgg>>,
}

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
            hists: Mutex::default(),
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
    pub pools: Vec<(String, Vec<(usize, PoolWorker)>)>,
    /// Per-workload statistics, ordered by workload name.
    pub workloads: Vec<WorkloadStat>,
    /// Latency histograms, ordered by name. The full [`Histogram`] is
    /// kept (not just quantiles) so merge equality is testable bucket
    /// for bucket.
    pub hists: Vec<(String, Histogram)>,
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
    /// Freezes the current aggregates into an ordered snapshot.
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
        for e in &events {
            let (count, total_ns) = spans.entry(&e.path).or_default();
            *count += 1;
            *total_ns += e.dur_ns();
        }
        let spans = spans
            .into_iter()
            .map(|(path, (count, total_ns))| SpanStat {
                path: path.to_string(),
                count,
                total_ns,
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
            kernels: self
                .kernels
                .lock()
                .expect("kernels poisoned")
                .iter()
                .map(|(name, (launches, totals))| KernelStat {
                    name: name.clone(),
                    launches: *launches,
                    totals: *totals,
                })
                .collect(),
            pools: self
                .pools
                .lock()
                .expect("pools poisoned")
                .iter()
                .map(|(name, workers)| {
                    (
                        name.clone(),
                        workers.iter().map(|(w, s)| (*w, *s)).collect(),
                    )
                })
                .collect(),
            workloads: self
                .workloads
                .lock()
                .expect("workloads poisoned")
                .iter()
                .map(|(name, (kernels, wall_ns))| WorkloadStat {
                    name: name.clone(),
                    kernels: *kernels,
                    wall_ns: *wall_ns,
                })
                .collect(),
            hists: self
                .hists
                .lock()
                .expect("hists poisoned")
                .iter()
                .map(|(name, h)| (name.clone(), h.clone()))
                .collect(),
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
        totals.wall_ns += stats.wall_ns;
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

    /// One pool worker finished its run of a `parallel_map`.
    pub fn record_pool_worker(&self, pool: &str, worker: usize, stats: &PoolWorker) {
        let mut pools = self.pools.lock().expect("pools poisoned");
        let workers = pools.entry(pool.to_string()).or_default();
        let slot = workers.entry(worker).or_default();
        slot.tasks += stats.tasks;
        slot.steals += stats.steals;
        slot.busy_ns += stats.busy_ns;
        slot.wall_ns += stats.wall_ns;
    }

    /// One workload finished characterization.
    pub fn record_workload(&self, name: &str, kernels: u64, nanos: u64) {
        let mut workloads = self.workloads.lock().expect("workloads poisoned");
        let (k, ns) = workloads.entry(name.to_string()).or_default();
        *k += kernels;
        *ns += nanos;
    }

    /// Records one sample into the named latency histogram.
    pub fn record_hist(&self, name: &str, value: u64) {
        let mut hists = self.hists.lock().expect("hists poisoned");
        hists.entry(name.to_string()).or_default().record(value);
    }
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
        let w = PoolWorker {
            tasks: 4,
            steals: 1,
            busy_ns: 30,
            wall_ns: 40,
        };
        assert!((w.busy_frac() - 0.75).abs() < 1e-12);
        assert_eq!(PoolWorker::default().busy_frac(), 0.0);
    }

    #[test]
    fn histograms_aggregate_by_name() {
        let rec = MetricsRecorder::default();
        rec.record_hist("launch.latency_ns", 100);
        rec.record_hist("launch.latency_ns", 900);
        rec.record_hist("shard.observe_ns", 5);
        let snap = rec.snapshot();
        assert_eq!(snap.hists.len(), 2);
        assert_eq!(snap.hists[0].0, "launch.latency_ns");
        assert_eq!(snap.hists[0].1.count(), 2);
        assert_eq!(snap.hists[0].1.max(), 900);
        assert_eq!(snap.hists[1].0, "shard.observe_ns");
        assert_eq!(snap.hists[1].1.count(), 1);
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
            wall_ns: 50,
        };
        rec.record_kernel_launch("k", &s);
        rec.record_kernel_launch("k", &s);
        let snap = rec.snapshot();
        assert_eq!(snap.kernels.len(), 1);
        assert_eq!(snap.kernels[0].launches, 2);
        assert_eq!(snap.kernels[0].totals.warp_instrs, 20);
        assert_eq!(snap.kernels[0].totals.barriers, 2);
        assert_eq!(snap.kernels[0].totals.wall_ns, 100);
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
