//! End-to-end shape test for the `--metrics` report: runs a small
//! experiment subset with the metrics recorder installed — exactly what
//! `regen --metrics` does — and asserts the report carries per-stage
//! wall times, per-worker pool utilization, latency histograms, and
//! per-workload kernel counts, and that every timed row is the exact
//! aggregate of its span events.
//!
//! This test installs the global recorder, so it lives in its own
//! integration-test binary: it never shares a process with the
//! recorder-free determinism and golden-snapshot tests.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use gwc_bench::{render_experiments, StudyArtifacts};
use gwc_obs::json::Json;
use gwc_obs::metrics::{MetricsRecorder, SpanEvent};
use gwc_obs::report::{build_report, validate_str, ReportContext, RunMeta, REQUIRED_KEYS};

/// Length of the union of `intervals`.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, 0);
    for (start, end) in intervals {
        if end > reach {
            total += end - start.max(reach);
            reach = end;
        }
    }
    total
}

/// Checks self-time nodes `(path, busy_ns, wall_ns, exclusive_ns)`
/// against the span events they fold. A node with spans of its own has
/// their summed durations as busy time and their union as wall time; a
/// node without takes its descendants' union as wall time and has no
/// exclusive time. Every node's exclusive time is its wall time minus
/// the time its descendants cover, and descendants lie inside their
/// ancestors' spans.
fn check_self_time<'a>(
    events: &[SpanEvent],
    nodes: impl Iterator<Item = (&'a str, u64, u64, u64)>,
) {
    let interval = |e: &SpanEvent| (e.start_ns, e.end_ns);
    for (path, busy, wall, exclusive) in nodes {
        let own: Vec<(u64, u64)> = events
            .iter()
            .filter(|e| e.path == path)
            .map(interval)
            .collect();
        let below = format!("{path}/");
        let desc: Vec<(u64, u64)> = events
            .iter()
            .filter(|e| e.path.starts_with(&below))
            .map(interval)
            .collect();
        let desc_ns = union_ns(desc.clone());
        if own.is_empty() {
            assert_eq!((wall, exclusive), (desc_ns, 0), "`{path}` has no span");
            continue;
        }
        let own_busy: u64 = own.iter().map(|(s, e)| e - s).sum();
        assert_eq!(busy, own_busy, "busy time of `{path}`");
        assert_eq!(wall, union_ns(own.clone()), "wall time of `{path}`");
        let covered = wall + desc_ns - union_ns([own, desc].concat());
        assert_eq!(covered, desc_ns, "descendants of `{path}` leave its spans");
        assert_eq!(exclusive, wall - covered, "exclusive time of `{path}`");
    }
}

#[test]
fn metrics_report_has_stages_pools_and_workloads() {
    let threads = 4;
    let rec = Arc::new(MetricsRecorder::default());
    let guard = gwc_obs::install(rec.clone());
    let artifacts = StudyArtifacts::collect_threads(threads);
    let text = render_experiments(&["e1", "e2"], &artifacts);
    drop(guard);
    assert!(text.contains("E1:") && text.contains("E2:"));

    let snap = rec.snapshot();
    let report = build_report(
        &snap,
        &ReportContext {
            threads,
            experiment_ids: vec!["e1".into(), "e2".into()],
            meta: RunMeta {
                timestamp_ms: 1_700_000_000_000,
                backend: "simd".into(),
                cache: "off".into(),
                label: "test".into(),
            },
        },
    );
    let rendered = report.render();
    let doc = validate_str(&rendered).expect("report validates and round-trips");
    for key in REQUIRED_KEYS {
        assert!(doc.get(key).is_some(), "missing required key `{key}`");
    }
    assert_eq!(doc.get("schema_version").unwrap().as_u64(), Some(8));
    assert!(doc.get("gauges").is_none(), "schema v7 has no gauges");
    assert!(doc.get("fallbacks").is_none(), "schema v5 has no fallbacks");
    assert!(
        doc.get("timeseries").is_none(),
        "schema v6 has no timeseries"
    );
    assert_eq!(doc.get("threads").unwrap().as_u64(), Some(threads as u64));

    // The run-metadata header (schema v4) round-trips.
    let meta = doc.get("meta").unwrap();
    assert_eq!(meta.get("backend").unwrap().as_str(), Some("simd"));
    assert_eq!(meta.get("cache").unwrap().as_str(), Some("off"));
    assert_eq!(meta.get("label").unwrap().as_str(), Some("test"));
    assert_eq!(meta.get("threads").unwrap().as_u64(), Some(threads as u64));

    // Schema v2: latency histograms with quantile summaries. The launch
    // path and the pool task path must both have reported samples.
    let hists = doc.get("histograms").unwrap().as_arr().unwrap();
    let hist_names: Vec<&str> = hists
        .iter()
        .map(|h| h.get("name").unwrap().as_str().unwrap())
        .collect();
    for want in ["launch.latency_ns", "pool.task_ns.study"] {
        assert!(hist_names.contains(&want), "missing histogram `{want}`");
    }
    for h in hists {
        let count = h.get("count").unwrap().as_u64().unwrap();
        assert!(count > 0, "empty histogram in report");
        let p50 = h.get("p50_ns").unwrap().as_u64().unwrap();
        let p99 = h.get("p99_ns").unwrap().as_u64().unwrap();
        let max = h.get("max_ns").unwrap().as_u64().unwrap();
        assert!(p50 <= p99 && p99 <= max, "quantiles out of order");
        assert!(h.get("sum_ns").unwrap().as_u64().unwrap() >= max);
    }

    // Per-stage wall times: the pipeline stages must all be present
    // with nonzero durations.
    let stages = doc.get("stages").unwrap().as_arr().unwrap();
    let stage_names: Vec<&str> = stages
        .iter()
        .map(|s| s.get("name").unwrap().as_str().unwrap())
        .collect();
    for want in ["study", "matrix", "reduce", "cluster"] {
        assert!(stage_names.contains(&want), "missing stage `{want}`");
    }
    for s in stages {
        assert!(s.get("wall_ns").unwrap().as_u64().unwrap() > 0);
        assert!(s.get("rollup_ns").is_none(), "schema v6 has no rollup_ns");
    }

    // Per-experiment spans for exactly the ids we ran.
    let experiments = doc.get("experiments").unwrap().as_arr().unwrap();
    let ids: Vec<&str> = experiments
        .iter()
        .map(|e| e.get("id").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(ids, ["e1", "e2"]);

    // Per-worker pool utilization: the study pool fanned out, and every
    // worker row carries tasks/steals/busy_frac.
    let pools = doc.get("pools").unwrap().as_arr().unwrap();
    let study_pool = pools
        .iter()
        .find(|p| p.get("name").unwrap().as_str() == Some("study"))
        .expect("study pool recorded");
    let workers = study_pool.get("workers").unwrap().as_arr().unwrap();
    assert!(!workers.is_empty() && workers.len() <= threads);
    let mut total_tasks = 0;
    for w in workers {
        total_tasks += w.get("tasks").unwrap().as_u64().unwrap();
        assert!(w.get("steals").unwrap().as_u64().is_some());
        let busy = w.get("busy_frac").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&busy), "busy_frac {busy} out of range");
    }
    // One task per workload in the registry (including vector_add,
    // which is excluded from the study population but still runs).
    assert!(total_tasks > 10, "study ran {total_tasks} workloads");

    // Per-workload kernel counts.
    let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
    assert!(workloads.len() > 10);
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").unwrap().as_str().unwrap())
        .collect();
    for want in ["vector_add", "histogram"] {
        assert!(names.contains(&want), "missing workload `{want}`");
    }
    for w in workloads {
        assert!(w.get("kernels").unwrap().as_u64().unwrap() > 0);
        assert!(w.get("wall_ns").unwrap().as_u64().unwrap() > 0);
    }

    // Kernel launch counters flowed up from the SIMT layer, wall time
    // included (schema v3).
    let kernels = doc.get("kernels").unwrap().as_arr().unwrap();
    assert!(!kernels.is_empty(), "kernel launches recorded");
    assert!(
        kernels
            .iter()
            .any(|k| k.get("wall_ns").unwrap().as_u64().unwrap() > 0),
        "no kernel carries launch wall time"
    );

    // The self-time tree (schema v7) folds the span events: every node's
    // exclusive time is the wall time its children leave uncovered, with
    // the study's workloads running on four workers.
    let self_time = doc.get("self_time").unwrap().as_arr().unwrap();
    assert!(!self_time.is_empty(), "self_time tree is empty");
    let field = |n: &Json, key: &str| n.get(key).unwrap().as_u64().unwrap();
    check_self_time(
        &snap.events,
        self_time.iter().map(|n| {
            (
                n.get("path").unwrap().as_str().unwrap(),
                field(n, "busy_ns"),
                field(n, "wall_ns"),
                field(n, "exclusive_ns"),
            )
        }),
    );

    // Schema v3: per-kernel execution profiles with µop-class counters
    // and pc hotspots.
    let execs = doc.get("exec_profiles").unwrap().as_arr().unwrap();
    assert!(!execs.is_empty(), "no execution profiles recorded");
    for e in execs {
        let classes = e.get("classes").unwrap().as_arr().unwrap();
        assert!(!classes.is_empty(), "profile without class counters");
        for c in classes {
            let warp = c.get("warp_uops").unwrap().as_u64().unwrap();
            let lane = c.get("lane_uops").unwrap().as_u64().unwrap();
            assert!(warp > 0, "zero-count class emitted");
            assert!(lane >= warp, "a warp µop retires at least one lane");
        }
        let hotspots = e.get("hotspots").unwrap().as_arr().unwrap();
        assert!(!hotspots.is_empty(), "profile without hotspots");
    }
}

/// Span paths do not depend on the thread count: pool tasks (study
/// workloads, E14 scenarios) nest their spans where the serial loop's
/// would, and a study launch nests under its workload's span. At one
/// thread, every node's busy time equals its wall time, its children
/// fit inside its own wall time, and the top-level spans fit inside the
/// wall time of the whole run. At two threads, every node's exclusive
/// time is its wall time minus what its children cover, so `study`
/// keeps a positive share while its workloads' busy time overlaps.
/// Tiny scale keeps the two runs cheap; the nesting is the same at
/// every scale.
#[test]
fn span_paths_are_independent_of_thread_count() {
    use std::collections::BTreeSet;

    use gwc_core::pipeline::PipelineConfig;
    use gwc_obs::metrics::MetricsSnapshot;
    use gwc_obs::selftime::fold;
    use gwc_workloads::Scale;

    // The snapshot, and the wall time around the whole recorded run.
    let run = |threads: usize| -> (MetricsSnapshot, u64) {
        let mut cfg = PipelineConfig {
            threads,
            ..PipelineConfig::default()
        };
        cfg.study.scale = Scale::Tiny;
        let rec = Arc::new(MetricsRecorder::default());
        let guard = gwc_obs::install(rec.clone());
        let wall = Instant::now();
        let artifacts = StudyArtifacts::collect(&cfg);
        let text = render_experiments(&["e14"], &artifacts);
        let wall_ns = wall.elapsed().as_nanos() as u64;
        drop(guard);
        assert!(text.contains("E14:"));
        (rec.snapshot(), wall_ns)
    };
    let paths = |snap: &MetricsSnapshot| -> BTreeSet<String> {
        snap.spans.iter().map(|s| s.path.clone()).collect()
    };
    let (serial_snap, serial_wall_ns) = run(1);
    let (parallel_snap, _) = run(2);
    let serial = paths(&serial_snap);
    assert_eq!(
        serial,
        paths(&parallel_snap),
        "span paths at 1 vs 2 threads"
    );
    let workload_launch = serial
        .iter()
        .filter_map(|p| p.strip_prefix("study/workload/"))
        .find(|rest| {
            rest.split_once('/')
                .is_some_and(|(_, l)| l.starts_with("launch/"))
        });
    assert!(
        workload_launch.is_some(),
        "study launches nest under their workload span: {serial:?}"
    );
    assert!(
        !serial.iter().any(|p| p.starts_with("study/launch/")),
        "no study launch records beside its workload: {serial:?}"
    );
    let scenario_launch = serial
        .iter()
        .filter_map(|p| p.strip_prefix("experiment/e14/pairs/"))
        .find(|rest| {
            rest.split_once('/')
                .is_some_and(|(_, l)| l.starts_with("launch/"))
        });
    assert!(
        scenario_launch.is_some(),
        "pair launches nest under their scenario span: {serial:?}"
    );
    assert!(
        !serial.iter().any(|p| p.contains("pairs/pairs")),
        "scenario spans carry no doubled prefix"
    );

    // Serially, every span's children run one after another inside it,
    // so their wall times sum to at most its own, and no two spans of
    // one path overlap.
    let tree = fold(&serial_snap.events);
    assert!(
        tree.nodes.iter().any(|n| n.path == "study" && n.count > 0),
        "study span recorded"
    );
    for (i, node) in tree.nodes.iter().enumerate() {
        assert_eq!(
            node.busy_ns, node.wall_ns,
            "busy vs wall of `{}`",
            node.path
        );
        let children: u64 = tree.nodes[i + 1..]
            .iter()
            .take_while(|n| n.depth > node.depth)
            .filter(|n| n.depth == node.depth + 1)
            .map(|n| n.wall_ns)
            .sum();
        assert!(
            children <= node.wall_ns,
            "children of `{}` sum to {children} ns, past its {} ns",
            node.path,
            node.wall_ns
        );
    }
    let top: u64 = tree
        .nodes
        .iter()
        .filter(|n| n.depth == 0)
        .map(|n| n.wall_ns)
        .sum();
    assert!(
        top <= serial_wall_ns,
        "top-level spans sum to {top} ns, past the run's {serial_wall_ns} ns"
    );
    check_self_time(
        &serial_snap.events,
        tree.nodes
            .iter()
            .map(|n| (n.path.as_str(), n.busy_ns, n.wall_ns, n.exclusive_ns)),
    );

    // At two threads the study's workloads overlap: their busy time may
    // pass the study's wall time, but exclusive time stays the wall time
    // no child covers, unclamped.
    let tree = fold(&parallel_snap.events);
    check_self_time(
        &parallel_snap.events,
        tree.nodes
            .iter()
            .map(|n| (n.path.as_str(), n.busy_ns, n.wall_ns, n.exclusive_ns)),
    );
    let study = tree
        .nodes
        .iter()
        .find(|n| n.path == "study")
        .expect("study node");
    assert!(
        study.exclusive_ns > 0,
        "study keeps its own time: {study:?}"
    );
}

/// Every timed row of a real two-thread report is the exact aggregate of
/// its span events: each workload's and kernel's wall time; each latency
/// series' count, sum, max and nearest-rank quantiles; and each pool
/// worker's task count, busy time and wall time (the pool's makespan).
/// The study's tasks are its `workload/<name>` spans, E14's its
/// scenario spans.
#[test]
fn timed_rows_equal_their_span_events() {
    use gwc_core::pipeline::PipelineConfig;
    use gwc_workloads::Scale;

    let mut cfg = PipelineConfig {
        threads: 2,
        ..PipelineConfig::default()
    };
    cfg.study.scale = Scale::Tiny;
    let rec = Arc::new(MetricsRecorder::default());
    let guard = gwc_obs::install(rec.clone());
    let artifacts = StudyArtifacts::collect(&cfg);
    let text = render_experiments(&["e1", "e14"], &artifacts);
    drop(guard);
    assert!(text.contains("E14:"));
    let snap = rec.snapshot();
    let doc = build_report(&snap, &ReportContext::default());
    let rows = |key: &str| doc.get(key).unwrap().as_arr().unwrap();
    let uint = |row: &Json, key: &str| row.get(key).unwrap().as_u64().unwrap();
    let name = |row: &Json| row.get("name").unwrap().as_str().unwrap().to_string();

    // The span events, sorted into the rows they time.
    let mut workload_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut kernel_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut series: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut tasks: BTreeMap<&str, Vec<&SpanEvent>> = BTreeMap::new();
    for e in &snap.events {
        let segments: Vec<&str> = e.path.split('/').collect();
        match segments[..] {
            ["study", "workload", workload] => {
                *workload_ns.entry(workload).or_default() += e.dur_ns();
                tasks.entry("study").or_default().push(e);
            }
            ["experiment", "e14", "pairs", _] => tasks.entry("pairs").or_default().push(e),
            [.., "launch", names] => {
                let mut sample = |series_name: &str| {
                    series
                        .entry(series_name.into())
                        .or_default()
                        .push(e.dur_ns());
                };
                sample("launch.latency_ns");
                if names.contains('+') {
                    sample("pair.latency_ns");
                }
                for kernel in names.split('+') {
                    *kernel_ns.entry(kernel).or_default() += e.dur_ns();
                }
            }
            _ => {}
        }
    }
    assert!(series["pair.latency_ns"].len() > 1, "E14 co-ran pairs");

    let walls = |key: &str| -> BTreeMap<String, u64> {
        rows(key)
            .iter()
            .map(|r| (name(r), uint(r, "wall_ns")))
            .collect()
    };
    let owned = |m: &BTreeMap<&str, u64>| -> BTreeMap<String, u64> {
        m.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    };
    assert_eq!(walls("workloads"), owned(&workload_ns), "workload walls");
    assert_eq!(walls("kernels"), owned(&kernel_ns), "kernel walls");

    for (pool, spans) in &tasks {
        let ns = spans.iter().map(|e| e.dur_ns()).collect();
        series.insert(format!("pool.task_ns.{pool}"), ns);
    }
    let hists = rows("histograms");
    let names: Vec<String> = hists.iter().map(name).collect();
    assert_eq!(names, series.keys().cloned().collect::<Vec<_>>());
    // Nearest rank: the smallest sample with at least p% at or below it.
    let rank = |samples: &[u64], p: usize| samples[(p * samples.len()).div_ceil(100) - 1];
    for h in hists {
        let samples = series.get_mut(&name(h)).unwrap();
        samples.sort_unstable();
        let got: Vec<u64> = ["count", "sum_ns", "max_ns", "p50_ns", "p90_ns", "p99_ns"]
            .iter()
            .map(|key| uint(h, key))
            .collect();
        let want = [
            samples.len() as u64,
            samples.iter().sum(),
            *samples.last().unwrap(),
            rank(samples, 50),
            rank(samples, 90),
            rank(samples, 99),
        ];
        assert_eq!(got, want, "histogram `{}`", name(h));
    }

    for pool in rows("pools") {
        let spans = &tasks[name(pool).as_str()];
        let makespan = spans.iter().map(|e| e.end_ns).max().unwrap()
            - spans.iter().map(|e| e.start_ns).min().unwrap();
        let mut by_thread: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for e in spans {
            let (count, busy) = by_thread.entry(e.thread).or_default();
            *count += 1;
            *busy += e.dur_ns();
        }
        let mut want: Vec<(u64, u64)> = by_thread.into_values().collect();
        let workers = pool.get("workers").unwrap().as_arr().unwrap();
        let mut got: Vec<(u64, u64)> = workers
            .iter()
            .map(|w| (uint(w, "tasks"), uint(w, "busy_ns")))
            .filter(|&(tasks, _)| tasks > 0)
            .collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "pool `{}` (tasks, busy_ns)", name(pool));
        for w in workers {
            assert_eq!(uint(w, "wall_ns"), makespan, "pool `{}`", name(pool));
        }
    }
}
