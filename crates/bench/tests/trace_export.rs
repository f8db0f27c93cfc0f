//! End-to-end trace timeline test: runs a small experiment subset with
//! the recorder installed and exports its span events — exactly what
//! `regen --trace` does — and asserts the document is well-formed
//! Chrome trace-event JSON: spans for the pipeline stages and kernel
//! launches, per-thread nesting by interval containment, and one row
//! per span the snapshot aggregates.
//!
//! This test installs the global recorder, so it lives in its own
//! integration-test binary: it never shares a process with the
//! recorder-free determinism and golden-snapshot tests.

use std::sync::Arc;

use gwc_bench::{render_experiments, StudyArtifacts};
use gwc_obs::json::Json;
use gwc_obs::metrics::MetricsRecorder;

#[test]
fn trace_export_is_valid_chrome_trace_json() {
    let rec = Arc::new(MetricsRecorder::default());
    let guard = gwc_obs::install(rec.clone());
    let artifacts = StudyArtifacts::collect_threads(4);
    let text = render_experiments(&["e1", "e2"], &artifacts);
    drop(guard);
    assert!(text.contains("E1:") && text.contains("E2:"));

    let snap = rec.snapshot();
    let doc = gwc_obs::trace::export(&snap.events);
    // Round-trips through the hand-rolled JSON layer.
    let rendered = doc.render();
    let parsed = gwc_obs::json::parse(&rendered).expect("export renders to parseable JSON");
    assert_eq!(parsed, doc);

    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let meta = doc.get("metadata").expect("metadata object");
    assert_eq!(meta.get("tool").and_then(Json::as_str), Some("gwc-obs"));
    let recorded = meta
        .get("recorded_events")
        .and_then(Json::as_u64)
        .expect("recorded_events");
    // The timeline and the aggregates read the same events.
    let aggregated: u64 = snap.spans.iter().map(|s| s.count).sum();
    assert_eq!(recorded, aggregated, "trace rows vs aggregated span count");

    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");

    // Metadata events name the process and every thread that emitted a
    // span; "X" complete events carry the timeline itself.
    let metas: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .collect();
    assert!(metas
        .iter()
        .any(|e| e.get("name").and_then(Json::as_str) == Some("process_name")));
    assert!(metas
        .iter()
        .any(|e| e.get("name").and_then(Json::as_str) == Some("thread_name")));

    let spans: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert_eq!(spans.len() as u64, recorded);
    assert!(!spans.is_empty(), "timeline captured spans");
    let names: Vec<&str> = spans
        .iter()
        .map(|e| e.get("name").and_then(Json::as_str).unwrap())
        .collect();
    for want in [
        "study",
        "matrix",
        "reduce",
        "cluster",
        "experiment/e1",
        "experiment/e2",
    ] {
        assert!(names.contains(&want), "missing span `{want}`");
    }
    // Pool workers enter the study span, and each workload's span
    // encloses its launches, at any thread count.
    assert!(
        names.iter().any(|n| n
            .strip_prefix("study/workload/")
            .and_then(|rest| rest.split_once('/'))
            .is_some_and(|(_, l)| l.starts_with("launch/"))),
        "kernel launch spans captured under their workload span"
    );
    assert!(
        !names
            .iter()
            .any(|n| n.starts_with("launch/") || n.starts_with("study/launch/")),
        "no launch span escapes its workload"
    );

    // Every span has the complete-event shape with sane timestamps.
    for e in &spans {
        assert_eq!(e.get("pid").and_then(Json::as_u64), Some(1));
        assert!(e.get("tid").and_then(Json::as_u64).unwrap() >= 1);
        let ts = e.get("ts").and_then(Json::as_f64).unwrap();
        let dur = e.get("dur").and_then(Json::as_f64).unwrap();
        assert!(ts >= 0.0 && dur >= 0.0);
    }

    // Per-thread nesting: spans on one thread either nest (interval
    // containment) or are disjoint — never partially overlapping, which
    // would render as a broken flame graph.
    let mut tids: Vec<u64> = spans
        .iter()
        .map(|e| e.get("tid").and_then(Json::as_u64).unwrap())
        .collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let mut intervals: Vec<(f64, f64)> = spans
            .iter()
            .filter(|e| e.get("tid").and_then(Json::as_u64) == Some(tid))
            .map(|e| {
                let ts = e.get("ts").and_then(Json::as_f64).unwrap();
                let dur = e.get("dur").and_then(Json::as_f64).unwrap();
                (ts, ts + dur)
            })
            .collect();
        // Sort by start ascending, end descending, so a parent sorts
        // before the children it contains even on tied starts; then a
        // stack walk verifies strict containment.
        intervals.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(b.1.partial_cmp(&a.1).unwrap())
        });
        let mut open: Vec<(f64, f64)> = Vec::new();
        for (start, end) in intervals {
            while let Some(&(_, top_end)) = open.last() {
                if top_end <= start {
                    open.pop();
                } else {
                    break;
                }
            }
            if let Some(&(top_start, top_end)) = open.last() {
                assert!(
                    start >= top_start && end <= top_end,
                    "partially overlapping spans on tid {tid}: \
                     [{start}, {end}] vs enclosing [{top_start}, {top_end}]"
                );
            }
            open.push((start, end));
        }
    }
}
