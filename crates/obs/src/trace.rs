//! Chrome/Perfetto trace-event export of a run's span events — the
//! engine behind `regen --trace`.
//!
//! Where the per-path aggregates say how much in total, the trace
//! replays every [`SpanEvent`] a [`crate::metrics::MetricsRecorder`]
//! kept as a timeline: when did what run, on which thread, nested how.
//!
//! # Export format
//!
//! [`export`] emits the Chrome trace-event JSON object form
//! (`{"traceEvents": [...], "metadata": {...}}`) with one complete
//! (`"ph": "X"`) event per span, timestamps in fractional microseconds
//! relative to the recorder's construction. Perfetto and
//! `chrome://tracing` load it directly; spans nest per thread by
//! interval containment, which the span stack guarantees.

use crate::json::Json;
use crate::metrics::SpanEvent;

/// Renders `events` as a Chrome trace-event JSON document, one row per
/// event in slice order ([`crate::metrics::MetricsSnapshot::events`] is
/// ordered by start time, so the document's shape is a deterministic
/// function of the recorded timeline). `metadata.recorded_events`
/// counts the events.
pub fn export(events: &[SpanEvent]) -> Json {
    let mut rows: Vec<Json> = Vec::with_capacity(events.len());
    // Name the single simulated process and each thread row first —
    // Perfetto shows these as track labels.
    rows.push(meta_event("process_name", 0, "gwc"));
    let mut threads: Vec<u64> = events.iter().map(|e| e.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    for t in threads {
        let label = if t == 1 {
            "main".to_string()
        } else {
            format!("thread-{t}")
        };
        rows.push(meta_event("thread_name", t, &label));
    }
    for e in events {
        rows.push(Json::Obj(vec![
            ("name".into(), Json::Str(e.path.clone())),
            ("cat".into(), Json::Str("span".into())),
            ("ph".into(), Json::Str("X".into())),
            ("pid".into(), Json::UInt(1)),
            ("tid".into(), Json::UInt(e.thread)),
            ("ts".into(), Json::Num(e.start_ns as f64 / 1e3)),
            ("dur".into(), Json::Num(e.dur_ns() as f64 / 1e3)),
        ]));
    }
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(rows)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
        (
            "metadata".into(),
            Json::Obj(vec![
                ("tool".into(), Json::Str("gwc-obs".into())),
                ("recorded_events".into(), Json::UInt(events.len() as u64)),
            ]),
        ),
    ])
}

fn meta_event(name: &str, tid: u64, value: &str) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(name.into())),
        ("ph".into(), Json::Str("M".into())),
        ("pid".into(), Json::UInt(1)),
        ("tid".into(), Json::UInt(tid)),
        (
            "args".into(),
            Json::Obj(vec![("name".into(), Json::Str(value.into()))]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRecorder;

    #[test]
    fn records_span_events_with_relative_timestamps() {
        let rec = MetricsRecorder::default();
        rec.span_at("study", 1, 100, 1_100);
        rec.span_at("study/observe", 2, 150, 350);
        let events = rec.snapshot().events;
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].path, "study");
        assert_eq!(events[0].start_ns, 100);
        assert_eq!(events[0].dur_ns(), 1_000);
        assert_eq!(events[1].thread, 2);
    }

    #[test]
    fn export_is_valid_chrome_trace_json() {
        let rec = MetricsRecorder::default();
        rec.span_at("study", 1, 0, 10_000);
        rec.span_at("study/inner", 1, 2_000, 5_000);
        let doc = export(&rec.snapshot().events);
        let text = doc.render();
        let back = crate::json::parse(&text).expect("export parses");
        let rows = back.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 process_name + 1 thread_name + 2 spans.
        assert_eq!(rows.len(), 4);
        let meta = back.get("metadata").unwrap();
        assert_eq!(meta.get("recorded_events").unwrap().as_u64(), Some(2));
        let span = rows
            .iter()
            .find(|r| r.get("name").unwrap().as_str() == Some("study"))
            .unwrap();
        assert_eq!(span.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(0.0));
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(10.0));
        // The child interval is contained in the parent's: that is what
        // makes the spans nest per thread in Perfetto.
        let child = rows
            .iter()
            .find(|r| r.get("name").unwrap().as_str() == Some("study/inner"))
            .unwrap();
        let (cts, cdur) = (
            child.get("ts").unwrap().as_f64().unwrap(),
            child.get("dur").unwrap().as_f64().unwrap(),
        );
        assert!(cts >= 0.0 && cts + cdur <= 10.0);
    }
}
