//! The schema-versioned metrics report behind `regen --metrics`.
//!
//! [`build_report`] turns a [`MetricsSnapshot`] into a JSON document
//! whose *shape* is deterministic for a given pipeline configuration —
//! every array is ordered by name, every record carries the same keys —
//! while the recorded durations vary run to run. [`validate`] checks a
//! parsed document against the schema (required keys, types, version),
//! and [`validate_str`] additionally round-trips it through the writer
//! and parser, which is what CI runs on every regen metrics artifact.

use crate::json::{parse, Json};
use crate::metrics::MetricsSnapshot;

/// Version stamped into every freshly built report. Schema v2 extends
/// v1 with a `histograms` array (latency distributions, p50/p90/p99/max
/// per histogram); schema v3 adds the execution-cost attribution
/// sections — `self_time` (the folded span tree, see
/// [`crate::selftime`]) and `exec_profiles` (per-kernel µop-class
/// counters and pc hotspots) — and a `wall_ns` column on `kernels`;
/// schema v4 adds the run-metadata header `meta` (wall-clock timestamp,
/// threads, backend, cache mode, label) and a live-telemetry section;
/// schema v5 drops the `fallbacks` section (launches no longer shard,
/// so none fall back); schema v6 drops the live-telemetry `timeseries`
/// section and the `stages[].rollup_ns` column, which added every
/// descendant span to its stage and so overcounted by nesting depth;
/// schema v7 drops the `gauges` section (nothing outside tests set a
/// gauge) and gives each `self_time` node `busy_ns` (its spans' summed
/// durations, v6's `total_ns`) and `wall_ns` (the union of their
/// intervals) in place of `total_ns` and `inclusive_ns`, with
/// `exclusive_ns` the wall time no child covers.
pub const SCHEMA_VERSION: u64 = 7;

/// Schema versions [`validate`] accepts: only the one this crate writes.
pub const SUPPORTED_VERSIONS: [u64; 1] = [SCHEMA_VERSION];

/// Required top-level keys of the current schema, in emission order.
pub const REQUIRED_KEYS: [&str; 14] = [
    "schema_version",
    "meta",
    "threads",
    "experiment_ids",
    "stages",
    "experiments",
    "workloads",
    "kernels",
    "pools",
    "counters",
    "histograms",
    "spans",
    "self_time",
    "exec_profiles",
];

/// Run provenance stamped into the `meta` header: when and how the
/// report was produced. The snapshot itself records none of this.
#[derive(Debug, Clone, Default)]
pub struct RunMeta {
    /// Wall-clock milliseconds since the UNIX epoch at report time
    /// (0 when the clock is unavailable — e.g. in deterministic tests).
    pub timestamp_ms: u64,
    /// Execution backend name (`scalar`, `simd`).
    pub backend: String,
    /// Cache mode: the cache directory, or `off`.
    pub cache: String,
    /// Free-form run label (the producing binary).
    pub label: String,
}

/// Run context the snapshot itself does not know.
#[derive(Debug, Clone, Default)]
pub struct ReportContext {
    /// Worker threads the run was configured with.
    pub threads: usize,
    /// Experiment ids the run regenerated, in execution order.
    pub experiment_ids: Vec<String>,
    /// Run provenance for the `meta` header.
    pub meta: RunMeta,
}

/// Builds the metrics report document.
pub fn build_report(snap: &MetricsSnapshot, ctx: &ReportContext) -> Json {
    let stages = snap
        .stages()
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("name".into(), Json::Str(s.path.clone())),
                ("count".into(), Json::UInt(s.count)),
                ("wall_ns".into(), Json::UInt(s.total_ns)),
            ])
        })
        .collect();
    let experiments = snap
        .spans
        .iter()
        .filter_map(|s| {
            let id = s.path.strip_prefix("experiment/")?;
            if id.contains('/') {
                return None;
            }
            Some(Json::Obj(vec![
                ("id".into(), Json::Str(id.to_string())),
                ("wall_ns".into(), Json::UInt(s.total_ns)),
            ]))
        })
        .collect();
    let workloads = snap
        .workloads
        .iter()
        .map(|w| {
            Json::Obj(vec![
                ("name".into(), Json::Str(w.name.clone())),
                ("kernels".into(), Json::UInt(w.kernels)),
                ("wall_ns".into(), Json::UInt(w.wall_ns)),
            ])
        })
        .collect();
    let kernels = snap
        .kernels
        .iter()
        .map(|k| {
            Json::Obj(vec![
                ("name".into(), Json::Str(k.name.clone())),
                ("launches".into(), Json::UInt(k.launches)),
                ("warp_instrs".into(), Json::UInt(k.totals.warp_instrs)),
                ("thread_instrs".into(), Json::UInt(k.totals.thread_instrs)),
                ("blocks".into(), Json::UInt(k.totals.blocks)),
                ("warps".into(), Json::UInt(k.totals.warps)),
                ("barriers".into(), Json::UInt(k.totals.barriers)),
                ("wall_ns".into(), Json::UInt(k.totals.wall_ns)),
            ])
        })
        .collect();
    let pools = snap
        .pools
        .iter()
        .map(|(name, workers)| {
            let rows = workers
                .iter()
                .map(|(idx, w)| {
                    Json::Obj(vec![
                        ("worker".into(), Json::UInt(*idx as u64)),
                        ("tasks".into(), Json::UInt(w.tasks)),
                        ("steals".into(), Json::UInt(w.steals)),
                        ("busy_ns".into(), Json::UInt(w.busy_ns)),
                        ("wall_ns".into(), Json::UInt(w.wall_ns)),
                        ("busy_frac".into(), Json::Num(w.busy_frac())),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("name".into(), Json::Str(name.clone())),
                ("workers".into(), Json::Arr(rows)),
            ])
        })
        .collect();
    let counters = snap
        .counters
        .iter()
        .map(|(name, value)| {
            Json::Obj(vec![
                ("name".into(), Json::Str(name.clone())),
                ("value".into(), Json::UInt(*value)),
            ])
        })
        .collect();
    let histograms = snap
        .hists
        .iter()
        .map(|(name, h)| {
            Json::Obj(vec![
                ("name".into(), Json::Str(name.clone())),
                ("count".into(), Json::UInt(h.count())),
                (
                    "sum_ns".into(),
                    Json::UInt(h.sum().min(u64::MAX as u128) as u64),
                ),
                ("p50_ns".into(), Json::UInt(h.quantile(0.50))),
                ("p90_ns".into(), Json::UInt(h.quantile(0.90))),
                ("p99_ns".into(), Json::UInt(h.quantile(0.99))),
                ("max_ns".into(), Json::UInt(h.max())),
            ])
        })
        .collect();
    let spans = snap
        .spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("path".into(), Json::Str(s.path.clone())),
                ("count".into(), Json::UInt(s.count)),
                ("total_ns".into(), Json::UInt(s.total_ns)),
            ])
        })
        .collect();
    let self_time = crate::selftime::fold(&snap.events)
        .nodes
        .into_iter()
        .map(|n| {
            Json::Obj(vec![
                ("path".into(), Json::Str(n.path)),
                ("depth".into(), Json::UInt(n.depth as u64)),
                ("count".into(), Json::UInt(n.count)),
                ("busy_ns".into(), Json::UInt(n.busy_ns)),
                ("wall_ns".into(), Json::UInt(n.wall_ns)),
                ("exclusive_ns".into(), Json::UInt(n.exclusive_ns)),
            ])
        })
        .collect();
    let exec_profiles = snap
        .execs
        .iter()
        .map(|e| {
            let classes = e
                .classes
                .iter()
                .map(|c| {
                    Json::Obj(vec![
                        ("class".into(), Json::Str(c.class.to_string())),
                        ("warp_uops".into(), Json::UInt(c.warp_uops)),
                        ("lane_uops".into(), Json::UInt(c.lane_uops)),
                    ])
                })
                .collect();
            let hotspots = e
                .hotspots
                .iter()
                .map(|h| {
                    Json::Obj(vec![
                        ("pc".into(), Json::UInt(h.pc)),
                        ("class".into(), Json::Str(h.class.to_string())),
                        ("warp_uops".into(), Json::UInt(h.warp_uops)),
                        ("lane_uops".into(), Json::UInt(h.lane_uops)),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("kernel".into(), Json::Str(e.kernel.clone())),
                ("classes".into(), Json::Arr(classes)),
                ("hotspots".into(), Json::Arr(hotspots)),
            ])
        })
        .collect();
    let meta = Json::Obj(vec![
        ("timestamp_ms".into(), Json::UInt(ctx.meta.timestamp_ms)),
        ("threads".into(), Json::UInt(ctx.threads as u64)),
        ("backend".into(), Json::Str(ctx.meta.backend.clone())),
        ("cache".into(), Json::Str(ctx.meta.cache.clone())),
        ("label".into(), Json::Str(ctx.meta.label.clone())),
    ]);
    Json::Obj(vec![
        ("schema_version".into(), Json::UInt(SCHEMA_VERSION)),
        ("meta".into(), meta),
        ("threads".into(), Json::UInt(ctx.threads as u64)),
        (
            "experiment_ids".into(),
            Json::Arr(
                ctx.experiment_ids
                    .iter()
                    .map(|id| Json::Str(id.clone()))
                    .collect(),
            ),
        ),
        ("stages".into(), Json::Arr(stages)),
        ("experiments".into(), Json::Arr(experiments)),
        ("workloads".into(), Json::Arr(workloads)),
        ("kernels".into(), Json::Arr(kernels)),
        ("pools".into(), Json::Arr(pools)),
        ("counters".into(), Json::Arr(counters)),
        ("histograms".into(), Json::Arr(histograms)),
        ("spans".into(), Json::Arr(spans)),
        ("self_time".into(), Json::Arr(self_time)),
        ("exec_profiles".into(), Json::Arr(exec_profiles)),
    ])
}

fn require_records(doc: &Json, key: &str, fields: &[&str]) -> Result<(), String> {
    let arr = doc
        .get(key)
        .ok_or_else(|| format!("missing key `{key}`"))?
        .as_arr()
        .ok_or_else(|| format!("`{key}` is not an array"))?;
    for (i, record) in arr.iter().enumerate() {
        for field in fields {
            record
                .get(field)
                .ok_or_else(|| format!("`{key}[{i}]` is missing `{field}`"))?;
        }
    }
    Ok(())
}

/// Validates a parsed report against the schema: a
/// [`SUPPORTED_VERSIONS`] member carrying every [`REQUIRED_KEYS`] entry
/// with its record shapes.
///
/// # Errors
///
/// Returns a message naming the first missing/mistyped key or the
/// version mismatch.
pub fn validate(doc: &Json) -> Result<(), String> {
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("`schema_version` is missing or not an unsigned integer")?;
    if !SUPPORTED_VERSIONS.contains(&version) {
        return Err(format!(
            "schema_version {version} not in supported {SUPPORTED_VERSIONS:?}"
        ));
    }
    for key in REQUIRED_KEYS {
        if doc.get(key).is_none() {
            return Err(format!("missing key `{key}`"));
        }
    }
    doc.get("threads")
        .and_then(Json::as_u64)
        .ok_or("`threads` is not an unsigned integer")?;
    doc.get("experiment_ids")
        .and_then(Json::as_arr)
        .ok_or("`experiment_ids` is not an array")?;
    require_records(doc, "stages", &["name", "count", "wall_ns"])?;
    require_records(doc, "experiments", &["id", "wall_ns"])?;
    require_records(doc, "workloads", &["name", "kernels", "wall_ns"])?;
    require_records(
        doc,
        "kernels",
        &["name", "launches", "warp_instrs", "thread_instrs", "blocks"],
    )?;
    require_records(doc, "pools", &["name", "workers"])?;
    for (i, pool) in doc
        .get("pools")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .enumerate()
    {
        let workers = pool
            .get("workers")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("`pools[{i}].workers` is not an array"))?;
        for (j, w) in workers.iter().enumerate() {
            for field in [
                "worker",
                "tasks",
                "steals",
                "busy_ns",
                "wall_ns",
                "busy_frac",
            ] {
                w.get(field)
                    .ok_or_else(|| format!("`pools[{i}].workers[{j}]` is missing `{field}`"))?;
            }
        }
    }
    require_records(doc, "counters", &["name", "value"])?;
    require_records(
        doc,
        "histograms",
        &[
            "name", "count", "sum_ns", "p50_ns", "p90_ns", "p99_ns", "max_ns",
        ],
    )?;
    require_records(doc, "spans", &["path", "count", "total_ns"])?;
    require_records(
        doc,
        "self_time",
        &[
            "path",
            "depth",
            "count",
            "busy_ns",
            "wall_ns",
            "exclusive_ns",
        ],
    )?;
    require_records(doc, "exec_profiles", &["kernel", "classes", "hotspots"])?;
    for (i, prof) in doc
        .get("exec_profiles")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .enumerate()
    {
        let classes = prof
            .get("classes")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("`exec_profiles[{i}].classes` is not an array"))?;
        for (j, c) in classes.iter().enumerate() {
            for field in ["class", "warp_uops", "lane_uops"] {
                c.get(field).ok_or_else(|| {
                    format!("`exec_profiles[{i}].classes[{j}]` is missing `{field}`")
                })?;
            }
        }
        let hotspots = prof
            .get("hotspots")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("`exec_profiles[{i}].hotspots` is not an array"))?;
        for (j, h) in hotspots.iter().enumerate() {
            for field in ["pc", "class", "warp_uops", "lane_uops"] {
                h.get(field).ok_or_else(|| {
                    format!("`exec_profiles[{i}].hotspots[{j}]` is missing `{field}`")
                })?;
            }
        }
    }
    let meta = doc.get("meta").ok_or("missing key `meta`")?;
    for field in ["timestamp_ms", "threads", "backend", "cache", "label"] {
        meta.get(field)
            .ok_or_else(|| format!("`meta` is missing `{field}`"))?;
    }
    Ok(())
}

/// Parses, validates, and round-trips a report document.
///
/// The round-trip (`parse → render → parse → compare`) is the offline
/// stand-in for a serde round-trip: it proves the document survives the
/// writer/parser pair unchanged.
///
/// # Errors
///
/// Returns the first parse, schema, or round-trip failure.
pub fn validate_str(text: &str) -> Result<Json, String> {
    let doc = parse(text).map_err(|e| format!("parse error: {e}"))?;
    validate(&doc)?;
    let rendered = doc.render();
    let back = parse(&rendered).map_err(|e| format!("round-trip parse error: {e}"))?;
    if back != doc {
        return Err("document changed across a render/parse round-trip".into());
    }
    Ok(doc)
}

/// Renders the human-readable top-`n` span table `--trace-summary`
/// prints to stderr.
pub fn render_summary(snap: &MetricsSnapshot, n: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "top {} spans by total time:\n{:<44} {:>8} {:>14} {:>12}\n",
        n.min(snap.spans.len()),
        "span",
        "count",
        "total",
        "mean"
    ));
    for s in snap.top_spans(n) {
        out.push_str(&format!(
            "{:<44} {:>8} {:>14} {:>12}\n",
            s.path,
            s.count,
            fmt_ns(s.total_ns),
            fmt_ns(s.total_ns / s.count.max(1)),
        ));
    }
    out
}

/// Formats nanoseconds with an adaptive unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRecorder;
    use crate::recorder::{ExecClass, ExecHotspot, KernelLaunch, PoolWorker};

    fn sample_snapshot() -> MetricsSnapshot {
        let rec = MetricsRecorder::default();
        rec.span_at("study", 1, 0, 100);
        rec.span_at("study/workload/bfs", 2, 20, 80);
        rec.span_at("experiment/e1", 1, 100, 140);
        rec.add_counter("simt.warp_instrs", 1234);
        rec.record_kernel_launch(
            "bfs_step",
            &KernelLaunch {
                warp_instrs: 10,
                thread_instrs: 320,
                blocks: 2,
                warps: 10,
                barriers: 0,
                wall_ns: 900,
            },
        );
        rec.record_exec_profile(
            "bfs_step",
            &[
                ExecClass {
                    class: "int_alu",
                    warp_uops: 6,
                    lane_uops: 192,
                },
                ExecClass {
                    class: "mem_global",
                    warp_uops: 4,
                    lane_uops: 128,
                },
            ],
            &[ExecHotspot {
                pc: 3,
                class: "mem_global",
                warp_uops: 4,
                lane_uops: 128,
            }],
        );
        rec.record_pool_worker(
            "study",
            0,
            &PoolWorker {
                tasks: 3,
                steals: 1,
                busy_ns: 80,
                wall_ns: 100,
            },
        );
        rec.record_workload("bfs", 1, 60);
        rec.record_hist("launch.latency_ns", 700);
        rec.record_hist("launch.latency_ns", 1_900);
        rec.snapshot()
    }

    fn sample_ctx() -> ReportContext {
        ReportContext {
            threads: 4,
            experiment_ids: vec!["e1".into()],
            meta: RunMeta {
                timestamp_ms: 1_700_000_000_000,
                backend: "simd".into(),
                cache: "off".into(),
                label: "test".into(),
            },
        }
    }

    #[test]
    fn report_validates_and_round_trips() {
        let doc = build_report(&sample_snapshot(), &sample_ctx());
        let text = doc.render();
        let back = validate_str(&text).expect("valid report");
        assert_eq!(back, doc);
    }

    #[test]
    fn report_contains_the_recorded_facts() {
        let doc = build_report(&sample_snapshot(), &sample_ctx());
        assert_eq!(doc.get("schema_version").unwrap().as_u64(), Some(7));
        assert_eq!(doc.get("threads").unwrap().as_u64(), Some(4));
        let meta = doc.get("meta").unwrap();
        assert_eq!(
            meta.get("timestamp_ms").unwrap().as_u64(),
            Some(1_700_000_000_000)
        );
        assert_eq!(meta.get("threads").unwrap().as_u64(), Some(4));
        assert_eq!(meta.get("backend").unwrap().as_str(), Some("simd"));
        assert_eq!(meta.get("cache").unwrap().as_str(), Some("off"));
        assert_eq!(meta.get("label").unwrap().as_str(), Some("test"));
        assert!(
            doc.get("timeseries").is_none(),
            "v6 has no timeseries section"
        );
        assert!(doc.get("gauges").is_none(), "v7 has no gauges section");
        let stages = doc.get("stages").unwrap().as_arr().unwrap();
        assert_eq!(stages.len(), 1, "only `study` is top-level: {stages:?}");
        let study = &stages[0];
        assert_eq!(study.get("name").unwrap().as_str(), Some("study"));
        assert_eq!(study.get("wall_ns").unwrap().as_u64(), Some(100));
        assert!(
            study.get("rollup_ns").is_none(),
            "v6 stages have no rollup_ns"
        );
        let exps = doc.get("experiments").unwrap().as_arr().unwrap();
        assert_eq!(exps[0].get("id").unwrap().as_str(), Some("e1"));
        assert!(
            doc.get("fallbacks").is_none(),
            "v5 has no fallbacks section"
        );
        let pool = &doc.get("pools").unwrap().as_arr().unwrap()[0];
        let w0 = &pool.get("workers").unwrap().as_arr().unwrap()[0];
        assert_eq!(w0.get("tasks").unwrap().as_u64(), Some(3));
        assert_eq!(w0.get("busy_frac").unwrap().as_f64(), Some(0.8));
        let h = &doc.get("histograms").unwrap().as_arr().unwrap()[0];
        assert_eq!(h.get("name").unwrap().as_str(), Some("launch.latency_ns"));
        assert_eq!(h.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(h.get("sum_ns").unwrap().as_u64(), Some(2_600));
        assert_eq!(h.get("max_ns").unwrap().as_u64(), Some(1_900));
        assert!(h.get("p50_ns").unwrap().as_u64().unwrap() >= 700);
        let k = &doc.get("kernels").unwrap().as_arr().unwrap()[0];
        assert_eq!(k.get("wall_ns").unwrap().as_u64(), Some(900));
        let st = doc.get("self_time").unwrap().as_arr().unwrap();
        let study = st
            .iter()
            .find(|n| n.get("path").unwrap().as_str() == Some("study"))
            .expect("study node in self_time");
        assert_eq!(study.get("busy_ns").unwrap().as_u64(), Some(100));
        assert_eq!(study.get("wall_ns").unwrap().as_u64(), Some(100));
        assert_eq!(study.get("exclusive_ns").unwrap().as_u64(), Some(40));
        assert!(
            study.get("inclusive_ns").is_none(),
            "v7 has no inclusive_ns"
        );
        let ep = &doc.get("exec_profiles").unwrap().as_arr().unwrap()[0];
        assert_eq!(ep.get("kernel").unwrap().as_str(), Some("bfs_step"));
        let classes = ep.get("classes").unwrap().as_arr().unwrap();
        assert_eq!(classes[0].get("class").unwrap().as_str(), Some("int_alu"));
        assert_eq!(classes[0].get("lane_uops").unwrap().as_u64(), Some(192));
        let hs = &ep.get("hotspots").unwrap().as_arr().unwrap()[0];
        assert_eq!(hs.get("pc").unwrap().as_u64(), Some(3));
        assert_eq!(hs.get("class").unwrap().as_str(), Some("mem_global"));
    }

    #[test]
    fn validate_rejects_missing_and_mistyped_keys() {
        let doc = build_report(&sample_snapshot(), &sample_ctx());
        let Json::Obj(mut fields) = doc.clone() else {
            unreachable!()
        };
        fields.retain(|(k, _)| k != "pools");
        let err = validate(&Json::Obj(fields)).unwrap_err();
        assert!(err.contains("pools"), "{err}");

        // Only the written version validates: older and unknown stamps
        // are rejected even when every current key is present.
        for version in [5, 6, 99] {
            let Json::Obj(mut fields) = doc.clone() else {
                unreachable!()
            };
            for f in &mut fields {
                if f.0 == "schema_version" {
                    f.1 = Json::UInt(version);
                }
            }
            let err = validate(&Json::Obj(fields)).unwrap_err();
            assert!(err.contains("schema_version"), "{err}");
        }
    }

    #[test]
    fn summary_lists_heaviest_spans_first() {
        let summary = render_summary(&sample_snapshot(), 2);
        let study_at = summary.find("study").unwrap();
        let e1_at = summary.find("experiment/e1");
        assert!(e1_at.is_none() || study_at < e1_at.unwrap());
        assert!(summary.contains("100ns"));
    }

    #[test]
    fn ns_formatting_picks_units() {
        assert_eq!(fmt_ns(17), "17ns");
        assert_eq!(fmt_ns(1_700), "1.700us");
        assert_eq!(fmt_ns(1_700_000), "1.700ms");
        assert_eq!(fmt_ns(1_700_000_000), "1.700s");
    }
}
