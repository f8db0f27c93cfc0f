//! What a measured workload reports: end-to-end metrics, per-layer
//! metrics, the run-set JSON document, and `compare` over two documents.

use gwc_obs::json::Json;

use crate::ladder::{Traced, LAYERS};
use crate::load::{Kind, Oracle, Samples};
use crate::stats::{self, Better, Verdict};

/// The gated end-to-end metrics with their units, in report order; the
/// root `BENCHMARK.json` gives their bounds.
///
/// On a shared host, noise only ever adds time, in episodes of seconds:
/// across seeds the median iteration of a 25 s run spreads up to 27% and
/// the p90 up to 38%, while the fastest iteration spreads about 3%. So the
/// gated times build on the fastest iteration, and the median and p90 are
/// reported ungated ([`Measured::ungated`]).
pub const END_TO_END: [(&str, &str); 4] = [
    ("iter_ms_min", "ms"),
    ("cpu_ms_per_iter", "ms"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("setup_s", "s"),
];

/// Failed iterations over attempted ones. Gated by `compare` at bound 0.
/// It is zero on a correct run, so it is not in `BENCHMARK.json`, whose
/// metrics are never zero; the result line carries the counts instead.
pub const FAILED_FRAC: &str = "failed_frac";

/// Everything measured for one workload.
#[derive(Debug)]
pub struct Measured {
    /// Which workload.
    pub kind: Kind,
    /// Its oracle at the run's seed.
    pub oracle: Oracle,
    /// Wall time of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Untraced samples, one entry per round.
    pub rounds: Vec<Samples>,
    /// Highest peak RSS seen over the rounds.
    pub peak_rss_kb: f64,
    /// The traced pass, when one ran.
    pub traced: Option<Traced>,
}

impl Measured {
    fn samples(&self) -> Samples {
        let mut all = Samples::default();
        for r in &self.rounds {
            all.extend(r);
        }
        all
    }

    /// Iterations and traced repetitions attempted.
    pub fn attempted(&self) -> u64 {
        self.samples().attempted + self.traced.as_ref().map_or(0, |t| t.attempted)
    }

    /// Iterations and traced repetitions failed.
    pub fn failed(&self) -> u64 {
        self.samples().failed + self.traced.as_ref().map_or(0, |t| t.failed)
    }

    /// Timing samples behind the end-to-end metrics.
    pub fn sample_count(&self) -> usize {
        self.samples().wall_ms.len()
    }

    /// End-to-end values over all rounds; `None` without a passing
    /// iteration.
    pub fn end_to_end(&self) -> Vec<(&'static str, Option<f64>, &'static str)> {
        let values = e2e_values(&self.samples(), &self.oracle, &self.setup_s);
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    }

    /// Each end-to-end metric's value per round (per set-up for
    /// `setup_s`), for the run-to-run spread.
    fn per_round(&self) -> Vec<Vec<f64>> {
        let mut cols = vec![Vec::new(); END_TO_END.len()];
        for r in &self.rounds {
            let row = e2e_values(r, &self.oracle, &[]);
            for (col, v) in cols.iter_mut().zip(row) {
                col.extend(v);
            }
        }
        cols[END_TO_END.len() - 1] = self.setup_s.clone();
        cols
    }

    /// Whole-run figures reported without a bound: the median and the
    /// p90 iteration (refused, `None`, with fewer than 100 samples) and
    /// the peak RSS. Host noise spreads them too widely to gate.
    pub fn ungated(&self) -> [(&'static str, Option<f64>, &'static str); 3] {
        let walls = self.samples().wall_ms;
        [
            ("iter_ms_p50", stats::median(&walls), "ms"),
            ("iter_ms_p90", stats::percentile(&walls, 90.0), "ms"),
            ("process.peak_rss_kb", Some(self.peak_rss_kb), "kB"),
        ]
    }

    /// Per-layer medians of the traced pass, completed with the tracing
    /// overhead and the ungated whole-run figures; empty without a
    /// traced pass.
    pub fn layers(&self) -> Vec<(&'static str, f64, &'static str)> {
        let Some(t) = self.traced.as_ref().filter(|t| !t.layers.is_empty()) else {
            return Vec::new();
        };
        let p50 = stats::median(&self.samples().wall_ms).unwrap_or(f64::NAN);
        let overhead = ("trace.overhead_pct", 100.0 * (t.iteration_ms / p50 - 1.0));
        let unit = |name| LAYERS.iter().find(|l| l.0 == name).map_or("", |l| l.1);
        t.layers
            .iter()
            .chain([&overhead])
            .map(|&(name, v)| (name, v, unit(name)))
            .chain(
                self.ungated()
                    .into_iter()
                    .filter_map(|(n, v, u)| Some((n, v?, u))),
            )
            .collect()
    }

    /// Failed over attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    /// The printed `workload metric value unit` lines: end-to-end metrics
    /// with their sample count, then the per-layer metrics.
    pub fn lines(&self) -> Vec<String> {
        let w = self.kind.name();
        let mut out = vec![
            format!("{w} samples {} count", self.sample_count()),
            format!("{w} oracle_s {:.4} s", self.oracle.secs),
        ];
        for (name, v, unit) in self.end_to_end().into_iter().chain(self.ungated()) {
            match v {
                Some(v) => out.push(format!("{w} {name} {v:.4} {unit}")),
                None => out.push(format!(
                    "{w} {name} refused {unit} (fewer than {} samples beyond it)",
                    stats::TAIL_SAMPLES
                )),
            }
        }
        out.push(format!("{w} {FAILED_FRAC} {} ratio", self.failed_frac()));
        let ungated = self.ungated().map(|u| u.0);
        for (name, v, unit) in self.layers() {
            if !ungated.contains(&name) {
                out.push(format!("{w} {name} {v:.4} {unit}"));
            }
        }
        out
    }

    /// The workload's entry in a run-set document.
    pub fn to_json(&self) -> Json {
        let e2e = self
            .end_to_end()
            .into_iter()
            .zip(self.per_round())
            .filter_map(|((name, v, unit), rounds)| {
                Some((
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(v?)),
                        ("unit".into(), Json::Str(unit.into())),
                        (
                            "rounds".into(),
                            Json::Arr(rounds.into_iter().map(Json::Num).collect()),
                        ),
                    ]),
                ))
            })
            .collect();
        let errors = self.traced.iter().flat_map(|t| &t.errors);
        Json::Obj(vec![
            ("attempted".into(), Json::UInt(self.attempted())),
            ("failed".into(), Json::UInt(self.failed())),
            (FAILED_FRAC.into(), Json::Num(self.failed_frac())),
            ("samples".into(), Json::UInt(self.sample_count() as u64)),
            ("oracle_s".into(), Json::Num(self.oracle.secs)),
            (
                "oracle_digest".into(),
                Json::Str(format!("{:016x}", self.oracle.digest)),
            ),
            ("end_to_end".into(), Json::Obj(e2e)),
            ("per_layer".into(), metric_obj(self.layers())),
            (
                "errors".into(),
                Json::Arr(errors.map(|e| Json::Str(e.clone())).collect()),
            ),
        ])
    }
}

/// `iter_ms_min`, `cpu_ms_per_iter`, `sim_minstr_per_s` and `setup_s`
/// of one set of samples.
///
/// CPU time per iteration is quantized to 10 ms ticks and slowed by the
/// same episodes as wall time, but its ratio to wall time over the whole
/// loop is steady (about 1.5% spread): the CPU an iteration costs is that
/// ratio times the fastest wall time.
fn e2e_values(s: &Samples, oracle: &Oracle, setup_s: &[f64]) -> [Option<f64>; 4] {
    let min = s.wall_ms.iter().copied().reduce(f64::min);
    let wall: f64 = s.wall_ms.iter().sum();
    [
        min,
        min.map(|m| s.cpu_ms / wall * m),
        min.map(|m| oracle.thread_instrs as f64 / 1e6 / (m / 1000.0)),
        stats::median(setup_s),
    ]
}

/// `{"name": {"value": v, "unit": u}, ...}`, as the result line and the
/// run-set document carry metrics.
pub fn metric_obj(metrics: Vec<(&'static str, f64, &'static str)>) -> Json {
    Json::Obj(
        metrics
            .into_iter()
            .map(|(name, v, unit)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(v)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// One row of `compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Value in the base run set.
    pub base: f64,
    /// Value in the candidate run set.
    pub cand: f64,
    /// How much worse the candidate is, as a share of the base.
    pub worse: f64,
    /// Interquartile spread over rounds, base and candidate.
    pub spreads: (f64, f64),
    /// The metric's bound.
    pub bound: f64,
    /// The call.
    pub verdict: Verdict,
}

impl Row {
    /// The printed form.
    pub fn render(&self) -> String {
        format!(
            "{:<12} {:<17} {:>12.4} {:>12.4} {:>+8.2}%  spread {:>5.2}% {:>5.2}%  bound {:>4.1}%  {}",
            self.workload,
            self.metric,
            self.base,
            self.cand,
            100.0 * self.worse,
            100.0 * self.spreads.0,
            100.0 * self.spreads.1,
            100.0 * self.bound,
            self.verdict.name()
        )
    }
}

/// Compares two run-set documents under the bounds of a `BENCHMARK.json`
/// document: one row per (workload, end-to-end metric), plus
/// `failed_frac` at bound 0.
///
/// # Errors
///
/// A document lacks a field the comparison reads.
pub fn compare(base: &Json, cand: &Json, spec: &Json) -> Result<Vec<Row>, String> {
    let gated = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads = |doc: &Json| match doc.get("workloads") {
        Some(Json::Obj(ws)) => Ok(ws.clone()),
        _ => Err("run set has no workloads object".to_string()),
    };
    let cand_ws = workloads(cand)?;
    let mut rows = Vec::new();
    for (name, b) in workloads(base)? {
        let Some((_, c)) = cand_ws.iter().find(|(n, _)| *n == name) else {
            continue;
        };
        for m in gated {
            let metric = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse)
                .ok_or_else(|| format!("{metric}: bad \"better\""))?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{metric}: no bound"))?;
            let side = |doc: &Json| -> Result<(f64, f64), String> {
                let e = doc
                    .get("end_to_end")
                    .and_then(|e| e.get(metric))
                    .ok_or_else(|| format!("{name}: no {metric}"))?;
                let value = e.get("value").and_then(Json::as_f64).ok_or("no value")?;
                let rounds: Vec<f64> = e
                    .get("rounds")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect();
                Ok((value, stats::spread(&rounds)))
            };
            let ((bv, bs), (cv, cs)) = (side(&b)?, side(c)?);
            rows.push(row(&name, metric, bv, cv, better, bound, (bs, cs)));
        }
        let frac = |doc: &Json| {
            doc.get(FAILED_FRAC)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no {FAILED_FRAC}"))
        };
        rows.push(row(
            &name,
            FAILED_FRAC,
            frac(&b)?,
            frac(c)?,
            Better::Lower,
            0.0,
            (0.0, 0.0),
        ));
    }
    Ok(rows)
}

fn row(
    workload: &str,
    metric: &str,
    base: f64,
    cand: f64,
    better: Better,
    bound: f64,
    spreads: (f64, f64),
) -> Row {
    Row {
        workload: workload.into(),
        metric: metric.into(),
        base,
        cand,
        worse: stats::worsening(base, cand, better),
        spreads,
        bound,
        verdict: stats::verdict(base, cand, better, bound, spreads),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::LAYERS;
    use crate::load::Outcome;

    fn oracle() -> Oracle {
        Oracle {
            digest: 0,
            thread_instrs: 50_000_000,
            secs: 0.3,
        }
    }

    fn measured(walls: &[f64], failed: usize) -> Measured {
        let mut s = Samples::default();
        for &w in walls {
            s.push(Outcome {
                wall_ms: w,
                cpu_ms: 2.0 * w,
                ok: true,
            });
        }
        for _ in 0..failed {
            s.push(Outcome {
                wall_ms: 1.0,
                cpu_ms: 1.0,
                ok: false,
            });
        }
        Measured {
            kind: Kind::ColdExact,
            oracle: oracle(),
            setup_s: vec![0.50, 0.52, 0.51],
            rounds: vec![s],
            peak_rss_kb: 9000.0,
            traced: None,
        }
    }

    fn value(m: &Measured, name: &str) -> Option<f64> {
        let mut all = m.end_to_end().into_iter().chain(m.ungated());
        all.find(|e| e.0 == name).and_then(|e| e.1)
    }

    #[test]
    fn end_to_end_values_follow_their_definitions() {
        let walls: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let m = measured(&walls, 0);
        assert_eq!(value(&m, "iter_ms_min"), Some(1.0));
        // Twice as much CPU as wall time, at the fastest wall time.
        assert_eq!(value(&m, "cpu_ms_per_iter"), Some(2.0));
        // 50 M thread-instructions in 1 ms.
        assert_eq!(value(&m, "sim_minstr_per_s"), Some(50_000.0));
        assert_eq!(value(&m, "setup_s"), Some(0.51));
        assert_eq!(value(&m, "iter_ms_p50"), Some(50.5));
        assert_eq!(value(&m, "iter_ms_p90"), Some(90.0));
        assert_eq!(value(&m, "process.peak_rss_kb"), Some(9000.0));
    }

    #[test]
    fn p90_is_refused_below_one_hundred_samples() {
        let m = measured(&[10.0; 99], 0);
        assert_eq!(value(&m, "iter_ms_p90"), None);
        assert_eq!(value(&m, "iter_ms_p50"), Some(10.0));
        assert!(m.lines().iter().any(|l| l.contains("iter_ms_p90 refused")));
    }

    #[test]
    fn a_forced_mismatch_shows_in_failed_frac() {
        let m = measured(&[10.0; 3], 1);
        assert_eq!((m.attempted(), m.failed()), (4, 1));
        assert_eq!(m.failed_frac(), 0.25);
        assert_eq!(m.sample_count(), 3);
    }

    fn spec() -> Json {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        gwc_obs::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(spec: &Json, key: &str) -> Vec<String> {
        spec.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let spec = spec();
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names(&spec, "end_to_end"), e2e);
        let layers: Vec<&str> = LAYERS.iter().map(|m| m.0).collect();
        assert_eq!(names(&spec, "per_layer"), layers);
        let workloads = names(&spec, "workloads");
        assert_eq!(workloads, Kind::ALL.map(Kind::name));
    }

    #[test]
    fn compare_applies_bounds_per_workload_and_metric() {
        let walls: Vec<f64> = (1..=100).map(f64::from).collect();
        let base = measured(&walls, 0);
        let slower: Vec<f64> = walls.iter().map(|w| w * 1.5).collect();
        let cand = measured(&slower, 0);
        let doc = |m: &Measured| {
            Json::Obj(vec![(
                "workloads".into(),
                Json::Obj(vec![("cold_exact".into(), m.to_json())]),
            )])
        };
        let same = compare(&doc(&base), &doc(&base), &spec()).expect("compares");
        assert!(
            same.iter().all(|r| r.verdict == Verdict::Unchanged),
            "{same:?}"
        );
        let rows = compare(&doc(&base), &doc(&cand), &spec()).expect("compares");
        let verdict = |metric: &str| rows.iter().find(|r| r.metric == metric).unwrap().verdict;
        assert_eq!(verdict("iter_ms_min"), Verdict::Regressed);
        assert_eq!(verdict("cpu_ms_per_iter"), Verdict::Regressed);
        assert_eq!(verdict("sim_minstr_per_s"), Verdict::Regressed);
        assert_eq!(verdict("setup_s"), Verdict::Unchanged);
        assert_eq!(verdict(FAILED_FRAC), Verdict::Unchanged);
        let failing = measured(&walls, 1);
        let rows = compare(&doc(&base), &doc(&failing), &spec()).expect("compares");
        assert_eq!(rows.last().unwrap().verdict, Verdict::Regressed);
    }
}
