//! The gwc benchmark: end-to-end and per-layer performance of the
//! characterization pipeline, with every iteration's output checked
//! against an oracle. See `README.md` beside this crate.
//!
//! ```text
//! gwc-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! gwc-benchmark run [--seed N] [--smoke] [--out FILE]
//! gwc-benchmark compare BASE.json CANDIDATE.json
//! ```
//!
//! Run it from the repository root: it reads `BENCHMARK.json` and the
//! golden output under `results/`, and keeps its caches in `.bench_tmp/`.

mod ladder;
mod load;
mod report;
mod stats;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use gwc_obs::json::{self, Json};

use crate::ladder::Trace;
use crate::load::{closed_loop, Kind, Oracle, Prepared, Samples};
use crate::report::Measured;

/// Program threads: at most two, the most this benchmark claims anything
/// about.
const MAX_THREADS: usize = 2;

/// Timing samples a `--seconds` loop collects at least: the fastest of
/// them is the gated time, and the p90 needs ten samples beyond it.
const MIN_SAMPLES: u64 = 100;

/// Longest a `--seconds` run measures while short of [`MIN_SAMPLES`].
const MAX_LOOP: Duration = Duration::from_secs(120);

/// Set-ups per workload, one per round; `setup_s` is their median, so up
/// to two set-ups hit by a slow episode of the host leave it unmoved.
/// A `--seconds` run measures in this many rounds.
const SETUPS: usize = 5;

/// Rounds of `run`.
const ROUNDS: usize = 10;

/// Traced repetitions per workload.
const TRACED_REPS: usize = 5;

/// Where the benchmark keeps its caches, relative to the working
/// directory.
const TMP_ROOT: &str = ".bench_tmp";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => run_one(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("gwc-benchmark: {e}");
        ExitCode::from(2)
    })
}

/// Parsed flags; each mode rejects the ones it does not take.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => f.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                f.seed = Some(v.parse().map_err(|_| format!("bad --seed {v}"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {v} is outside (0, 60]"));
                }
                f.seconds = Some(s);
            }
            "--trace" => {
                f.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v} (expected 0 or 1)")),
                })
            }
            "--out" => f.out = Some(PathBuf::from(value()?)),
            "--smoke" => f.smoke = true,
            s => return Err(format!("unexpected argument {s}")),
        }
    }
    Ok(f)
}

/// How much one invocation measures.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// Set-ups per workload, one at the start of each of the first rounds.
    setups: usize,
    rounds: usize,
    length: Length,
    traced_reps: usize,
}

/// How long the rounds run a workload.
#[derive(Debug, Clone, Copy)]
enum Length {
    /// The workload's own per-round iteration count (`run`).
    PerRound,
    /// One iteration (`run --smoke`).
    Once,
    /// This many seconds and [`MIN_SAMPLES`] samples in all, split evenly
    /// over the rounds, but no longer than [`MAX_LOOP`].
    Seconds(f64),
}

/// The benchmark's working directory for one process, removed on drop.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new() -> Result<Self, String> {
        let dir = Path::new(TMP_ROOT).join(std::process::id().to_string());
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Only succeeds once no other benchmark process uses it.
        let _ = fs::remove_dir(TMP_ROOT);
    }
}

fn program_threads() -> usize {
    gwc_core::available_threads().min(MAX_THREADS)
}

/// Measures `kinds` under `plan`. Every oracle runs first. Then the
/// rounds interleave the workloads, and each of the first `plan.setups`
/// rounds starts a workload with a fresh set-up: the host's speed drifts
/// in episodes of seconds, and spreading the set-ups keeps one episode
/// from covering all of them. Last, each workload gets its traced pass.
fn measure(
    kinds: &[Kind],
    seed: u64,
    plan: Plan,
    tmp: &Path,
    trace: &mut Vec<Trace>,
) -> Result<Vec<Measured>, String> {
    let threads = program_threads();
    let mut ready = Vec::new();
    for &kind in kinds {
        let oracle = Oracle::compute(kind, seed)?;
        eprintln!("{}: oracle {:.3} s", kind.name(), oracle.secs);
        let measured = Measured {
            kind,
            oracle,
            setup_s: Vec::new(),
            rounds: Vec::new(),
            peak_rss_kb: 0.0,
            traced: None,
        };
        ready.push((None, measured));
    }
    let rounds = plan.rounds as u32;
    let (seconds, min_samples) = match plan.length {
        Length::Seconds(s) => (s / f64::from(rounds), MIN_SAMPLES.div_ceil(rounds.into())),
        Length::PerRound | Length::Once => (0.0, 0),
    };
    for round in 0..plan.rounds {
        for (p, m) in &mut ready {
            if round < plan.setups {
                let dir = tmp.join(m.kind.name());
                let (fresh, secs) = Prepared::setup(m.kind, seed, threads, &dir, &m.oracle)?;
                m.setup_s.push(secs);
                *p = Some(fresh);
            }
            let p: &mut Prepared = p.as_mut().expect("the first round sets every workload up");
            let count = match plan.length {
                Length::PerRound => p.kind.per_round() as u64,
                Length::Once => 1,
                Length::Seconds(_) => min_samples,
            };
            let digest = m.oracle.digest;
            stats::reset_peak_rss();
            let samples: Samples = closed_loop(
                |s, t| {
                    (t.as_secs_f64() >= seconds && s.attempted >= count) || t >= MAX_LOOP / rounds
                },
                || p.iterate(digest),
            );
            m.peak_rss_kb = m.peak_rss_kb.max(stats::peak_rss_kb());
            m.rounds.push(samples);
        }
    }
    let mut out = Vec::new();
    for (p, mut m) in ready {
        let mut p = p.expect("set up in the first round");
        if plan.traced_reps > 0 {
            let mut t = Trace::default();
            let traced = ladder::run(&mut p, &m.oracle, plan.traced_reps, &mut t);
            for e in &traced.errors {
                eprintln!("{e}");
            }
            m.traced = Some(traced);
            trace.push(t);
        }
        out.push(m);
    }
    Ok(out)
}

/// [`measure`], reporting a failed oracle, golden check or set-up on
/// stderr.
fn measure_or_report(
    kinds: &[Kind],
    seed: u64,
    plan: Plan,
    tmp: &Path,
    trace: &mut Vec<Trace>,
) -> Option<Vec<Measured>> {
    measure(kinds, seed, plan, tmp, trace)
        .map_err(|e| eprintln!("gwc-benchmark: {e}"))
        .ok()
}

/// Writes the run set to `out` and the traces, one per workload in
/// [`Kind::ALL`] order, beside it as Chrome trace JSON.
fn write_outputs(out: &Path, doc: &Json, traces: &[Trace]) -> Result<(), String> {
    fs::write(out, doc.render()).map_err(|e| format!("writing {}: {e}", out.display()))?;
    let events = traces
        .iter()
        .zip(Kind::ALL)
        .enumerate()
        .flat_map(|(i, (t, k))| t.chrome_events(i as u64 + 1, k.name()))
        .collect();
    let chrome = Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
    ]);
    let path = out.with_extension("trace.json");
    fs::write(&path, chrome.render_compact())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run_set_doc(seed: u64, plan: Plan, measured: &[Measured]) -> Json {
    Json::Obj(vec![
        ("seed".into(), Json::UInt(seed)),
        ("threads".into(), Json::UInt(program_threads() as u64)),
        (
            "nproc".into(),
            Json::UInt(gwc_core::available_threads() as u64),
        ),
        ("rounds".into(), Json::UInt(plan.rounds as u64)),
        ("traced_reps".into(), Json::UInt(plan.traced_reps as u64)),
        (
            "workloads".into(),
            Json::Obj(
                measured
                    .iter()
                    .map(|m| (m.kind.name().to_string(), m.to_json()))
                    .collect(),
            ),
        ),
    ])
}

/// One workload for `--seconds`: the last line is the result object, with
/// the end-to-end metrics (`--trace 0`) or the per-layer metrics
/// (`--trace 1`).
fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let f = parse_flags(args)?;
    if f.smoke || f.out.is_some() {
        return Err("--smoke and --out go with `run`".into());
    }
    let name = f.workload.ok_or("no --workload (or `run` / `compare`)")?;
    let kind = Kind::parse(&name).ok_or(format!("unknown workload {name}"))?;
    let seed = f.seed.unwrap_or(load::GOLDEN_SEED);
    let traced = f.trace.unwrap_or(false);
    let plan = Plan {
        setups: if traced { 1 } else { SETUPS },
        rounds: SETUPS,
        length: Length::Seconds(f.seconds.unwrap_or(10.0)),
        traced_reps: if traced { TRACED_REPS } else { 0 },
    };
    let tmp = TmpDir::new()?;
    let mut traces = Vec::new();
    let Some(measured) = measure_or_report(&[kind], seed, plan, &tmp.0, &mut traces) else {
        println!(r#"{{"correct": false, "attempted": 1, "failed": 1, "metrics": {{}}}}"#);
        return Ok(ExitCode::FAILURE);
    };
    let m = &measured[0];
    for line in m.lines() {
        println!("{line}");
    }
    let metrics = if traced {
        m.layers()
    } else {
        m.end_to_end()
            .into_iter()
            .filter_map(|(name, v, unit)| Some((name, v?, unit)))
            .collect()
    };
    let correct = m.failed() == 0;
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::UInt(m.attempted())),
        ("failed".into(), Json::UInt(m.failed())),
        ("metrics".into(), report::metric_obj(metrics)),
    ]);
    println!("{}", result.render_compact());
    Ok(exit_code(correct))
}

fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// All four workloads in interleaved rounds, then the traced pass.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let f = parse_flags(args)?;
    if f.workload.is_some() || f.seconds.is_some() || f.trace.is_some() {
        return Err("`run` takes only --seed, --smoke and --out".into());
    }
    let seed = f.seed.unwrap_or(load::GOLDEN_SEED);
    let plan = if f.smoke {
        Plan {
            setups: 1,
            rounds: 1,
            length: Length::Once,
            traced_reps: 1,
        }
    } else {
        Plan {
            setups: SETUPS,
            rounds: ROUNDS,
            length: Length::PerRound,
            traced_reps: TRACED_REPS,
        }
    };
    let tmp = TmpDir::new()?;
    let mut traces = Vec::new();
    let Some(measured) = measure_or_report(&Kind::ALL, seed, plan, &tmp.0, &mut traces) else {
        return Ok(ExitCode::FAILURE);
    };
    for m in &measured {
        for line in m.lines() {
            println!("{line}");
        }
    }
    if let Some(out) = &f.out {
        write_outputs(out, &run_set_doc(seed, plan, &measured), &traces)?;
    }
    let failed: u64 = measured.iter().map(Measured::failed).sum();
    if failed > 0 {
        eprintln!("gwc-benchmark: {failed} iterations failed");
    }
    Ok(exit_code(failed == 0))
}

/// Prints one row per (workload, end-to-end metric) of two run sets under
/// `BENCHMARK.json`'s bounds; exits 1 if any row regressed.
fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, cand] = args else {
        return Err("compare takes BASE.json CANDIDATE.json".into());
    };
    let read = |path: &str| -> Result<Json, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = report::compare(&read(base)?, &read(cand)?, &read("BENCHMARK.json")?)?;
    println!("base {base} vs candidate {cand}");
    for r in &rows {
        println!("{}", r.render());
    }
    let regressed = rows.iter().any(|r| r.verdict == stats::Verdict::Regressed);
    Ok(exit_code(!regressed))
}
