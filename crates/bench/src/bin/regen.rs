//! Regenerates the study's experiment artifacts (tables and figures).
//!
//! ```sh
//! cargo run --release -p gwc-bench --bin regen               # all of E1..E14
//! cargo run --release -p gwc-bench --bin regen e5 e12        # a subset
//! cargo run --release -p gwc-bench --bin regen --threads 4   # parallel study
//! cargo run --release -p gwc-bench --bin regen -- e1 --metrics m.json
//! cargo run --release -p gwc-bench --bin regen -- e1 --trace t.json
//! ```
//!
//! `--threads N` fans the characterization study out across N worker
//! threads (default: the machine's available parallelism; `--threads 1`
//! forces the serial path). Output is bit-identical at any thread count.
//!
//! `--metrics PATH` writes a schema-versioned JSON report (per-stage
//! wall times, per-worker pool utilization, latency histograms,
//! per-workload kernel counts; see `gwc_obs::report`) to PATH after the
//! run. `--trace PATH` writes the run's span timeline as Chrome
//! trace-event JSON — open it at `https://ui.perfetto.dev` or
//! `chrome://tracing`. `--trace-summary` prints the top spans to
//! stderr. `--flame PATH` folds the span events into a self-time tree
//! (see `gwc_obs::selftime`) and writes it in the collapsed-stack
//! format `flamegraph.pl` and inferno consume. Any of the four installs
//! the one recorder, whose span events all four read; the flags combine
//! freely and none of them perturbs the experiment output on stdout.
//!
//! Runs are incremental by default: kernel profiles persist in a
//! content-addressed cache (`.gwc-cache/`, override with `--cache DIR`)
//! keyed on kernel IR, inputs and schema versions, so a warm rerun
//! skips simulation entirely and is byte-identical to a cold one.
//! `--no-cache` restores the uncached behavior.
//!
//! Exit status: 0 on success, 2 on a usage error.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use gwc_bench::cli::{reject_value, take_count, take_value, unknown_opt, ArgStream, Token};
use gwc_bench::{all_experiments, render_experiments, StudyArtifacts, EXPERIMENTS};
use gwc_characterize::ObserverTier;
use gwc_core::pipeline::PipelineConfig;
use gwc_obs::metrics::{MetricsRecorder, MetricsSnapshot};
use gwc_obs::report::{build_report, render_summary, validate, ReportContext, RunMeta};
use gwc_simt::backend::BackendKind;
use gwc_simt::sched::SchedPolicy;
use gwc_workloads::StudyScale;

const USAGE: &str = "\
usage: regen [EXPERIMENT...] [OPTIONS]

Regenerates experiment artifacts E1..E14 (all of them when no ids are
given) to stdout. Exits 0 on success, 2 on a usage error.

options:
  --threads N        worker threads for the study (default: available
                     parallelism; 1 forces the serial path)
  --cache DIR        persistent profile cache directory
                     (default: .gwc-cache)
  --no-cache         disable the profile cache; every workload simulates
  --backend ENGINE   warp engine: `simd` (default) or `scalar`; also
                     settable via GWC_BACKEND. Output is bit-identical
                     either way — this switches speed, not results.
  --scale TIER       study population: `standard` (default, the 26
                     canonical workloads) or `large` (adds 5 parameter-
                     swept replicas of each — hundreds of kernels)
  --observer-tier T  locality/coalescing observer memory tier: `exact`
                     (default, per-address state, the bit-exact oracle)
                     or `sketch` (bounded-memory streaming sketches)
  --policy NAME      block-dispatch policy for the E14 co-scheduled pair
                     study: `round-robin` (default), `sm-partitioned`,
                     or `leftover-fill`
  --list             list experiment ids with descriptions and exit
  --metrics PATH     write a schema-versioned JSON metrics report to PATH
  --trace PATH       write a Chrome/Perfetto trace-event timeline to PATH
  --trace-summary    print the top spans by total time to stderr
  --flame PATH       write the folded self-time tree to PATH in the
                     collapsed-stack format (flamegraph.pl / inferno)
  -h, --help         print this help
";

struct Cli {
    threads: usize,
    ids: Vec<String>,
    cache: Option<PathBuf>,
    backend: BackendKind,
    scale: StudyScale,
    tier: ObserverTier,
    policy: SchedPolicy,
    metrics: Option<String>,
    trace: Option<String>,
    trace_summary: bool,
    flame: Option<String>,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("regen: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn parse_args(argv: impl Iterator<Item = String>) -> Cli {
    let mut cli = Cli {
        threads: gwc_core::available_threads(),
        ids: Vec::new(),
        cache: Some(PathBuf::from(gwc_characterize::cache::DEFAULT_DIR)),
        backend: BackendKind::from_env(),
        scale: StudyScale::Standard,
        tier: ObserverTier::Exact,
        policy: SchedPolicy::RoundRobin,
        metrics: None,
        trace: None,
        trace_summary: false,
        flame: None,
    };
    let mut cache_flag = false;
    let mut no_cache_flag = false;
    let mut args = ArgStream::new(argv);
    while let Some(token) = args.next_token() {
        let (flag, inline) = match token {
            Token::Positional(arg) => {
                cli.ids.push(arg.to_lowercase());
                continue;
            }
            Token::Opt { flag, inline } => (flag, inline),
        };
        let result = match flag.as_str() {
            "--threads" => take_count(&flag, inline, &mut args).map(|n| cli.threads = n),
            "--cache" => take_value(&flag, inline, &mut args).map(|v| {
                cache_flag = true;
                cli.cache = Some(PathBuf::from(v));
            }),
            "--no-cache" => reject_value(&flag, inline).map(|()| {
                no_cache_flag = true;
                cli.cache = None;
            }),
            "--backend" => take_value(&flag, inline, &mut args).and_then(|v| {
                BackendKind::parse(&v)
                    .map(|kind| cli.backend = kind)
                    .ok_or(format!("unknown backend `{v}` (expected scalar or simd)"))
            }),
            "--list" => {
                if let Err(e) = reject_value(&flag, inline) {
                    usage_error(&e);
                }
                for e in EXPERIMENTS {
                    println!("{:<4} {}", e.id, e.desc);
                }
                std::process::exit(0);
            }
            "--scale" => take_value(&flag, inline, &mut args).and_then(|v| {
                StudyScale::parse(&v)
                    .map(|s| cli.scale = s)
                    .ok_or(format!("unknown scale `{v}` (expected standard or large)"))
            }),
            "--observer-tier" => take_value(&flag, inline, &mut args).and_then(|v| {
                ObserverTier::parse(&v).map(|t| cli.tier = t).ok_or(format!(
                    "unknown observer tier `{v}` (expected exact or sketch)"
                ))
            }),
            "--policy" => take_value(&flag, inline, &mut args).and_then(|v| {
                SchedPolicy::parse(&v)
                    .map(|p| cli.policy = p)
                    .ok_or(format!(
                    "unknown policy `{v}` (expected round-robin, sm-partitioned or leftover-fill)"
                ))
            }),
            "--metrics" => take_value(&flag, inline, &mut args).map(|v| cli.metrics = Some(v)),
            "--trace" => take_value(&flag, inline, &mut args).map(|v| cli.trace = Some(v)),
            "--trace-summary" => reject_value(&flag, inline).map(|()| cli.trace_summary = true),
            "--flame" => take_value(&flag, inline, &mut args).map(|v| cli.flame = Some(v)),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            _ => usage_error(&unknown_opt(&flag, inline.as_deref())),
        };
        if let Err(e) = result {
            usage_error(&e);
        }
    }
    if cache_flag && no_cache_flag {
        usage_error("--cache and --no-cache are mutually exclusive");
    }
    if cli.ids.is_empty() {
        cli.ids = all_experiments().iter().map(|s| s.to_string()).collect();
    }
    for id in &cli.ids {
        if !all_experiments().contains(&id.as_str()) {
            usage_error(&format!(
                "unknown experiment `{id}`; known: {:?}",
                all_experiments()
            ));
        }
    }
    cli.threads = cli.threads.max(1);
    cli
}

fn main() {
    let cli = parse_args(std::env::args().skip(1));
    let recording =
        cli.metrics.is_some() || cli.trace.is_some() || cli.trace_summary || cli.flame.is_some();
    let rec = recording.then(|| Arc::new(MetricsRecorder::default()));
    let guard = rec.clone().map(gwc_obs::install);
    gwc_simt::backend::set_default(cli.backend);
    eprintln!(
        "running the characterization study (Small scale, seed 7, {} thread{}, cache {}, {} \
         backend, {} population, {} observers, {} co-schedule)...",
        cli.threads,
        if cli.threads == 1 { "" } else { "s" },
        match &cli.cache {
            Some(dir) => format!("{}", dir.display()),
            None => "off".to_string(),
        },
        cli.backend.name(),
        cli.scale.name(),
        cli.tier.name(),
        cli.policy.name()
    );
    let mut config = PipelineConfig {
        threads: cli.threads,
        cache_dir: cli.cache.clone(),
        ..PipelineConfig::default()
    };
    config.study.study_scale = cli.scale;
    config.study.observer_tier = cli.tier;
    config.pair_policy = cli.policy;
    let artifacts = StudyArtifacts::collect(&config);
    let ids: Vec<&str> = cli.ids.iter().map(String::as_str).collect();
    print!("{}", render_experiments(&ids, &artifacts));
    drop(guard);
    let Some(rec) = rec else {
        return;
    };
    let snap = rec.snapshot();
    if let Some(path) = &cli.trace {
        if let Err(e) = std::fs::write(path, gwc_obs::trace::export(&snap.events).render()) {
            eprintln!("regen: cannot write trace to `{path}`: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "trace timeline written to {path} ({} event(s))",
            snap.events.len()
        );
    }
    if cli.trace_summary {
        eprint!("{}", render_summary(&snap, 10));
    }
    if let Some(path) = &cli.flame {
        let tree = gwc_obs::selftime::fold(&snap.events);
        if let Err(e) = std::fs::write(path, gwc_obs::selftime::collapsed_stacks(&tree)) {
            eprintln!("regen: cannot write flame stacks to `{path}`: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "collapsed flame stacks written to {path} ({} node(s))",
            tree.nodes.len()
        );
    }
    if let Some(path) = &cli.metrics {
        let ctx = ReportContext {
            threads: cli.threads,
            experiment_ids: cli.ids.clone(),
            meta: run_meta(cli.backend.name(), cli.cache.as_deref()),
        };
        write_metrics_report(path, &snap, &ctx);
    }
}

/// Run provenance for the `meta` header, stamped with the current
/// wall clock.
fn run_meta(backend: &str, cache: Option<&Path>) -> RunMeta {
    let timestamp_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    RunMeta {
        timestamp_ms,
        backend: backend.to_string(),
        cache: match cache {
            Some(dir) => dir.display().to_string(),
            None => "off".to_string(),
        },
        label: "regen".to_string(),
    }
}

/// Builds, self-validates, and writes the metrics report. Exits 1 on
/// a validation or I/O failure.
fn write_metrics_report(path: &str, snap: &MetricsSnapshot, ctx: &ReportContext) {
    let report = build_report(snap, ctx);
    if let Err(e) = validate(&report) {
        eprintln!("regen: internal error: metrics report failed validation: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(path, report.render()) {
        eprintln!("regen: cannot write metrics to `{path}`: {e}");
        std::process::exit(1);
    }
    eprintln!("metrics report written to {path}");
}
