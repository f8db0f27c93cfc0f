//! Every bench binary rejects unknown options with exit status 2, and
//! `metrics_check` evaluates its `--expect` assertions against real
//! reports.
//!
//! The binaries share one tokenizer (`gwc_bench::cli`), so an argument
//! that starts with `-` and is not a recognized flag must never be
//! swallowed as a positional — a typo like `--nocache` silently
//! becoming an experiment id (or worse, being ignored) would turn an
//! enforcing CI gate into a no-op. These tests spawn the real binaries
//! because the strictness contract lives in each `main`, not just in
//! the shared helpers.

use std::path::Path;
use std::process::{Command, Output};

use gwc_obs::json::Json;
use gwc_obs::metrics::MetricsRecorder;
use gwc_obs::report::{build_report, ReportContext};

const REGEN: &str = env!("CARGO_BIN_EXE_regen");
const METRICS_CHECK: &str = env!("CARGO_BIN_EXE_metrics_check");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn `{bin}`: {e}"))
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Both binaries, each with an unknown option (the third field) mixed
/// into otherwise plausible arguments. Besides typos, this covers the
/// retired live-telemetry flags and the old `metrics_check` assertion
/// flags that `--expect` replaced. None of these invocations may start
/// real work.
fn rejection_cases() -> Vec<(&'static str, Vec<&'static str>, &'static str)> {
    vec![
        (REGEN, vec!["e1", "--bogus"], "--bogus"),
        (METRICS_CHECK, vec!["--bogus", "m.json"], "--bogus"),
        (REGEN, vec!["e1", "--heartbeat", "x"], "--heartbeat"),
        (
            REGEN,
            vec!["e1", "--heartbeat-interval-ms", "10"],
            "--heartbeat-interval-ms",
        ),
        (REGEN, vec!["e1", "--stall-after", "3"], "--stall-after"),
        (
            METRICS_CHECK,
            vec!["--heartbeat", "x", "m.json"],
            "--heartbeat",
        ),
        (
            METRICS_CHECK,
            vec!["--min-ticks", "2", "m.json"],
            "--min-ticks",
        ),
        (
            METRICS_CHECK,
            vec!["--counter", "a=1", "m.json"],
            "--counter",
        ),
        (
            METRICS_CHECK,
            vec!["--counter-min", "a=1", "m.json"],
            "--counter-min",
        ),
        (METRICS_CHECK, vec!["--hist", "a", "m.json"], "--hist"),
    ]
}

#[test]
fn unknown_options_exit_2_with_a_diagnostic() {
    for (bin, args, flag) in rejection_cases() {
        let out = run(bin, &args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bin} {args:?}: expected usage-error exit 2, got {:?}\nstderr: {}",
            out.status.code(),
            stderr_of(&out)
        );
        let err = stderr_of(&out);
        assert!(
            err.contains(&format!("unknown option `{flag}`")),
            "{bin} {args:?}: stderr missing diagnostic:\n{err}"
        );
        assert!(
            err.contains("usage:"),
            "{bin} {args:?}: stderr missing usage text:\n{err}"
        );
    }
}

#[test]
fn single_dash_junk_is_an_option_not_a_positional() {
    // `-x=3` must not be treated as a file path or experiment id.
    let out = run(REGEN, &["-x=3"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("unknown option `-x=3`"),
        "{}",
        stderr_of(&out)
    );
}

#[test]
fn help_exits_0_everywhere() {
    for bin in [REGEN, METRICS_CHECK] {
        for help in ["--help", "-h"] {
            let out = run(bin, &[help]);
            assert_eq!(
                out.status.code(),
                Some(0),
                "{bin} {help}: {}",
                stderr_of(&out)
            );
            assert!(
                String::from_utf8_lossy(&out.stdout).contains("usage:"),
                "{bin} {help}: no usage text on stdout"
            );
        }
    }
}

#[test]
fn missing_and_malformed_values_exit_2() {
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["--threads"], "--threads needs a value"),
        (vec!["--threads=zero"], "--threads: `zero` is not a count"),
        (vec!["e1", "--no-cache=yes"], "--no-cache takes no value"),
    ];
    for (args, want) in cases {
        let out = run(REGEN, &args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr_of(&out);
        assert!(err.contains(want), "{args:?}: stderr:\n{err}");
    }
}

/// The post-run telemetry flags need their values; the retired live
/// ones are unknown options even in their `=VALUE` spellings.
#[test]
fn telemetry_flags_parse_strictly() {
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["e1", "--metrics"], "--metrics needs a value"),
        (vec!["e1", "--trace"], "--trace needs a value"),
        (vec!["e1", "--flame"], "--flame needs a value"),
        (
            vec!["e1", "--trace-summary=yes"],
            "--trace-summary takes no value",
        ),
        (
            vec!["e1", "--heartbeat=hb.ndjson"],
            "unknown option `--heartbeat=hb.ndjson`",
        ),
        (
            vec!["e1", "--stall-after=3"],
            "unknown option `--stall-after=3`",
        ),
    ];
    for (args, want) in cases {
        let out = run(REGEN, &args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr_of(&out);
        assert!(err.contains(want), "{args:?}: stderr:\n{err}");
    }
}

#[test]
fn invalid_backend_exits_2_without_starting_work() {
    for args in [
        ["e1", "--backend", "cuda"].as_slice(),
        ["e1", "--backend=avx512"].as_slice(),
        ["e1", "--backend"].as_slice(),
    ] {
        let out = run(REGEN, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr_of(&out);
        assert!(
            err.contains("backend") && err.contains("usage:"),
            "{args:?}: stderr:\n{err}"
        );
    }
}

#[test]
fn regen_list_prints_every_experiment_and_exits_0() {
    let out = run(REGEN, &["--list"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    for id in ["e1", "e7", "e13", "e14"] {
        assert!(
            stdout.lines().any(|l| l.starts_with(id)),
            "--list missing `{id}`:\n{stdout}"
        );
    }
    assert_eq!(stdout.lines().count(), 14, "{stdout}");
}

#[test]
fn invalid_policy_exits_2_without_starting_work() {
    for args in [
        ["e1", "--policy", "bogus"].as_slice(),
        ["e1", "--policy=greedy"].as_slice(),
        ["e1", "--policy"].as_slice(),
    ] {
        let out = run(REGEN, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr_of(&out);
        assert!(
            err.contains("policy") && err.contains("usage:"),
            "{args:?}: stderr:\n{err}"
        );
    }
}

#[test]
fn cache_and_no_cache_conflict_exits_2() {
    let out = run(REGEN, &["e1", "--cache", "dir", "--no-cache"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("--cache and --no-cache are mutually exclusive"),
        "{}",
        stderr_of(&out)
    );
}

#[test]
fn metrics_check_counter_assertions_parse_strictly() {
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["m.json", "--expect"], "--expect needs a value"),
        (vec!["--expect=cache.hits", "m.json"], "has no operator"),
        (
            vec!["--expect=lat<5", "m.json"],
            "the operator must be `=`, `>=` or `<=`",
        ),
        (
            vec!["--expect=cache.hits=abc", "m.json"],
            "`abc` is not an unsigned integer",
        ),
        (
            vec!["--expect", "cache.hits >= 3", "m.json"],
            "contains whitespace",
        ),
        (vec!["--expect==3", "m.json"], "empty subject"),
        (
            vec!["--expect=cache.*hits=3", "m.json"],
            "`*` is only allowed as a trailing glob",
        ),
        (
            vec!["--expect=hist:lat>=1", "m.json"],
            "is not hist:NAME:FIELD",
        ),
        (
            vec!["--expect=hist::count>=1", "m.json"],
            "empty histogram name",
        ),
        (
            vec!["--expect=hist:lat:p98<=5", "m.json"],
            "`p98` is not a histogram field",
        ),
        (vec!["--expect=a=1"], "expected a FILE.json"),
        (vec!["a.json", "b.json"], "expected exactly one FILE.json"),
    ];
    for (args, want) in cases {
        let out = run(METRICS_CHECK, &args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr_of(&out));
        assert!(
            stderr_of(&out).contains(want),
            "{args:?}: stderr:\n{}",
            stderr_of(&out)
        );
    }
}

/// Writes a report built from `rec` (optionally re-stamped with another
/// schema version) and returns its path.
fn write_report(dir: &Path, file: &str, rec: &MetricsRecorder, version: Option<u64>) -> String {
    let mut doc = build_report(&rec.snapshot(), &ReportContext::default());
    if let (Some(v), Json::Obj(fields)) = (version, &mut doc) {
        for (key, value) in fields.iter_mut() {
            if key == "schema_version" {
                *value = Json::UInt(v);
            }
        }
    }
    let path = dir.join(file);
    std::fs::write(&path, doc.render()).expect("write report");
    path.to_string_lossy().into_owned()
}

/// Runs `metrics_check` with one `--expect` per assertion on `report`.
fn check(report: &str, expects: &[&str]) -> Output {
    let mut args: Vec<&str> = expects.iter().flat_map(|e| ["--expect", e]).collect();
    args.push(report);
    run(METRICS_CHECK, &args)
}

#[test]
fn metrics_check_evaluates_expectations() {
    let dir = std::env::temp_dir().join(format!("gwc_metrics_check_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let rec = MetricsRecorder::default();
    rec.add_counter("cache.hits", 26);
    rec.add_counter("cache.hit_bytes", 4);
    rec.add_counter("pair.slices", 23);
    // The latency series is read from the launch spans.
    let start = std::time::Instant::now();
    for ns in [100, 200, 300] {
        let end = start + std::time::Duration::from_nanos(ns);
        rec.record_span_event("launch/k".into(), 1, start, end);
    }
    let report = write_report(&dir, "m.json", &rec, None);

    // One passing case per subject form (and per operator).
    for expect in [
        "cache.hits=26",
        "cache.misses=0",
        "cache.*=30",
        "cache.*>=1",
        "pair.slices>=23",
        "hist:launch.latency_ns:count=3",
        "hist:launch.latency_ns:p99<=1000000",
        "hist:launch.latency_ns:max>=300",
    ] {
        let out = check(&report, &[expect]);
        assert_eq!(out.status.code(), Some(0), "{expect}: {}", stderr_of(&out));
    }
    let all = check(
        &report,
        &["cache.hits=26", "hist:launch.latency_ns:count>=1"],
    );
    assert!(
        String::from_utf8_lossy(&all.stdout).contains("2 assertion(s) hold"),
        "{}",
        String::from_utf8_lossy(&all.stdout)
    );

    // Failing assertions exit 1 and print the actual value (or why
    // there is none).
    for (expect, want) in [
        ("cache.hits=25", "actual value is 26"),
        ("pair.slices>=24", "actual value is 23"),
        ("hist:launch.latency_ns:count<=2", "actual value is 3"),
        ("cache.*=29", "actual value is 30"),
        ("missing.*>=1", "actual value is 0"),
        (
            "hist:pair.latency_ns:count>=1",
            "histogram `pair.latency_ns` is absent",
        ),
    ] {
        let out = check(&report, &[expect]);
        assert_eq!(out.status.code(), Some(1), "{expect}: {}", stderr_of(&out));
        assert!(
            stderr_of(&out).contains(want),
            "{expect}: {}",
            stderr_of(&out)
        );
    }

    // A glob whose counters sum past u64 fails; it never wraps or panics.
    let big = MetricsRecorder::default();
    big.add_counter("x.a", u64::MAX);
    big.add_counter("x.b", 6);
    let overflow = write_report(&dir, "overflow.json", &big, None);
    for expect in ["x.*=5", "x.*>=100"] {
        let out = check(&overflow, &[expect]);
        assert_eq!(out.status.code(), Some(1), "{expect}: {}", stderr_of(&out));
        assert!(
            stderr_of(&out).contains("counters matching `x.*` overflow"),
            "{expect}: {}",
            stderr_of(&out)
        );
    }

    // Only the schema `regen` writes validates: a v7 stamp is rejected.
    let v7 = write_report(&dir, "v7.json", &rec, Some(7));
    let out = check(&v7, &[]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("schema_version 7"),
        "{}",
        stderr_of(&out)
    );

    std::fs::remove_dir_all(&dir).ok();
}
