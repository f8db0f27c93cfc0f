//! Every bench binary rejects unknown options with exit status 2.
//!
//! The binaries share one tokenizer (`gwc_bench::cli`), so an argument
//! that starts with `-` and is not a recognized flag must never be
//! swallowed as a positional — a typo like `--nocache` silently
//! becoming an experiment id (or worse, being ignored) would turn an
//! enforcing CI gate into a no-op. These tests spawn the real binaries
//! because the strictness contract lives in each `main`, not just in
//! the shared helpers.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn `{bin}`: {e}"))
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Both binaries, each with an unknown option mixed into otherwise
/// plausible arguments. None of these invocations may start real work.
fn rejection_cases() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        (env!("CARGO_BIN_EXE_regen"), vec!["e1", "--bogus"]),
        (
            env!("CARGO_BIN_EXE_metrics_check"),
            vec!["--bogus", "m.json"],
        ),
    ]
}

#[test]
fn unknown_options_exit_2_with_a_diagnostic() {
    for (bin, args) in rejection_cases() {
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
            err.contains("unknown option `--bogus`"),
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
    let out = run(env!("CARGO_BIN_EXE_regen"), &["-x=3"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("unknown option `-x=3`"),
        "{}",
        stderr_of(&out)
    );
}

#[test]
fn help_exits_0_everywhere() {
    for (bin, _) in rejection_cases() {
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
        let out = run(env!("CARGO_BIN_EXE_regen"), &args);
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
        let out = run(env!("CARGO_BIN_EXE_regen"), args);
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
    let out = run(env!("CARGO_BIN_EXE_regen"), &["--list"]);
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
        let out = run(env!("CARGO_BIN_EXE_regen"), args);
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
    let out = run(
        env!("CARGO_BIN_EXE_regen"),
        &["e1", "--cache", "dir", "--no-cache"],
    );
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
        (vec!["m.json", "--counter"], "--counter needs a value"),
        (vec!["--counter=cache.hits", "m.json"], "is not NAME=VALUE"),
        (
            vec!["--counter=cache.hits=abc", "m.json"],
            "is not an unsigned integer",
        ),
        (vec!["--counter==3", "m.json"], "empty counter name"),
        (
            vec!["--counter=cache.*hits=3", "m.json"],
            "`*` is only allowed as a trailing glob",
        ),
        (
            vec!["--counter=*cache=7", "m.json"],
            "`*` is only allowed as a trailing glob",
        ),
        (vec!["m.json", "--hist"], "--hist needs a value"),
        (vec!["--hist=", "m.json"], "empty histogram name"),
        (
            vec!["--hist=lat:p98<=5", "m.json"],
            "`p98` is not a quantile",
        ),
        (
            vec!["--hist=lat:p99<5", "m.json"],
            "not a quantile bound (expected Q<=NANOS)",
        ),
        (
            vec!["--hist=lat:p99<=fast", "m.json"],
            "`fast` is not an unsigned nanosecond count",
        ),
        (vec!["--hist=:p99<=5", "m.json"], "empty histogram name"),
        (
            vec!["--min-ticks", "2", "m.json"],
            "--min-ticks requires --heartbeat",
        ),
    ];
    for (args, want) in cases {
        let out = run(env!("CARGO_BIN_EXE_metrics_check"), &args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr_of(&out));
        assert!(
            stderr_of(&out).contains(want),
            "{args:?}: stderr:\n{}",
            stderr_of(&out)
        );
    }
}

#[test]
fn telemetry_flags_parse_strictly() {
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["e1", "--heartbeat"], "--heartbeat needs a value"),
        (
            vec!["e1", "--heartbeat-interval-ms=0"],
            "interval must be positive",
        ),
        (
            vec!["e1", "--heartbeat-interval-ms=soon"],
            "`soon` is not a count",
        ),
        (vec!["e1", "--stall-after=-1"], "is not a count"),
        (vec!["e1", "--metrics"], "--metrics needs a value"),
        (vec!["e1", "--trace"], "--trace needs a value"),
    ];
    for (args, want) in cases {
        let out = run(env!("CARGO_BIN_EXE_regen"), &args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr_of(&out).contains(want),
            "{args:?}: stderr:\n{}",
            stderr_of(&out)
        );
    }
}
