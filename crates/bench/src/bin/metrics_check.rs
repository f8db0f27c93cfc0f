//! Validates a metrics report produced by `regen --metrics`.
//!
//! ```sh
//! cargo run -p gwc-bench --bin metrics_check -- metrics.json
//! ```
//!
//! Parses the file with the `gwc-obs` JSON parser, checks the schema
//! version (only the one `regen` writes is accepted) and required keys,
//! and round-trips it (parse -> render -> parse -> compare) to prove the
//! writer and parser agree. `--counter NAME=VALUE` (repeatable) additionally asserts a
//! counter's exact value — a counter absent from the report counts as 0,
//! so `--counter cache.misses=0` holds for a fully warm run that never
//! incremented it. The name may end in a `*` prefix glob:
//! `--counter 'cache.*=26'` asserts the *sum* of every counter under
//! `cache.` and a bare `--counter 'cache.*'` asserts that at least one
//! such counter exists. `--counter-min NAME=VALUE` is the lower-bound
//! variant (counter >= VALUE, same glob semantics) — the right shape for
//! monotone gauges like `observer.bytes_peak` whose exact value is an
//! implementation detail. `--hist NAME` (repeatable) asserts the named
//! latency histogram is present; `--hist NAME:p99<=NANOS` (also
//! `p50`/`p90`/`max`) additionally bounds one of its quantiles —
//! a latency budget CI can hold. `--heartbeat FILE` validates a
//! heartbeat NDJSON stream captured with `regen --heartbeat` instead of
//! (or alongside) a report: every line must parse, sequence numbers
//! must strictly increase, and progress must be monotone; `--min-ticks
//! N` requires at least N ticks. Exits 0 when everything is valid, 1 on
//! a bad report/stream or failed assertion, 2 on usage errors.

use gwc_bench::cli::{take_count, take_value, unknown_opt, ArgStream, Token};
use gwc_obs::report::validate_str;
use gwc_obs::sampler::validate_heartbeat;

const USAGE: &str = "\
usage: metrics_check [OPTIONS] [FILE.json]

Validates a metrics report written by `regen --metrics` and/or a
heartbeat NDJSON stream written by `--heartbeat`.

options:
  --counter NAME=VALUE   require the named counter to equal VALUE
                         (repeatable; an absent counter counts as 0).
                         NAME may end in `*`: the values of all matching
                         counters are summed; without `=VALUE` the glob
                         asserts at least one counter matches
  --counter-min NAME=VALUE
                         require the named counter (or glob sum) to be
                         at least VALUE (repeatable)
  --hist NAME            require the named latency histogram to be
                         present (repeatable)
  --hist NAME:Q<=NANOS   additionally bound quantile Q of that histogram
                         (Q: p50, p90, p99, or max), e.g.
                         `--hist 'launch.wall_ns:p99<=5000000'`
  --heartbeat FILE       validate FILE as a heartbeat NDJSON stream
                         (makes the positional report optional)
  --min-ticks N          require at least N heartbeat ticks (default 1;
                         only with --heartbeat)
  -h, --help             print this help
";

fn usage_error(msg: &str) -> ! {
    eprintln!("metrics_check: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

/// Whether a counter/histogram name matches a pattern — an exact name,
/// or a trailing-`*` prefix glob (`cache.*` matches `cache.hits`).
fn matches(pattern: &str, name: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => name == pattern,
    }
}

/// `(matching counters, their summed value)` for a pattern in a
/// validated report; counters that were never incremented are never
/// recorded, so an unmatched exact name reads as `(0, 0)`.
fn counter_sum(doc: &gwc_obs::json::Json, pattern: &str) -> (usize, u64) {
    doc.get("counters")
        .and_then(|c| c.as_arr())
        .unwrap_or(&[])
        .iter()
        .filter(|row| {
            row.get("name")
                .and_then(|n| n.as_str())
                .is_some_and(|n| matches(pattern, n))
        })
        .fold((0, 0), |(n, sum), row| {
            let v = row.get("value").and_then(|v| v.as_u64()).unwrap_or(0);
            (n + 1, sum + v)
        })
}

/// One `--hist` assertion: histogram presence, optionally bounding a
/// quantile (`p99<=5000000` keeps `quantile = "p99"`, `bound_ns = 5e6`).
struct HistAssert {
    name: String,
    quantile: Option<(String, u64)>,
}

/// Parses a `--hist` value: `NAME` or `NAME:Q<=NANOS` with Q one of
/// p50/p90/p99/max. Only `<=` bounds are supported — a lower bound on a
/// latency quantile is not a budget anyone checks in CI.
fn parse_hist_assert(v: &str) -> Result<HistAssert, String> {
    let Some((name, spec)) = v.split_once(':') else {
        return Ok(HistAssert {
            name: v.to_string(),
            quantile: None,
        });
    };
    if name.is_empty() {
        return Err("--hist: empty histogram name".into());
    }
    let Some((quant, bound)) = spec.split_once("<=") else {
        return Err(format!(
            "--hist: `{spec}` is not a quantile bound (expected Q<=NANOS)"
        ));
    };
    if !["p50", "p90", "p99", "max"].contains(&quant) {
        return Err(format!(
            "--hist: `{quant}` is not a quantile (expected p50, p90, p99, or max)"
        ));
    }
    let bound_ns: u64 = bound
        .parse()
        .map_err(|_| format!("--hist: `{bound}` is not an unsigned nanosecond count"))?;
    Ok(HistAssert {
        name: name.to_string(),
        quantile: Some((quant.to_string(), bound_ns)),
    })
}

/// The report row of the histogram with exactly this name, if any.
fn hist_row<'d>(doc: &'d gwc_obs::json::Json, name: &str) -> Option<&'d gwc_obs::json::Json> {
    doc.get("histograms")
        .and_then(|h| h.as_arr())
        .unwrap_or(&[])
        .iter()
        .find(|row| row.get("name").and_then(|n| n.as_str()) == Some(name))
}

fn main() {
    let mut path: Option<String> = None;
    let mut counter_asserts: Vec<(String, Option<u64>)> = Vec::new();
    let mut counter_min_asserts: Vec<(String, u64)> = Vec::new();
    let mut hist_asserts: Vec<HistAssert> = Vec::new();
    let mut heartbeat: Option<String> = None;
    let mut min_ticks: Option<usize> = None;
    let mut args = ArgStream::new(std::env::args().skip(1));
    while let Some(token) = args.next_token() {
        let (flag, inline) = match token {
            Token::Positional(arg) => {
                if path.is_some() {
                    usage_error("expected exactly one FILE.json");
                }
                path = Some(arg);
                continue;
            }
            Token::Opt { flag, inline } => (flag, inline),
        };
        match flag.as_str() {
            "--counter" => {
                let v = take_value(&flag, inline, &mut args).unwrap_or_else(|e| usage_error(&e));
                let (name, value) = match v.split_once('=') {
                    Some((name, value)) => {
                        let Ok(value) = value.parse::<u64>() else {
                            usage_error(&format!(
                                "--counter: `{value}` is not an unsigned integer"
                            ));
                        };
                        (name, Some(value))
                    }
                    // A bare glob is a presence assertion; a bare plain
                    // name stays an error (its absent-reads-as-0
                    // semantics would make it vacuously true).
                    None if v.ends_with('*') => (v.as_str(), None),
                    None => usage_error(&format!("--counter: `{v}` is not NAME=VALUE")),
                };
                if name.is_empty() {
                    usage_error("--counter: empty counter name");
                }
                if name.strip_suffix('*').unwrap_or(name).contains('*') {
                    usage_error(&format!(
                        "--counter: `{name}`: `*` is only allowed as a trailing glob"
                    ));
                }
                counter_asserts.push((name.to_string(), value));
            }
            "--counter-min" => {
                let v = take_value(&flag, inline, &mut args).unwrap_or_else(|e| usage_error(&e));
                let Some((name, value)) = v.split_once('=') else {
                    usage_error(&format!("--counter-min: `{v}` is not NAME=VALUE"));
                };
                let Ok(value) = value.parse::<u64>() else {
                    usage_error(&format!(
                        "--counter-min: `{value}` is not an unsigned integer"
                    ));
                };
                if name.is_empty() {
                    usage_error("--counter-min: empty counter name");
                }
                if name.strip_suffix('*').unwrap_or(name).contains('*') {
                    usage_error(&format!(
                        "--counter-min: `{name}`: `*` is only allowed as a trailing glob"
                    ));
                }
                counter_min_asserts.push((name.to_string(), value));
            }
            "--hist" => {
                let v = take_value(&flag, inline, &mut args).unwrap_or_else(|e| usage_error(&e));
                if v.is_empty() {
                    usage_error("--hist: empty histogram name");
                }
                hist_asserts.push(parse_hist_assert(&v).unwrap_or_else(|e| usage_error(&e)));
            }
            "--heartbeat" => {
                let v = take_value(&flag, inline, &mut args).unwrap_or_else(|e| usage_error(&e));
                heartbeat = Some(v);
            }
            "--min-ticks" => {
                let n = take_count(&flag, inline, &mut args).unwrap_or_else(|e| usage_error(&e));
                min_ticks = Some(n);
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            _ => usage_error(&unknown_opt(&flag, inline.as_deref())),
        }
    }
    if min_ticks.is_some() && heartbeat.is_none() {
        usage_error("--min-ticks requires --heartbeat");
    }
    if let Some(hb_path) = &heartbeat {
        let text = std::fs::read_to_string(hb_path).unwrap_or_else(|e| {
            eprintln!("metrics_check: cannot read `{hb_path}`: {e}");
            std::process::exit(2);
        });
        let summary = validate_heartbeat(&text).unwrap_or_else(|e| {
            eprintln!("metrics_check: `{hb_path}` is not a valid heartbeat stream: {e}");
            std::process::exit(1);
        });
        let want = min_ticks.unwrap_or(1);
        if summary.ticks < want {
            eprintln!(
                "metrics_check: `{hb_path}`: {} tick(s), expected at least {want}",
                summary.ticks
            );
            std::process::exit(1);
        }
        println!(
            "{hb_path}: valid heartbeat stream ({} tick(s), {} stall event(s))",
            summary.ticks, summary.stalls
        );
    }
    let Some(path) = path else {
        if heartbeat.is_some() {
            // Heartbeat-only invocation: the stream above was the job.
            if !counter_asserts.is_empty()
                || !counter_min_asserts.is_empty()
                || !hist_asserts.is_empty()
            {
                usage_error("--counter/--hist assertions need a FILE.json to check");
            }
            return;
        }
        usage_error("expected a FILE.json to validate");
    };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("metrics_check: cannot read `{path}`: {e}");
        std::process::exit(2);
    });
    match validate_str(&text) {
        Ok(doc) => {
            for (name, expected) in &counter_asserts {
                let (matched, actual) = counter_sum(&doc, name);
                match expected {
                    Some(expected) if actual != *expected => {
                        eprintln!(
                            "metrics_check: `{path}`: counter `{name}` is {actual}, expected \
                             {expected}"
                        );
                        std::process::exit(1);
                    }
                    None if matched == 0 => {
                        eprintln!("metrics_check: `{path}`: no counter matches `{name}`");
                        std::process::exit(1);
                    }
                    _ => {}
                }
            }
            for (name, floor) in &counter_min_asserts {
                let (_, actual) = counter_sum(&doc, name);
                if actual < *floor {
                    eprintln!(
                        "metrics_check: `{path}`: counter `{name}` is {actual}, expected at \
                         least {floor}"
                    );
                    std::process::exit(1);
                }
            }
            for assert in &hist_asserts {
                let name = &assert.name;
                let Some(row) = hist_row(&doc, name) else {
                    eprintln!("metrics_check: `{path}`: histogram `{name}` is absent");
                    std::process::exit(1);
                };
                if let Some((quant, bound_ns)) = &assert.quantile {
                    let field = format!("{quant}_ns");
                    let actual = row.get(&field).and_then(|v| v.as_u64()).unwrap_or_else(|| {
                        eprintln!(
                            "metrics_check: `{path}`: histogram `{name}` has no `{field}` field"
                        );
                        std::process::exit(1);
                    });
                    if actual > *bound_ns {
                        eprintln!(
                            "metrics_check: `{path}`: histogram `{name}` {quant} is {actual}ns, \
                             over the {bound_ns}ns bound"
                        );
                        std::process::exit(1);
                    }
                }
            }
            let version = doc.get("schema_version").and_then(|v| v.as_u64());
            let stages = doc
                .get("stages")
                .and_then(|s| s.as_arr())
                .map_or(0, |a| a.len());
            let asserts = counter_asserts.len() + counter_min_asserts.len() + hist_asserts.len();
            println!(
                "{path}: valid metrics report (schema v{}, {stages} stages{})",
                version.unwrap_or(0),
                if asserts == 0 {
                    String::new()
                } else {
                    format!(", {asserts} assertion(s) hold")
                }
            );
        }
        Err(e) => {
            eprintln!("metrics_check: `{path}` is not a valid metrics report: {e}");
            std::process::exit(1);
        }
    }
}
