//! Validates a metrics report produced by `regen --metrics`.
//!
//! ```sh
//! cargo run -p gwc-bench --bin metrics_check -- metrics.json
//! cargo run -p gwc-bench --bin metrics_check -- \
//!     --expect cache.misses=0 --expect 'cache.*>=1' \
//!     --expect 'hist:launch.latency_ns:p99<=5000000' metrics.json
//! ```
//!
//! Parses the file with the `gwc-obs` JSON parser, checks the schema
//! version (only the one `regen` writes is accepted) and required keys,
//! and round-trips it (parse -> render -> parse -> compare) to prove the
//! writer and parser agree.
//!
//! `--expect EXPR` (repeatable) asserts one fact about the report. EXPR
//! is `SUBJECT OP VALUE` with no spaces, OP one of `=`, `>=`, `<=` and
//! VALUE an unsigned integer. SUBJECT is
//!
//! * a counter `NAME` — a counter absent from the report reads 0, so
//!   `cache.misses=0` holds on a fully warm run that never bumped it;
//! * a `PREFIX*` glob — the sum of every counter whose name starts with
//!   PREFIX (0 when none match, so `cache.*>=1` asserts presence);
//! * `hist:NAME:FIELD` — a latency histogram's `count`, `p50`, `p90`,
//!   `p99` or `max`; an absent histogram fails the assertion.
//!
//! Exits 0 when the report is valid and every assertion holds, 1 on an
//! invalid report or a failed assertion (printing the actual value), 2
//! on a usage error such as a malformed EXPR.

use gwc_bench::cli::{take_value, unknown_opt, ArgStream, Token};
use gwc_obs::json::Json;
use gwc_obs::report::{validate_str, SCHEMA_VERSION};

const USAGE: &str = "\
usage: metrics_check [--expect EXPR]... FILE.json

Validates a metrics report written by `regen --metrics`.

options:
  --expect EXPR   assert SUBJECT OP VALUE (repeatable; no spaces).
                  OP is `=`, `>=` or `<=`; VALUE an unsigned integer.
                  SUBJECT is a counter NAME (absent reads 0), a
                  `PREFIX*` glob (the sum of matching counters), or
                  `hist:NAME:FIELD` with FIELD one of count, p50,
                  p90, p99, max (an absent histogram fails), e.g.
                  `--expect 'hist:launch.latency_ns:p99<=5000000'`
  -h, --help      print this help
";

fn usage_error(msg: &str) -> ! {
    eprintln!("metrics_check: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

/// What an assertion reads from the report.
enum Subject {
    /// One counter by exact name.
    Counter(String),
    /// The sum of every counter whose name starts with the prefix.
    Glob(String),
    /// One summary field of a histogram row (`count`, `p99_ns`, ...).
    Hist { name: String, field: &'static str },
}

/// A comparison operator: `holds(actual, value)`.
type Compare = fn(&u64, &u64) -> bool;

/// One parsed `--expect` assertion.
struct Expect {
    text: String,
    subject: Subject,
    holds: Compare,
    value: u64,
}

/// The comparison operators, by spelling.
const OPS: [(&str, Compare); 3] = [("=", u64::eq), (">=", u64::ge), ("<=", u64::le)];

/// Histogram fields an assertion may name, with their report keys.
const HIST_FIELDS: [(&str, &str); 5] = [
    ("count", "count"),
    ("p50", "p50_ns"),
    ("p90", "p90_ns"),
    ("p99", "p99_ns"),
    ("max", "max_ns"),
];

/// Parses `SUBJECT OP VALUE`; the error names the malformed part.
fn parse_expect(expr: &str) -> Result<Expect, String> {
    if expr.contains(char::is_whitespace) {
        return Err(format!("`{expr}` contains whitespace"));
    }
    let Some(at) = expr.find(['=', '<', '>']) else {
        return Err(format!(
            "`{expr}` has no operator (expected SUBJECT=VALUE, SUBJECT>=VALUE or SUBJECT<=VALUE)"
        ));
    };
    let (subject, rest) = expr.split_at(at);
    let Some((holds, value)) = OPS
        .iter()
        .find_map(|&(op, holds)| Some((holds, rest.strip_prefix(op)?)))
    else {
        return Err(format!("`{rest}`: the operator must be `=`, `>=` or `<=`"));
    };
    let value = value
        .parse::<u64>()
        .map_err(|_| format!("`{value}` is not an unsigned integer"))?;
    let subject = if let Some(hist) = subject.strip_prefix("hist:") {
        let Some((name, field)) = hist.split_once(':') else {
            return Err(format!("`{subject}` is not hist:NAME:FIELD"));
        };
        if name.is_empty() {
            return Err(format!("`{subject}`: empty histogram name"));
        }
        let Some(&(_, key)) = HIST_FIELDS.iter().find(|(f, _)| *f == field) else {
            return Err(format!(
                "`{field}` is not a histogram field (expected count, p50, p90, p99 or max)"
            ));
        };
        Subject::Hist {
            name: name.to_string(),
            field: key,
        }
    } else {
        if subject.is_empty() {
            return Err(format!("`{expr}`: empty subject"));
        }
        let prefix = subject.strip_suffix('*');
        if prefix.unwrap_or(subject).contains('*') {
            return Err(format!(
                "`{subject}`: `*` is only allowed as a trailing glob"
            ));
        }
        match prefix {
            Some(prefix) => Subject::Glob(prefix.to_string()),
            None => Subject::Counter(subject.to_string()),
        }
    };
    Ok(Expect {
        text: expr.to_string(),
        subject,
        holds,
        value,
    })
}

/// The rows of one of the report's `{name, ...}` arrays.
fn rows<'d>(doc: &'d Json, key: &str) -> impl Iterator<Item = (&'d str, &'d Json)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|row| Some((row.get("name")?.as_str()?, row)))
}

impl Subject {
    /// The subject's value in a validated report, or why it has none.
    fn read(&self, doc: &Json) -> Result<u64, String> {
        let counter = |row: &Json| row.get("value").and_then(Json::as_u64).unwrap_or(0);
        match self {
            Subject::Counter(name) => Ok(rows(doc, "counters")
                .find(|(n, _)| n == name)
                .map_or(0, |(_, row)| counter(row))),
            Subject::Glob(prefix) => rows(doc, "counters")
                .filter(|(n, _)| n.starts_with(prefix.as_str()))
                .try_fold(0u64, |sum, (_, row)| sum.checked_add(counter(row)))
                .ok_or_else(|| format!("the counters matching `{prefix}*` overflow u64")),
            Subject::Hist { name, field } => rows(doc, "histograms")
                .find(|(n, _)| n == name)
                .ok_or_else(|| format!("histogram `{name}` is absent"))
                .and_then(|(_, row)| {
                    row.get(field)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("histogram `{name}` has no `{field}`"))
                }),
        }
    }
}

impl Expect {
    /// Whether the assertion holds on a validated report; if not, why.
    fn check(&self, doc: &Json) -> Result<(), String> {
        let actual = self.subject.read(doc)?;
        if (self.holds)(&actual, &self.value) {
            Ok(())
        } else {
            Err(format!("the actual value is {actual}"))
        }
    }
}

fn main() {
    let mut path: Option<String> = None;
    let mut expects: Vec<Expect> = Vec::new();
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
            "--expect" => {
                let expr = take_value(&flag, inline, &mut args).unwrap_or_else(|e| usage_error(&e));
                expects.push(
                    parse_expect(&expr).unwrap_or_else(|e| usage_error(&format!("--expect: {e}"))),
                );
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            _ => usage_error(&unknown_opt(&flag, inline.as_deref())),
        }
    }
    let Some(path) = path else {
        usage_error("expected a FILE.json to validate");
    };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("metrics_check: cannot read `{path}`: {e}");
        std::process::exit(2);
    });
    let doc = validate_str(&text).unwrap_or_else(|e| {
        eprintln!("metrics_check: `{path}` is not a valid metrics report: {e}");
        std::process::exit(1);
    });
    let mut failed = false;
    for expect in &expects {
        if let Err(why) = expect.check(&doc) {
            eprintln!("metrics_check: `{path}`: `{}` fails: {why}", expect.text);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    let stages = doc
        .get("stages")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    println!(
        "{path}: valid metrics report (schema v{SCHEMA_VERSION}, {stages} stages, {} \
         assertion(s) hold)",
        expects.len()
    );
}
