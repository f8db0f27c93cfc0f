//! Live-telemetry plumbing for `regen`.
//!
//! `regen` accepts `--heartbeat PATH|-` (plus `--heartbeat-interval-ms`
//! and `--stall-after`) and writes v5 metrics reports with a
//! run-metadata header. This module holds that glue: flag parsing, the
//! heartbeat sink, the sampler lifecycle, and report assembly.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use gwc_obs::metrics::{MetricsRecorder, MetricsSnapshot};
use gwc_obs::report::{build_report, validate, ReportContext, RunMeta};
use gwc_obs::sampler::TimeSeries;
use gwc_obs::{Recorder, Sampler, SamplerConfig, TraceRecorder};

use crate::cli::{take_count, take_value, ArgStream};

/// `regen`'s telemetry options.
#[derive(Debug, Clone)]
pub struct TelemetryFlags {
    /// Heartbeat destination: a path, or `-` for stderr. `None`
    /// disables the NDJSON stream (the sampler may still run to fill
    /// the report's `timeseries` section).
    pub heartbeat: Option<String>,
    /// Sampler tick interval in milliseconds.
    pub interval_ms: u64,
    /// Consecutive zero-progress ticks before the stall watchdog
    /// fires; 0 disables the watchdog.
    pub stall_after: u32,
}

impl Default for TelemetryFlags {
    fn default() -> Self {
        Self {
            heartbeat: None,
            interval_ms: 500,
            stall_after: 8,
        }
    }
}

impl TelemetryFlags {
    /// Claims a telemetry option from an argument stream. Returns
    /// `None` when `flag` is not a telemetry option (the caller keeps
    /// matching), `Some(Ok(()))` when claimed, `Some(Err)` on a bad
    /// value.
    pub fn take_opt(
        &mut self,
        flag: &str,
        inline: Option<String>,
        args: &mut ArgStream,
    ) -> Option<Result<(), String>> {
        match flag {
            "--heartbeat" => Some(take_value(flag, inline, args).map(|v| self.heartbeat = Some(v))),
            "--heartbeat-interval-ms" => Some(take_count(flag, inline, args).and_then(|n| {
                if n == 0 {
                    Err(format!("{flag}: interval must be positive"))
                } else {
                    self.interval_ms = n as u64;
                    Ok(())
                }
            })),
            "--stall-after" => Some(take_count(flag, inline, args).map(|n| {
                self.stall_after = n as u32;
            })),
            _ => None,
        }
    }
}

/// Opens the heartbeat sink: stderr for `-`, a created file otherwise.
///
/// # Errors
///
/// Returns the I/O error from creating the file.
pub fn heartbeat_sink(spec: &str) -> std::io::Result<Box<dyn Write + Send>> {
    if spec == "-" {
        Ok(Box::new(std::io::stderr()))
    } else {
        Ok(Box::new(std::fs::File::create(spec)?))
    }
}

/// Starts the background sampler when anything will consume it: a
/// heartbeat stream was requested, or a metrics report (whose
/// `timeseries` section the sampler fills) is being recorded. Exits 2
/// if the heartbeat file cannot be created (a usage-adjacent error:
/// the operator asked for a stream we cannot open).
pub fn maybe_start_sampler(
    binary: &str,
    flags: &TelemetryFlags,
    metrics: Option<&Arc<MetricsRecorder>>,
) -> Option<Sampler> {
    if flags.heartbeat.is_none() && metrics.is_none() {
        return None;
    }
    let heartbeat = match &flags.heartbeat {
        Some(spec) => match heartbeat_sink(spec) {
            Ok(sink) => Some(sink),
            Err(e) => {
                eprintln!("{binary}: cannot open heartbeat sink `{spec}`: {e}");
                std::process::exit(2);
            }
        },
        None => None,
    };
    Some(Sampler::start(SamplerConfig {
        interval: Duration::from_millis(flags.interval_ms),
        stall_after: flags.stall_after,
        metrics: metrics.cloned(),
        heartbeat,
        ..SamplerConfig::default()
    }))
}

/// Run provenance for the `meta` header, stamped with the current
/// wall clock.
pub fn run_meta(backend: &str, cache: Option<&std::path::Path>, label: &str) -> RunMeta {
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
        label: label.to_string(),
    }
}

/// Writes the trace timeline to `path`, forwarding the ring's
/// dropped-event count into the metrics recorder (so a truncated
/// timeline is visible without opening the trace) and warning on
/// overflow. Exits 1 if the file cannot be written.
pub fn finish_trace(
    binary: &str,
    path: &str,
    trace_rec: &TraceRecorder,
    metrics_rec: Option<&Arc<MetricsRecorder>>,
) {
    let dropped = trace_rec.dropped();
    if let Some(rec) = metrics_rec {
        rec.add_counter("trace.dropped_events", dropped);
    }
    if dropped > 0 {
        eprintln!(
            "{binary}: warning: trace ring buffer overflowed, {dropped} event(s) dropped \
             (earliest events kept)"
        );
    }
    if let Err(e) = std::fs::write(path, trace_rec.export().render()) {
        eprintln!("{binary}: cannot write trace to `{path}`: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "trace timeline written to {path} ({} event(s), {dropped} dropped)",
        trace_rec.events().len()
    );
}

/// Builds, self-validates, and writes the v5 metrics report. Exits 1 on
/// a validation or I/O failure.
pub fn write_metrics_report(
    binary: &str,
    path: &str,
    snap: &MetricsSnapshot,
    threads: usize,
    experiment_ids: Vec<String>,
    meta: RunMeta,
    timeseries: Option<TimeSeries>,
) {
    let report = build_report(
        snap,
        &ReportContext {
            threads,
            experiment_ids,
            meta,
            timeseries,
        },
    );
    if let Err(e) = validate(&report) {
        eprintln!("{binary}: internal error: metrics report failed validation: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(path, report.render()) {
        eprintln!("{binary}: cannot write metrics to `{path}`: {e}");
        std::process::exit(1);
    }
    eprintln!("metrics report written to {path}");
}
