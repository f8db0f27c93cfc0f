//! The four workloads: what one iteration runs, how it is set up, the
//! oracle every iteration's output is checked against, and the closed
//! loop that times iterations.
//!
//! An iteration calls only the entry points `regen` uses —
//! [`PipelineConfig`], [`Artifacts::collect`] and [`render_experiments`] —
//! so a refactor behind them cannot change what the benchmark measures.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gwc_bench::render_experiments;
use gwc_characterize::ObserverTier;
use gwc_core::pipeline::{Artifacts, PipelineConfig};
use gwc_simt::backend::{self, BackendKind};
use gwc_simt::hash::Fnv1a;
use gwc_workloads::StudyScale;

use crate::{ladder, stats};

/// Every experiment of a full `regen` except the pair study.
const STUDY_IDS: [&str; 13] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
];

/// The pair-study experiment.
const PAIR_IDS: [&str; 1] = ["e14"];

/// `regen`'s full output at [`GOLDEN_SEED`], relative to the repository
/// root (the benchmark's working directory).
pub const GOLDEN: &str = "results/regen_all_small_seed7.txt";

/// The seed the golden output was rendered at.
pub const GOLDEN_SEED: u64 = 7;

/// Warm-up iterations at the end of each set-up.
const WARMUPS: usize = 3;

/// One benchmark workload. The names are fixed: later changes cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A user's first `regen`: exact observers, an empty cache it fills.
    ColdExact,
    /// The same study on the bounded-memory sketch tier, no cache.
    ColdSketch,
    /// The 156-workload large study over a fully warm cache.
    WarmLarge,
    /// E14 alone over a warm standard cache.
    PairsWarm,
}

impl Kind {
    /// Every workload, in the order `run` interleaves them.
    pub const ALL: [Kind; 4] = [
        Kind::ColdExact,
        Kind::ColdSketch,
        Kind::WarmLarge,
        Kind::PairsWarm,
    ];

    /// Stable name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdExact => "cold_exact",
            Kind::ColdSketch => "cold_sketch",
            Kind::WarmLarge => "warm_large",
            Kind::PairsWarm => "pairs_warm",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Iterations per round of `run`: ten rounds give every workload at
    /// least 100 samples, so its p90 has ten beyond it, and keep each
    /// workload's measured time under 30 s.
    pub fn per_round(self) -> usize {
        match self {
            Kind::ColdExact => 15,
            Kind::ColdSketch => 10,
            Kind::WarmLarge | Kind::PairsWarm => 30,
        }
    }

    /// The experiments one iteration renders.
    pub fn ids(self) -> &'static [&'static str] {
        match self {
            Kind::PairsWarm => &PAIR_IDS,
            _ => &STUDY_IDS,
        }
    }

    /// The pipeline configuration of one iteration, before its cache
    /// directory is chosen.
    pub fn config(self, seed: u64, threads: usize) -> PipelineConfig {
        let mut cfg = PipelineConfig {
            threads,
            ..PipelineConfig::default()
        };
        cfg.study.seed = seed;
        match self {
            Kind::ColdSketch => cfg.study.observer_tier = ObserverTier::Sketch,
            Kind::WarmLarge => cfg.study.study_scale = StudyScale::Large,
            Kind::ColdExact | Kind::PairsWarm => {}
        }
        cfg
    }

    /// Whether set-up fills a cache that every iteration then reads.
    pub fn warm(self) -> bool {
        matches!(self, Kind::WarmLarge | Kind::PairsWarm)
    }
}

/// Digest of a rendered output.
pub fn digest(out: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write(out.as_bytes());
    h.finish()
}

/// The reference output of a workload at one seed.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Digest every iteration's output must equal.
    pub digest: u64,
    /// Thread-instructions the output characterizes: the study profiles'
    /// for e1–e13, the pair launches' for e14.
    pub thread_instrs: u64,
    /// Wall time of the oracle run.
    pub secs: f64,
}

impl Oracle {
    /// Renders the workload's experiments under the same seed, scale and
    /// observer tier on the reference paths: 1 thread, no cache, the
    /// scalar backend. At [`GOLDEN_SEED`] the output of `cold_exact` and
    /// `pairs_warm` must also equal its section of [`GOLDEN`].
    ///
    /// # Errors
    ///
    /// A panic in the run, or a golden mismatch.
    pub fn compute(kind: Kind, seed: u64) -> Result<Oracle, String> {
        let t0 = Instant::now();
        let cfg = kind.config(seed, 1);
        let prev = BackendKind::from_env();
        backend::set_default(BackendKind::Scalar);
        let run = catch_unwind(|| {
            let a = Artifacts::collect(&cfg);
            let out = render_experiments(kind.ids(), &a);
            (a, out)
        });
        backend::set_default(prev);
        let (a, out) = run.map_err(|_| format!("{}: the oracle run panicked", kind.name()))?;
        let secs = t0.elapsed().as_secs_f64();
        if seed == GOLDEN_SEED {
            check_golden(kind, &out)?;
        }
        let thread_instrs = match kind {
            Kind::PairsWarm => ladder::pair_thread_instrs(&cfg)?,
            _ => a
                .study()
                .records()
                .iter()
                .map(|r| r.profile.raw().thread_instrs)
                .sum(),
        };
        Ok(Oracle {
            digest: digest(&out),
            thread_instrs,
            secs,
        })
    }
}

fn check_golden(kind: Kind, out: &str) -> Result<(), String> {
    if !matches!(kind, Kind::ColdExact | Kind::PairsWarm) {
        return Ok(());
    }
    let golden = fs::read_to_string(GOLDEN).map_err(|e| format!("reading {GOLDEN}: {e}"))?;
    let e14 = golden
        .find(&format!("{}\nE14:", "=".repeat(78)))
        .ok_or_else(|| format!("{GOLDEN} has no E14 section"))?;
    let (want, section) = match kind {
        Kind::ColdExact => (&golden[..e14], "e1-e13"),
        _ => (&golden[e14..], "E14"),
    };
    if out == want {
        Ok(())
    } else {
        Err(format!(
            "{}: seed-{GOLDEN_SEED} output differs from the {section} section of {GOLDEN}",
            kind.name()
        ))
    }
}

/// One timed, checked iteration.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Wall time of the iteration.
    pub wall_ms: f64,
    /// Process CPU time (all threads) spent during it.
    pub cpu_ms: f64,
    /// It returned, and its output digest equals the oracle's.
    pub ok: bool,
}

/// Times `render` and checks its output against `oracle_digest`. A panic
/// is caught and counts as a failed iteration.
pub fn run_checked(oracle_digest: u64, render: impl FnOnce() -> String) -> Outcome {
    let cpu0 = stats::cpu_ms();
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(render));
    let wall_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let cpu_ms = stats::cpu_ms() - cpu0;
    let ok = matches!(&out, Ok(s) if digest(s) == oracle_digest);
    Outcome {
        wall_ms,
        cpu_ms,
        ok,
    }
}

/// Timings of the passing iterations of a loop, plus its failure count.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Wall time of each passing iteration.
    pub wall_ms: Vec<f64>,
    /// CPU time summed over the passing iterations.
    pub cpu_ms: f64,
    /// Iterations run.
    pub attempted: u64,
    /// Iterations that panicked or whose output mismatched the oracle.
    pub failed: u64,
}

impl Samples {
    /// Records one iteration.
    pub fn push(&mut self, o: Outcome) {
        self.attempted += 1;
        if o.ok {
            self.wall_ms.push(o.wall_ms);
            self.cpu_ms += o.cpu_ms;
        } else {
            self.failed += 1;
        }
    }

    /// Appends another loop's samples.
    pub fn extend(&mut self, other: &Samples) {
        self.wall_ms.extend_from_slice(&other.wall_ms);
        self.cpu_ms += other.cpu_ms;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A closed loop with one client: the next iteration starts when the
/// previous one ends, until `stop` says so.
pub fn closed_loop(
    stop: impl Fn(&Samples, Duration) -> bool,
    mut iterate: impl FnMut() -> Outcome,
) -> Samples {
    let t0 = Instant::now();
    let mut s = Samples::default();
    while !stop(&s, t0.elapsed()) {
        s.push(iterate());
    }
    s
}

/// A workload after set-up, ready to iterate.
#[derive(Debug)]
pub struct Prepared {
    /// Which workload.
    pub kind: Kind,
    cfg: PipelineConfig,
    dir: PathBuf,
    fresh_caches: u64,
}

impl Prepared {
    /// Sets a workload up in `dir`, which it empties first: warm
    /// workloads fill their cache with one cold `regen`, then
    /// [`WARMUPS`] iterations run and are checked. Returns the workload
    /// and the set-up's wall time in seconds.
    ///
    /// # Errors
    ///
    /// The directory cannot be made, the cache fill panics, or a warm-up
    /// iteration fails its oracle check.
    pub fn setup(
        kind: Kind,
        seed: u64,
        threads: usize,
        dir: &Path,
        oracle: &Oracle,
    ) -> Result<(Prepared, f64), String> {
        let t0 = Instant::now();
        let _ = fs::remove_dir_all(dir);
        fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let mut cfg = kind.config(seed, threads);
        if kind.warm() {
            cfg.cache_dir = Some(dir.join("cache"));
            catch_unwind(|| Artifacts::collect(&cfg))
                .map_err(|_| format!("{}: the cache fill panicked", kind.name()))?;
        }
        let mut p = Prepared {
            kind,
            cfg,
            dir: dir.to_path_buf(),
            fresh_caches: 0,
        };
        for _ in 0..WARMUPS {
            if !p.iterate(oracle.digest).ok {
                return Err(format!("{}: a warm-up iteration failed", kind.name()));
            }
        }
        Ok((p, t0.elapsed().as_secs_f64()))
    }

    /// The directory the workload owns.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Calls `f` with the configuration of the next iteration. `cold_exact`
    /// gets a fresh, not yet created cache directory, deleted afterwards
    /// outside any timing `f` does.
    pub fn with_config<R>(&mut self, f: impl FnOnce(&PipelineConfig) -> R) -> R {
        if self.kind != Kind::ColdExact {
            return f(&self.cfg);
        }
        self.fresh_caches += 1;
        let cache = self.dir.join(format!("fresh-{}", self.fresh_caches));
        let cfg = PipelineConfig {
            cache_dir: Some(cache.clone()),
            ..self.cfg.clone()
        };
        let r = f(&cfg);
        let _ = fs::remove_dir_all(&cache);
        r
    }

    /// Runs one timed, checked iteration.
    pub fn iterate(&mut self, oracle_digest: u64) -> Outcome {
        let ids = self.kind.ids();
        self.with_config(|cfg| {
            run_checked(oracle_digest, || {
                render_experiments(ids, &Artifacts::collect(cfg))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("cold"), None);
    }

    #[test]
    fn every_workload_reaches_a_reportable_p90_in_run() {
        for k in Kind::ALL {
            assert!(k.per_round() * 10 >= 100, "{}", k.name());
        }
    }

    #[test]
    fn a_digest_mismatch_or_panic_is_a_failed_iteration() {
        let want = digest("right");
        assert!(run_checked(want, || "right".to_string()).ok);
        assert!(!run_checked(want, || "wrong".to_string()).ok);
        assert!(!run_checked(want, || panic!("injected")).ok);
    }

    #[test]
    fn closed_loop_counts_failures_against_attempts() {
        let want = digest("right");
        let mut n = 0;
        let s = closed_loop(
            |s, _| s.attempted == 4,
            || {
                n += 1;
                run_checked(want, || if n == 3 { "wrong" } else { "right" }.to_string())
            },
        );
        assert_eq!((s.attempted, s.failed), (4, 1));
        assert_eq!(
            s.wall_ms.len(),
            3,
            "a failed iteration is not a timing sample"
        );
    }
}
