//! The traced pass: every per-layer probe of the benchmark lives here.
//!
//! One traced repetition of a workload records three root spans, all from
//! this file, around public calls into each layer:
//!
//! * `iteration` — the workload's own iteration with the stages called
//!   one by one (`core.study`, `core.matrix`, `core.reduce`,
//!   `core.cluster`, then `render/<id>` per experiment). Its output is
//!   checked against the oracle like an untraced iteration's.
//! * `probes` — the same artifacts through the layers the iteration does
//!   not call: `core.pairs` (the pair stage alone) and `render/<id>` for
//!   the experiments the workload does not render, so every render metric
//!   is measured on every workload.
//! * `engine` — the workload's study population at one thread, twice.
//!   First along the study's own path (`path/<workload>` spans), call for
//!   call as the study makes them, so set-up and fingerprint are timed as
//!   the study runs them and the path's spans add up to the coverage
//!   numerator. Then through each engine layer in turn
//!   (`member/<workload>` spans): each observer probe runs its observer
//!   alone, so its cost is its span minus `simt.exec`, the same launches
//!   under no observer. Then come the study stage alone at one thread
//!   (`core.study_1t`, the coverage denominator) and the seven pair
//!   scenarios (`pair/<scenario>`).
//!
//! Spans are kept in memory and written as Chrome trace JSON at exit.

use std::fs;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use gwc_bench::{all_experiments, render_experiments};
use gwc_characterize::coalescing::CoalescingObserver;
use gwc_characterize::divergence::DivergenceObserver;
use gwc_characterize::ilp::IlpObserver;
use gwc_characterize::locality::LocalityObserver;
use gwc_characterize::mix::MixObserver;
use gwc_characterize::sketch::{self, SketchLocalityObserver};
use gwc_characterize::{
    profile_launch_sharded, KernelProfile, MatrixBlock, MatrixCache, ObserverTier, PairObserver,
    ProfileCache, Profiler,
};
use gwc_core::pipeline::{
    Artifacts, ClusterStage, MatrixStage, PairsStage, PipelineConfig, ReduceStage, Stage,
    StudyStage,
};
use gwc_obs::json::Json;
use gwc_simt::decode::DecodedKernel;
use gwc_simt::exec::{Device, PairLaunch};
use gwc_simt::sched::{CoScheduleObserver, PerKernel, SchedPolicy};
use gwc_simt::trace::{LaunchStats, NullObserver, TraceObserver};
use gwc_workloads::fingerprint::workload_fingerprint;
use gwc_workloads::pairs::{partner_member, registry_member, PAIR_SCENARIOS};
use gwc_workloads::{registry, LaunchSpec, Workload};

use crate::load::{digest, Kind, Oracle, Prepared};
use crate::stats;

/// Every per-layer metric with its unit, in report order. The last three
/// are whole-run figures without a bound (`Measured::ungated`).
pub const LAYERS: [(&str, &str); 35] = [
    ("workloads.setup_ms", "ms"),
    ("workloads.fingerprint_ms", "ms"),
    ("workloads.verify_ms", "ms"),
    ("simt.decode_ms", "ms"),
    ("simt.exec_ms", "ms"),
    ("simt.thread_instrs", "count"),
    ("simt.warp_instrs", "count"),
    ("simt.launches", "count"),
    ("simt.pair_exec_ms", "ms"),
    ("characterize.mix_ms", "ms"),
    ("characterize.ilp_ms", "ms"),
    ("characterize.divergence_ms", "ms"),
    ("characterize.coalescing_ms", "ms"),
    ("characterize.locality_ms", "ms"),
    ("characterize.profiler_ms", "ms"),
    ("characterize.sharded_ms", "ms"),
    ("characterize.observer_bytes_peak", "bytes"),
    ("characterize.cache_store_ms", "ms"),
    ("characterize.cache_load_ms", "ms"),
    ("characterize.cache_bytes", "bytes"),
    ("characterize.pair_observer_ms", "ms"),
    ("core.study_ms", "ms"),
    ("core.matrix_ms", "ms"),
    ("core.reduce_ms", "ms"),
    ("core.cluster_ms", "ms"),
    ("core.pairs_ms", "ms"),
    ("bench.render_ms", "ms"),
    ("bench.render_e8_ms", "ms"),
    ("bench.render_e12_ms", "ms"),
    ("bench.render_e14_ms", "ms"),
    ("ladder.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("iter_ms_p50", "ms"),
    ("iter_ms_p90", "ms"),
    ("process.peak_rss_kb", "kB"),
];

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    iteration: u32,
}

/// An in-memory span recorder. Spans nest by call structure: a span's
/// parent is the span open when it began.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: u32,
}

impl Default for Trace {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }
    }
}

impl Trace {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Trace) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        r
    }

    /// Closes every span a caught panic left open.
    fn close_open(&mut self) {
        let now = self.now();
        for id in self.open.drain(..) {
            self.spans[id].end_ns = now;
        }
    }

    fn dur_ns(&self, i: usize) -> u64 {
        self.spans[i].end_ns - self.spans[i].start_ns
    }

    /// Checks that every span lies inside its parent's interval and that
    /// the durations of a span's children sum to no more than its own.
    pub fn check_nesting(&self) -> Result<(), String> {
        let mut child_sum = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {} ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let ps = &self.spans[p];
                if s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                    return Err(format!("span {} leaves its parent {}", s.name, ps.name));
                }
                child_sum[p] += self.dur_ns(i);
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if child_sum[i] > self.dur_ns(i) {
                return Err(format!("children of {} outlast it", s.name));
            }
        }
        Ok(())
    }

    /// Self time (duration minus children's) summed over the spans named
    /// `name` in repetition `iteration`, in milliseconds.
    fn self_ms(&self, iteration: u32, name: &str) -> f64 {
        let mut ns: i128 = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.iteration != iteration {
                continue;
            }
            if s.name == name {
                ns += i128::from(self.dur_ns(i));
            }
            if s.parent.is_some_and(|p| self.spans[p].name == name) {
                ns -= i128::from(self.dur_ns(i));
            }
        }
        ns as f64 / 1e6
    }

    /// The spans as Chrome trace events of process `pid`, named after
    /// `workload`; each repetition is its own thread row.
    pub fn chrome_events(&self, pid: u64, workload: &str) -> Vec<Json> {
        let mut events = vec![Json::Obj(vec![
            ("name".into(), Json::Str("process_name".into())),
            ("ph".into(), Json::Str("M".into())),
            ("pid".into(), Json::UInt(pid)),
            (
                "args".into(),
                Json::Obj(vec![("name".into(), Json::Str(workload.into()))]),
            ),
        ])];
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or(Json::Null, |p| Json::Str(self.spans[p].name.clone()));
            events.push(Json::Obj(vec![
                ("name".into(), Json::Str(s.name.clone())),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                ("dur".into(), Json::Num(self.dur_ns(i) as f64 / 1e3)),
                ("pid".into(), Json::UInt(pid)),
                ("tid".into(), Json::UInt(u64::from(s.iteration))),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("id".into(), Json::UInt(i as u64)),
                        ("parent".into(), parent),
                        ("iteration".into(), Json::UInt(u64::from(s.iteration))),
                    ]),
                ),
            ]));
        }
        events
    }
}

/// Non-time values one engine pass counts.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    thread_instrs: u64,
    warp_instrs: u64,
    launches: u64,
    observer_bytes_peak: u64,
    cache_bytes: u64,
}

impl Counts {
    fn add(&mut self, s: &LaunchStats, launches: usize) {
        self.thread_instrs += s.thread_instrs;
        self.warp_instrs += s.warp_instrs;
        self.launches += launches as u64;
    }
}

/// What the traced pass of one workload produced.
#[derive(Debug, Default)]
pub struct Traced {
    /// Per-layer values in [`LAYERS`] order up to `ladder.coverage`:
    /// medians over the repetitions, except the coverage ratio. The
    /// caller adds the rest.
    pub layers: Vec<(&'static str, f64)>,
    /// Median wall time of the traced `iteration` span.
    pub iteration_ms: f64,
    /// Repetitions run.
    pub attempted: u64,
    /// Repetitions that panicked, mismatched the oracle, or broke the
    /// span nesting.
    pub failed: u64,
    /// Why each failed repetition failed.
    pub errors: Vec<String>,
}

/// Runs `reps` traced repetitions of a prepared workload, recording into
/// `trace`, and returns the per-layer medians.
pub fn run(p: &mut Prepared, oracle: &Oracle, reps: usize, trace: &mut Trace) -> Traced {
    let mut out = Traced::default();
    let mut per_rep: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut coverage: [Vec<f64>; 2] = Default::default();
    let mut iteration_ms = Vec::new();
    for rep in 0..reps {
        let rep = rep as u32;
        trace.iteration = rep;
        out.attempted += 1;
        let first_span = trace.spans.len();
        let result = catch_unwind(AssertUnwindSafe(|| repetition(trace, p, oracle)));
        trace.close_open();
        let result = result
            .unwrap_or_else(|_| Err("a traced repetition panicked".into()))
            .and_then(|(counts, wall_ms)| {
                trace.check_nesting()?;
                let iter_ms = trace.dur_ns(first_span) as f64 / 1e6;
                if iter_ms > wall_ms {
                    return Err("the iteration span outlasts the iteration's wall time".into());
                }
                Ok((counts, iter_ms))
            });
        match result {
            Ok((counts, iter_ms)) => {
                iteration_ms.push(iter_ms);
                let (values, [path, study]) = rep_values(trace, rep, &counts);
                per_rep.push(values);
                coverage[0].push(path);
                coverage[1].push(study);
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("{}: {e}", p.kind.name()));
            }
        }
    }
    out.iteration_ms = stats::median(&iteration_ms).unwrap_or(f64::NAN);
    if let Some(first) = per_rep.first() {
        out.layers = first
            .iter()
            .enumerate()
            .map(|(i, &(name, _))| {
                let vals: Vec<f64> = per_rep.iter().map(|r| r[i].1).collect();
                (name, stats::median(&vals).expect("at least one repetition"))
            })
            .collect();
        // Host noise only adds time, and a slow episode can hit the
        // numerator's probes and not the study, so coverage compares each
        // side's fastest repetition.
        let [path, study] = coverage.map(|v| v.into_iter().fold(f64::INFINITY, f64::min));
        out.layers.push(("ladder.coverage", path / study));
    }
    out
}

/// One traced repetition; returns the engine counts and the wall time of
/// the `iteration` span measured around it.
fn repetition(t: &mut Trace, p: &mut Prepared, oracle: &Oracle) -> Result<(Counts, f64), String> {
    let kind = p.kind;
    let ids = kind.ids();
    let t0 = Instant::now();
    let (a, out) = p.with_config(|cfg| {
        t.span("iteration", |t| {
            let study = t.span("core.study", |_| StudyStage::run(cfg, ()));
            let matrix = t.span("core.matrix", |_| MatrixStage::run(cfg, &study));
            let reduced = t.span("core.reduce", |_| ReduceStage::run(cfg, &matrix));
            let clustering = t.span("core.cluster", |_| ClusterStage::run(cfg, &reduced));
            let a = Artifacts {
                study,
                matrix,
                reduced,
                clustering,
                config: cfg.clone(),
            };
            let out: String = ids
                .iter()
                .map(|id| t.span(format!("render/{id}"), |_| render_experiments(&[id], &a)))
                .collect();
            (a, out)
        })
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1000.0;
    if digest(&out) != oracle.digest {
        return Err("traced output differs from the oracle".into());
    }
    t.span("probes", |t| {
        t.span("core.pairs", |_| {
            black_box(PairsStage::run(&a.config, &a.study))
        });
        for id in all_experiments().into_iter().filter(|id| !ids.contains(id)) {
            t.span(format!("render/{id}"), |_| {
                black_box(render_experiments(&[id], &a));
            });
        }
    });
    let counts = t.span("engine", |t| engine(t, kind, &a.config, p.dir()))?;
    Ok((counts, wall_ms))
}

/// The engine ladder over the workload's population, then the study
/// stage alone at one thread, then the pair scenarios.
fn engine(t: &mut Trace, kind: Kind, cfg: &PipelineConfig, dir: &Path) -> Result<Counts, String> {
    let mut c = Counts::default();
    let caches = dir.join("ladder-cache");
    let _ = fs::remove_dir_all(&caches);
    for mut w in registry::study_workloads(cfg.study.seed, cfg.study.study_scale) {
        let name = w.meta().name;
        t.span(format!("path/{name}"), |t| {
            study_path(t, w.as_mut(), kind, cfg, &caches)
        })
        .map_err(|e| format!("{name}: {e}"))?;
    }
    let _ = fs::remove_dir_all(&caches);
    for mut w in registry::study_workloads(cfg.study.seed, cfg.study.study_scale) {
        let name = w.meta().name;
        t.span(format!("member/{name}"), |t| {
            member(t, w.as_mut(), cfg, &caches, &mut c)
        })
        .map_err(|e| format!("{name}: {e}"))?;
    }
    c.cache_bytes = fs::read_dir(&caches)
        .map_err(|e| format!("reading {}: {e}", caches.display()))?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    let _ = fs::remove_dir_all(&caches);

    // The study at one thread on the workload's own cache path: a fresh
    // cache for cold_exact, the warm one for warm workloads, none for
    // cold_sketch.
    let fresh = dir.join("ladder-study");
    let one = PipelineConfig {
        threads: 1,
        cache_dir: if kind == Kind::ColdExact {
            Some(fresh.clone())
        } else {
            cfg.cache_dir.clone()
        },
        ..cfg.clone()
    };
    t.span("core.study_1t", |_| black_box(StudyStage::run(&one, ())));
    let _ = fs::remove_dir_all(&fresh);

    for s in PAIR_SCENARIOS {
        let (base, a, b) = pair_setup(s.a, s.partner, cfg)?;
        t.span(format!("pair/{}", s.name), |t| -> Result<(), String> {
            let mut dev = base.fork();
            let mut null = PerKernel::new(vec![NullObserver, NullObserver]);
            let (stats, launches) = t.span("simt.pair_exec", |_| {
                co_run(&mut dev, &a, &b, cfg.pair_policy, &mut null)
            })?;
            c.add(&stats, launches);
            let mut dev = base.fork();
            t.span("characterize.pair_observer", |_| {
                let mut obs = PairObserver::new();
                co_run(&mut dev, &a, &b, cfg.pair_policy, &mut obs)?;
                black_box(obs.finish(["a", "b"], cfg.pair_policy.name()));
                Ok::<_, String>(())
            })
        })?;
    }
    Ok(c)
}

/// The fingerprint the study keys a workload's cache entries on: the
/// observer tier salts it, as in the study.
fn fingerprint(name: &str, cfg: &PipelineConfig, launches: &[LaunchSpec]) -> u64 {
    let study = &cfg.study;
    let salt = match study.observer_tier {
        ObserverTier::Exact => 0,
        ObserverTier::Sketch => sketch::CACHE_SALT,
    };
    workload_fingerprint(name, study.seed, study.scale, launches) ^ salt
}

/// One population member along the study's own path at one thread, call
/// for call as the study makes them: set-up, fingerprint, then either a
/// profile-cache hit (warm workloads) or the profiler over every launch,
/// verification and, on `cold_exact`, a store into `caches`.
fn study_path(
    t: &mut Trace,
    w: &mut dyn Workload,
    kind: Kind,
    cfg: &PipelineConfig,
    caches: &Path,
) -> Result<(), String> {
    let name = w.meta().name;
    let mut dev = Device::new();
    let launches = t
        .span("workloads.setup", |_| w.setup(&mut dev, cfg.study.scale))
        .map_err(|e| e.to_string())?;
    let fingerprint = t.span("workloads.fingerprint", |_| {
        fingerprint(name, cfg, &launches)
    });
    if let Some(warm) = cfg.cache_dir.as_ref().filter(|_| kind.warm()) {
        let cache = ProfileCache::new(warm);
        return t
            .span("path.profile_load", |_| cache.load(fingerprint))
            .map(drop)
            .ok_or_else(|| "the warm cache has no entry".into());
    }
    let profiles = profile(
        t,
        "path.profiler",
        &mut dev,
        &launches,
        cfg,
        1,
        &mut Counts::default(),
    )?;
    t.span("path.verify", |_| w.verify(&dev))
        .map_err(|e| e.to_string())?;
    if kind == Kind::ColdExact {
        let cache = ProfileCache::new(caches);
        t.span("path.profile_store", |_| {
            cache.store(fingerprint, &profiles)
        });
    }
    Ok(())
}

/// One population member through every engine layer.
fn member(
    t: &mut Trace,
    w: &mut dyn Workload,
    cfg: &PipelineConfig,
    caches: &Path,
    c: &mut Counts,
) -> Result<(), String> {
    let name = w.meta().name;
    let mut base = Device::new();
    let launches = w
        .setup(&mut base, cfg.study.scale)
        .map_err(|e| e.to_string())?;
    // Also decodes every kernel, so `simt.exec` excludes decoding.
    let fingerprint = fingerprint(name, cfg, &launches);
    t.span("simt.decode", |_| {
        for l in &launches {
            black_box(DecodedKernel::decode(&l.kernel));
        }
    });

    let mut dev = base.fork();
    let stats = t.span("simt.exec", |_| {
        let mut total = LaunchStats::default();
        for l in &launches {
            add_stats(&mut total, &dev.launch(&l.kernel, &l.config, &l.args)?);
        }
        Ok::<_, gwc_simt::SimtError>(total)
    });
    c.add(&stats.map_err(|e| e.to_string())?, launches.len());
    t.span("workloads.verify", |_| w.verify(&dev))
        .map_err(|e| e.to_string())?;

    observe(t, "characterize.mix", &base, &launches, MixObserver::new)?;
    observe(t, "characterize.ilp", &base, &launches, IlpObserver::new)?;
    observe(
        t,
        "characterize.divergence",
        &base,
        &launches,
        DivergenceObserver::new,
    )?;
    observe(
        t,
        "characterize.coalescing",
        &base,
        &launches,
        CoalescingObserver::new,
    )?;
    match cfg.study.observer_tier {
        ObserverTier::Exact => observe(
            t,
            "characterize.locality",
            &base,
            &launches,
            LocalityObserver::new,
        )?,
        ObserverTier::Sketch => observe(
            t,
            "characterize.locality",
            &base,
            &launches,
            SketchLocalityObserver::new,
        )?,
    }
    let profiles = profile(
        t,
        "characterize.profiler",
        &mut base.fork(),
        &launches,
        cfg,
        1,
        c,
    )?;
    profile(
        t,
        "characterize.sharded",
        &mut base.fork(),
        &launches,
        cfg,
        cfg.threads,
        &mut Counts::default(),
    )?;

    let block = MatrixBlock {
        labels: profiles
            .iter()
            .map(|p| format!("{name}/{}", p.name()))
            .collect(),
        rows: profiles.iter().map(|p| p.values().to_vec()).collect(),
    };
    let (pc, mc) = (ProfileCache::new(caches), MatrixCache::new(caches));
    t.span("cache.profile_store", |_| pc.store(fingerprint, &profiles));
    t.span("cache.matrix_store", |_| mc.store(fingerprint, &block));
    let loaded = t.span("cache.profile_load", |_| pc.load(fingerprint));
    let loaded_block = t.span("cache.matrix_load", |_| mc.load(fingerprint));
    if loaded.as_ref() != Some(&profiles) || loaded_block.as_ref() != Some(&block) {
        return Err("cache round trip changed the profiles".into());
    }
    Ok(())
}

/// The slot of `label` in an insertion-ordered per-label list, made with
/// `make` on first use: launches sharing a label accumulate into one
/// observer, as in the study.
fn slot<'s, 'a, O>(
    slots: &'s mut Vec<(&'a str, O)>,
    label: &'a str,
    make: impl FnOnce() -> O,
) -> &'s mut O {
    let i = match slots.iter().position(|(l, _)| *l == label) {
        Some(i) => i,
        None => {
            slots.push((label, make()));
            slots.len() - 1
        }
    };
    &mut slots[i].1
}

/// The workload's launches on a fresh copy of `base` under one observer
/// kind alone.
fn observe<O: TraceObserver>(
    t: &mut Trace,
    name: &str,
    base: &Device,
    launches: &[LaunchSpec],
    make: fn() -> O,
) -> Result<(), String> {
    let mut dev = base.fork();
    t.span(name, |_| {
        let mut observers = Vec::new();
        for l in launches {
            let o = slot(&mut observers, &l.label, make);
            dev.launch_observed(&l.kernel, &l.config, &l.args, o)?;
        }
        black_box(&observers);
        Ok::<_, gwc_simt::SimtError>(())
    })
    .map_err(|e| e.to_string())
}

/// The workload's launches on `dev` under the full profiler on `threads`
/// shards, as the study runs them; returns the finished profiles and
/// raises `c`'s observer-memory peak.
fn profile(
    t: &mut Trace,
    name: &str,
    dev: &mut Device,
    launches: &[LaunchSpec],
    cfg: &PipelineConfig,
    threads: usize,
    c: &mut Counts,
) -> Result<Vec<KernelProfile>, String> {
    let tier = cfg.study.observer_tier;
    t.span(name, |_| {
        let mut profilers = Vec::new();
        for l in launches {
            let p = slot(&mut profilers, &l.label, || Profiler::with_tier(tier));
            profile_launch_sharded(dev, &l.kernel, &l.config, &l.args, p, threads)?;
            c.observer_bytes_peak = c.observer_bytes_peak.max(p.observer_bytes());
        }
        Ok(profilers
            .into_iter()
            .map(|(label, p)| p.finish(label))
            .collect())
    })
    .map_err(|e: gwc_simt::SimtError| e.to_string())
}

fn add_stats(total: &mut LaunchStats, s: &LaunchStats) {
    total.warp_instrs += s.warp_instrs;
    total.thread_instrs += s.thread_instrs;
    total.blocks += s.blocks;
    total.warps += s.warps;
    total.barriers += s.barriers;
}

/// A co-schedule observer that can be told which member a solo leftover
/// launch belongs to.
trait Members: CoScheduleObserver {
    fn select(&mut self, member: usize);
}

impl Members for PairObserver {
    fn select(&mut self, member: usize) {
        self.set_member(member);
    }
}

impl Members for PerKernel<NullObserver> {
    fn select(&mut self, _member: usize) {}
}

/// Sets both members of a pair scenario up on one device, as the pair
/// study does.
fn pair_setup(
    a: &str,
    partner: gwc_workloads::pairs::PairPartner,
    cfg: &PipelineConfig,
) -> Result<(Device, Vec<LaunchSpec>, Vec<LaunchSpec>), String> {
    let mut dev = Device::new();
    let la = registry_member(a, cfg.study.seed)
        .setup(&mut dev, cfg.study.scale)
        .map_err(|e| e.to_string())?;
    let lb = partner_member(partner, cfg.study.seed)
        .setup(&mut dev, cfg.study.scale)
        .map_err(|e| e.to_string())?;
    Ok((dev, la, lb))
}

/// Co-runs two members' launch sequences as the pair study does: paired
/// launches through `launch_pair`, then the longer member's leftovers
/// solo. Returns the summed stats and the number of kernel launches.
fn co_run<O: Members>(
    dev: &mut Device,
    a: &[LaunchSpec],
    b: &[LaunchSpec],
    policy: SchedPolicy,
    obs: &mut O,
) -> Result<(LaunchStats, usize), String> {
    fn as_pair(l: &LaunchSpec) -> PairLaunch<'_> {
        PairLaunch {
            kernel: &l.kernel,
            config: &l.config,
            args: &l.args,
        }
    }
    let mut total = LaunchStats::default();
    for (la, lb) in a.iter().zip(b) {
        let [sa, sb] = dev
            .launch_pair(as_pair(la), as_pair(lb), policy, obs)
            .map_err(|e| e.to_string())?;
        add_stats(&mut total, &sa);
        add_stats(&mut total, &sb);
    }
    let paired = a.len().min(b.len());
    for (m, launches) in [(0, a), (1, b)] {
        obs.select(m);
        for l in launches.iter().skip(paired) {
            let s = dev
                .launch_observed(&l.kernel, &l.config, &l.args, obs)
                .map_err(|e| e.to_string())?;
            add_stats(&mut total, &s);
        }
    }
    Ok((total, a.len() + b.len()))
}

/// Thread-instructions the pair study simulates under `cfg`.
///
/// # Errors
///
/// A member fails to set up or launch.
pub fn pair_thread_instrs(cfg: &PipelineConfig) -> Result<u64, String> {
    let mut total = 0;
    for s in PAIR_SCENARIOS {
        let (mut dev, a, b) = pair_setup(s.a, s.partner, cfg)?;
        let mut null = PerKernel::new(vec![NullObserver, NullObserver]);
        total += co_run(&mut dev, &a, &b, cfg.pair_policy, &mut null)?
            .0
            .thread_instrs;
    }
    Ok(total)
}

/// The per-layer values of one repetition, in [`LAYERS`] order up to
/// `ladder.coverage`, and that ratio's two sides: the layers on the
/// workload's study path and the study stage alone at one thread.
fn rep_values(t: &Trace, rep: u32, c: &Counts) -> (Vec<(&'static str, f64)>, [f64; 2]) {
    let ms = |name: &str| t.self_ms(rep, name);
    let exec = ms("simt.exec");
    let pair_exec = ms("simt.pair_exec");
    let render = |ids: &[&str]| -> f64 { ids.iter().map(|id| ms(&format!("render/{id}"))).sum() };
    let study_path: f64 = [
        "workloads.setup",
        "workloads.fingerprint",
        "path.profile_load",
        "path.profiler",
        "path.verify",
        "path.profile_store",
    ]
    .into_iter()
    .map(ms)
    .sum();
    let all = all_experiments();
    let (study_ids, pair_ids) = all.split_at(all.len() - 1);
    let values = vec![
        ("workloads.setup_ms", ms("workloads.setup")),
        ("workloads.fingerprint_ms", ms("workloads.fingerprint")),
        ("workloads.verify_ms", ms("workloads.verify")),
        ("simt.decode_ms", ms("simt.decode")),
        ("simt.exec_ms", exec),
        ("simt.thread_instrs", c.thread_instrs as f64),
        ("simt.warp_instrs", c.warp_instrs as f64),
        ("simt.launches", c.launches as f64),
        ("simt.pair_exec_ms", pair_exec),
        ("characterize.mix_ms", ms("characterize.mix") - exec),
        ("characterize.ilp_ms", ms("characterize.ilp") - exec),
        (
            "characterize.divergence_ms",
            ms("characterize.divergence") - exec,
        ),
        (
            "characterize.coalescing_ms",
            ms("characterize.coalescing") - exec,
        ),
        (
            "characterize.locality_ms",
            ms("characterize.locality") - exec,
        ),
        (
            "characterize.profiler_ms",
            ms("characterize.profiler") - exec,
        ),
        ("characterize.sharded_ms", ms("characterize.sharded")),
        (
            "characterize.observer_bytes_peak",
            c.observer_bytes_peak as f64,
        ),
        (
            "characterize.cache_store_ms",
            ms("cache.profile_store") + ms("cache.matrix_store"),
        ),
        (
            "characterize.cache_load_ms",
            ms("cache.profile_load") + ms("cache.matrix_load"),
        ),
        ("characterize.cache_bytes", c.cache_bytes as f64),
        (
            "characterize.pair_observer_ms",
            ms("characterize.pair_observer") - pair_exec,
        ),
        ("core.study_ms", ms("core.study")),
        ("core.matrix_ms", ms("core.matrix")),
        ("core.reduce_ms", ms("core.reduce")),
        ("core.cluster_ms", ms("core.cluster")),
        ("core.pairs_ms", ms("core.pairs")),
        ("bench.render_ms", render(study_ids)),
        ("bench.render_e8_ms", render(&["e8"])),
        ("bench.render_e12_ms", render(&["e12"])),
        ("bench.render_e14_ms", render(pair_ids)),
    ];
    (values, [study_path, ms("core.study_1t")])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_nesting_holds() {
        let mut t = Trace::default();
        t.span("root", |t| {
            t.span("a", |t| {
                t.span("leaf", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
            t.span("a", |_| {});
        });
        t.check_nesting().expect("recorded spans nest");
        let a_total: f64 = t
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "a")
            .map(|(i, _)| t.dur_ns(i) as f64 / 1e6)
            .sum();
        let leaf = t.self_ms(0, "leaf");
        assert!(leaf >= 2.0);
        assert!((t.self_ms(0, "a") - (a_total - leaf)).abs() < 1e-9);
        assert!(t.self_ms(0, "root") >= 0.0);
        assert_eq!(t.self_ms(1, "leaf"), 0.0, "other repetitions are separate");
    }

    #[test]
    fn a_child_outside_its_parent_breaks_nesting() {
        let mut t = Trace::default();
        t.span("root", |t| t.span("child", |_| {}));
        t.spans[1].end_ns = t.spans[0].end_ns + 1;
        assert!(t.check_nesting().is_err());
    }

    #[test]
    fn a_panic_leaves_no_span_open() {
        let mut t = Trace::default();
        let r = catch_unwind(AssertUnwindSafe(|| t.span("root", |_| panic!("injected"))));
        assert!(r.is_err());
        t.close_open();
        assert!(t.open.is_empty());
        t.check_nesting().expect("closed spans nest");
    }

    #[test]
    fn chrome_events_carry_parent_and_iteration() {
        let mut t = Trace {
            iteration: 3,
            ..Trace::default()
        };
        t.span("root", |t| t.span("child", |_| {}));
        let events = t.chrome_events(1, "w");
        assert_eq!(events.len(), 3, "metadata plus two spans");
        let args = events[2].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Json::as_str), Some("root"));
        assert_eq!(args.get("iteration").and_then(Json::as_u64), Some(3));
    }
}
