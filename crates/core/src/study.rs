//! Stage 1: run the workload population and collect kernel profiles.

use std::collections::BTreeMap;
use std::sync::Mutex;

use gwc_characterize::{sketch, KernelProfile, ObserverTier, ProfileCache, Profiler};
use gwc_simt::exec::Device;
use gwc_stats::{Matrix, MatrixBuilder};
use gwc_workloads::fingerprint::workload_fingerprint;
use gwc_workloads::{registry, Scale, StudyScale, Suite, Workload, WorkloadError};

use crate::parallel::parallel_map_named;

/// Configuration of a characterization study.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Master seed; every workload derives its own input seed from it.
    pub seed: u64,
    /// Problem scale for every workload.
    pub scale: Scale,
    /// Verify GPU results against CPU references after each workload
    /// (recommended; adds CPU-side time only).
    pub verify: bool,
    /// Memory tier of the heavyweight observers: [`ObserverTier::Exact`]
    /// (the default, per-address state, the bit-exact oracle) or
    /// [`ObserverTier::Sketch`] (bounded-memory streaming sketches).
    pub observer_tier: ObserverTier,
    /// Size of the study population ([`StudyScale::Standard`] = the
    /// canonical 26-workload registry).
    pub study_scale: StudyScale,
}

impl Default for StudyConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            scale: Scale::Small,
            verify: true,
            observer_tier: ObserverTier::Exact,
            study_scale: StudyScale::Standard,
        }
    }
}

/// One row of the study: a kernel and its profile.
#[derive(Debug, Clone)]
pub struct KernelRecord {
    /// Workload name.
    pub workload: &'static str,
    /// Suite attribution.
    pub suite: Suite,
    /// Kernel label (launches sharing a label were profiled together).
    pub kernel: String,
    /// The measured profile.
    pub profile: KernelProfile,
    /// Content fingerprint of the workload instance this record came
    /// from (salted by observer tier) — the profile cache's key. Every
    /// record of one workload shares its fingerprint.
    pub fingerprint: u64,
}

impl KernelRecord {
    /// `workload/kernel` display label.
    pub fn label(&self) -> String {
        format!("{}/{}", self.workload, self.kernel)
    }
}

/// A completed study: one profile per kernel of every workload.
#[derive(Debug)]
pub struct Study {
    records: Vec<KernelRecord>,
}

impl Study {
    /// Runs the full registry under the given configuration.
    ///
    /// Kernel launches sharing a label within a workload (e.g. wavefront
    /// or ping-pong relaunches) accumulate into a single profile, matching
    /// the paper's per-kernel granularity.
    ///
    /// # Errors
    ///
    /// Returns the first simulation or verification error.
    pub fn run(config: &StudyConfig) -> Result<Study, WorkloadError> {
        Self::run_threads(config, 1)
    }

    /// Runs the full registry like [`Study::run`], fanning whole
    /// workloads out across up to `threads` worker threads.
    ///
    /// Each workload still executes on exactly one thread (its launches
    /// are sequentially dependent), so the result is bit-identical to the
    /// serial run: records are reassembled in registry order and every
    /// profile is computed by the same code on the same inputs.
    ///
    /// # Errors
    ///
    /// Returns the error of the earliest-registered failing workload —
    /// the one the serial run would have hit first. (Unlike the serial
    /// run, later workloads may already have executed by then.)
    pub fn run_threads(config: &StudyConfig, threads: usize) -> Result<Study, WorkloadError> {
        Self::run_threads_cached(config, threads, None)
    }

    /// Runs the full registry like [`Study::run_threads`], consulting a
    /// persistent profile cache when one is given.
    ///
    /// A workload whose fingerprint has a valid cache entry skips all of
    /// its kernel launches (and verification — no device result exists to
    /// verify); the cached profiles are bit-identical to recomputed ones,
    /// so the study result is unchanged. Misses run normally and populate
    /// the cache for next time. Hit/miss totals land on the
    /// `cache.hits` / `cache.misses` metrics counters.
    ///
    /// # Errors
    ///
    /// Returns the error of the earliest-registered failing workload.
    pub fn run_threads_cached(
        config: &StudyConfig,
        threads: usize,
        cache: Option<&ProfileCache>,
    ) -> Result<Study, WorkloadError> {
        let workloads = registry::study_workloads(config.seed, config.study_scale);
        if threads <= 1 {
            // Consuming the population drops each workload, with the
            // inputs it keeps for `verify`, as soon as it has run.
            let mut records = Vec::new();
            for mut w in workloads {
                records.extend(Self::run_one_cached(w.as_mut(), config, cache)?);
            }
            return Ok(Study { records });
        }
        // Hand each worker exclusive ownership of the workloads it steals.
        let slots: Vec<Mutex<Option<Box<dyn Workload>>>> =
            workloads.into_iter().map(|w| Mutex::new(Some(w))).collect();
        let results = parallel_map_named("study", slots.len(), threads, |i| {
            let mut w = slots[i]
                .lock()
                .expect("workload slot poisoned")
                .take()
                .expect("each slot taken once");
            Self::run_one_cached(w.as_mut(), config, cache)
        });
        let mut records = Vec::new();
        for r in results {
            records.extend(r?);
        }
        Ok(Study { records })
    }

    /// Runs a single workload and returns one record per kernel label.
    ///
    /// # Errors
    ///
    /// Returns the first simulation or verification error.
    pub fn run_one(
        workload: &mut dyn Workload,
        config: &StudyConfig,
    ) -> Result<Vec<KernelRecord>, WorkloadError> {
        Self::run_one_cached(workload, config, None)
    }

    /// Runs a single workload like [`Study::run_one`], consulting a
    /// persistent profile cache when one is given.
    ///
    /// Setup always runs: it generates the inputs and builds the kernels
    /// and launch arguments the fingerprint hashes. It does no other CPU
    /// work, since workloads compute their CPU references in `verify`.
    /// On a cache hit every launch and the verification are skipped (the
    /// device buffers were never written, so there is nothing to verify;
    /// the profiles were verified when they were first computed and
    /// stored).
    ///
    /// # Errors
    ///
    /// Returns the first setup, simulation or verification error.
    pub fn run_one_cached(
        workload: &mut dyn Workload,
        config: &StudyConfig,
        cache: Option<&ProfileCache>,
    ) -> Result<Vec<KernelRecord>, WorkloadError> {
        let meta = workload.meta();
        // The workload's span encloses its launches, so they nest under it.
        let _span = gwc_obs::span!("workload/{}", meta.name);
        let rec = gwc_obs::recorder();
        let start = rec.as_ref().map(|_| std::time::Instant::now());
        let mut dev = Device::new();
        let launches = workload.setup(&mut dev, config.scale)?;
        // Sketch-tier profiles are a different (approximate) function of
        // the same inputs, so the tier salts the fingerprint: the two
        // tiers can never alias each other's cache entries.
        let tier_salt = match config.observer_tier {
            ObserverTier::Exact => 0,
            ObserverTier::Sketch => sketch::CACHE_SALT,
        };
        let fingerprint =
            workload_fingerprint(meta.name, config.seed, config.scale, &launches) ^ tier_salt;
        let cached = cache.and_then(|c| c.load(fingerprint));
        let records: Vec<KernelRecord> = if let Some(profiles) = cached {
            gwc_obs::count("cache.hits", 1);
            profiles
                .into_iter()
                .map(|profile| KernelRecord {
                    workload: meta.name,
                    suite: meta.suite,
                    kernel: profile.name().to_string(),
                    profile,
                    fingerprint,
                })
                .collect()
        } else {
            if cache.is_some() {
                gwc_obs::count("cache.misses", 1);
            }
            // Insertion-ordered grouping by label.
            let mut order: Vec<String> = Vec::new();
            let mut profilers: BTreeMap<String, Profiler> = BTreeMap::new();
            for launch in &launches {
                if !profilers.contains_key(&launch.label) {
                    order.push(launch.label.clone());
                    profilers.insert(
                        launch.label.clone(),
                        Profiler::with_tier(config.observer_tier),
                    );
                }
                let profiler = profilers.get_mut(&launch.label).expect("just inserted");
                profiler.profile_launch(&mut dev, &launch.kernel, &launch.config, &launch.args)?;
            }
            if config.verify {
                workload.verify(&dev)?;
            }
            let records: Vec<KernelRecord> = order
                .into_iter()
                .map(|label| {
                    let profiler = profilers.remove(&label).expect("grouped");
                    let profile = profiler.finish(label.clone());
                    KernelRecord {
                        workload: meta.name,
                        suite: meta.suite,
                        kernel: label,
                        profile,
                        fingerprint,
                    }
                })
                .collect();
            if let Some(c) = cache {
                let profiles: Vec<KernelProfile> =
                    records.iter().map(|r| r.profile.clone()).collect();
                c.store(fingerprint, &profiles);
            }
            records
        };
        if let (Some(rec), Some(start)) = (rec, start) {
            let nanos = start.elapsed().as_nanos() as u64;
            rec.record_workload(meta.name, records.len() as u64, nanos);
        }
        Ok(records)
    }

    /// The kernel records, in registry/launch order.
    pub fn records(&self) -> &[KernelRecord] {
        &self.records
    }

    /// Row labels (`workload/kernel`).
    pub fn labels(&self) -> Vec<String> {
        self.records.iter().map(KernelRecord::label).collect()
    }

    /// The kernel × characteristic matrix (raw, unnormalized), one row
    /// per record.
    pub fn matrix(&self) -> Matrix {
        let cols = self.records.first().map_or(0, |r| r.profile.values().len());
        let mut builder = MatrixBuilder::new(cols);
        for r in &self.records {
            builder
                .push_row(r.profile.values())
                .expect("profiles share the schema width");
        }
        builder.finish().expect("study is never empty")
    }

    /// Row indices belonging to `workload`.
    pub fn rows_of_workload(&self, workload: &str) -> Vec<usize> {
        self.records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.workload == workload)
            .map(|(i, _)| i)
            .collect()
    }

    /// Row indices belonging to `suite`.
    pub fn rows_of_suite(&self, suite: Suite) -> Vec<usize> {
        self.records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.suite == suite)
            .map(|(i, _)| i)
            .collect()
    }

    /// Distinct workload names, in first-appearance order.
    pub fn workload_names(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        for r in &self.records {
            if !names.contains(&r.workload) {
                names.push(r.workload);
            }
        }
        names
    }

    /// Drops rows belonging to the named workload (used to exclude the
    /// quickstart `vector_add` from suite-diversity statistics).
    pub fn without_workload(&self, workload: &str) -> Study {
        Study {
            records: self
                .records
                .iter()
                .filter(|r| r.workload != workload)
                .cloned()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    use gwc_simt::SimtError;
    use gwc_workloads::sdk::ParallelReduction;
    use gwc_workloads::{LaunchSpec, VerifyError, WorkloadMeta};

    /// A workload that counts its `verify` calls.
    struct CountingVerify {
        inner: ParallelReduction,
        verifies: Cell<usize>,
    }

    impl Workload for CountingVerify {
        fn meta(&self) -> WorkloadMeta {
            self.inner.meta()
        }

        fn setup(
            &mut self,
            device: &mut Device,
            scale: Scale,
        ) -> Result<Vec<LaunchSpec>, SimtError> {
            self.inner.setup(device, scale)
        }

        fn verify(&self, device: &Device) -> Result<(), VerifyError> {
            self.verifies.set(self.verifies.get() + 1);
            self.inner.verify(device)
        }
    }

    #[test]
    fn a_cache_hit_skips_verify_and_returns_equal_records() {
        let dir = std::env::temp_dir().join(format!("gwc-study-verify-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ProfileCache::new(&dir);
        let config = StudyConfig {
            seed: 3,
            scale: Scale::Tiny,
            ..StudyConfig::default()
        };
        let mut w = CountingVerify {
            inner: ParallelReduction::new(3),
            verifies: Cell::new(0),
        };
        let miss = Study::run_one_cached(&mut w, &config, Some(&cache)).unwrap();
        assert_eq!(w.verifies.get(), 1, "a miss verifies once");
        let hit = Study::run_one_cached(&mut w, &config, Some(&cache)).unwrap();
        assert_eq!(w.verifies.get(), 1, "a hit never verifies");
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(miss.len(), hit.len());
        for (a, b) in miss.iter().zip(&hit) {
            assert_eq!((a.workload, a.suite), (b.workload, b.suite));
            assert_eq!((&a.kernel, a.fingerprint), (&b.kernel, b.fingerprint));
            assert_eq!(a.profile.raw(), b.profile.raw(), "{}", a.label());
            assert_eq!(a.profile.stats(), b.profile.stats(), "{}", a.label());
            for (x, y) in a.profile.values().iter().zip(b.profile.values()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{}", a.label());
            }
        }
    }

    #[test]
    fn run_one_groups_by_label() {
        let mut w = ParallelReduction::new(3);
        let records = Study::run_one(
            &mut w,
            &StudyConfig {
                seed: 3,
                scale: Scale::Tiny,
                verify: true,
                ..StudyConfig::default()
            },
        )
        .unwrap();
        // Four kernel variants; the final pass shares the sequential label.
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].kernel, "reduce_interleaved");
        assert_eq!(records[1].kernel, "reduce_sequential");
        assert_eq!(records[2].kernel, "reduce_first_add");
        assert_eq!(records[3].kernel, "reduce_grid_stride");
        // The sequential profile saw two launches.
        assert_eq!(records[1].profile.raw().blocks, 4 + 1);
    }

    #[test]
    fn interleaved_variant_is_more_divergent() {
        let mut w = ParallelReduction::new(3);
        let records = Study::run_one(
            &mut w,
            &StudyConfig {
                seed: 3,
                scale: Scale::Tiny,
                verify: false,
                ..StudyConfig::default()
            },
        )
        .unwrap();
        let inter = &records[0].profile;
        let seq = &records[1].profile;
        assert!(
            inter.get("div_simd_activity") < seq.get("div_simd_activity"),
            "interleaved addressing diverges more: {} vs {}",
            inter.get("div_simd_activity"),
            seq.get("div_simd_activity")
        );
    }
}
