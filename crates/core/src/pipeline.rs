//! The staged characterization pipeline: typed artifacts, an explicit
//! stage DAG, and one entry point shared by `regen`, the examples and the
//! benchmark.
//!
//! Before this module, every consumer re-spelled the same ad-hoc call
//! chain (run study → drop `vector_add` → build matrix → fit PCA → fit
//! clustering) and the chain's structure existed only by convention. Here
//! each step is a [`Stage`] with a typed input and output artifact, the
//! dependencies are data ([`StageId::deps`]), and [`Artifacts::collect`]
//! is the single entry point that walks the DAG in topological order,
//! running each stage inside one observability span named after it
//! (`study`, `matrix`, `reduce`, `cluster`). The lazy pair stage opens
//! its `pairs` span wherever it is run from (E14 records it under
//! `experiment/e14`).
//!
//! The study stage is cache-aware: give [`PipelineConfig::cache_dir`] a
//! directory and workloads whose fingerprints hit the persistent profile
//! cache skip simulation entirely, with bit-identical results.

use std::path::PathBuf;

use gwc_characterize::ProfileCache;
use gwc_simt::sched::SchedPolicy;
use gwc_stats::Matrix;
use gwc_workloads::Scale;

use crate::analysis::ClusterAnalysis;
use crate::reduce::ReducedSpace;
use crate::study::{Study, StudyConfig};

/// Identity of a pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StageId {
    /// Run the workload registry and collect kernel profiles.
    Study,
    /// Co-run the curated kernel pairs and collect interference
    /// profiles. Lazy: not in [`StageId::ALL`] — it runs on demand
    /// (experiment E14), not in every [`Artifacts::collect`], so
    /// pipelines that never look at pairs pay nothing.
    Pairs,
    /// Assemble the kernel × characteristic matrix with row labels.
    Matrix,
    /// Normalize and reduce dimensionality (PCA).
    Reduce,
    /// Cluster in the reduced space and pick representatives.
    Cluster,
}

impl StageId {
    /// Every *eagerly collected* stage, in the one valid topological
    /// order ([`StageId::Pairs`] is lazy and deliberately absent).
    pub const ALL: [StageId; 4] = [
        StageId::Study,
        StageId::Matrix,
        StageId::Reduce,
        StageId::Cluster,
    ];

    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            StageId::Study => "study",
            StageId::Pairs => "pairs",
            StageId::Matrix => "matrix",
            StageId::Reduce => "reduce",
            StageId::Cluster => "cluster",
        }
    }

    /// The stages whose output artifacts this stage consumes.
    pub fn deps(self) -> &'static [StageId] {
        match self {
            StageId::Study => &[],
            StageId::Pairs => &[StageId::Study],
            StageId::Matrix => &[StageId::Study],
            StageId::Reduce => &[StageId::Matrix],
            StageId::Cluster => &[StageId::Reduce],
        }
    }

    /// The artifact this stage produces.
    pub fn output(self) -> ArtifactKind {
        match self {
            StageId::Study => ArtifactKind::Study,
            StageId::Pairs => ArtifactKind::Pairs,
            StageId::Matrix => ArtifactKind::Matrix,
            StageId::Reduce => ArtifactKind::Reduced,
            StageId::Cluster => ArtifactKind::Clustering,
        }
    }
}

/// Kind tag for the typed artifacts, used by consumers (e.g. the
/// experiment registry in `gwc-bench`) to declare what they read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ArtifactKind {
    /// [`StudyArtifact`].
    Study,
    /// [`PairArtifact`].
    Pairs,
    /// [`MatrixArtifact`].
    Matrix,
    /// [`ReducedArtifact`].
    Reduced,
    /// [`ClusteringArtifact`].
    Clustering,
}

impl ArtifactKind {
    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Study => "study",
            ArtifactKind::Pairs => "pairs",
            ArtifactKind::Matrix => "matrix",
            ArtifactKind::Reduced => "reduced",
            ArtifactKind::Clustering => "clustering",
        }
    }
}

/// Configuration of one full pipeline run. [`PipelineConfig::default`]
/// is the canonical configuration every committed result was produced
/// under (seed 7, `Scale::Small`, verification on, `vector_add`
/// excluded from the population, 90% variance, k ≤ 12, cluster seed 7,
/// no cache).
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Study stage configuration (seed, scale, verification).
    pub study: StudyConfig,
    /// Worker threads for the study fan-out and downstream experiment
    /// stages. Results are bit-identical at any thread count.
    pub threads: usize,
    /// Workload dropped from the population after the study runs (the
    /// quickstart `vector_add` by default — it is a smoke test, not part
    /// of the paper's population).
    pub exclude_workload: Option<&'static str>,
    /// Fraction of variance the reduction must retain.
    pub variance: f64,
    /// Upper bound for the BIC scan over k.
    pub max_k: usize,
    /// Seed for k-means initialization.
    pub cluster_seed: u64,
    /// Directory of the persistent profile cache; `None` disables
    /// caching (every workload simulates).
    pub cache_dir: Option<PathBuf>,
    /// Dispatch policy the (lazy) pair-study stage co-schedules under.
    pub pair_policy: SchedPolicy,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            study: StudyConfig {
                seed: 7,
                scale: Scale::Small,
                verify: true,
                ..StudyConfig::default()
            },
            threads: 1,
            exclude_workload: Some("vector_add"),
            variance: 0.9,
            max_k: 12,
            cluster_seed: 7,
            cache_dir: None,
            pair_policy: SchedPolicy::RoundRobin,
        }
    }
}

/// Output of [`StageId::Study`]: the profiled workload population.
#[derive(Debug)]
pub struct StudyArtifact {
    /// The study, with [`PipelineConfig::exclude_workload`] already
    /// dropped.
    pub study: Study,
}

/// Output of [`StageId::Pairs`]: the pairwise-interference study.
#[derive(Debug)]
pub struct PairArtifact {
    /// The co-scheduled pair study.
    pub pairs: crate::pairs::PairStudy,
}

/// Output of [`StageId::Matrix`]: the kernel × characteristic matrix.
#[derive(Debug)]
pub struct MatrixArtifact {
    /// Row labels (`workload/kernel`), in study order.
    pub labels: Vec<String>,
    /// The raw (unnormalized) matrix.
    pub matrix: Matrix,
}

/// Output of [`StageId::Reduce`]: the reduced (PC) space.
#[derive(Debug)]
pub struct ReducedArtifact {
    /// The fitted reduction.
    pub space: ReducedSpace,
}

/// Output of [`StageId::Cluster`]: clustering and representatives.
#[derive(Debug)]
pub struct ClusteringArtifact {
    /// The fitted clustering.
    pub analysis: ClusterAnalysis,
}

/// One pipeline stage: a typed transformation from its input artifact(s)
/// to its output artifact. The associated `ID` ties the type-level
/// contract to the data-level DAG in [`StageId`]; a unit test checks the
/// two agree.
pub trait Stage {
    /// Which stage this is.
    const ID: StageId;
    /// Borrowed input artifact(s).
    type Input<'a>;
    /// Produced artifact.
    type Output;

    /// Runs the stage.
    ///
    /// # Panics
    ///
    /// Stages panic on failure: the pipeline feeds batch tools
    /// (`regen`, the benchmark, the examples) for which a failed stage has
    /// nothing to print, and the canonical configuration is covered by
    /// the test suite.
    fn run(cfg: &PipelineConfig, input: Self::Input<'_>) -> Self::Output;
}

/// The study stage (cache-aware).
pub struct StudyStage;

impl Stage for StudyStage {
    const ID: StageId = StageId::Study;
    type Input<'a> = ();
    type Output = StudyArtifact;

    fn run(cfg: &PipelineConfig, (): ()) -> StudyArtifact {
        let cache = cfg.cache_dir.as_ref().map(ProfileCache::new);
        let study = Study::run_threads_cached(&cfg.study, cfg.threads, cache.as_ref())
            .expect("study runs and verifies");
        let study = match cfg.exclude_workload {
            Some(name) => study.without_workload(name),
            None => study,
        };
        StudyArtifact { study }
    }
}

/// The (lazy) pair-study stage: co-schedules the curated kernel pairs
/// under [`PipelineConfig::pair_policy`] and profiles their
/// interference, using the study artifact for the cache-backed solo
/// reference columns. Run on demand (experiment E14 is its consumer),
/// never inside [`Artifacts::collect`].
pub struct PairsStage;

impl Stage for PairsStage {
    const ID: StageId = StageId::Pairs;
    type Input<'a> = &'a StudyArtifact;
    type Output = PairArtifact;

    fn run(cfg: &PipelineConfig, input: &StudyArtifact) -> PairArtifact {
        let _span = gwc_obs::span!("{}", StageId::Pairs.name());
        PairArtifact {
            pairs: crate::pairs::run_from_artifact(cfg, input),
        }
    }
}

/// The matrix-assembly stage: one row per kernel, copied from the
/// study's in-memory profiles in study order ([`Study::matrix`]).
pub struct MatrixStage;

impl Stage for MatrixStage {
    const ID: StageId = StageId::Matrix;
    type Input<'a> = &'a StudyArtifact;
    type Output = MatrixArtifact;

    fn run(_cfg: &PipelineConfig, input: &StudyArtifact) -> MatrixArtifact {
        MatrixArtifact {
            labels: input.study.labels(),
            matrix: input.study.matrix(),
        }
    }
}

/// The dimensionality-reduction stage.
pub struct ReduceStage;

impl Stage for ReduceStage {
    const ID: StageId = StageId::Reduce;
    type Input<'a> = &'a MatrixArtifact;
    type Output = ReducedArtifact;

    fn run(cfg: &PipelineConfig, input: &MatrixArtifact) -> ReducedArtifact {
        ReducedArtifact {
            space: ReducedSpace::fit(&input.matrix, cfg.variance).expect("reduction fits"),
        }
    }
}

/// The clustering stage.
pub struct ClusterStage;

impl Stage for ClusterStage {
    const ID: StageId = StageId::Cluster;
    type Input<'a> = &'a ReducedArtifact;
    type Output = ClusteringArtifact;

    fn run(cfg: &PipelineConfig, input: &ReducedArtifact) -> ClusteringArtifact {
        ClusteringArtifact {
            analysis: ClusterAnalysis::fit(input.space.scores(), cfg.max_k, cfg.cluster_seed)
                .expect("clustering fits"),
        }
    }
}

/// Runs stage `S` inside a span named [`StageId::name`].
fn run_in_span<S: Stage>(cfg: &PipelineConfig, input: S::Input<'_>) -> S::Output {
    let _span = gwc_obs::span!("{}", S::ID.name());
    S::run(cfg, input)
}

/// Every artifact of one full pipeline run.
#[derive(Debug)]
pub struct Artifacts {
    /// Study-stage output.
    pub study: StudyArtifact,
    /// Matrix-stage output.
    pub matrix: MatrixArtifact,
    /// Reduce-stage output.
    pub reduced: ReducedArtifact,
    /// Cluster-stage output.
    pub clustering: ClusteringArtifact,
    /// The configuration the artifacts were collected under. Experiment
    /// E14 reads it to run the lazy pair stage against the same seed,
    /// scale, dispatch policy and worker threads.
    pub config: PipelineConfig,
}

impl Artifacts {
    /// Runs every stage in DAG order, each inside a span named after it,
    /// and returns the full artifact set.
    ///
    /// # Panics
    ///
    /// Panics if any stage fails (see [`Stage::run`]).
    pub fn collect(cfg: &PipelineConfig) -> Self {
        let study = run_in_span::<StudyStage>(cfg, ());
        let matrix = run_in_span::<MatrixStage>(cfg, &study);
        let reduced = run_in_span::<ReduceStage>(cfg, &matrix);
        let clustering = run_in_span::<ClusterStage>(cfg, &reduced);
        Self {
            study,
            matrix,
            reduced,
            clustering,
            config: cfg.clone(),
        }
    }

    /// Convenience: the canonical configuration on `threads` workers
    /// (no cache). Bit-identical to `collect` of a default config at
    /// any thread count.
    pub fn collect_threads(threads: usize) -> Self {
        Self::collect(&PipelineConfig {
            threads,
            ..PipelineConfig::default()
        })
    }

    /// The study population.
    pub fn study(&self) -> &Study {
        &self.study.study
    }

    /// The reduced (PC) space.
    pub fn space(&self) -> &ReducedSpace {
        &self.reduced.space
    }

    /// The whole-space clustering.
    pub fn analysis(&self) -> &ClusterAnalysis {
        &self.clustering.analysis
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_a_topological_order() {
        for (i, stage) in StageId::ALL.iter().enumerate() {
            for dep in stage.deps() {
                let j = StageId::ALL
                    .iter()
                    .position(|s| s == dep)
                    .expect("dep is a stage");
                assert!(j < i, "{:?} depends on later {:?}", stage, dep);
            }
        }
    }

    #[test]
    fn stage_impls_agree_with_dag() {
        assert_eq!(StudyStage::ID, StageId::Study);
        assert_eq!(PairsStage::ID, StageId::Pairs);
        assert_eq!(MatrixStage::ID, StageId::Matrix);
        assert_eq!(ReduceStage::ID, StageId::Reduce);
        assert_eq!(ClusterStage::ID, StageId::Cluster);
    }

    /// The lazy pair stage must stay out of the eager driver: its cost
    /// belongs to E14 alone.
    #[test]
    fn pairs_stage_is_lazy_with_valid_deps() {
        assert!(!StageId::ALL.contains(&StageId::Pairs));
        assert_eq!(StageId::Pairs.deps(), &[StageId::Study]);
        assert_eq!(StageId::Pairs.output(), ArtifactKind::Pairs);
        assert_eq!(StageId::Pairs.name(), "pairs");
        assert_eq!(ArtifactKind::Pairs.name(), "pairs");
    }

    /// Each eager stage records a top-level span under its own name: no
    /// stage nests under a stage it does not run inside. (Other tests
    /// may record spans while the recorder is installed, so only
    /// stage-named spans are compared.)
    #[test]
    fn span_paths_keep_top_level_stage_set() {
        use std::sync::Arc;

        let mut cfg = PipelineConfig::default();
        cfg.study.scale = Scale::Tiny;
        cfg.study.verify = false;
        let rec = Arc::new(gwc_obs::metrics::MetricsRecorder::default());
        let guard = gwc_obs::install(rec.clone());
        Artifacts::collect(&cfg);
        drop(guard);
        let snap = rec.snapshot();
        let top: Vec<&str> = StageId::ALL
            .iter()
            .map(|s| s.name())
            .filter(|name| snap.stages().iter().any(|s| s.path == *name))
            .collect();
        assert_eq!(top, ["study", "matrix", "reduce", "cluster"]);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(StageId::Matrix.name(), "matrix");
        assert_eq!(StageId::Matrix.output().name(), "matrix");
        assert_eq!(ArtifactKind::Reduced.name(), "reduced");
    }

    #[test]
    fn default_config_is_canonical() {
        let cfg = PipelineConfig::default();
        assert_eq!(cfg.study.seed, 7);
        assert_eq!(cfg.exclude_workload, Some("vector_add"));
        assert_eq!(cfg.variance, 0.9);
        assert_eq!(cfg.max_k, 12);
        assert_eq!(cfg.cluster_seed, 7);
        assert!(cfg.cache_dir.is_none());
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.pair_policy, SchedPolicy::RoundRobin);
    }
}
