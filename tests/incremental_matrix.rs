//! Matrix assembly over the profile cache: a cached study's matrix must
//! be bit-identical to an uncached cold assembly, while the profile
//! cache's hit/miss counters prove the rows came from cached profiles —
//! including *appending* a workload to an already-cached study without
//! re-simulating the existing ones.
//!
//! Everything lives in one `#[test]`: the phases share cache
//! directories and the global metrics recorder, so they must not run
//! concurrently with each other.

use std::path::PathBuf;
use std::sync::Arc;

use gwc::core::pipeline::{MatrixArtifact, MatrixStage, PipelineConfig, Stage, StudyStage};
use gwc::obs::metrics::MetricsRecorder;
use gwc::workloads::Scale;

/// Workloads in the registry: the study profiles each one, whatever
/// the pipeline excludes from the population afterwards.
const REGISTRY_SIZE: u64 = 26;

fn config(cache: Option<PathBuf>, exclude: Option<&'static str>) -> PipelineConfig {
    let mut cfg = PipelineConfig {
        cache_dir: cache,
        exclude_workload: exclude,
        ..PipelineConfig::default()
    };
    // Tiny, unverified: this test is about assembly plumbing, not
    // characterization fidelity.
    cfg.study.scale = Scale::Tiny;
    cfg.study.verify = false;
    cfg
}

/// Runs study + matrix stages under a fresh metrics recorder, returning
/// the matrix artifact and the profile cache's (hits, misses).
fn assemble(cfg: &PipelineConfig) -> (MatrixArtifact, (u64, u64)) {
    let rec = Arc::new(MetricsRecorder::default());
    let guard = gwc::obs::install(rec.clone());
    let study = StudyStage::run(cfg, ());
    let matrix = MatrixStage::run(cfg, &study);
    drop(guard);
    let snap = rec.snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    (matrix, (counter("cache.hits"), counter("cache.misses")))
}

/// Bit-level equality: `==` on f64 would also accept 0.0 == -0.0.
fn assert_identical(label: &str, a: &MatrixArtifact, b: &MatrixArtifact) {
    assert_eq!(a.labels, b.labels, "{label}: labels");
    assert_eq!(a.matrix.shape(), b.matrix.shape(), "{label}: shape");
    for r in 0..a.matrix.rows() {
        for (c, (x, y)) in a.matrix.row(r).iter().zip(b.matrix.row(r)).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{label}: cell ({r},{c}) differs: {x} vs {y}"
            );
        }
    }
}

#[test]
fn matrix_assembly_is_incremental_and_byte_identical() {
    let base = std::env::temp_dir().join(format!("gwc-inc-matrix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cache = base.join("cache");

    // Cold: every workload simulates and is stored. The study profiles
    // the whole registry; `vector_add` is excluded only afterwards.
    let cold_cfg = config(Some(cache.clone()), Some("vector_add"));
    let (cold, counters) = assemble(&cold_cfg);
    assert_eq!(
        counters,
        (0, REGISTRY_SIZE),
        "cold run simulates everything"
    );

    // Uncached reference: the cache must be invisible in the output.
    let (uncached, counters) = assemble(&config(None, Some("vector_add")));
    assert_eq!(counters, (0, 0), "no cache, no counters");
    assert_identical("cold vs uncached", &cold, &uncached);

    // Warm: identical bytes, every profile reused, nothing simulated.
    let (warm, counters) = assemble(&cold_cfg);
    assert_eq!(
        counters,
        (REGISTRY_SIZE, 0),
        "warm run reuses every profile"
    );
    assert_identical("warm vs cold", &warm, &cold);

    // Append: widening the population (un-excluding `vector_add`) adds
    // its rows from the profile the cold run already stored.
    let append_cfg = config(Some(cache.clone()), None);
    let (appended, counters) = assemble(&append_cfg);
    assert_eq!(counters, (REGISTRY_SIZE, 0), "append simulates nothing");
    assert_eq!(appended.labels.len(), cold.labels.len() + 1);

    // ... and the appended result is byte-identical to a cold run of
    // the widened population in a fresh cache.
    let fresh = base.join("fresh");
    let (reference, counters) = assemble(&config(Some(fresh), None));
    assert_eq!(counters, (0, REGISTRY_SIZE), "reference run is fully cold");
    assert_identical("append vs cold reference", &appended, &reference);

    let _ = std::fs::remove_dir_all(&base);
}
