//! The `--scale large` study tier: the replicated population must be a
//! strict extension of the standard study (base records bit-identical,
//! replicas appended after), and a profile cache warmed by a standard
//! run must fully cover the base of a large run — that coverage is what
//! makes warm large-scale regens cheap. Over that warm cache, the large
//! population's rendered experiments E1–E13 are pinned by digest: the
//! goldens cover only the standard population, and the large one is
//! where the clustering and design-space analysis see hundreds of rows.
//!
//! One `#[test]`: the phases share a cache directory and the global
//! metrics recorder.

use std::sync::Arc;

use gwc::core::pipeline::{Artifacts, PipelineConfig};
use gwc::core::study::{Study, StudyConfig};
use gwc::obs::metrics::MetricsRecorder;
use gwc::simt::hash::Fnv1a;
use gwc::workloads::registry::LARGE_REPLICAS;
use gwc::workloads::{Scale, StudyScale};
use gwc_bench::render_experiments;

const REGISTRY_SIZE: usize = 26;

/// FNV-1a digest of each experiment's rendered output for the large
/// population at `Scale::Tiny`, seed 7 (the pipeline's other settings at
/// their defaults). Re-record only for an intended output change.
const LARGE_DIGESTS: [(&str, u64); 13] = [
    ("e1", 0xc6d7db79e1768680),
    ("e2", 0x2ad8a7a99da094ed),
    ("e3", 0x6c9dd52976459356),
    ("e4", 0xd303422d1e7f3ab6),
    ("e5", 0xf9a121d68aa762dc),
    ("e6", 0xc6ead688888f611e),
    ("e7", 0xe61a072efe73fdd8),
    ("e8", 0xb6502619e77b6088),
    ("e9", 0x6d836407c22d4a9c),
    ("e10", 0xe65e16fca9589b00),
    ("e11", 0xa2f79be0c9cdade9),
    ("e12", 0x8e86e0b5cd2463dd),
    ("e13", 0xe124bc7fe937b30b),
];

fn run_counted(cfg: &StudyConfig, cache: &std::path::Path) -> (Study, u64, u64) {
    let rec = Arc::new(MetricsRecorder::default());
    let guard = gwc::obs::install(rec.clone());
    let study =
        Study::run_threads_cached(cfg, 1, Some(&gwc::characterize::ProfileCache::new(cache)))
            .expect("study runs");
    drop(guard);
    let snap = rec.snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    (study, counter("cache.hits"), counter("cache.misses"))
}

#[test]
fn large_tier_extends_the_standard_study_bit_identically() {
    let base = std::env::temp_dir().join(format!("gwc-large-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create temp dir");
    let cache = base.join("cache");

    let standard_cfg = StudyConfig {
        scale: Scale::Tiny,
        verify: false,
        ..StudyConfig::default()
    };
    let large_cfg = StudyConfig {
        study_scale: StudyScale::Large,
        ..standard_cfg
    };

    // Standard run populates the cache: one miss per registry workload.
    let (standard, hits, misses) = run_counted(&standard_cfg, &cache);
    assert_eq!((hits, misses), (0, REGISTRY_SIZE as u64));

    // The large population is the registry plus LARGE_REPLICAS sweeps;
    // the standard-warmed cache covers exactly the base — replicas have
    // distinct names, seeds and scales, so they must all simulate.
    let (large, hits, misses) = run_counted(&large_cfg, &cache);
    let names = large.workload_names();
    assert_eq!(names.len(), REGISTRY_SIZE * (1 + LARGE_REPLICAS as usize));
    assert_eq!(hits, REGISTRY_SIZE as u64, "base rides the warm cache");
    assert_eq!(
        misses,
        (REGISTRY_SIZE as u64) * LARGE_REPLICAS,
        "every replica is a distinct instance"
    );
    assert!(
        names[REGISTRY_SIZE..].iter().all(|n| n.contains('#')),
        "replicas are name-tagged"
    );

    // Base records are bit-identical to the standard study's — the
    // large tier *extends* the population, it never perturbs it.
    let n = standard.records().len();
    assert!(large.records().len() > n);
    for (s, l) in standard.records().iter().zip(&large.records()[..n]) {
        assert_eq!(s.label(), l.label(), "base record order");
        assert_eq!(s.fingerprint, l.fingerprint, "{}: fingerprint", s.label());
        let same = s
            .profile
            .values()
            .iter()
            .zip(l.profile.values())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            same,
            "{}: base profile diverged under large tier",
            s.label()
        );
    }

    // The large population's analysis, rendered over the warm cache.
    let artifacts = Artifacts::collect(&PipelineConfig {
        study: large_cfg,
        threads: 2,
        cache_dir: Some(cache),
        ..PipelineConfig::default()
    });
    let digests: Vec<(&str, u64)> = LARGE_DIGESTS
        .iter()
        .map(|&(id, _)| {
            let mut h = Fnv1a::new();
            h.write(render_experiments(&[id], &artifacts).as_bytes());
            (id, h.finish())
        })
        .collect();
    assert_eq!(
        digests, LARGE_DIGESTS,
        "large-population output changed; digests now {digests:#x?}"
    );

    let _ = std::fs::remove_dir_all(&base);
}
