//! Golden-snapshot tests: regenerating every experiment (Small scale,
//! seed 7 — the canonical `study_config()`) must reproduce
//! `results/regen_all_small_seed7.txt` byte for byte under the exact
//! observer tier, and `results/regen_all_small_seed7_sketch.txt` under
//! the sketch tier (`regen --observer-tier sketch`).
//!
//! This pins the entire pipeline — workload PRNG, simulator, observers,
//! PCA, clustering, timing model, report formatting — and, because the
//! study runs at the machine's available parallelism, it doubles as a
//! determinism check of the parallel runtime at Small scale. The sketch
//! snapshot pins the sketch tier's estimated rows exactly, not just to
//! within its declared error bounds.
//!
//! After an *intentional* output change (new characteristic, PRNG
//! algorithm change, report tweak), re-bless both snapshots:
//!
//! ```sh
//! GWC_BLESS=1 cargo test -p gwc-bench --test golden_regen
//! ```

use std::fs;
use std::path::PathBuf;

use gwc_bench::{all_experiments, render_experiments, StudyArtifacts};
use gwc_characterize::ObserverTier;
use gwc_core::pipeline::PipelineConfig;

fn check_golden(file: &str, tier: ObserverTier) {
    let mut config = PipelineConfig {
        threads: gwc_core::available_threads(),
        ..PipelineConfig::default()
    };
    config.study.observer_tier = tier;
    let artifacts = StudyArtifacts::collect(&config);
    let got = render_experiments(&all_experiments(), &artifacts);

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(file);
    if std::env::var_os("GWC_BLESS").is_some() {
        fs::write(&path, &got).expect("write blessed snapshot");
        eprintln!("blessed {} ({} bytes)", path.display(), got.len());
        return;
    }

    let want =
        fs::read_to_string(&path).expect("golden snapshot missing; create it with GWC_BLESS=1");
    if got == want {
        return;
    }
    let mismatch = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (g, w))| g != w);
    match mismatch {
        Some((line, (g, w))) => panic!(
            "regen output diverged from the golden snapshot {file} at line {}:\n  got:  {g}\n  \
             want: {w}\nIf the change is intentional, re-bless with GWC_BLESS=1.",
            line + 1
        ),
        None => panic!(
            "regen output diverged from {file} in length only: got {} lines, golden has {}.\n\
             If the change is intentional, re-bless with GWC_BLESS=1.",
            got.lines().count(),
            want.lines().count()
        ),
    }
}

#[test]
fn regen_matches_golden_snapshot() {
    check_golden("regen_all_small_seed7.txt", ObserverTier::Exact);
}

#[test]
fn sketch_regen_matches_golden_snapshot() {
    check_golden("regen_all_small_seed7_sketch.txt", ObserverTier::Sketch);
}
