//! The ablations: how the study's conclusions move when a design choice
//! changes. Speed is not measured here; `benchmark/` times the pipeline
//! per layer.

use gwc::core::analysis::ClusterAnalysis;
use gwc::core::reduce::ReducedSpace;
use gwc::core::study::{Study, StudyConfig};
use gwc::stats::hclust::{hierarchical, Linkage};
use gwc::workloads::Scale;
use std::sync::OnceLock;

fn study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| {
        Study::run(&StudyConfig {
            seed: 7,
            scale: Scale::Tiny,
            verify: false,
            ..StudyConfig::default()
        })
        .expect("study runs")
        .without_workload("vector_add")
    })
}

#[test]
fn pca_threshold_monotonically_adds_components() {
    let m = study().matrix();
    let k85 = ReducedSpace::fit(&m, 0.85).unwrap().kept();
    let k90 = ReducedSpace::fit(&m, 0.90).unwrap().kept();
    let k95 = ReducedSpace::fit(&m, 0.95).unwrap().kept();
    assert!(k85 <= k90 && k90 <= k95);
    assert!(k95 > k85, "the threshold choice matters");
}

#[test]
fn representative_set_is_stable_across_threshold() {
    // The cluster count may shift slightly, but representative selection
    // must stay sane (non-empty, within bounds) across thresholds.
    let m = study().matrix();
    for threshold in [0.85, 0.90, 0.95] {
        let space = ReducedSpace::fit(&m, threshold).unwrap();
        let analysis = ClusterAnalysis::fit(space.scores(), 12, 7).unwrap();
        assert!(analysis.k() >= 2);
        assert!(analysis.representatives().len() == analysis.k());
    }
}

#[test]
fn linkage_choice_changes_heights_not_sanity() {
    let m = study().matrix();
    let space = ReducedSpace::fit(&m, 0.9).unwrap();
    let n = space.scores().rows();
    let mut final_heights = Vec::new();
    for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
        let d = hierarchical(space.scores(), linkage).unwrap();
        assert_eq!(d.merges().len(), n - 1);
        final_heights.push(d.merges().last().unwrap().height);
    }
    // single <= average <= complete at the final merge.
    assert!(final_heights[0] <= final_heights[2] + 1e-12);
    assert!(final_heights[2] >= final_heights[1] - 1e-9 || final_heights[1] >= final_heights[0]);
}

#[test]
fn locality_capacity_does_not_change_results() {
    use gwc::characterize::locality::LocalityObserver;
    use gwc::simt::instr::Space;
    use gwc::simt::trace::{AccessKind, MemEvent, TraceObserver};
    use gwc::simt::WARP_SIZE;

    let run = |cap: usize| {
        let mut obs = LocalityObserver::with_capacity(cap);
        let mut addrs = [0u32; WARP_SIZE];
        for round in 0..512u32 {
            for (lane, a) in addrs.iter_mut().enumerate() {
                *a = ((round * 7 + lane as u32 * 3) % 600) * 128;
            }
            obs.on_mem(&MemEvent {
                block: round % 4,
                warp: 0,
                pc: 0,
                space: Space::Global,
                kind: AccessKind::Load,
                bytes: 4,
                active: u32::MAX,
                addrs: &addrs,
            });
        }
        (
            obs.reuse_cdf(0),
            obs.reuse_cdf(1),
            obs.reuse_cdf(2),
            obs.cold_frac(),
            obs.footprint_lines(),
        )
    };
    // The compression is exact: results are identical at any capacity that
    // fits the footprint.
    assert_eq!(run(1 << 10), run(1 << 20));
}
