//! End-to-end integration tests across all crates: the full study runs,
//! verifies, reduces, clusters and evaluates — deterministically.

use gwc::core::analysis::ClusterAnalysis;
use gwc::core::diversity::suite_diversity;
use gwc::core::eval::{design_sweep, evaluate_subset, random_subset_errors};
use gwc::core::reduce::ReducedSpace;
use gwc::core::study::{Study, StudyConfig};
use gwc::stats::describe::mean;
use gwc::timing::sweep::default_design_space;
use gwc::timing::GpuConfig;
use gwc::workloads::Scale;

fn tiny_study() -> Study {
    Study::run(&StudyConfig {
        seed: 7,
        scale: Scale::Tiny,
        verify: true,
        ..StudyConfig::default()
    })
    .expect("study runs and verifies")
}

#[test]
fn full_study_verifies_every_workload() {
    let study = tiny_study();
    // 26 workloads, several multi-kernel: expect a healthy population.
    assert!(study.records().len() >= 35, "{}", study.records().len());
    assert_eq!(study.workload_names().len(), 26);
}

#[test]
fn study_is_deterministic() {
    let a = tiny_study();
    let b = tiny_study();
    assert_eq!(a.labels(), b.labels());
    let (ma, mb) = (a.matrix(), b.matrix());
    assert_eq!(ma, mb);
}

#[test]
fn characteristics_are_finite_and_in_range() {
    let study = tiny_study();
    let m = study.matrix();
    m.check_finite().expect("all characteristics finite");
    for (r, record) in study.records().iter().enumerate() {
        let p = &record.profile;
        for name in [
            "div_simd_activity",
            "div_branch_frac",
            "loc_cold_frac",
            "coal_unit_stride_frac",
            "coal_broadcast_frac",
            "coal_scatter_frac",
            "share_inter_warp",
            "share_inter_block",
        ] {
            let v = p.get(name);
            assert!(
                (0.0..=1.0).contains(&v),
                "{} {name} = {v} out of [0,1]",
                study.labels()[r]
            );
        }
        assert!(p.get("ilp_dataflow") >= 1.0 - 1e-9, "ILP >= 1");
        assert!(p.get("smem_bank_conflict") >= 1.0 - 1e-9);
        assert!(p.get("coal_segments_per_access") <= 32.0 + 1e-9);
    }
}

#[test]
fn reduction_collapses_correlated_dimensions() {
    let study = tiny_study();
    let space = ReducedSpace::fit(&study.matrix(), 0.9).unwrap();
    assert!(
        space.kept() < space.varying_dims(),
        "PCA must reduce dimensionality: {} PCs of {} dims",
        space.kept(),
        space.varying_dims()
    );
    assert!(space.variance_explained() >= 0.9);
}

#[test]
fn clustering_produces_usable_representatives() {
    let study = tiny_study().without_workload("vector_add");
    let space = ReducedSpace::fit(&study.matrix(), 0.9).unwrap();
    let analysis = ClusterAnalysis::fit(space.scores(), 12, 7).unwrap();
    let k = analysis.k();
    assert!(k >= 2, "more than one behaviour class exists");
    assert!(k < study.records().len(), "clustering must compress");
    assert_eq!(analysis.representatives().len(), k);
}

#[test]
fn representatives_beat_random_subsets_on_average() {
    let study = tiny_study().without_workload("vector_add");
    let space = ReducedSpace::fit(&study.matrix(), 0.9).unwrap();
    let analysis = ClusterAnalysis::fit(space.scores(), 12, 7).unwrap();
    let reps = analysis.representatives();
    let sweep = design_sweep(&study, &GpuConfig::baseline(), &default_design_space());
    let rep_err = evaluate_subset(&sweep, reps).mean_error();
    let rand_errs = random_subset_errors(&sweep, reps.len(), 20, 99);
    let rand_mean = mean(&rand_errs);
    assert!(
        rep_err < rand_mean,
        "representatives {rep_err:.4} should beat random mean {rand_mean:.4}"
    );
}

#[test]
fn every_suite_contributes_to_the_space() {
    let study = tiny_study().without_workload("vector_add");
    let space = ReducedSpace::fit(&study.matrix(), 0.9).unwrap();
    let div = suite_diversity(&study, space.scores());
    for d in div {
        assert!(d.kernels >= 2, "{} too small", d.suite.name());
        assert!(d.mean_reach > 0.0);
    }
}
