//! One function per experiment (E1–E14), all sharing one staged
//! pipeline run ([`gwc_core::pipeline`]); [`EXPERIMENTS`] lists them.
//! E14 additionally drives the lazy pair stage
//! ([`gwc_core::pipeline::PairsStage`]) off the shared study artifact.

use std::fmt::Write as _;

use gwc_characterize::schema;
use gwc_core::analysis::ClusterAnalysis;
use gwc_core::diversity::suite_diversity;
use gwc_core::eval::{design_sweep, evaluate_subset, random_subset_errors, stress_selection};
use gwc_core::report;
use gwc_core::study::StudyConfig;
use gwc_core::subspace::{Subspace, SubspaceAnalysis};
use gwc_stats::corr::correlated_groups;
use gwc_stats::describe::mean;
use gwc_stats::kmeans::kmeans;
use gwc_stats::normalize::zscore;
use gwc_timing::sweep::default_design_space;
use gwc_timing::GpuConfig;
use gwc_workloads::registry;

/// The full artifact set every experiment reads. The pipeline module
/// owns the stages and the driver; this alias keeps the historical
/// name the experiment signatures were written against.
pub type StudyArtifacts = gwc_core::pipeline::Artifacts;

/// The canonical study configuration every experiment uses (the study
/// half of [`gwc_core::pipeline::PipelineConfig::default`]).
pub fn study_config() -> StudyConfig {
    gwc_core::pipeline::PipelineConfig::default().study
}

/// One experiment: id and one-line description (`regen --list` prints
/// this table).
#[derive(Debug, Clone, Copy)]
pub struct ExperimentSpec {
    /// Stable id (`e1` .. `e14`).
    pub id: &'static str,
    /// One-line description.
    pub desc: &'static str,
}

/// Every experiment, in presentation order.
pub const EXPERIMENTS: &[ExperimentSpec] = &[
    ExperimentSpec {
        id: "e1",
        desc: "the microarchitecture-independent characteristic set",
    },
    ExperimentSpec {
        id: "e2",
        desc: "workload inventory with per-workload instruction totals",
    },
    ExperimentSpec {
        id: "e3",
        desc: "raw kernel x characteristic matrix",
    },
    ExperimentSpec {
        id: "e4",
        desc: "correlated groups and PCA variance profile",
    },
    ExperimentSpec {
        id: "e5",
        desc: "kernel scatter in PC1-PC2",
    },
    ExperimentSpec {
        id: "e6",
        desc: "kernel scatter in PC3-PC4",
    },
    ExperimentSpec {
        id: "e7",
        desc: "whole-space dendrogram (average linkage)",
    },
    ExperimentSpec {
        id: "e8",
        desc: "clusters and representatives across k",
    },
    ExperimentSpec {
        id: "e9",
        desc: "branch-divergence subspace analysis",
    },
    ExperimentSpec {
        id: "e10",
        desc: "memory-coalescing subspace analysis",
    },
    ExperimentSpec {
        id: "e11",
        desc: "per-suite diversity in the common PC space",
    },
    ExperimentSpec {
        id: "e12",
        desc: "design-space evaluation error of representative subsets",
    },
    ExperimentSpec {
        id: "e13",
        desc: "stress-workload selection per functional block",
    },
    ExperimentSpec {
        id: "e14",
        desc: "pairwise interference of co-scheduled kernels",
    },
];

/// E1 — the characteristic set.
pub fn e1_characteristics() -> String {
    let mut out = String::from("E1: microarchitecture-independent characteristics\n");
    let _ = writeln!(out, "{:<28} {:<12} description", "name", "group");
    for def in schema::SCHEMA {
        let _ = writeln!(
            out,
            "{:<28} {:<12} {}",
            def.name,
            def.group.name(),
            def.desc
        );
    }
    out
}

/// E2 — the workload inventory.
pub fn e2_workloads(a: &StudyArtifacts) -> String {
    let mut out = String::from("E2: workload inventory\n");
    let _ = writeln!(
        out,
        "{:<22} {:<9} {:>7} {:>14} {:>14}",
        "workload", "suite", "kernels", "warp instrs", "thread instrs"
    );
    for meta in registry::all_metas(study_config().seed) {
        if meta.name == "vector_add" {
            continue;
        }
        let rows = a.study().rows_of_workload(meta.name);
        let wi: u64 = rows
            .iter()
            .map(|&r| a.study().records()[r].profile.raw().warp_instrs)
            .sum();
        let ti: u64 = rows
            .iter()
            .map(|&r| a.study().records()[r].profile.raw().thread_instrs)
            .sum();
        let _ = writeln!(
            out,
            "{:<22} {:<9} {:>7} {:>14} {:>14}",
            meta.name,
            meta.suite.name(),
            rows.len(),
            wi,
            ti
        );
    }
    out
}

/// E3 — the raw characteristic matrix.
pub fn e3_matrix(a: &StudyArtifacts) -> String {
    let headers: Vec<&str> = schema::SCHEMA.iter().map(|d| d.name).collect();
    format!(
        "E3: raw characteristic matrix\n{}",
        report::render_matrix(&a.matrix.labels, &headers, &a.matrix.matrix)
    )
}

/// E4 — correlation structure and PCA variance.
pub fn e4_pca_variance(a: &StudyArtifacts) -> String {
    let mut out = String::from("E4: correlated dimensionality reduction\n");
    let (z, _) = zscore(&a.matrix.matrix);
    let groups = correlated_groups(&z, 0.9).expect("correlation computes");
    let _ = writeln!(out, "characteristic groups with |r| > 0.9:");
    for g in groups.iter().filter(|g| g.len() > 1) {
        let names: Vec<&str> = g.iter().map(|&c| schema::SCHEMA[c].name).collect();
        let _ = writeln!(out, "  {}", names.join(", "));
    }
    let _ = writeln!(
        out,
        "\n{} varying characteristics -> {} PCs for 90% variance",
        a.space().varying_dims(),
        a.space().kept()
    );
    let _ = writeln!(out, "\ncumulative variance explained:");
    for k in 1..=a.space().kept() + 2 {
        if k > a.space().varying_dims() {
            break;
        }
        let _ = writeln!(
            out,
            "  PC1..PC{k:<2} {:6.2}%",
            100.0 * a.space().pca().variance_explained(k)
        );
    }
    out
}

fn scatter(a: &StudyArtifacts, cx: usize, cy: usize) -> String {
    let scores = a.space().scores();
    let xs: Vec<f64> = (0..scores.rows()).map(|r| scores.get(r, cx)).collect();
    let ys: Vec<f64> = (0..scores.rows()).map(|r| scores.get(r, cy)).collect();
    report::render_scatter(&a.matrix.labels, &xs, &ys, 72, 24)
}

/// E5 — PC1–PC2 scatter.
pub fn e5_scatter_pc12(a: &StudyArtifacts) -> String {
    format!("E5: kernels in PC1-PC2\n{}", scatter(a, 0, 1))
}

/// E6 — PC3–PC4 scatter.
pub fn e6_scatter_pc34(a: &StudyArtifacts) -> String {
    if a.space().kept() < 4 {
        return "E6: fewer than 4 PCs kept".into();
    }
    format!("E6: kernels in PC3-PC4\n{}", scatter(a, 2, 3))
}

/// E7 — whole-space dendrogram.
pub fn e7_dendrogram(a: &StudyArtifacts) -> String {
    format!(
        "E7: dendrogram (average linkage, PC space)\n{}",
        a.analysis().dendrogram().render(&a.matrix.labels)
    )
}

/// E8 — clusters and representatives across k.
pub fn e8_clusters(a: &StudyArtifacts) -> String {
    let mut out = String::from("E8: clusters and representatives\n");
    let labels = &a.matrix.labels;
    let _ = writeln!(out, "BIC-selected k = {}", a.analysis().k());
    for (c, &rep) in a.analysis().representatives().iter().enumerate() {
        let members: Vec<&str> = a
            .analysis()
            .labels()
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == c)
            .map(|(i, _)| labels[i].as_str())
            .collect();
        let _ = writeln!(out, "cluster {c} (rep: {})", labels[rep]);
        for m in members {
            let _ = writeln!(out, "    {m}");
        }
    }
    let scores = a.space().scores();
    for k in [4, 8] {
        let reps: Vec<&str> = kmeans(scores, k, 7)
            .expect("fits")
            .representatives(scores)
            .iter()
            .map(|&r| labels[r].as_str())
            .collect();
        let _ = writeln!(out, "k={k} representatives: {}", reps.join(", "));
    }
    out
}

fn subspace_report(a: &StudyArtifacts, sub: Subspace, id: &str) -> String {
    let analysis = SubspaceAnalysis::fit(a.study(), sub).expect("subspace fits");
    let mut out = format!("{id}: {} subspace\n", analysis.subspace.name);
    let _ = writeln!(out, "workload variation (descending):");
    for (w, v) in &analysis.variation {
        let _ = writeln!(out, "  {w:<22} {v:.4}");
    }
    let scores = analysis.space.scores();
    if scores.cols() >= 2 {
        let xs: Vec<f64> = (0..scores.rows()).map(|r| scores.get(r, 0)).collect();
        let ys: Vec<f64> = (0..scores.rows()).map(|r| scores.get(r, 1)).collect();
        let _ = writeln!(
            out,
            "\nkernels in the subspace PC1-PC2:\n{}",
            report::render_scatter(&a.matrix.labels, &xs, &ys, 72, 20)
        );
    }
    out
}

/// E9 — branch-divergence subspace.
pub fn e9_divergence_subspace(a: &StudyArtifacts) -> String {
    subspace_report(a, Subspace::divergence(), "E9")
}

/// E10 — memory-coalescing subspace.
pub fn e10_coalescing_subspace(a: &StudyArtifacts) -> String {
    subspace_report(a, Subspace::coalescing(), "E10")
}

/// E11 — suite diversity.
pub fn e11_suite_diversity(a: &StudyArtifacts) -> String {
    let mut out = String::from("E11: suite diversity in the common PC space\n");
    let _ = writeln!(
        out,
        "{:<10} {:>7} {:>14} {:>12} {:>10}",
        "suite", "kernels", "mean pairwise", "log volume", "reach"
    );
    for d in suite_diversity(a.study(), a.space().scores()) {
        let _ = writeln!(
            out,
            "{:<10} {:>7} {:>14.3} {:>12.2} {:>10.3}",
            d.suite.name(),
            d.kernels,
            d.mean_pairwise,
            d.log_volume,
            d.mean_reach
        );
    }
    out
}

/// E12 — design-space evaluation metrics.
pub fn e12_eval_metrics(a: &StudyArtifacts) -> String {
    let mut out = String::from("E12: design-space evaluation metrics\n");
    let sweep = design_sweep(a.study(), &GpuConfig::baseline(), &default_design_space());
    let reps = a.analysis().representatives();
    let labels = &a.matrix.labels;
    let rep_names: Vec<&str> = reps.iter().map(|&r| labels[r].as_str()).collect();
    let _ = writeln!(
        out,
        "representatives ({} of {}): {}",
        reps.len(),
        labels.len(),
        rep_names.join(", ")
    );
    let eval = evaluate_subset(&sweep, reps);
    let _ = writeln!(
        out,
        "\n{:<16} {:>10} {:>10} {:>8}",
        "design point", "truth", "estimate", "error"
    );
    for (name, truth, estimate, err) in &eval.rows {
        let _ = writeln!(
            out,
            "{name:<16} {truth:>10.3} {estimate:>10.3} {:>7.2}%",
            100.0 * err
        );
    }
    let _ = writeln!(
        out,
        "\nrepresentative subset: mean error {:.2}%, max {:.2}%",
        100.0 * eval.mean_error(),
        100.0 * eval.max_error()
    );
    let random = random_subset_errors(&sweep, reps.len(), 20, 99);
    let _ = writeln!(
        out,
        "random subsets (same size, 20 draws): mean error {:.2}%",
        100.0 * mean(&random)
    );
    for size in [2usize, 4, 8] {
        let r = random_subset_errors(&sweep, size, 20, 1234 + size as u64);
        let _ = writeln!(
            out,
            "random subsets of size {size}: mean error {:.2}%",
            100.0 * mean(&r)
        );
    }
    out
}

/// E13 — stress-workload selection.
pub fn e13_stress_selection(a: &StudyArtifacts) -> String {
    let mut out = String::from("E13: stress workloads per functional block\n");
    for sel in stress_selection(a.study(), 5) {
        let _ = writeln!(out, "{} (by {}):", sel.block, sel.characteristic);
        for (name, v) in &sel.top {
            let _ = writeln!(out, "    {name:<44} {v:.4}");
        }
    }
    out
}

/// E14 — pairwise interference of co-scheduled kernels.
///
/// Runs the lazy pair stage against the shared study artifact (same
/// seed, scale, and dispatch policy as the collection config), prints
/// each scenario's contention-adjusted locality deltas (co-resident
/// minus in-pass solo timeline), the cached solo-study reference rows,
/// and clusters the pairs by their interference signature.
pub fn e14_pair_interference(a: &StudyArtifacts) -> String {
    use gwc_core::pipeline::{PairsStage, Stage as _};

    let pairs = PairsStage::run(&a.config, &a.study).pairs;
    let mut out = format!(
        "E14: pairwise interference under co-scheduling (policy: {})\n",
        pairs.policy().name()
    );
    for r in pairs.records() {
        let p = &r.profile;
        let _ = writeln!(
            out,
            "{} (expect {}): interference {:.4}, footprint {} lines, overlap {:.3}",
            r.scenario.name,
            r.scenario.expected.name(),
            p.interference(),
            p.footprint_lines,
            p.overlap_frac()
        );
        for (m, member) in p.members.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {:<20} co-cdf {:.3} {:.3} {:.3} cold {:.3} | delta {:+.3} {:+.3} {:+.3} cold {:+.3} | solo-study {}",
                member.name,
                member.co.reuse_cdf[0],
                member.co.reuse_cdf[1],
                member.co.reuse_cdf[2],
                member.co.cold_frac,
                member.reuse_delta(0),
                member.reuse_delta(1),
                member.reuse_delta(2),
                member.cold_delta(),
                match r.solo_ref[m] {
                    Some(s) => format!("{:.3} {:.3} {:.3} cold {:.3}", s[0], s[1], s[2], s[3]),
                    None => "n/a (not in population)".to_string(),
                }
            );
        }
    }
    let (labels, matrix) = pairs.signature_matrix();
    let (z, _) = zscore(&matrix);
    let analysis = ClusterAnalysis::fit(&z, 3, 7).expect("pair signatures cluster");
    let _ = writeln!(
        out,
        "\ninterference clusters (BIC-selected k = {}):",
        analysis.k()
    );
    for (c, &rep) in analysis.representatives().iter().enumerate() {
        let _ = writeln!(out, "cluster {c} (rep: {})", labels[rep]);
        for (i, &l) in analysis.labels().iter().enumerate() {
            if l == c {
                let _ = writeln!(out, "    {}", labels[i]);
            }
        }
    }
    out
}

/// All experiment ids in order.
pub fn all_experiments() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|e| e.id).collect()
}

/// Runs one experiment by id against shared artifacts.
///
/// # Panics
///
/// Panics on an unknown id.
pub fn run_experiment(id: &str, a: &StudyArtifacts) -> String {
    let _span = gwc_obs::span!("experiment/{id}");
    match id {
        "e1" => e1_characteristics(),
        "e2" => e2_workloads(a),
        "e3" => e3_matrix(a),
        "e4" => e4_pca_variance(a),
        "e5" => e5_scatter_pc12(a),
        "e6" => e6_scatter_pc34(a),
        "e7" => e7_dendrogram(a),
        "e8" => e8_clusters(a),
        "e9" => e9_divergence_subspace(a),
        "e10" => e10_coalescing_subspace(a),
        "e11" => e11_suite_diversity(a),
        "e12" => e12_eval_metrics(a),
        "e13" => e13_stress_selection(a),
        "e14" => e14_pair_interference(a),
        other => panic!("unknown experiment `{other}`"),
    }
}

/// Renders `ids` exactly as the `regen` binary prints them: a 78-char
/// `=` separator line before each experiment, then its report, then a
/// blank line. The golden-snapshot test compares this byte-for-byte
/// against `results/regen_all_small_seed7.txt`.
///
/// # Panics
///
/// Panics on an unknown id.
pub fn render_experiments(ids: &[&str], a: &StudyArtifacts) -> String {
    let mut out = String::new();
    for id in ids {
        out.push_str(&"=".repeat(78));
        out.push('\n');
        out.push_str(&run_experiment(id, a));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_needs_no_study() {
        let t = e1_characteristics();
        assert!(t.contains("div_simd_activity"));
        assert!(t.contains("coalescing"));
    }

    #[test]
    fn experiment_ids_are_complete() {
        assert_eq!(all_experiments().len(), 14);
        assert_eq!(all_experiments()[0], "e1");
        assert_eq!(all_experiments()[12], "e13");
        assert_eq!(all_experiments()[13], "e14");
    }

    #[test]
    fn specs_have_unique_ids_and_descriptions() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len());
        for e in EXPERIMENTS {
            assert!(!e.desc.is_empty());
            assert!(!e.desc.contains('\n'), "{} description is one line", e.id);
        }
    }
}
