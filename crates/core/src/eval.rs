//! Stage 6: design-space evaluation metrics.
//!
//! The paper's methodological payoff: instead of simulating every kernel
//! at every design point, simulate only the cluster representatives and
//! estimate suite-wide outcomes. This module quantifies how good that
//! estimate is — against the full-population truth and against random
//! subsets of the same size — and selects stress workloads per
//! functional block.

use gwc_characterize::schema;
use gwc_stats::describe::{mean, relative_error};
use gwc_timing::{speedups, GpuConfig, SweepResult};

use crate::study::Study;

/// Per-design-point estimation errors of a subset-based evaluation.
#[derive(Debug, Clone)]
pub struct SubsetEvaluation {
    /// The subset of kernel row indices evaluated.
    pub subset: Vec<usize>,
    /// `(config name, truth, estimate, relative error)` per design point.
    pub rows: Vec<(String, f64, f64, f64)>,
}

impl SubsetEvaluation {
    /// Mean relative error across design points.
    pub fn mean_error(&self) -> f64 {
        mean(&self.rows.iter().map(|r| r.3).collect::<Vec<_>>())
    }

    /// Maximum relative error across design points.
    pub fn max_error(&self) -> f64 {
        self.rows.iter().map(|r| r.3).fold(0.0, f64::max)
    }
}

/// Every study kernel's speedup over `baseline` at each of `configs`:
/// the one timing-model sweep that every subset evaluation reads.
pub fn design_sweep(study: &Study, baseline: &GpuConfig, configs: &[GpuConfig]) -> SweepResult {
    let profiles: Vec<_> = study.records().iter().map(|r| r.profile.clone()).collect();
    speedups(&profiles, baseline, configs)
}

/// Evaluates how well `subset` predicts the full population's mean
/// speedup at every design point of `sweep`.
pub fn evaluate_subset(sweep: &SweepResult, subset: &[usize]) -> SubsetEvaluation {
    let rows = sweep
        .points
        .iter()
        .map(|p| {
            let truth = p.mean_speedup();
            let estimate = p.subset_mean(subset);
            (
                p.config.name.clone(),
                truth,
                estimate,
                relative_error(estimate, truth),
            )
        })
        .collect();
    SubsetEvaluation {
        subset: subset.to_vec(),
        rows,
    }
}

/// Draws `count` random subsets of size `size` (deterministic in `seed`)
/// of the sweep's kernels and returns their mean errors — the baseline
/// the representative subset must beat.
pub fn random_subset_errors(sweep: &SweepResult, size: usize, count: usize, seed: u64) -> Vec<f64> {
    // Every design point holds one speedup per kernel.
    let n = sweep.points.first().map_or(0, |p| p.speedups.len());
    let mut state = seed.wrapping_mul(2).wrapping_add(1);
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        state
    };
    (0..count)
        .map(|_| {
            let mut subset: Vec<usize> = Vec::with_capacity(size);
            while subset.len() < size.min(n) {
                let pick = (next() % n as u64) as usize;
                if !subset.contains(&pick) {
                    subset.push(pick);
                }
            }
            evaluate_subset(sweep, &subset).mean_error()
        })
        .collect()
}

/// A stress-workload recommendation: the kernels that exercise one
/// functional block hardest.
#[derive(Debug, Clone)]
pub struct StressSelection {
    /// The functional block ("divergence handling", ...).
    pub block: &'static str,
    /// The characteristic the ranking used.
    pub characteristic: &'static str,
    /// `(kernel label, value)` for the top kernels, most stressing first.
    pub top: Vec<(String, f64)>,
}

/// Ranks kernels as stressors of each functional block the paper calls
/// out, using the single most indicative characteristic per block.
pub fn stress_selection(study: &Study, top_n: usize) -> Vec<StressSelection> {
    // (block, characteristic, higher-is-more-stress)
    let specs: [(&str, &str, bool); 5] = [
        ("divergence handling", "div_simd_activity", false),
        (
            "memory coalescing hardware",
            "coal_segments_per_access",
            true,
        ),
        ("shared memory banks", "smem_bank_conflict", true),
        ("special function units", "mix_sfu", true),
        ("atomic units", "sync_atomic_kinstr", true),
    ];
    specs
        .iter()
        .map(|&(block, characteristic, higher)| {
            let col = schema::index_of(characteristic);
            let mut ranked: Vec<(String, f64)> = study
                .records()
                .iter()
                .map(|r| (r.label(), r.profile.values()[col]))
                .collect();
            ranked.sort_by(|a, b| {
                let ord = a.1.partial_cmp(&b.1).expect("finite characteristic");
                if higher {
                    ord.reverse()
                } else {
                    ord
                }
            });
            ranked.truncate(top_n);
            StressSelection {
                block,
                characteristic,
                top: ranked,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;
    use gwc_timing::sweep::default_design_space;
    use gwc_workloads::Scale;

    fn study() -> Study {
        Study::run(&StudyConfig {
            seed: 11,
            scale: Scale::Tiny,
            verify: false,
            ..StudyConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn full_population_subset_has_zero_error() {
        let s = study();
        let all: Vec<usize> = (0..s.records().len()).collect();
        let sweep = design_sweep(&s, &GpuConfig::baseline(), &default_design_space());
        let eval = evaluate_subset(&sweep, &all);
        assert!(eval.mean_error() < 1e-12);
        assert_eq!(eval.rows.len(), default_design_space().len());
    }

    #[test]
    fn random_subsets_are_deterministic_per_seed() {
        let s = study();
        let sweep = design_sweep(&s, &GpuConfig::baseline(), &default_design_space());
        let a = random_subset_errors(&sweep, 4, 3, 99);
        let b = random_subset_errors(&sweep, 4, 3, 99);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn stress_selection_names_plausible_kernels() {
        let s = study();
        let sel = stress_selection(&s, 5);
        assert_eq!(sel.len(), 5);
        let sfu = sel
            .iter()
            .find(|x| x.block == "special function units")
            .unwrap();
        // Black-Scholes or MRI-Q should top the SFU ranking.
        let names: Vec<&str> = sfu.top.iter().map(|(n, _)| n.as_str()).collect();
        assert!(
            names.iter().any(|n| n.contains("black_scholes")
                || n.contains("compute_q")
                || n.contains("cp_lattice")),
            "SFU top-5: {names:?}"
        );
        let atomics = sel.iter().find(|x| x.block == "atomic units").unwrap();
        let names: Vec<&str> = atomics.top.iter().map(|(n, _)| n.as_str()).collect();
        assert!(
            names
                .iter()
                .any(|n| n.contains("histogram") || n.contains("bucket") || n.contains("tpacf")),
            "atomic top-5: {names:?}"
        );
    }
}
