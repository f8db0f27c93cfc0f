//! The workload registry: every benchmark in the study population.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::other::{MummerGpu, SimilarityScore};
use crate::parboil::{CoulombicPotential, MriQ, Sad, Spmv, Stencil, Tpacf};
use crate::rodinia::{
    BackProp, Bfs, HotSpot, HybridSort, KMeansWorkload, NearestNeighbor, NeedlemanWunsch,
    PathFinder, Srad,
};
use crate::sdk::{
    BitonicSort, BlackScholes, ConvolutionSeparable, Histogram, MatrixMul, ParallelReduction,
    ScanLargeArrays, Transpose, VectorAdd,
};
use crate::workload::{LaunchSpec, Scale, StudyScale, VerifyError, Workload, WorkloadMeta};

use gwc_simt::exec::Device;
use gwc_simt::SimtError;

/// Every workload in the study, each seeded deterministically from
/// `seed` (a different derived seed per workload, so inputs are
/// uncorrelated but the whole study is reproducible).
pub fn all_workloads(seed: u64) -> Vec<Box<dyn Workload>> {
    let s = |i: u64| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
    vec![
        // CUDA SDK
        Box::new(VectorAdd::new(s(1))),
        Box::new(ParallelReduction::new(s(2))),
        Box::new(ScanLargeArrays::new(s(3))),
        Box::new(MatrixMul::new(s(4))),
        Box::new(Transpose::new(s(5))),
        Box::new(Histogram::new(s(6))),
        Box::new(BlackScholes::new(s(7))),
        Box::new(ConvolutionSeparable::new(s(8))),
        Box::new(BitonicSort::new(s(9))),
        // Parboil
        Box::new(MriQ::new(s(10))),
        Box::new(CoulombicPotential::new(s(11))),
        Box::new(Sad::new(s(12))),
        Box::new(Tpacf::new(s(13))),
        Box::new(Spmv::new(s(14))),
        Box::new(Stencil::new(s(15))),
        // Rodinia
        Box::new(KMeansWorkload::new(s(16))),
        Box::new(NearestNeighbor::new(s(17))),
        Box::new(BackProp::new(s(18))),
        Box::new(HotSpot::new(s(19))),
        Box::new(Srad::new(s(20))),
        Box::new(NeedlemanWunsch::new(s(21))),
        Box::new(Bfs::new(s(22))),
        Box::new(PathFinder::new(s(23))),
        Box::new(HybridSort::new(s(24))),
        // Other
        Box::new(MummerGpu::new(s(25))),
        Box::new(SimilarityScore::new(s(26))),
    ]
}

/// Metadata of every registered workload.
pub fn all_metas(seed: u64) -> Vec<WorkloadMeta> {
    all_workloads(seed).iter().map(|w| w.meta()).collect()
}

/// Replicas beyond the canonical population in a [`StudyScale::Large`]
/// study (so the large population is `(1 + LARGE_REPLICAS) * 26`
/// workloads).
pub const LARGE_REPLICAS: u64 = 5;

/// Seed stride between replicas — a large odd constant so replica input
/// seeds are uncorrelated with each other and with the base population.
const REPLICA_SEED_STRIDE: u64 = 0xA076_1D64_78BD_642F;

/// The study population at a given [`StudyScale`].
///
/// `Standard` is exactly [`all_workloads`]. `Large` prepends that same
/// base population **unchanged** (same names, same derived seeds — so a
/// profile cache warmed by a standard study fully covers it) and appends
/// [`LARGE_REPLICAS`] parameter-swept replicas of every workload: replica
/// `i` derives its inputs from `seed ^ i * STRIDE`, runs under its own
/// problem scale (odd replicas [`Scale::Tiny`], even [`Scale::Small`])
/// and registers as `name#i`.
pub fn study_workloads(seed: u64, scale: StudyScale) -> Vec<Box<dyn Workload>> {
    let mut population = all_workloads(seed);
    if scale == StudyScale::Large {
        for i in 1..=LARGE_REPLICAS {
            let scale_override = if i % 2 == 1 {
                Scale::Tiny
            } else {
                Scale::Small
            };
            for inner in all_workloads(seed ^ i.wrapping_mul(REPLICA_SEED_STRIDE)) {
                population.push(Box::new(ReplicaWorkload::new(
                    inner,
                    i as u32,
                    scale_override,
                )));
            }
        }
    }
    population
}

/// Metadata of the population at a given [`StudyScale`].
pub fn study_metas(seed: u64, scale: StudyScale) -> Vec<WorkloadMeta> {
    study_workloads(seed, scale)
        .iter()
        .map(|w| w.meta())
        .collect()
}

/// Interns `base#replica` so replica names can live in
/// [`WorkloadMeta::name`]'s `&'static str`. The map deduplicates, so the
/// leak is bounded by the set of distinct replica names ever requested.
fn replica_name(base: &str, replica: u32) -> &'static str {
    static NAMES: Mutex<BTreeMap<String, &'static str>> = Mutex::new(BTreeMap::new());
    let key = format!("{base}#{replica}");
    let mut names = NAMES
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    if let Some(&interned) = names.get(&key) {
        return interned;
    }
    let interned: &'static str = Box::leak(key.clone().into_boxed_str());
    names.insert(key, interned);
    interned
}

/// A parameter-swept replica of a registry workload: same algorithm,
/// independent input seed, its own problem scale, registered under
/// `name#replica`. Used only by [`StudyScale::Large`] populations.
struct ReplicaWorkload {
    inner: Box<dyn Workload>,
    name: &'static str,
    scale: Scale,
}

impl ReplicaWorkload {
    fn new(inner: Box<dyn Workload>, replica: u32, scale: Scale) -> Self {
        let name = replica_name(inner.meta().name, replica);
        Self { inner, name, scale }
    }
}

impl Workload for ReplicaWorkload {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: self.name,
            ..self.inner.meta()
        }
    }

    fn setup(&mut self, device: &mut Device, _scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        // The replica's own scale is part of its identity (it is what
        // makes the sweep a sweep), so the study-wide scale is ignored.
        self.inner.setup(device, self.scale)
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        self.inner.verify(device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Suite;

    #[test]
    fn registry_has_26_workloads() {
        assert_eq!(all_workloads(1).len(), 26);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = all_metas(1).iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 26);
    }

    #[test]
    fn every_suite_is_represented() {
        let metas = all_metas(1);
        for suite in Suite::ALL {
            assert!(
                metas.iter().any(|m| m.suite == suite),
                "no workload in {suite}"
            );
        }
    }

    #[test]
    fn standard_population_is_the_registry() {
        let std_names: Vec<String> = study_metas(7, StudyScale::Standard)
            .iter()
            .map(|m| m.name.to_string())
            .collect();
        let base: Vec<String> = all_metas(7).iter().map(|m| m.name.to_string()).collect();
        assert_eq!(std_names, base);
    }

    #[test]
    fn large_population_replicates_with_unique_names() {
        let metas = study_metas(7, StudyScale::Large);
        assert_eq!(metas.len(), 26 * (1 + LARGE_REPLICAS as usize));
        let mut names: Vec<&str> = metas.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), metas.len(), "replica names collide");
        // The base population leads, unchanged.
        let base: Vec<&str> = all_metas(7).iter().map(|m| m.name).collect();
        assert_eq!(
            &metas[..26].iter().map(|m| m.name).collect::<Vec<_>>(),
            &base
        );
        assert!(metas[26].name.ends_with("#1"));
    }

    #[test]
    fn replica_names_intern_to_one_allocation() {
        let a = study_metas(7, StudyScale::Large)[26].name;
        let b = study_metas(7, StudyScale::Large)[26].name;
        assert!(std::ptr::eq(a, b), "interning should dedup replica names");
    }

    #[test]
    fn replica_runs_and_verifies() {
        use crate::workload::run_workload;
        let mut population = study_workloads(7, StudyScale::Large);
        // First replica of vector_add: cheap end-to-end sanity check.
        let w = population
            .iter_mut()
            .find(|w| w.meta().name == "vector_add#1")
            .expect("replica in population");
        run_workload(w.as_mut(), Scale::Tiny).expect("replica verifies");
    }

    /// `verify` computes its reference from the inputs `setup` kept, so
    /// it must still reject a device whose outputs were never written:
    /// a `verify` that stopped checking would pass here.
    #[test]
    fn verify_rejects_a_device_nothing_launched_on() {
        for scale in [Scale::Tiny, Scale::Small] {
            for seed in [7, 11] {
                for mut w in all_workloads(seed) {
                    let mut dev = Device::new();
                    w.setup(&mut dev, scale).expect("setup succeeds");
                    assert!(
                        w.verify(&dev).is_err(),
                        "{} verified at {scale:?}, seed {seed}, with nothing launched",
                        w.meta().name
                    );
                }
            }
        }
    }

    #[test]
    fn paper_highlighted_workloads_present() {
        let metas = all_metas(1);
        for name in [
            "similarity_score",
            "parallel_reduction",
            "scan_large_arrays",
            "mummer_gpu",
            "hybrid_sort",
            "nearest_neighbor",
            "kmeans",
        ] {
            assert!(metas.iter().any(|m| m.name == name), "missing {name}");
        }
    }
}
