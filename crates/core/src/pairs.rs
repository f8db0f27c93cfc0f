//! The pair study: co-schedules the curated kernel-pair scenarios and
//! collects their pairwise-interference profiles.
//!
//! For each [`gwc_workloads::pairs::PAIR_SCENARIOS`] entry, both member
//! workloads set up on **one shared device** (allocations are disjoint;
//! constant memory is handle-based) and their launches co-schedule
//! through [`Device::launch_pair`] under the configured dispatch
//! policy, observed by a [`PairObserver`] that measures the shared and
//! per-member solo memory timelines in one pass. Members whose launch
//! sequences differ in length run their leftover launches solo on the
//! same timeline. Both members verify against their CPU references
//! afterwards — co-residence must not change results.
//!
//! The scenarios are independent — each owns its device and observer
//! and only reads the solo study — so they fan out over the worker pool
//! and reassemble in curated order. Each scenario's own co-run stays
//! serial (a shared timeline is a total order), so pair records are
//! bit-identical at any worker-thread count. The solo *reference*
//! columns come from the (profile-cache-backed) solo study artifact.

use gwc_characterize::{PairObserver, PairProfile};
use gwc_simt::exec::{Device, PairLaunch};
use gwc_simt::sched::SchedPolicy;
use gwc_stats::{Matrix, MatrixBuilder};
use gwc_workloads::pairs::{partner_member, registry_member, PairScenario, PAIR_SCENARIOS};

use crate::parallel::parallel_map_named;
use crate::pipeline::StudyArtifact;
use crate::study::Study;

/// Solo-study reference row for one pair member: the workload-mean
/// locality characteristics from the cached solo study, in
/// [`SOLO_REF_DIMS`] order. `None` when the member is not in the study
/// population (the `kgen` thrasher).
pub type SoloRef = Option<[f64; 4]>;

/// Dimension names of a [`SoloRef`] row.
pub const SOLO_REF_DIMS: [&str; 4] = [
    "loc_reuse_le16",
    "loc_reuse_le256",
    "loc_reuse_le4096",
    "loc_cold_frac",
];

/// One co-scheduled scenario's measured outcome.
#[derive(Debug)]
pub struct PairRecord {
    /// The scenario that ran.
    pub scenario: PairScenario,
    /// Measured interference profile (solo and co timelines + deltas).
    pub profile: PairProfile,
    /// Solo-study reference rows for the two members.
    pub solo_ref: [SoloRef; 2],
}

/// The full pair study: every curated scenario co-run under one policy.
#[derive(Debug)]
pub struct PairStudy {
    policy: SchedPolicy,
    records: Vec<PairRecord>,
}

impl PairStudy {
    /// Co-runs every curated scenario under `policy` on up to `threads`
    /// workers, seeding members from `seed` (the same derivation as the
    /// solo study, so the study artifact's rows are input-identical
    /// baselines). `solo` provides the reference columns; `verify` gates
    /// CPU-reference checks. Records are identical at every `threads`.
    ///
    /// # Panics
    ///
    /// Panics if a member fails to set up, launch, or verify — the pair
    /// study feeds batch tools, like the pipeline stages.
    pub fn run(
        seed: u64,
        scale: gwc_workloads::Scale,
        verify: bool,
        policy: SchedPolicy,
        solo: &Study,
        threads: usize,
    ) -> Self {
        let records = parallel_map_named("pairs", PAIR_SCENARIOS.len(), threads, |i| {
            let scenario = PAIR_SCENARIOS[i];
            let _span = gwc_obs::span!("{}", scenario.name);
            gwc_obs::count("pair.scenarios", 1);
            run_scenario(scenario, seed, scale, verify, policy, solo)
        });
        Self { policy, records }
    }

    /// The dispatch policy the study ran under.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Scenario records, in curated order.
    pub fn records(&self) -> &[PairRecord] {
        &self.records
    }

    /// The pair × interference-signature matrix (rows in record order,
    /// columns per [`PairProfile::SIGNATURE_DIMS`]) with its row labels
    /// — the clustering input of experiment E14.
    ///
    /// # Panics
    ///
    /// Panics if the study is empty (the curated set never is).
    pub fn signature_matrix(&self) -> (Vec<String>, Matrix) {
        let mut builder = MatrixBuilder::new(PairProfile::SIGNATURE_DIMS.len());
        let mut labels = Vec::with_capacity(self.records.len());
        for r in &self.records {
            builder
                .push_row(&r.profile.signature())
                .expect("signatures share the dimension count");
            labels.push(r.scenario.name.to_string());
        }
        (labels, builder.finish().expect("pair study is never empty"))
    }
}

/// Workload-mean locality reference from the solo study, or `None` if
/// the workload is not in the population.
fn solo_reference(solo: &Study, workload: &str) -> SoloRef {
    let rows = solo.rows_of_workload(workload);
    if rows.is_empty() {
        return None;
    }
    let records = solo.records();
    let mut acc = [0.0f64; 4];
    for &i in &rows {
        for (a, dim) in acc.iter_mut().zip(SOLO_REF_DIMS) {
            *a += records[i].profile.get(dim);
        }
    }
    Some(acc.map(|v| v / rows.len() as f64))
}

fn run_scenario(
    scenario: PairScenario,
    seed: u64,
    scale: gwc_workloads::Scale,
    verify: bool,
    policy: SchedPolicy,
    solo: &Study,
) -> PairRecord {
    let mut a = registry_member(scenario.a, seed);
    let mut b = partner_member(scenario.partner, seed);
    let names = [a.meta().name, b.meta().name];

    let mut dev = Device::new();
    let launches_a = a.setup(&mut dev, scale).expect("member a sets up");
    let launches_b = b.setup(&mut dev, scale).expect("member b sets up");

    let mut obs = PairObserver::new();
    let paired = launches_a.len().min(launches_b.len());
    for (la, lb) in launches_a.iter().zip(&launches_b) {
        dev.launch_pair(
            PairLaunch {
                kernel: &la.kernel,
                config: &la.config,
                args: &la.args,
            },
            PairLaunch {
                kernel: &lb.kernel,
                config: &lb.config,
                args: &lb.args,
            },
            policy,
            &mut obs,
        )
        .unwrap_or_else(|e| panic!("{}: pair launch failed: {e:?}", scenario.name));
    }
    // Leftover launches of the longer member run solo; the shared
    // timeline continues without partner traffic.
    for (member, launches) in [(0usize, &launches_a), (1, &launches_b)] {
        obs.set_member(member);
        for l in launches.iter().skip(paired) {
            dev.launch_observed(&l.kernel, &l.config, &l.args, &mut obs)
                .unwrap_or_else(|e| panic!("{}: leftover launch failed: {e:?}", scenario.name));
        }
    }

    if verify {
        a.verify(&dev).unwrap_or_else(|e| {
            panic!(
                "{}: member {} failed verify under co-scheduling: {}",
                scenario.name, names[0], e.detail
            )
        });
        b.verify(&dev).unwrap_or_else(|e| {
            panic!(
                "{}: member {} failed verify under co-scheduling: {}",
                scenario.name, names[1], e.detail
            )
        });
    }

    let profile = obs.finish([names[0], names[1]], policy.name());
    let solo_ref = [
        solo_reference(solo, names[0]),
        solo_reference(solo, names[1]),
    ];
    PairRecord {
        scenario,
        profile,
        solo_ref,
    }
}

/// Convenience used by the pipeline stage and tests: runs the pair
/// study off a study artifact's configuration-consistent population.
pub fn run_from_artifact(
    cfg: &crate::pipeline::PipelineConfig,
    study: &StudyArtifact,
) -> PairStudy {
    PairStudy::run(
        cfg.study.seed,
        cfg.study.scale,
        cfg.study.verify,
        cfg.pair_policy,
        &study.study,
        cfg.threads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;
    use gwc_workloads::Scale;

    fn tiny_solo() -> Study {
        let config = StudyConfig {
            seed: 7,
            scale: Scale::Tiny,
            verify: true,
            ..StudyConfig::default()
        };
        Study::run(&config).expect("tiny study runs")
    }

    #[test]
    fn pair_study_runs_verifies_and_produces_deltas() {
        let solo = tiny_solo();
        let pairs = PairStudy::run(7, Scale::Tiny, true, SchedPolicy::RoundRobin, &solo, 2);
        assert_eq!(pairs.records().len(), PAIR_SCENARIOS.len());
        // The acceptance bar: at least one pair shows a non-zero
        // contention-adjusted locality delta vs its in-pass solo
        // baseline, and its members carry cached solo-study references.
        let interfering = pairs
            .records()
            .iter()
            .find(|r| r.profile.interference() > 0.0)
            .expect("no pair showed any interference");
        assert!(interfering.solo_ref[0].is_some() || interfering.solo_ref[1].is_some());
        // Footprints are timeline-independent for disjoint members.
        for r in pairs.records() {
            for m in &r.profile.members {
                assert_eq!(
                    m.solo.footprint_lines, m.co.footprint_lines,
                    "{}",
                    r.scenario.name
                );
                assert_eq!(m.solo.touches, m.co.touches, "{}", r.scenario.name);
            }
        }
        let (labels, matrix) = pairs.signature_matrix();
        assert_eq!(labels.len(), PAIR_SCENARIOS.len());
        assert_eq!(matrix.cols(), PairProfile::SIGNATURE_DIMS.len());
    }

    #[test]
    fn pair_study_is_deterministic_per_policy() {
        let solo = tiny_solo();
        for policy in SchedPolicy::ALL {
            let x = PairStudy::run(7, Scale::Tiny, false, policy, &solo, 1);
            let y = PairStudy::run(7, Scale::Tiny, false, policy, &solo, 1);
            for (rx, ry) in x.records().iter().zip(y.records()) {
                assert_eq!(
                    rx.profile,
                    ry.profile,
                    "{} under {}",
                    rx.scenario.name,
                    policy.name()
                );
            }
        }
    }
}
