//! Determinism suite: the parallel characterization runtime must be
//! bit-identical to the serial one.
//!
//! Two guarantees, each checked over the full workload registry:
//!
//! 1. **Workload fan-out** — `Study::run_threads` distributes whole
//!    workloads across workers and reassembles records in registry
//!    order; the study matrix matches the serial study bitwise.
//! 2. **Seed stability** — two runs with the same seed and thread
//!    count are identical, and runs at different thread counts agree.
//!
//! Floating-point equality here is deliberate and exact
//! (`f64::to_bits`): the observers accumulate in integer domain and
//! convert to `f64` only at read time in a fixed order, so any
//! difference is a real bug, not roundoff.

use gwc::core::study::{KernelRecord, Study, StudyConfig};
use gwc::workloads::Scale;

fn tiny_config(seed: u64) -> StudyConfig {
    StudyConfig {
        seed,
        scale: Scale::Tiny,
        verify: true,
        ..StudyConfig::default()
    }
}

/// Asserts two record sets are bitwise-identical profiles.
fn assert_records_identical(serial: &[KernelRecord], parallel: &[KernelRecord], what: &str) {
    assert_eq!(serial.len(), parallel.len(), "{what}: record count");
    for (s, p) in serial.iter().zip(parallel) {
        assert_eq!(s.workload, p.workload, "{what}: workload order");
        assert_eq!(s.kernel, p.kernel, "{what}: kernel label order");
        assert_eq!(
            s.profile.raw(),
            p.profile.raw(),
            "{what}: raw counters of {}",
            s.label()
        );
        for (dim, (a, b)) in s
            .profile
            .values()
            .iter()
            .zip(p.profile.values())
            .enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: {} dim {dim}: {a} vs {b}",
                s.label()
            );
        }
    }
}

#[test]
fn study_fanout_matches_serial() {
    let config = tiny_config(7);
    let serial = Study::run(&config).expect("serial study");
    for threads in [2usize, 4, 8] {
        let parallel = Study::run_threads(&config, threads).expect("parallel study");
        assert_records_identical(
            serial.records(),
            parallel.records(),
            &format!("study fan-out at {threads} threads"),
        );
    }
}

#[test]
fn same_seed_repeats_identically() {
    let config = tiny_config(13);
    let a = Study::run_threads(&config, 4).expect("first run");
    let b = Study::run_threads(&config, 4).expect("second run");
    assert_records_identical(a.records(), b.records(), "repeated seed-13 runs");
}

/// The co-scheduled pair study (experiment E14's input) is bit-identical
/// at any thread count, both its own and the solo study's it
/// references: its scenarios fan out across workers and reassemble in
/// curated order, each scenario's co-run stays on one worker (a shared
/// timeline is a total order), and the solo-reference columns come from
/// the study fan-out, which guarantees 1 above. Checked under every
/// dispatch policy against a serial baseline.
#[test]
fn pair_study_identical_across_thread_counts_and_policies() {
    use gwc::core::pairs::PairStudy;
    use gwc::simt::sched::SchedPolicy;

    let config = tiny_config(7);
    let serial = Study::run(&config).expect("serial study");
    let baseline: Vec<PairStudy> = SchedPolicy::ALL
        .iter()
        .map(|&p| PairStudy::run(7, Scale::Tiny, false, p, &serial, 1))
        .collect();
    for threads in [1usize, 2, 4, 8] {
        let parallel = Study::run_threads(&config, threads).expect("parallel study");
        for (policy, base) in SchedPolicy::ALL.iter().zip(&baseline) {
            let again = PairStudy::run(7, Scale::Tiny, false, *policy, &parallel, threads);
            assert_eq!(base.records().len(), again.records().len());
            for (x, y) in base.records().iter().zip(again.records()) {
                assert_eq!(
                    x.profile,
                    y.profile,
                    "{} under {} at {threads} threads",
                    x.scenario.name,
                    policy.name()
                );
                assert_eq!(
                    x.solo_ref,
                    y.solo_ref,
                    "{} under {}: solo references at {threads} threads",
                    x.scenario.name,
                    policy.name()
                );
            }
        }
    }
}

#[test]
fn different_seeds_differ() {
    // Sanity check that the suite isn't vacuous: seeds actually steer
    // the workload inputs, so some characteristic must move.
    let a = Study::run_threads(&tiny_config(7), 2).expect("seed 7");
    let b = Study::run_threads(&tiny_config(8), 2).expect("seed 8");
    let moved = a
        .records()
        .iter()
        .zip(b.records())
        .any(|(x, y)| x.profile.values() != y.profile.values());
    assert!(moved, "changing the seed changed no characteristic at all");
}
