//! Exact-vs-sketch observer cross-check over real kernels.
//!
//! The sketch tier trades exactness for bounded memory, but the trade
//! is *declared*: `gwc::characterize::sketch::bounds` states how far
//! each locality/sharing characteristic may drift from the exact
//! oracle. These tests hold the sketch to that contract over the whole
//! workload registry and over a broad sweep of generated kernels —
//! not just the synthetic streams its unit tests use — and pin the
//! properties the tier must preserve exactly:
//!
//! * every non-locality characteristic is bit-identical between tiers
//!   (the sketch replaces only the locality observer);
//! * locality/sharing characteristics stay within the declared bounds;
//! * the sketch study is thread-deterministic (parallel fan-out ==
//!   serial), like the exact tier;
//! * sketch observer memory is bounded: the exact tier's peak
//!   footprint-tracking bytes exceed the sketch's by >= 5x on the
//!   registry's biggest workloads.

use gwc::characterize::sketch::{bounds, ObserverTier};
use gwc::characterize::{schema, KernelProfile, Profiler};
use gwc::core::study::{Study, StudyConfig};
use gwc::simt::exec::Device;
use gwc::simt::kgen;

/// Characteristics owned by the locality observer — the only ones the
/// sketch tier may perturb, each with its declared absolute bound.
/// `shape_log_footprint` is checked separately (relative, in lines).
const LOCALITY_ABS_BOUNDS: [(&str, f64); 6] = [
    ("loc_reuse_le16", bounds::REUSE_CDF_ABS),
    ("loc_reuse_le256", bounds::REUSE_CDF_ABS),
    ("loc_reuse_le4096", bounds::REUSE_CDF_ABS),
    ("loc_cold_frac", bounds::COLD_FRAC_ABS),
    ("share_inter_warp", bounds::SHARING_ABS),
    ("share_inter_block", bounds::SHARING_ABS),
];

/// Asserts `sketch` matches `exact` under the sketch contract: bit
/// equality outside the locality group, declared bounds inside it.
fn assert_within_bounds(label: &str, exact: &KernelProfile, sketch: &KernelProfile) {
    let ex = exact.values();
    let sk = sketch.values();
    assert_eq!(ex.len(), sk.len(), "{label}: schema width");
    let loc_indices: Vec<usize> = LOCALITY_ABS_BOUNDS
        .iter()
        .map(|(name, _)| schema::index_of(name))
        .chain([schema::index_of("shape_log_footprint")])
        .collect();
    for i in 0..ex.len() {
        if !loc_indices.contains(&i) {
            assert!(
                ex[i].to_bits() == sk[i].to_bits(),
                "{label}: non-locality characteristic {} diverged: exact {} vs sketch {}",
                schema::SCHEMA[i].name,
                ex[i],
                sk[i],
            );
        }
    }
    for (name, bound) in LOCALITY_ABS_BOUNDS {
        let i = schema::index_of(name);
        let diff = (ex[i] - sk[i]).abs();
        assert!(
            diff <= bound,
            "{label}: {name} off by {diff:.4} (exact {:.4}, sketch {:.4}, bound {bound})",
            ex[i],
            sk[i],
        );
    }
    // The schema stores log2(footprint lines); the declared bound is
    // relative in *lines*, so compare in that domain.
    let i = schema::index_of("shape_log_footprint");
    let (ex_lines, sk_lines) = (ex[i].exp2(), sk[i].exp2());
    let rel = (ex_lines - sk_lines).abs() / ex_lines.max(1.0);
    assert!(
        rel <= bounds::FOOTPRINT_REL,
        "{label}: footprint off by {:.1}% (exact {ex_lines:.0} lines, sketch {sk_lines:.0} \
         lines, bound {:.0}%)",
        rel * 100.0,
        bounds::FOOTPRINT_REL * 100.0,
    );
}

fn study_config(tier: ObserverTier) -> StudyConfig {
    StudyConfig {
        observer_tier: tier,
        // Verification re-runs CPU references and is orthogonal to the
        // observer tier; skip it so the cross-study fits in test time.
        verify: false,
        ..StudyConfig::default()
    }
}

/// Every kernel of every registry workload: sketch characteristics stay
/// within the declared error bounds of the exact oracle, and everything
/// outside the locality group is bit-identical.
#[test]
fn registry_profiles_stay_within_sketch_bounds() {
    let exact = Study::run(&study_config(ObserverTier::Exact)).expect("exact study");
    let sketch = Study::run(&study_config(ObserverTier::Sketch)).expect("sketch study");
    let (ex, sk) = (exact.records(), sketch.records());
    assert_eq!(ex.len(), sk.len(), "tiers must profile the same kernels");
    assert!(ex.len() >= 26, "registry looks truncated: {}", ex.len());
    for (e, s) in ex.iter().zip(sk) {
        assert_eq!(e.label(), s.label(), "record order must match");
        assert_ne!(
            e.fingerprint,
            s.fingerprint,
            "{}: tiers must never share cache entries",
            e.label()
        );
        assert_within_bounds(&e.label(), &e.profile, &s.profile);
    }
}

/// A broad sweep of generated kernels (>= 100, spanning the generator's
/// knob space) holds the same contract: the bounds are properties of
/// the sketch, not of the registry's particular access patterns.
#[test]
fn generated_kernels_stay_within_sketch_bounds() {
    let mut checked = 0;
    for seed in 0..110u64 {
        let gk = kgen::generate_seeded(seed).expect("kernel generation");
        let mut profiles = Vec::new();
        for tier in [ObserverTier::Exact, ObserverTier::Sketch] {
            let mut dev = Device::new();
            let args = gk.alloc_args(&mut dev);
            let mut profiler = Profiler::with_tier(tier);
            dev.launch_observed(&gk.kernel, &gk.config, &args.args, &mut profiler)
                .expect("generated kernels always launch");
            profiles.push(profiler.finish(gk.kernel.name()));
        }
        assert_within_bounds(&format!("kgen seed {seed}"), &profiles[0], &profiles[1]);
        checked += 1;
    }
    assert!(checked >= 100, "sweep too small: {checked}");
}

/// The sketch tier keeps the study's cornerstone guarantee: parallel
/// runs produce bit-identical records to the serial path.
#[test]
fn sketch_study_is_thread_deterministic() {
    let config = study_config(ObserverTier::Sketch);
    let serial = Study::run(&config).expect("serial study");
    for threads in [2, 4] {
        let parallel = Study::run_threads(&config, threads).expect("parallel study");
        assert_eq!(
            serial.records().len(),
            parallel.records().len(),
            "{threads} threads: record count"
        );
        for (s, p) in serial.records().iter().zip(parallel.records()) {
            assert_eq!(s.label(), p.label(), "{threads} threads: record order");
            let (sv, pv) = (s.profile.values(), p.profile.values());
            let same = sv.iter().zip(pv).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                same,
                "{threads} threads: {} diverged from the serial sketch run",
                s.label()
            );
        }
    }
}

/// The memory story itself. The exact locality observer's state grows
/// with the footprint (one entry per distinct 128-byte line); the
/// sketch's is capped. Registry workloads fit the exact observer
/// comfortably — the sketch exists for footprints that don't — so the
/// ratio is demonstrated on a scatter kernel whose every thread touches
/// its own line, the access shape that defeats per-line tracking.
/// `observer_bytes` is exactly the per-launch quantity the
/// `observer.bytes_peak` counter reports.
#[test]
fn sketch_tier_bounds_observer_memory() {
    use gwc::simt::builder::KernelBuilder;
    use gwc::simt::launch::LaunchConfig;

    // 1536 blocks x 256 threads, one 128-byte line per thread: a
    // 393216-line footprint (~48 MiB of distinct data).
    const THREADS: u32 = 1536 * 256;
    let mut b = KernelBuilder::new("footprint_stress");
    let out = b.param_u32("out");
    let i = b.global_tid_x();
    let addr = b.index(out, i, 128);
    b.st_global_u32(addr, i);
    let kernel = b.build().expect("stress kernel builds");
    let config = LaunchConfig::linear(THREADS, 256);

    let mut bytes = [0u64; 2];
    for (slot, tier) in [ObserverTier::Exact, ObserverTier::Sketch]
        .into_iter()
        .enumerate()
    {
        let mut dev = Device::new();
        let buf = dev.alloc_zeroed_u32(THREADS as usize * 32);
        let mut profiler = Profiler::with_tier(tier);
        dev.launch_observed(&kernel, &config, &[buf.arg()], &mut profiler)
            .expect("stress kernel launches");
        // Observers only grow, so end-of-launch state is the peak.
        bytes[slot] = profiler.observer_bytes();
    }
    let [exact, sketch] = bytes;
    assert!(
        exact >= 5 * sketch,
        "exact peak {exact}B is not >= 5x sketch peak {sketch}B"
    );
    // The sketch side is a hard cap, not merely "smaller than exact":
    // it must not scale with the 393k-line footprint.
    assert!(
        sketch < 1_000_000,
        "sketch observer state {sketch}B is not bounded"
    );
}
