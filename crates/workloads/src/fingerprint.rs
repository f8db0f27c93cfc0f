//! Workload-instance fingerprints for the persistent profile cache.
//!
//! A kernel profile is a pure function of (kernel IR, launch geometry,
//! arguments, input seed, scale) — nothing else. The fingerprint
//! collapses all of that into one stable 64-bit value: the per-kernel
//! content hashes ([`gwc_simt::kernel::Kernel::content_hash`]) cover the
//! IR, and the launch specs cover geometry and arguments (buffer handles
//! are allocation-ordered and therefore deterministic). The generator
//! version is baked in so a change to any input generator re-keys every
//! entry without anyone having to remember to clear caches.

use gwc_simt::hash::Fnv1a;

use crate::workload::{LaunchSpec, Scale};

/// Version of the workload input generators. Bump whenever any
/// workload's setup changes in a way its launch specs do not capture —
/// e.g. a change to the input data `setup` writes into device buffers:
/// launch arguments hash buffer handles, not buffer contents. (CPU-side
/// reference data never needs a bump: it feeds verification, not the
/// kernels, so it cannot change a profile.) Bumping invalidates every
/// cached profile.
pub const GENERATOR_VERSION: u32 = 1;

fn scale_tag(scale: Scale) -> u32 {
    match scale {
        Scale::Tiny => 0,
        Scale::Small => 1,
        Scale::Full => 2,
    }
}

/// The fingerprint of one workload instance: the master study seed, the
/// scale, the generator version, and — per launch, in order — the label,
/// kernel content hash, launch geometry and argument values.
///
/// Two study runs with equal fingerprints produce bit-identical
/// profiles, so the fingerprint is a sound cache key for the workload's
/// full set of kernel profiles.
pub fn workload_fingerprint(name: &str, seed: u64, scale: Scale, launches: &[LaunchSpec]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u32(GENERATOR_VERSION);
    h.write_str(name);
    h.write_u64(seed);
    h.write_u32(scale_tag(scale));
    h.write_u64(launches.len() as u64);
    for l in launches {
        h.write_str(&l.label);
        h.write_u64(l.kernel.content_hash());
        h.write_u32(l.config.grid_x);
        h.write_u32(l.config.grid_y);
        h.write_u32(l.config.block_x);
        h.write_u32(l.config.block_y);
        h.write_u64(l.args.len() as u64);
        for a in &l.args {
            h.write_u32(scale_tag_value(a));
            h.write_u32(a.to_bits());
        }
    }
    h.finish()
}

fn scale_tag_value(v: &gwc_simt::instr::Value) -> u32 {
    use gwc_simt::instr::Value;
    match v {
        Value::I32(_) => 0,
        Value::U32(_) => 1,
        Value::F32(_) => 2,
        Value::Pred(_) => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use crate::workload::StudyScale;
    use gwc_simt::exec::Device;

    fn fingerprint_of(name: &str, seed: u64, scale: Scale) -> u64 {
        let mut workloads = registry::all_workloads(seed);
        let w = workloads
            .iter_mut()
            .find(|w| w.meta().name == name)
            .expect("in registry");
        let mut dev = Device::new();
        let launches = w.setup(&mut dev, scale).expect("setup succeeds");
        workload_fingerprint(name, seed, scale, &launches)
    }

    #[test]
    fn fingerprint_is_reproducible() {
        assert_eq!(
            fingerprint_of("parallel_reduction", 7, Scale::Tiny),
            fingerprint_of("parallel_reduction", 7, Scale::Tiny)
        );
    }

    #[test]
    fn fingerprint_keys_on_seed_and_scale() {
        let base = fingerprint_of("parallel_reduction", 7, Scale::Tiny);
        assert_ne!(base, fingerprint_of("parallel_reduction", 8, Scale::Tiny));
        assert_ne!(base, fingerprint_of("parallel_reduction", 7, Scale::Small));
    }

    #[test]
    fn fingerprints_differ_across_workloads() {
        let mut seen = std::collections::BTreeSet::new();
        for meta in registry::all_metas(7) {
            assert!(
                seen.insert(fingerprint_of(meta.name, 7, Scale::Tiny)),
                "fingerprint collision at {}",
                meta.name
            );
        }
    }

    /// Every cache key of the `--scale large` population at seed 7 (the
    /// study's default `Scale::Small`, exact tier), folded in population
    /// order. A cache written by an older build stays a full hit only
    /// while this holds, so a change that re-keys the cache must change
    /// this literal on purpose (with a `GENERATOR_VERSION` bump where
    /// the inputs changed).
    #[test]
    fn large_population_keys_are_pinned() {
        let mut h = Fnv1a::new();
        for mut w in registry::study_workloads(7, StudyScale::Large) {
            let mut dev = Device::new();
            let launches = w.setup(&mut dev, Scale::Small).expect("setup succeeds");
            h.write_u64(workload_fingerprint(
                w.meta().name,
                7,
                Scale::Small,
                &launches,
            ));
        }
        assert_eq!(
            h.finish(),
            0x5ef1_841d_1a14_3a28,
            "large-population cache keys moved"
        );
    }
}
