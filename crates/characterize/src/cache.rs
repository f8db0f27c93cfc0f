//! Content-addressed persistent store for kernel profiles.
//!
//! One cache entry holds all profiles of one workload instance, keyed by
//! the workload fingerprint mixed with every version constant that can
//! change what a profile *means*: the characteristic schema/observer
//! version ([`crate::schema::VERSION`]), the serialized layout version
//! ([`crate::serialize::PROFILE_FORMAT_VERSION`]), and this store's own
//! format version. Any bump re-keys every entry, so stale files are
//! simply never found again — no migration, no explicit invalidation.
//!
//! The store is safe by construction rather than by locking:
//!
//! * **Writes are atomic.** An entry is rendered to a pid-tagged
//!   temporary in the same directory and then renamed into place, so a
//!   reader (or a concurrent writer) never observes a half-written file.
//! * **Reads never trust the disk.** Both the entry envelope and every
//!   profile are fully validated; anything unreadable, truncated,
//!   version-skewed, or otherwise surprising loads as `None` and the
//!   caller recomputes. A corrupt cache can cost time, never correctness.
//! * **Store failures are silent.** The cache is a memo, not an output;
//!   an unwritable directory degrades to cold runs.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use gwc_obs::json::{self, Json};
use gwc_simt::hash::Fnv1a;

use crate::profile::KernelProfile;
use crate::schema;
use crate::serialize::{profile_from_json, profile_to_json, PROFILE_FORMAT_VERSION};

/// Version of the on-disk entry envelope (the fields around the
/// profiles). Bump on any change to the layout below.
pub const CACHE_FORMAT_VERSION: u32 = 1;

/// Default cache directory, relative to the working directory.
pub const DEFAULT_DIR: &str = ".gwc-cache";

/// A content-addressed profile store rooted at one directory.
#[derive(Debug, Clone)]
pub struct ProfileCache {
    dir: PathBuf,
}

impl ProfileCache {
    /// A cache rooted at `dir`. The directory is created lazily on the
    /// first successful store.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The full cache key for a workload fingerprint: the fingerprint
    /// mixed with every version constant a profile's meaning depends on.
    pub fn key(fingerprint: u64) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(fingerprint);
        h.write_u32(schema::VERSION);
        h.write_u32(PROFILE_FORMAT_VERSION);
        h.write_u32(CACHE_FORMAT_VERSION);
        h.finish()
    }

    fn entry_path(&self, fingerprint: u64) -> PathBuf {
        self.dir
            .join(format!("{:016x}.json", Self::key(fingerprint)))
    }

    /// Loads the profiles cached for `fingerprint`, or `None` if there is
    /// no usable entry. Never panics and never returns partially valid
    /// data: any anomaly in the file discards the whole entry.
    pub fn load(&self, fingerprint: u64) -> Option<Vec<KernelProfile>> {
        let text = fs::read_to_string(self.entry_path(fingerprint)).ok()?;
        let doc = json::parse(&text).ok()?;
        if doc.get("cache_version")?.as_u64()? != u64::from(CACHE_FORMAT_VERSION)
            || doc.get("profile_format_version")?.as_u64()? != u64::from(PROFILE_FORMAT_VERSION)
            || doc.get("schema_version")?.as_u64()? != u64::from(schema::VERSION)
            || doc.get("fingerprint")?.as_u64()? != fingerprint
        {
            return None;
        }
        doc.get("profiles")?
            .as_arr()?
            .iter()
            .map(profile_from_json)
            .collect()
    }

    /// Stores the profiles for `fingerprint`, atomically (write to a
    /// pid-tagged temporary, then rename). Failures are deliberately
    /// swallowed — a cache that cannot write behaves like `--no-cache` —
    /// but a successful store bumps the `cache.bytes_written` counter.
    pub fn store(&self, fingerprint: u64, profiles: &[KernelProfile]) {
        let doc = Json::Obj(vec![
            (
                "cache_version".to_string(),
                Json::UInt(u64::from(CACHE_FORMAT_VERSION)),
            ),
            (
                "profile_format_version".to_string(),
                Json::UInt(u64::from(PROFILE_FORMAT_VERSION)),
            ),
            (
                "schema_version".to_string(),
                Json::UInt(u64::from(schema::VERSION)),
            ),
            ("fingerprint".to_string(), Json::UInt(fingerprint)),
            (
                "profiles".to_string(),
                Json::Arr(profiles.iter().map(profile_to_json).collect()),
            ),
        ]);
        let text = doc.render();
        let path = self.entry_path(fingerprint);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let written = fs::create_dir_all(&self.dir).is_ok()
            && fs::File::create(&tmp)
                .and_then(|mut f| f.write_all(text.as_bytes()))
                .is_ok()
            && fs::rename(&tmp, &path).is_ok();
        if written {
            gwc_obs::count("cache.bytes_written", text.len() as u64);
        } else {
            let _ = fs::remove_file(&tmp);
        }
    }
}

/// Version of the on-disk matrix column-block envelope. Bump on any
/// change to the layout below.
pub const MATRIX_CACHE_FORMAT_VERSION: u32 = 1;

/// One workload's rows of the study matrix: the per-kernel
/// characteristic vectors in study order, plus their labels. Values are
/// persisted as raw `f64` bits, so a cache round-trip is bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixBlock {
    /// Kernel labels, in the workload's launch order.
    pub labels: Vec<String>,
    /// One characteristic vector per label, each `schema::len()` wide.
    pub rows: Vec<Vec<f64>>,
}

/// A content-addressed store of per-workload matrix column blocks,
/// keyed on the profile cache's workload fingerprints and living
/// alongside [`ProfileCache`] entries (prefixed `m`, so the two stores
/// can never collide). No pipeline stage uses it — the matrix stage
/// copies rows from the study's in-memory profiles; it stays only for
/// the benchmark's layer ladder, which times a block store and load.
#[derive(Debug, Clone)]
pub struct MatrixCache {
    dir: PathBuf,
}

impl MatrixCache {
    /// A cache rooted at `dir` (usually the profile-cache directory).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Full cache key: fingerprint mixed with the schema version and
    /// this store's own format version.
    pub fn key(fingerprint: u64) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(fingerprint);
        h.write_u32(schema::VERSION);
        h.write_u32(MATRIX_CACHE_FORMAT_VERSION);
        h.finish()
    }

    fn entry_path(&self, fingerprint: u64) -> PathBuf {
        self.dir
            .join(format!("m{:016x}.json", Self::key(fingerprint)))
    }

    /// Loads the matrix block cached for `fingerprint`, or `None`.
    /// Same trust model as the profile cache: any anomaly discards the
    /// entry and the caller rebuilds the block from profiles.
    pub fn load(&self, fingerprint: u64) -> Option<MatrixBlock> {
        let text = fs::read_to_string(self.entry_path(fingerprint)).ok()?;
        let doc = json::parse(&text).ok()?;
        if doc.get("matrix_cache_version")?.as_u64()? != u64::from(MATRIX_CACHE_FORMAT_VERSION)
            || doc.get("schema_version")?.as_u64()? != u64::from(schema::VERSION)
            || doc.get("fingerprint")?.as_u64()? != fingerprint
        {
            return None;
        }
        let labels: Vec<String> = doc
            .get("labels")?
            .as_arr()?
            .iter()
            .map(|l| l.as_str().map(str::to_string))
            .collect::<Option<_>>()?;
        let rows: Vec<Vec<f64>> = doc
            .get("rows")?
            .as_arr()?
            .iter()
            .map(|row| {
                let bits = row.as_arr()?;
                if bits.len() != schema::len() {
                    return None;
                }
                bits.iter()
                    .map(|b| b.as_u64().map(f64::from_bits))
                    .collect()
            })
            .collect::<Option<_>>()?;
        if labels.len() != rows.len() {
            return None;
        }
        Some(MatrixBlock { labels, rows })
    }

    /// Stores a workload's matrix block, atomically; failures are
    /// silent, successes bump `cache.bytes_written`.
    pub fn store(&self, fingerprint: u64, block: &MatrixBlock) {
        let doc = Json::Obj(vec![
            (
                "matrix_cache_version".to_string(),
                Json::UInt(u64::from(MATRIX_CACHE_FORMAT_VERSION)),
            ),
            (
                "schema_version".to_string(),
                Json::UInt(u64::from(schema::VERSION)),
            ),
            ("fingerprint".to_string(), Json::UInt(fingerprint)),
            (
                "labels".to_string(),
                Json::Arr(block.labels.iter().map(|l| Json::Str(l.clone())).collect()),
            ),
            (
                "rows".to_string(),
                Json::Arr(
                    block
                        .rows
                        .iter()
                        .map(|row| Json::Arr(row.iter().map(|v| Json::UInt(v.to_bits())).collect()))
                        .collect(),
                ),
            ),
        ]);
        let text = doc.render();
        let path = self.entry_path(fingerprint);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let written = fs::create_dir_all(&self.dir).is_ok()
            && fs::File::create(&tmp)
                .and_then(|mut f| f.write_all(text.as_bytes()))
                .is_ok()
            && fs::rename(&tmp, &path).is_ok();
        if written {
            gwc_obs::count("cache.bytes_written", text.len() as u64);
        } else {
            let _ = fs::remove_file(&tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::RawCounts;
    use gwc_simt::trace::LaunchStats;

    fn temp_cache(tag: &str) -> ProfileCache {
        let dir = std::env::temp_dir().join(format!("gwc-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ProfileCache::new(dir)
    }

    fn sample_profiles() -> Vec<KernelProfile> {
        (0..3)
            .map(|i| {
                let mut values = vec![0.0; schema::len()];
                values[0] = 1.0 / (i as f64 + 3.0);
                KernelProfile::new(
                    format!("k{i}"),
                    values,
                    RawCounts {
                        thread_instrs: 100 + i,
                        ..RawCounts::default()
                    },
                    LaunchStats::default(),
                )
            })
            .collect()
    }

    #[test]
    fn store_then_load_round_trips_bit_exactly() {
        let cache = temp_cache("roundtrip");
        let profiles = sample_profiles();
        assert!(cache.load(42).is_none(), "cold cache misses");
        cache.store(42, &profiles);
        let back = cache.load(42).expect("entry readable");
        assert_eq!(back.len(), profiles.len());
        for (a, b) in profiles.iter().zip(&back) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.raw(), b.raw());
            for (x, y) in a.values().iter().zip(b.values()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert!(cache.load(43).is_none(), "other fingerprints still miss");
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_or_skewed_entries_load_as_none() {
        let cache = temp_cache("corrupt");
        cache.store(7, &sample_profiles());
        let path = cache
            .dir()
            .join(format!("{:016x}.json", ProfileCache::key(7)));

        // Truncation.
        let full = fs::read_to_string(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(cache.load(7).is_none());

        // Valid JSON, wrong envelope version.
        fs::write(
            &path,
            full.replacen("\"cache_version\": 1", "\"cache_version\": 999", 1),
        )
        .unwrap();
        assert!(cache.load(7).is_none());

        // Garbage bytes.
        fs::write(&path, b"\x00\xffnot json").unwrap();
        assert!(cache.load(7).is_none());

        // A fresh store repairs the entry.
        cache.store(7, &sample_profiles());
        assert!(cache.load(7).is_some());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn key_mixes_fingerprint_and_versions() {
        assert_ne!(ProfileCache::key(1), ProfileCache::key(2));
        assert_eq!(ProfileCache::key(1), ProfileCache::key(1));
    }

    #[test]
    fn matrix_block_round_trips_bit_exactly() {
        let dir = std::env::temp_dir().join(format!("gwc-mcache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = MatrixCache::new(&dir);
        let block = MatrixBlock {
            labels: vec!["k0".to_string(), "k1".to_string()],
            rows: vec![
                (0..schema::len()).map(|i| 1.0 / (i as f64 + 3.0)).collect(),
                (0..schema::len()).map(|i| (i as f64).sqrt()).collect(),
            ],
        };
        assert!(cache.load(42).is_none(), "cold cache misses");
        cache.store(42, &block);
        let back = cache.load(42).expect("entry readable");
        assert_eq!(back.labels, block.labels);
        for (a, b) in block.rows.iter().zip(&back.rows) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert!(cache.load(43).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn matrix_entries_do_not_collide_with_profile_entries() {
        let dir = std::env::temp_dir().join(format!("gwc-mpcache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let profiles = ProfileCache::new(&dir);
        let matrices = MatrixCache::new(&dir);
        profiles.store(42, &sample_profiles());
        matrices.store(
            42,
            &MatrixBlock {
                labels: vec!["k0".to_string()],
                rows: vec![vec![0.5; schema::len()]],
            },
        );
        // Both entries coexist under one directory and load back.
        assert!(profiles.load(42).is_some());
        assert!(matrices.load(42).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_matrix_entries_load_as_none() {
        let dir = std::env::temp_dir().join(format!("gwc-mc-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = MatrixCache::new(&dir);
        let block = MatrixBlock {
            labels: vec!["k0".to_string()],
            rows: vec![vec![1.25; schema::len()]],
        };
        cache.store(7, &block);
        let path = cache
            .dir()
            .join(format!("m{:016x}.json", MatrixCache::key(7)));
        let full = fs::read_to_string(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(cache.load(7).is_none());
        fs::write(
            &path,
            full.replacen(
                "\"matrix_cache_version\": 1",
                "\"matrix_cache_version\": 999",
                1,
            ),
        )
        .unwrap();
        assert!(cache.load(7).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
