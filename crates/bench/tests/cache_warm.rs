//! Cold-vs-warm cache equivalence, driven through the real `regen`
//! binary: a warm rerun must be byte-identical to the cold run (and to
//! the golden snapshot), must skip simulation entirely (26 cache hits,
//! zero misses), and corrupt cache entries must be recomputed silently
//! without perturbing the output.
//!
//! Everything lives in one `#[test]` because the steps share a cache
//! directory and are ordered: cold populates, warm consumes, corruption
//! forces a partial recompute.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use gwc_obs::json::{self, Json};

/// Every workload in the registry is studied (the canonical
/// `vector_add` exclusion happens after the study stage), so a cold run
/// misses once per workload and a warm run hits once per workload.
const REGISTRY_SIZE: u64 = 26;

fn regen(cache: &Path, metrics: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_regen"))
        .arg("--cache")
        .arg(cache)
        .arg("--metrics")
        .arg(metrics)
        .output()
        .expect("spawn regen")
}

fn counter_value(metrics: &Path, name: &str) -> u64 {
    let text = fs::read_to_string(metrics).expect("metrics report exists");
    let doc = json::parse(&text).expect("metrics report parses");
    let counters = doc
        .get("counters")
        .and_then(Json::as_arr)
        .expect("report has counters");
    counters
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
        .and_then(|c| c.get("value").and_then(Json::as_u64))
        .unwrap_or(0)
}

fn golden() -> String {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/regen_all_small_seed7.txt");
    fs::read_to_string(path).expect("golden snapshot exists")
}

#[test]
fn warm_reruns_are_byte_identical_and_simulation_free() {
    let base = std::env::temp_dir().join(format!("gwc-cache-warm-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    fs::create_dir_all(&base).expect("create temp dir");
    let cache = base.join("cache");

    // Cold: every workload simulates and is stored.
    let cold_metrics = base.join("cold.json");
    let cold = regen(&cache, &cold_metrics);
    assert_eq!(
        cold.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_stdout = String::from_utf8(cold.stdout).expect("utf8 stdout");
    assert_eq!(cold_stdout, golden(), "cold run diverged from the snapshot");
    assert_eq!(counter_value(&cold_metrics, "cache.misses"), REGISTRY_SIZE);
    assert_eq!(counter_value(&cold_metrics, "cache.hits"), 0);
    assert!(counter_value(&cold_metrics, "cache.bytes_written") > 0);
    // The profile cache is the only store: one entry per workload.
    let mut entries: Vec<PathBuf> = fs::read_dir(&cache)
        .expect("cache dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    assert_eq!(entries.len() as u64, REGISTRY_SIZE, "{entries:?}");

    // Warm: same bytes out, zero simulations, nothing rewritten.
    let warm_metrics = base.join("warm.json");
    let warm = regen(&cache, &warm_metrics);
    assert_eq!(warm.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&warm.stdout),
        cold_stdout,
        "warm rerun is not byte-identical to the cold run"
    );
    assert_eq!(counter_value(&warm_metrics, "cache.hits"), REGISTRY_SIZE);
    assert_eq!(counter_value(&warm_metrics, "cache.misses"), 0);
    assert_eq!(counter_value(&warm_metrics, "cache.bytes_written"), 0);

    // Corrupt two profile entries: they recompute silently, output
    // unchanged.
    fs::write(&entries[0], "not json at all").expect("corrupt entry");
    fs::write(&entries[1], "{\"cache_version\": 9999}").expect("skew entry");

    let repair_metrics = base.join("repair.json");
    let repaired = regen(&cache, &repair_metrics);
    assert_eq!(repaired.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&repaired.stdout),
        cold_stdout,
        "corrupt cache entries perturbed the output"
    );
    assert_eq!(counter_value(&repair_metrics, "cache.misses"), 2);
    assert_eq!(
        counter_value(&repair_metrics, "cache.hits"),
        REGISTRY_SIZE - 2
    );
    // The two recomputed entries were stored back in repaired form.
    assert!(counter_value(&repair_metrics, "cache.bytes_written") > 0);

    let _ = fs::remove_dir_all(&base);
}
