//! `run --smoke` end to end: one iteration of every workload plus one
//! traced repetition, all checked against their oracles, at the golden
//! seed and at a seed held out from development.

use std::path::Path;
use std::process::Command;

fn smoke(seed: &str) {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = Command::new(env!("CARGO_BIN_EXE_gwc-benchmark"))
        .args(["run", "--smoke", "--seed", seed])
        .current_dir(&repo)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke at seed {seed} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for workload in ["cold_exact", "cold_sketch", "warm_large", "pairs_warm"] {
        for metric in ["iter_ms_min", "failed_frac 0 ratio", "ladder.coverage"] {
            let line = format!("{workload} {metric}");
            assert!(
                stdout.contains(&line),
                "no `{line}` at seed {seed}:\n{stdout}"
            );
        }
    }
}

#[test]
fn smoke_passes_at_the_golden_seed() {
    smoke("7");
}

#[test]
fn smoke_passes_at_a_held_out_seed() {
    smoke("11");
}
