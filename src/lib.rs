//! # gwc — GPGPU Workload Characterization
//!
//! Umbrella crate re-exporting the whole toolkit. See the individual crates
//! for details:
//!
//! * [`obs`] — observability (spans, counters, metrics reports),
//! * [`simt`] — SIMT kernel IR and execution engine,
//! * [`characterize`] — microarchitecture-independent characteristics,
//! * [`workloads`] — the benchmark suite (CUDA SDK / Parboil / Rodinia / misc),
//! * [`stats`] — PCA, clustering and supporting statistics,
//! * [`timing`] — analytical GPU performance model,
//! * [`core`] — the end-to-end characterization pipeline and analyses.

#![deny(unsafe_code)]

pub use gwc_characterize as characterize;
pub use gwc_core as core;
pub use gwc_obs as obs;
pub use gwc_simt as simt;
pub use gwc_stats as stats;
pub use gwc_timing as timing;
pub use gwc_workloads as workloads;
