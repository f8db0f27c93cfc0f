//! An analytical GPU performance model for design-space evaluation.
//!
//! The characterization pipeline is microarchitecture *independent*; this
//! crate is where microarchitecture comes back in. Following the
//! MWP/CWP-style analytical models of the paper's era, a kernel's runtime
//! on a [`GpuConfig`] is estimated from its measured
//! [`gwc_characterize::RawCounts`] and reuse-distance CDF as the maximum
//! of three pressure terms — issue throughput, DRAM bandwidth, and
//! exposed memory latency — plus shared-memory serialization:
//!
//! * the *cache hit rate* on a config with `c` lines is read off the
//!   kernel's reuse-distance CDF (a fully associative LRU cache of `c`
//!   lines hits exactly the accesses with stack distance `< c`), so the
//!   same profile prices every cache size in the sweep;
//! * *coalescing* enters through the measured transactions-per-access
//!   ratio; *divergence* through warp-level instruction counts, which
//!   already pay for serialized branch paths.
//!
//! Absolute cycle counts are not the point (the paper's were not either);
//! what the design-space experiments need is that different workloads
//! respond differently — and plausibly — to parameter changes.

#![deny(unsafe_code)]

pub mod model;
pub mod sweep;

pub use model::{estimate_cycles, CycleBreakdown, GpuConfig};
pub use sweep::{speedups, DesignPoint, SweepResult};
