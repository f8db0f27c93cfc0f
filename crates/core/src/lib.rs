//! The GPGPU workload characterization pipeline (the paper's primary
//! contribution).
//!
//! Stages, mirroring IISWC 2010:
//!
//! 1. [`study`] — run every workload in the registry under the SIMT
//!    simulator and collect one microarchitecture-independent profile per
//!    kernel;
//! 2. [`reduce`] — normalize the kernel × characteristic matrix and apply
//!    correlated dimensionality reduction (PCA);
//! 3. [`analysis`] — hierarchical clustering (dendrograms), k-means with
//!    BIC, and cluster-representative selection;
//! 4. [`subspace`] — repeat the analysis in characteristic subspaces
//!    (branch divergence, memory coalescing) and rank workloads by
//!    intra-workload variation;
//! 5. [`diversity`] — per-suite coverage statistics;
//! 6. [`eval`] — design-space evaluation metrics: estimate suite-wide
//!    outcomes from cluster representatives and quantify the error against
//!    full simulation and random subsets;
//! 7. [`report`] — plain-text tables and ASCII scatter plots for every
//!    experiment artifact.
//!
//! # Example
//!
//! ```no_run
//! use gwc_core::study::{Study, StudyConfig};
//! use gwc_core::reduce::ReducedSpace;
//! use gwc_workloads::Scale;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let study = Study::run(&StudyConfig {
//!     seed: 7,
//!     scale: Scale::Small,
//!     verify: true,
//!     ..StudyConfig::default()
//! })?;
//! let space = ReducedSpace::fit(&study.matrix(), 0.9)?;
//! println!("{} kernels, {} PCs", study.records().len(), space.kept());
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]

pub mod analysis;
pub mod diversity;
pub mod eval;
pub mod pairs;
pub mod parallel;
pub mod pipeline;
pub mod reduce;
pub mod report;
pub mod study;
pub mod subspace;

pub use parallel::{available_threads, parallel_map};
pub use pipeline::{Artifacts, PipelineConfig, Stage};
pub use study::{KernelRecord, Study, StudyConfig};
