//! GPGPU benchmark workloads reimplemented in the `gwc-simt` kernel IR.
//!
//! The suite mirrors the workload population of the IISWC 2010 study:
//! kernels drawn from the **Nvidia CUDA SDK**, **Parboil** and **Rodinia**
//! benchmark suites, plus the stand-alone **MUMmerGPU** and **Similarity
//! Score** workloads the paper highlights. Each workload module provides:
//!
//! * synthetic input generators (seeded, reproducible),
//! * one or more kernels written with [`gwc_simt::builder::KernelBuilder`],
//!   faithful to the published algorithm structure of the original
//!   benchmark (same phases, same access patterns, same divergence
//!   structure),
//! * a CPU reference implementation used by [`Workload::verify`].
//!
//! # Example
//!
//! ```
//! use gwc_workloads::{registry, run_workload, Scale};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut workloads = registry::all_workloads(7);
//! let reduction = workloads
//!     .iter_mut()
//!     .find(|w| w.meta().name == "parallel_reduction")
//!     .expect("in registry");
//! // Runs every kernel launch and checks the GPU result against the CPU
//! // reference.
//! run_workload(reduction.as_mut(), Scale::Tiny)?;
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]

pub mod fingerprint;
pub mod pairs;
pub mod registry;
pub mod rng;
pub mod workload;

pub mod other;
pub mod parboil;
pub mod rodinia;
pub mod sdk;

pub use workload::{
    run_workload, LaunchSpec, Scale, StudyScale, Suite, VerifyError, Workload, WorkloadError,
    WorkloadMeta,
};
