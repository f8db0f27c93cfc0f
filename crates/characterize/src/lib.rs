//! Microarchitecture-independent GPGPU kernel characteristics.
//!
//! This crate implements the measurement half of the IISWC 2010
//! methodology: a set of characteristics that describe a kernel's dynamic
//! behaviour *independently of any GPU microarchitecture* — instruction
//! mix, per-thread ILP, branch-divergence behaviour, memory-coalescing
//! behaviour, shared-memory bank behaviour, temporal locality, data
//! sharing, synchronization intensity, and kernel-launch shape.
//!
//! Everything is computed by streaming [`gwc_simt::trace`] events through
//! [`Profiler`]; no full trace is ever stored. The canonical 33-dimension
//! vector layout lives in [`schema`], and [`characterize_launch`] is the
//! one-call entry point.
//!
//! # Example
//!
//! ```
//! use gwc_characterize::characterize_launch;
//! use gwc_simt::builder::KernelBuilder;
//! use gwc_simt::exec::Device;
//! use gwc_simt::launch::LaunchConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = KernelBuilder::new("fill");
//! let out = b.param_u32("out");
//! let i = b.global_tid_x();
//! let f = b.to_f32(i);
//! let oi = b.index(out, i, 4);
//! b.st_global_f32(oi, f);
//! let kernel = b.build()?;
//!
//! let mut dev = Device::new();
//! let buf = dev.alloc_zeroed_f32(1024);
//! let profile = characterize_launch(
//!     &mut dev,
//!     &kernel,
//!     &LaunchConfig::linear(1024, 256),
//!     &[buf.arg()],
//! )?;
//! // A fully coalesced kernel: one 128-byte segment per warp store.
//! assert!(profile.get("coal_segments_per_access") < 1.01);
//! // No branches at all.
//! assert_eq!(profile.get("div_branch_frac"), 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]

pub mod cache;
pub mod coalescing;
pub mod divergence;
pub mod fxhash;
pub mod ilp;
pub mod locality;
pub mod mix;
pub mod pair;
pub mod profile;
pub mod profiler;
mod reuse;
pub mod runtime;
pub mod schema;
pub mod serialize;
pub mod sketch;

pub use cache::{MatrixBlock, MatrixCache, ProfileCache};
pub use pair::{InterferenceStack, PairMemberProfile, PairObserver, PairProfile};
pub use profile::{KernelProfile, RawCounts};
pub use profiler::{characterize_launch, Profiler};
pub use runtime::profile_launch_sharded;
pub use schema::{Group, SCHEMA};
pub use sketch::ObserverTier;
