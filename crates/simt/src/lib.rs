//! A SIMT GPU execution engine with a PTX-like kernel IR.
//!
//! This crate is the "GPU profiling substrate" of the gwc toolkit: it
//! executes data-parallel kernels the way a GPU does — a grid of thread
//! blocks, each block split into 32-lane warps that run in lock-step with a
//! reconvergence stack handling branch divergence — and streams a detailed
//! execution trace to pluggable [`trace::TraceObserver`]s. Everything a
//! microarchitecture-independent characterization needs (dynamic
//! instruction classes, per-lane register dataflow, per-lane memory
//! addresses, branch outcomes, barriers) is observable; nothing about
//! timing is modelled here, by design.
//!
//! # Architecture
//!
//! * [`instr`] — the typed register IR: values, operands, instructions.
//! * [`builder`] — [`builder::KernelBuilder`], an ergonomic DSL with
//!   structured control flow (`if_`, `while_`, `for_range`) that lowers to
//!   plain branches.
//! * [`kernel`] — finalized [`kernel::Kernel`]s: validated instructions plus
//!   the branch-reconvergence table derived from a post-dominator analysis
//!   ([`cfg`]).
//! * [`decode`] — the predecoded µop stream: the flat, type-monomorphized
//!   form the interpreter executes, decoded once per kernel and cached.
//! * [`exec`] — the [`exec::Device`]: global/const memory, kernel launch,
//!   warp scheduling, the SIMT reconvergence stack, barriers and atomics.
//! * [`backend`] — runtime-selectable warp engines: the scalar reference
//!   and the 32-lane SIMD engine ([`simd`]), which executes each µop once
//!   for the whole warp; the two are required to be bit-identical and
//!   are differentially tested against each other.
//! * [`sched`] — policy-driven block dispatch: [`sched::SchedPolicy`]
//!   turns grid geometry into a deterministic [`sched::DispatchPlan`],
//!   which the device's one launch path consumes for solo launches
//!   (trivial plan) and for co-scheduled kernel pairs
//!   ([`exec::Device::launch_pair`]).
//! * [`kgen`] — a seeded random kernel generator (divergence / stride /
//!   atomic-density knobs) feeding the cross-backend differential
//!   harness hundreds of structurally safe kernels, plus an adversarial
//!   cache-thrashing partner for interference studies.
//! * [`trace`] — observer interfaces for streaming characterization.
//!
//! # Example
//!
//! ```
//! use gwc_simt::builder::KernelBuilder;
//! use gwc_simt::exec::Device;
//! use gwc_simt::instr::Value;
//! use gwc_simt::launch::LaunchConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // out[i] = a[i] + b[i]
//! let mut b = KernelBuilder::new("vec_add");
//! let a_ptr = b.param_u32("a");
//! let b_ptr = b.param_u32("b");
//! let out_ptr = b.param_u32("out");
//! let n = b.param_u32("n");
//! let i = b.global_tid_x();
//! let in_range = b.lt_u32(i, n);
//! b.if_(in_range, |b| {
//!     let ai = b.index(a_ptr, i, 4);
//!     let x = b.ld_global_f32(ai);
//!     let bi = b.index(b_ptr, i, 4);
//!     let y = b.ld_global_f32(bi);
//!     let sum = b.add_f32(x, y);
//!     let oi = b.index(out_ptr, i, 4);
//!     b.st_global_f32(oi, sum);
//! });
//! let kernel = b.build()?;
//!
//! let mut dev = Device::new();
//! let a = dev.alloc_f32(&[1.0, 2.0, 3.0]);
//! let bb = dev.alloc_f32(&[10.0, 20.0, 30.0]);
//! let out = dev.alloc_f32(&[0.0; 3]);
//! dev.launch(
//!     &kernel,
//!     &LaunchConfig::linear(3, 128),
//!     &[a.arg(), bb.arg(), out.arg(), Value::U32(3)],
//! )?;
//! assert_eq!(dev.read_f32(&out), vec![11.0, 22.0, 33.0]);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]

pub mod backend;
pub mod builder;
pub mod cfg;
pub mod decode;
pub mod exec;
pub mod hash;
pub mod instr;
pub mod kernel;
pub mod kgen;
pub mod launch;
pub mod profile;
pub mod sched;
mod simd;
pub mod trace;

mod error;

pub use error::SimtError;

/// Number of lanes in a warp. Fixed at 32 (matching NVIDIA GPUs of the
/// paper's era and today); the characterization metrics are defined
/// relative to this width.
pub const WARP_SIZE: usize = 32;
