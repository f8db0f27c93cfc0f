//! Runtime-selectable warp execution backends.
//!
//! The device can execute warps through two engines that are required to
//! be bit-identical in every observable way (traces, profiles, memory,
//! stats, errors):
//!
//! * **scalar** — the reference interpreter: one lane at a time through a
//!   `match` over the µop stream. Simple, obviously correct, slow.
//! * **simd** — the production engine: each µop executes once for all
//!   32 warp lanes, over `[u32; 32]` value vectors the autovectorizer can
//!   lower to real SIMD, and commits its result under the active mask.
//!
//! Selection is per-[`Device`](crate::exec::Device): [`BackendKind::from_env`]
//! resolves the default at device creation (process override set by
//! [`set_default`], else the `GWC_BACKEND` env var, else SIMD), and
//! [`Device::set_backend`](crate::exec::Device::set_backend) overrides it
//! per device. [`Device::fork`](crate::exec::Device::fork)ed devices
//! inherit their parent's backend.
//!
//! The scalar engine is the semantic baseline the differential harness
//! (`tests/backend_diff.rs`) measures the SIMD engine against.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::exec::{LaunchCtx, Warp};
use crate::trace::TraceObserver;
use crate::SimtError;

/// Which warp engine a [`Device`](crate::exec::Device) executes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The one-lane-at-a-time reference interpreter.
    Scalar,
    /// The 32-lane engine: one pass per µop for the whole warp (the
    /// default).
    #[default]
    Simd,
}

impl BackendKind {
    /// Both backends, scalar (the reference) first.
    pub const ALL: [BackendKind; 2] = [BackendKind::Scalar, BackendKind::Simd];

    /// Parses a backend name as accepted by `GWC_BACKEND` and the bench
    /// binaries' `--backend` flag (case-insensitive `scalar` / `simd`).
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(BackendKind::Scalar),
            "simd" => Some(BackendKind::Simd),
            _ => None,
        }
    }

    /// Stable lower-case name (`"scalar"` / `"simd"`), used for env/CLI
    /// selection and embedded in the metrics report's `meta` header.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Simd => "simd",
        }
    }

    /// The observability counter bumped once per launch on this backend.
    pub fn counter_name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "simt.backend.scalar",
            BackendKind::Simd => "simt.backend.simd",
        }
    }

    /// Resolves the process-default backend: a [`set_default`] override
    /// wins, else `GWC_BACKEND`, else [`BackendKind::Simd`]. This is what
    /// [`Device::new`](crate::exec::Device::new) uses.
    ///
    /// # Panics
    ///
    /// Panics if `GWC_BACKEND` is set to something other than `scalar`
    /// or `simd` — a misconfigured run must not silently measure the
    /// wrong engine.
    pub fn from_env() -> BackendKind {
        match OVERRIDE.load(Ordering::Relaxed) {
            1 => return BackendKind::Scalar,
            2 => return BackendKind::Simd,
            _ => {}
        }
        static ENV: OnceLock<BackendKind> = OnceLock::new();
        *ENV.get_or_init(|| match std::env::var("GWC_BACKEND") {
            Ok(v) => BackendKind::parse(&v).unwrap_or_else(|| {
                panic!("GWC_BACKEND={v:?} is not a backend (expected \"scalar\" or \"simd\")")
            }),
            Err(_) => BackendKind::default(),
        })
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Process-wide backend override: 0 = unset, 1 = scalar, 2 = simd.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Overrides the process-default backend for every `Device` created
/// afterwards. This is how the bench binaries implement `--backend`
/// (devices are created deep inside the study pipeline); it takes
/// precedence over `GWC_BACKEND`. Tests comparing backends should use
/// [`Device::set_backend`](crate::exec::Device::set_backend) instead —
/// it is per-device and safe under the parallel test runner.
pub fn set_default(kind: BackendKind) {
    OVERRIDE.store(
        match kind {
            BackendKind::Scalar => 1,
            BackendKind::Simd => 2,
        },
        Ordering::Relaxed,
    );
}

/// A warp execution engine.
///
/// The contract is total behavioral equivalence with the scalar
/// reference: for any kernel, launch and observer, an implementation
/// must produce the same observer event stream, the same register /
/// memory effects, the same [`LaunchStats`](crate::trace::LaunchStats)
/// accounting and the same errors (at the same pc, with the same partial
/// state). `run_warp` advances one warp until it exits, empties its
/// reconvergence stack, or parks at a barrier (`warp.at_barrier`).
///
/// The trait is public so backends can be named in bounds, but its
/// operands ([`LaunchCtx`], [`Warp`]) have crate-private fields — new
/// engines live in `gwc-simt` where the differential harness can hold
/// them to the contract.
pub trait ExecBackend {
    /// Stable lower-case engine name.
    const NAME: &'static str;

    /// Runs one warp until exit or barrier. See the trait docs for the
    /// equivalence contract.
    ///
    /// # Errors
    ///
    /// Exactly the scalar reference's errors: out-of-bounds accesses,
    /// divide-by-zero, barrier divergence, instruction-budget overrun.
    fn run_warp<O: TraceObserver + ?Sized>(
        ctx: &mut LaunchCtx<'_>,
        block: u32,
        warp: &mut Warp,
        shared: &mut [u8],
        local: &mut [u8],
        observer: &mut O,
    ) -> Result<(), SimtError>;
}

/// The one-lane-at-a-time reference interpreter.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarBackend;

impl ExecBackend for ScalarBackend {
    const NAME: &'static str = "scalar";

    fn run_warp<O: TraceObserver + ?Sized>(
        ctx: &mut LaunchCtx<'_>,
        block: u32,
        warp: &mut Warp,
        shared: &mut [u8],
        local: &mut [u8],
        observer: &mut O,
    ) -> Result<(), SimtError> {
        ctx.run_warp_scalar(block, warp, shared, local, observer)
    }
}

/// The 32-lane engine: one pass per µop for the whole warp, results
/// committed under the active mask.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimdBackend;

impl ExecBackend for SimdBackend {
    const NAME: &'static str = "simd";

    fn run_warp<O: TraceObserver + ?Sized>(
        ctx: &mut LaunchCtx<'_>,
        block: u32,
        warp: &mut Warp,
        shared: &mut [u8],
        local: &mut [u8],
        observer: &mut O,
    ) -> Result<(), SimtError> {
        crate::simd::run_warp_simd(ctx, block, warp, shared, local, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_both_names_case_insensitively() {
        assert_eq!(BackendKind::parse("scalar"), Some(BackendKind::Scalar));
        assert_eq!(BackendKind::parse("SIMD"), Some(BackendKind::Simd));
        assert_eq!(BackendKind::parse("Simd"), Some(BackendKind::Simd));
        assert_eq!(BackendKind::parse("avx512"), None);
        assert_eq!(BackendKind::parse(""), None);
    }

    #[test]
    fn names_round_trip() {
        for k in BackendKind::ALL {
            assert_eq!(BackendKind::parse(k.name()), Some(k));
            assert_eq!(k.to_string(), k.name());
        }
    }

    #[test]
    fn default_is_simd() {
        assert_eq!(BackendKind::default(), BackendKind::Simd);
    }
}
