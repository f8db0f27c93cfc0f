//! The workload abstraction: setup, launches, verification.

use std::error::Error;
use std::fmt;

use gwc_simt::exec::Device;
use gwc_simt::instr::Value;
use gwc_simt::kernel::Kernel;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

/// Benchmark suite a workload belongs to (as attributed in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Nvidia CUDA SDK samples.
    CudaSdk,
    /// Parboil benchmark suite.
    Parboil,
    /// Rodinia benchmark suite.
    Rodinia,
    /// Stand-alone workloads (MUMmerGPU, Similarity Score).
    Other,
}

impl Suite {
    /// Short lower-case name.
    pub fn name(&self) -> &'static str {
        match self {
            Suite::CudaSdk => "cuda_sdk",
            Suite::Parboil => "parboil",
            Suite::Rodinia => "rodinia",
            Suite::Other => "other",
        }
    }

    /// All suites.
    pub const ALL: [Suite; 4] = [Suite::CudaSdk, Suite::Parboil, Suite::Rodinia, Suite::Other];
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Problem scale. Characterization runs use [`Scale::Full`]; unit tests
/// use [`Scale::Tiny`] so the whole suite verifies in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Smallest size that still exercises every kernel phase.
    Tiny,
    /// A few hundred thousand thread-instructions.
    Small,
    /// The size used for the characterization study.
    Full,
}

impl Scale {
    /// Picks one of three values by scale.
    pub fn pick(&self, tiny: usize, small: usize, full: usize) -> usize {
        match self {
            Scale::Tiny => tiny,
            Scale::Small => small,
            Scale::Full => full,
        }
    }
}

/// Size tier of the whole study *population* (orthogonal to [`Scale`],
/// which sizes each workload's inputs). [`StudyScale::Standard`] is the
/// 26-workload registry every committed result was produced from;
/// [`StudyScale::Large`] replicates the registry with parameter-swept
/// input seeds and scales into hundreds of kernel instances, for
/// stressing observer memory and cache throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StudyScale {
    /// The canonical 26-workload population.
    #[default]
    Standard,
    /// The canonical population plus replicated, parameter-swept
    /// instances of every workload (hundreds of kernel instances).
    Large,
}

impl StudyScale {
    /// Short lower-case name (the `--scale` CLI value).
    pub fn name(self) -> &'static str {
        match self {
            StudyScale::Standard => "standard",
            StudyScale::Large => "large",
        }
    }

    /// Parses a `--scale` CLI value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "standard" => Some(StudyScale::Standard),
            "large" => Some(StudyScale::Large),
            _ => None,
        }
    }
}

impl fmt::Display for StudyScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Static description of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadMeta {
    /// Stable snake_case name.
    pub name: &'static str,
    /// Suite attribution.
    pub suite: Suite,
    /// One-line description of the algorithm.
    pub description: &'static str,
}

/// One kernel launch within a workload run.
#[derive(Debug, Clone)]
pub struct LaunchSpec {
    /// Kernel-instance label; launches sharing a label are profiled as one
    /// kernel (e.g. repeated wavefront launches of the same kernel).
    pub label: String,
    /// The kernel to run.
    pub kernel: Kernel,
    /// Launch geometry.
    pub config: LaunchConfig,
    /// Kernel arguments.
    pub args: Vec<Value>,
}

/// A workload's GPU results disagreed with its CPU reference.
#[derive(Debug, Clone)]
pub struct VerifyError {
    /// Human-readable description of the first mismatch.
    pub detail: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verification failed: {}", self.detail)
    }
}

impl Error for VerifyError {}

/// Any error from running a workload.
#[derive(Debug)]
#[non_exhaustive]
pub enum WorkloadError {
    /// The simulator rejected or aborted a launch.
    Simt(SimtError),
    /// GPU/CPU mismatch.
    Verify(VerifyError),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Simt(e) => write!(f, "simulation error: {e}"),
            WorkloadError::Verify(e) => e.fmt(f),
        }
    }
}

impl Error for WorkloadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WorkloadError::Simt(e) => Some(e),
            WorkloadError::Verify(e) => Some(e),
        }
    }
}

impl From<SimtError> for WorkloadError {
    fn from(e: SimtError) -> Self {
        WorkloadError::Simt(e)
    }
}

impl From<VerifyError> for WorkloadError {
    fn from(e: VerifyError) -> Self {
        WorkloadError::Verify(e)
    }
}

/// A benchmark workload: allocates inputs, plans kernel launches, and
/// verifies device results against a CPU reference.
///
/// The flow is `setup → (execute the returned launches in order) →
/// verify`. `setup` keeps its generated inputs and the output buffer
/// handles in `&mut self` (kernels may overwrite their inputs on the
/// device, so `verify` must not re-read them from there). `verify`
/// computes the CPU reference from those inputs. A study that serves a
/// workload from its profile cache runs `setup` but never `verify`, so
/// `setup` does only the CPU work its launch plan needs.
///
/// `Send` is a supertrait so a study can fan whole workloads out across
/// worker threads (each workload still runs on exactly one thread).
pub trait Workload: Send {
    /// Static metadata.
    fn meta(&self) -> WorkloadMeta;

    /// Generates inputs, allocates device buffers, builds kernels and
    /// returns the launch sequence for one run at the given scale.
    ///
    /// # Errors
    ///
    /// Returns a [`SimtError`] if kernel construction fails.
    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError>;

    /// Computes the CPU reference from the inputs [`Workload::setup`]
    /// kept and checks the device results against it.
    ///
    /// # Errors
    ///
    /// Returns a [`VerifyError`] describing the first mismatch.
    fn verify(&self, device: &Device) -> Result<(), VerifyError>;
}

/// Compares two `f32` slices with a relative/absolute tolerance and
/// reports the first mismatch.
///
/// # Errors
///
/// Returns a [`VerifyError`] naming the first differing index.
pub fn check_f32(label: &str, got: &[f32], want: &[f32], tol: f32) -> Result<(), VerifyError> {
    if got.len() != want.len() {
        return Err(VerifyError {
            detail: format!("{label}: length {} vs {}", got.len(), want.len()),
        });
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let scale = w.abs().max(1.0);
        if (g - w).abs() > tol * scale {
            return Err(VerifyError {
                detail: format!("{label}[{i}]: got {g}, want {w}"),
            });
        }
    }
    Ok(())
}

/// Compares two `u32` slices exactly and reports the first mismatch.
///
/// # Errors
///
/// Returns a [`VerifyError`] naming the first differing index.
pub fn check_u32(label: &str, got: &[u32], want: &[u32]) -> Result<(), VerifyError> {
    if got.len() != want.len() {
        return Err(VerifyError {
            detail: format!("{label}: length {} vs {}", got.len(), want.len()),
        });
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            return Err(VerifyError {
                detail: format!("{label}[{i}]: got {g}, want {w}"),
            });
        }
    }
    Ok(())
}

/// Runs a workload end-to-end on a fresh device: setup, every launch in
/// order, then verification. Returns the device for further inspection.
///
/// # Errors
///
/// Returns a [`WorkloadError`] on simulation failure or verification
/// mismatch.
pub fn run_workload(w: &mut dyn Workload, scale: Scale) -> Result<Device, WorkloadError> {
    let mut dev = Device::new();
    let launches = w.setup(&mut dev, scale)?;
    for l in &launches {
        dev.launch(&l.kernel, &l.config, &l.args)?;
    }
    w.verify(&dev)?;
    Ok(dev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Tiny.pick(1, 2, 3), 1);
        assert_eq!(Scale::Small.pick(1, 2, 3), 2);
        assert_eq!(Scale::Full.pick(1, 2, 3), 3);
    }

    #[test]
    fn check_f32_tolerance() {
        assert!(check_f32("x", &[1.0, 2.0], &[1.0, 2.0001], 1e-3).is_ok());
        assert!(check_f32("x", &[1.0], &[1.1], 1e-3).is_err());
        assert!(check_f32("x", &[1.0], &[1.0, 2.0], 1e-3).is_err());
    }

    #[test]
    fn check_u32_exact() {
        assert!(check_u32("x", &[1, 2], &[1, 2]).is_ok());
        let err = check_u32("x", &[1, 3], &[1, 2]).unwrap_err();
        assert!(err.detail.contains("x[1]"));
    }

    #[test]
    fn suite_names_unique() {
        let mut names: Vec<&str> = Suite::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
    }
}
