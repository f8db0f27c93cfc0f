//! `tpacf` — two-point angular correlation function (Parboil).
//!
//! Each thread processes one observation point against the full dataset:
//! a dot product per pair followed by a *binary search* over the angular
//! bin boundaries — a data-dependent branchy loop — and a shared-memory
//! histogram update, merged to global at the end. One of the most
//! divergence- and atomic-intensive workloads in the suite.

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{check_u32, LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

const BINS: u32 = 16;
const BLOCK: u32 = 128;

/// See the [module docs](self).
#[derive(Debug)]
pub struct Tpacf {
    seed: u64,
    hist: Option<BufferHandle>,
    expected: Vec<u32>,
}

impl Tpacf {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            hist: None,
            expected: Vec::new(),
        }
    }
}

/// Bin boundaries on the dot-product axis, ascending in `[-1, 1]`.
fn boundaries() -> Vec<f32> {
    (1..BINS)
        .map(|i| -1.0 + 2.0 * i as f32 / BINS as f32)
        .collect()
}

fn cpu_bin(dot: f32, bounds: &[f32]) -> usize {
    // First bin whose upper boundary exceeds the dot product.
    bounds.iter().position(|&b| dot < b).unwrap_or(bounds.len())
}

impl Workload for Tpacf {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "tpacf",
            suite: Suite::Parboil,
            description: "angular correlation histogram with per-pair binary search binning",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let n = scale.pick(128, 256, 1024) as u32;
        let mut rng = SeededRng::seed_from_u64(self.seed);
        // Unit vectors on the sphere.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut zs = Vec::new();
        for _ in 0..n {
            let (mut x, mut y, mut z): (f32, f32, f32) = (
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            );
            let norm = (x * x + y * y + z * z).sqrt().max(1e-3);
            x /= norm;
            y /= norm;
            z /= norm;
            xs.push(x);
            ys.push(y);
            zs.push(z);
        }
        let bounds = boundaries();
        let mut expected = vec![0u32; BINS as usize];
        for i in 0..n as usize {
            for j in 0..n as usize {
                // Mirror the kernel's mul + two one-rounding MADs bit-exactly so
                // boundary cases bin identically.
                let t1 = xs[i] * xs[j];
                let t2 = ys[i].mul_add(ys[j], t1);
                let dot = zs[i].mul_add(zs[j], t2);
                expected[cpu_bin(dot, &bounds)] += 1;
            }
        }
        self.expected = expected;

        let hx = device.alloc_f32(&xs);
        let hy = device.alloc_f32(&ys);
        let hz = device.alloc_f32(&zs);
        let hbounds = device.alloc_const_f32(&bounds);
        let hhist = device.alloc_zeroed_u32(BINS as usize);
        self.hist = Some(hhist);

        let mut b = KernelBuilder::new("tpacf_hist");
        let px = b.param_u32("x");
        let py = b.param_u32("y");
        let pz = b.param_u32("z");
        let pb = b.param_u32("bounds");
        let phist = b.param_u32("hist");
        let pn = b.param_u32("n");
        let sbins = b.alloc_shared(BINS * 4);

        let tid = b.var_u32(b.tid_x());
        let zeroer = b.lt_u32(tid, Value::U32(BINS));
        b.if_(zeroer, |b| {
            let sa = b.index(sbins, tid, 4);
            b.st_shared_u32(sa, Value::U32(0));
        });
        b.barrier();

        let i = b.global_tid_x();
        let in_range = b.lt_u32(i, pn);
        b.if_(in_range, |b| {
            let xa = b.index(px, i, 4);
            let xi = b.ld_global_f32(xa);
            let ya = b.index(py, i, 4);
            let yi = b.ld_global_f32(ya);
            let za = b.index(pz, i, 4);
            let zi = b.ld_global_f32(za);
            b.for_range_u32(Value::U32(0), pn, 1, |b, j| {
                let xa = b.index(px, j, 4);
                let xj = b.ld_global_f32(xa);
                let ya = b.index(py, j, 4);
                let yj = b.ld_global_f32(ya);
                let za = b.index(pz, j, 4);
                let zj = b.ld_global_f32(za);
                let t1 = b.mul_f32(xi, xj);
                let t2 = b.mad_f32(yi, yj, t1);
                let dot = b.mad_f32(zi, zj, t2);
                // Binary search over the BINS-1 ascending boundaries.
                let lo = b.var_u32(Value::U32(0));
                let hi = b.var_u32(Value::U32(BINS - 1));
                b.while_(
                    |b| b.lt_u32(lo, hi),
                    |b| {
                        let sum = b.add_u32(lo, hi);
                        let mid = b.shr_u32(sum, Value::U32(1));
                        let ba = b.index(pb, mid, 4);
                        let bound = b.ld_const_f32(ba);
                        let below = b.lt_f32(dot, bound);
                        let mid1 = b.add_u32(mid, Value::U32(1));
                        let nlo = b.sel_u32(below, lo, mid1);
                        let nhi = b.sel_u32(below, mid, hi);
                        b.assign(lo, nlo);
                        b.assign(hi, nhi);
                    },
                );
                let sa = b.index(sbins, lo, 4);
                b.atomic_add_shared_u32(sa, Value::U32(1));
            });
        });
        b.barrier();
        b.if_(zeroer, |b| {
            let sa = b.index(sbins, tid, 4);
            let count = b.ld_shared_u32(sa);
            let ga = b.index(phist, tid, 4);
            b.atomic_add_global_u32(ga, count);
        });
        let kernel = b.build()?;

        Ok(vec![LaunchSpec {
            label: "tpacf_hist".into(),
            kernel,
            config: LaunchConfig::linear(n, BLOCK),
            args: vec![
                hx.arg(),
                hy.arg(),
                hz.arg(),
                hbounds.arg(),
                hhist.arg(),
                Value::U32(n),
            ],
        }])
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let got = device.read_u32(self.hist.as_ref().expect("setup"));
        check_u32("tpacf", &got, &self.expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut Tpacf::new(18), Scale::Tiny).unwrap();
    }

    #[test]
    fn cpu_bin_edges() {
        let b = boundaries();
        assert_eq!(cpu_bin(-1.0, &b), 0);
        assert_eq!(cpu_bin(0.999, &b), BINS as usize - 1);
        // A value exactly on a boundary goes to the upper bin.
        assert_eq!(cpu_bin(b[0], &b), 1);
    }
}
