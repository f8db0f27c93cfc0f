//! `vectorAdd` — the canonical streaming kernel (quickstart workload).
//!
//! Fully coalesced, no divergence beyond the bounds guard, no reuse: the
//! "origin" of the characteristic space that other workloads diverge from.
//! Excluded from suite-diversity statistics (it is our quickstart
//! addition, not part of the paper's population).

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{check_f32, LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

/// See the [module docs](self).
#[derive(Debug)]
pub struct VectorAdd {
    seed: u64,
    out: Option<BufferHandle>,
    a: Vec<f32>,
    b: Vec<f32>,
}

impl VectorAdd {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            out: None,
            a: Vec::new(),
            b: Vec::new(),
        }
    }
}

impl Workload for VectorAdd {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "vector_add",
            suite: Suite::CudaSdk,
            description: "element-wise vector addition (streaming, coalesced)",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let n = scale.pick(1 << 10, 1 << 14, 1 << 17);
        let mut rng = SeededRng::seed_from_u64(self.seed);
        let a: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();

        let ha = device.alloc_f32(&a);
        let hb = device.alloc_f32(&b);
        let hout = device.alloc_zeroed_f32(n);
        self.out = Some(hout);
        self.a = a;
        self.b = b;

        let mut kb = KernelBuilder::new("vec_add");
        let pa = kb.param_u32("a");
        let pb = kb.param_u32("b");
        let pout = kb.param_u32("out");
        let pn = kb.param_u32("n");
        let i = kb.global_tid_x();
        let in_range = kb.lt_u32(i, pn);
        kb.if_(in_range, |kb| {
            let aa = kb.index(pa, i, 4);
            let x = kb.ld_global_f32(aa);
            let ab = kb.index(pb, i, 4);
            let y = kb.ld_global_f32(ab);
            let s = kb.add_f32(x, y);
            let ao = kb.index(pout, i, 4);
            kb.st_global_f32(ao, s);
        });
        let kernel = kb.build()?;

        Ok(vec![LaunchSpec {
            label: "vec_add".into(),
            kernel,
            config: LaunchConfig::linear(n as u32, 256),
            args: vec![ha.arg(), hb.arg(), hout.arg(), Value::U32(n as u32)],
        }])
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let expected: Vec<f32> = self.a.iter().zip(&self.b).map(|(x, y)| x + y).collect();
        let out = device.read_f32(self.out.as_ref().expect("setup ran"));
        check_f32("vec_add", &out, &expected, 1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut VectorAdd::new(1), Scale::Tiny).unwrap();
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = VectorAdd::new(9);
        let mut b = VectorAdd::new(9);
        run_workload(&mut a, Scale::Tiny).unwrap();
        run_workload(&mut b, Scale::Tiny).unwrap();
        assert_eq!((a.a, a.b), (b.a, b.b));
    }
}
