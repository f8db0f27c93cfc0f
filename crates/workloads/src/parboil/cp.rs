//! `cp` — coulombic potential over a 2-D lattice (Parboil).
//!
//! Each thread owns a lattice point and loops over all atoms (in constant
//! memory), accumulating `q / sqrt(d² + ε)`. Compute-bound with `rsqrt`
//! SFU work, broadcast constant reads and perfectly coalesced output.

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{check_f32, LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

const EPS: f32 = 0.01;

/// See the [module docs](self).
#[derive(Debug)]
pub struct CoulombicPotential {
    seed: u64,
    out: Option<BufferHandle>,
    /// Lattice side length.
    dim: u32,
    /// Atom x, y and charge.
    atoms: [Vec<f32>; 3],
}

impl CoulombicPotential {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            out: None,
            dim: 0,
            atoms: Default::default(),
        }
    }
}

impl Workload for CoulombicPotential {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "cp",
            suite: Suite::Parboil,
            description: "coulombic potential lattice; rsqrt-heavy loop over const-memory atoms",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let dim = scale.pick(16, 32, 64) as u32; // lattice dim x dim
        let atoms = scale.pick(16, 64, 128) as u32;
        let mut rng = SeededRng::seed_from_u64(self.seed);
        let ax: Vec<f32> = (0..atoms).map(|_| rng.gen_range(0.0..dim as f32)).collect();
        let ay: Vec<f32> = (0..atoms).map(|_| rng.gen_range(0.0..dim as f32)).collect();
        let aq: Vec<f32> = (0..atoms).map(|_| rng.gen_range(-1.0f32..1.0)).collect();

        let hax = device.alloc_const_f32(&ax);
        let hay = device.alloc_const_f32(&ay);
        let haq = device.alloc_const_f32(&aq);
        let hout = device.alloc_zeroed_f32((dim * dim) as usize);
        self.out = Some(hout);
        self.dim = dim;
        self.atoms = [ax, ay, aq];

        let mut b = KernelBuilder::new("cp_lattice");
        let pax = b.param_u32("ax");
        let pay = b.param_u32("ay");
        let paq = b.param_u32("aq");
        let pout = b.param_u32("out");
        let pdim = b.param_u32("dim");
        let pn = b.param_u32("atoms");
        let x = b.global_tid_x();
        let y = b.global_tid_y();
        let xf = b.to_f32(x);
        let yf = b.to_f32(y);
        let acc = b.var_f32(Value::F32(0.0));
        b.for_range_u32(Value::U32(0), pn, 1, |b, a| {
            let axa = b.index(pax, a, 4);
            let axv = b.ld_const_f32(axa);
            let aya = b.index(pay, a, 4);
            let ayv = b.ld_const_f32(aya);
            let aqa = b.index(paq, a, 4);
            let aqv = b.ld_const_f32(aqa);
            let dx = b.sub_f32(xf, axv);
            let dy = b.sub_f32(yf, ayv);
            let dx2 = b.mul_f32(dx, dx);
            let d2 = b.mad_f32(dy, dy, dx2);
            let d2e = b.add_f32(d2, Value::F32(EPS));
            let inv = b.rsqrt_f32(d2e);
            let next = b.mad_f32(aqv, inv, acc);
            b.assign(acc, next);
        });
        let idx = b.mad_u32(y, pdim, x);
        let oa = b.index(pout, idx, 4);
        b.st_global_f32(oa, acc);
        let kernel = b.build()?;

        Ok(vec![LaunchSpec {
            label: "cp_lattice".into(),
            kernel,
            config: LaunchConfig::new_2d(dim / 16, dim / 16, 16, 16),
            args: vec![
                hax.arg(),
                hay.arg(),
                haq.arg(),
                hout.arg(),
                Value::U32(dim),
                Value::U32(atoms),
            ],
        }])
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let dim = self.dim;
        let [ax, ay, aq] = &self.atoms;
        let mut expected = vec![0.0f32; (dim * dim) as usize];
        for y in 0..dim {
            for x in 0..dim {
                let mut acc = 0.0f32;
                for a in 0..aq.len() {
                    let dx = x as f32 - ax[a];
                    let dy = y as f32 - ay[a];
                    acc += aq[a] / (dx * dx + dy * dy + EPS).sqrt();
                }
                expected[(y * dim + x) as usize] = acc;
            }
        }
        let out = device.read_f32(self.out.as_ref().expect("setup"));
        check_f32("cp", &out, &expected, 5e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut CoulombicPotential::new(14), Scale::Tiny).unwrap();
    }
}
