//! `mri-q` — non-Cartesian MRI reconstruction, Q computation (Parboil).
//!
//! Two kernels as in the original: `compute_phi_mag` (trivial element-wise
//! squares) and `compute_q` (each thread accumulates over every k-space
//! sample with `sin`/`cos` of a phase argument). The sample arrays live in
//! constant memory and broadcast to the whole warp — compute-bound SFU
//! work with perfect coalescing.

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{check_f32, LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

/// See the [module docs](self).
#[derive(Debug)]
pub struct MriQ {
    seed: u64,
    qr: Option<BufferHandle>,
    qi: Option<BufferHandle>,
    phi_mag: Option<BufferHandle>,
    /// k-space samples: `kx`, `ky`, `kz`, `phi_r`, `phi_i`.
    k: [Vec<f32>; 5],
    /// Voxel coordinates: `x`, `y`, `z`.
    pos: [Vec<f32>; 3],
}

impl MriQ {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            qr: None,
            qi: None,
            phi_mag: None,
            k: Default::default(),
            pos: Default::default(),
        }
    }
}

impl Workload for MriQ {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "mri_q",
            suite: Suite::Parboil,
            description: "MRI Q-matrix computation; SFU-heavy sin/cos over const-memory samples",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let num_x = scale.pick(128, 512, 2048) as u32;
        let num_k = scale.pick(32, 64, 256) as u32;
        let mut rng = SeededRng::seed_from_u64(self.seed);
        let r = |rng: &mut SeededRng| rng.gen_range(-1.0f32..1.0);
        let kx: Vec<f32> = (0..num_k).map(|_| r(&mut rng)).collect();
        let ky: Vec<f32> = (0..num_k).map(|_| r(&mut rng)).collect();
        let kz: Vec<f32> = (0..num_k).map(|_| r(&mut rng)).collect();
        let phi_r: Vec<f32> = (0..num_k).map(|_| r(&mut rng)).collect();
        let phi_i: Vec<f32> = (0..num_k).map(|_| r(&mut rng)).collect();
        let x: Vec<f32> = (0..num_x).map(|_| r(&mut rng)).collect();
        let y: Vec<f32> = (0..num_x).map(|_| r(&mut rng)).collect();
        let z: Vec<f32> = (0..num_x).map(|_| r(&mut rng)).collect();

        let hkx = device.alloc_const_f32(&kx);
        let hky = device.alloc_const_f32(&ky);
        let hkz = device.alloc_const_f32(&kz);
        let hphir = device.alloc_f32(&phi_r);
        let hphii = device.alloc_f32(&phi_i);
        let hphimag = device.alloc_zeroed_f32(num_k as usize);
        let hx = device.alloc_f32(&x);
        let hy = device.alloc_f32(&y);
        let hz = device.alloc_f32(&z);
        let hqr = device.alloc_zeroed_f32(num_x as usize);
        let hqi = device.alloc_zeroed_f32(num_x as usize);
        self.qr = Some(hqr);
        self.qi = Some(hqi);
        self.phi_mag = Some(hphimag);
        self.k = [kx, ky, kz, phi_r, phi_i];
        self.pos = [x, y, z];

        // --- compute_phi_mag --------------------------------------------------
        let mut b = KernelBuilder::new("compute_phi_mag");
        let pr = b.param_u32("phi_r");
        let pi = b.param_u32("phi_i");
        let pm = b.param_u32("phi_mag");
        let pn = b.param_u32("n");
        let i = b.global_tid_x();
        let in_range = b.lt_u32(i, pn);
        b.if_(in_range, |b| {
            let ra = b.index(pr, i, 4);
            let rv = b.ld_global_f32(ra);
            let ia = b.index(pi, i, 4);
            let iv = b.ld_global_f32(ia);
            let rr = b.mul_f32(rv, rv);
            let mag = b.mad_f32(iv, iv, rr);
            let ma = b.index(pm, i, 4);
            b.st_global_f32(ma, mag);
        });
        let phi_kernel = b.build()?;

        // --- compute_q ---------------------------------------------------------
        let mut b = KernelBuilder::new("compute_q");
        let pkx = b.param_u32("kx");
        let pky = b.param_u32("ky");
        let pkz = b.param_u32("kz");
        let pmag = b.param_u32("phi_mag");
        let px = b.param_u32("x");
        let py = b.param_u32("y");
        let pz = b.param_u32("z");
        let pqr = b.param_u32("qr");
        let pqi = b.param_u32("qi");
        let pk = b.param_u32("num_k");
        let i = b.global_tid_x();
        let xa = b.index(px, i, 4);
        let xv = b.ld_global_f32(xa);
        let ya = b.index(py, i, 4);
        let yv = b.ld_global_f32(ya);
        let za = b.index(pz, i, 4);
        let zv = b.ld_global_f32(za);
        let qr = b.var_f32(Value::F32(0.0));
        let qi = b.var_f32(Value::F32(0.0));
        b.for_range_u32(Value::U32(0), pk, 1, |b, k| {
            let ka = b.index(pkx, k, 4);
            let kxv = b.ld_const_f32(ka);
            let ka = b.index(pky, k, 4);
            let kyv = b.ld_const_f32(ka);
            let ka = b.index(pkz, k, 4);
            let kzv = b.ld_const_f32(ka);
            let t1 = b.mul_f32(kxv, xv);
            let t2 = b.mad_f32(kyv, yv, t1);
            let dot = b.mad_f32(kzv, zv, t2);
            let arg = b.mul_f32(dot, Value::F32(2.0 * std::f32::consts::PI));
            let c = b.cos_f32(arg);
            let s = b.sin_f32(arg);
            let ma = b.index(pmag, k, 4);
            let mag = b.ld_global_f32(ma);
            let nqr = b.mad_f32(mag, c, qr);
            b.assign(qr, nqr);
            let nqi = b.mad_f32(mag, s, qi);
            b.assign(qi, nqi);
        });
        let qra = b.index(pqr, i, 4);
        b.st_global_f32(qra, qr);
        let qia = b.index(pqi, i, 4);
        b.st_global_f32(qia, qi);
        let q_kernel = b.build()?;

        Ok(vec![
            LaunchSpec {
                label: "compute_phi_mag".into(),
                kernel: phi_kernel,
                config: LaunchConfig::linear(num_k, 128),
                args: vec![hphir.arg(), hphii.arg(), hphimag.arg(), Value::U32(num_k)],
            },
            LaunchSpec {
                label: "compute_q".into(),
                kernel: q_kernel,
                config: LaunchConfig::linear(num_x, 128),
                args: vec![
                    hkx.arg(),
                    hky.arg(),
                    hkz.arg(),
                    hphimag.arg(),
                    hx.arg(),
                    hy.arg(),
                    hz.arg(),
                    hqr.arg(),
                    hqi.arg(),
                    Value::U32(num_k),
                ],
            },
        ])
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let [kx, ky, kz, phi_r, phi_i] = &self.k;
        let [x, y, z] = &self.pos;
        let expected_phi: Vec<f32> = phi_r
            .iter()
            .zip(phi_i)
            .map(|(a, b)| a * a + b * b)
            .collect();
        let mut expected_qr = vec![0.0f32; x.len()];
        let mut expected_qi = vec![0.0f32; x.len()];
        for i in 0..x.len() {
            for k in 0..kx.len() {
                let arg = 2.0 * std::f32::consts::PI * (kx[k] * x[i] + ky[k] * y[i] + kz[k] * z[i]);
                expected_qr[i] += expected_phi[k] * arg.cos();
                expected_qi[i] += expected_phi[k] * arg.sin();
            }
        }
        let phi = device.read_f32(self.phi_mag.as_ref().expect("setup"));
        check_f32("phi_mag", &phi, &expected_phi, 1e-4)?;
        let qr = device.read_f32(self.qr.as_ref().expect("setup"));
        check_f32("qr", &qr, &expected_qr, 5e-2)?;
        let qi = device.read_f32(self.qi.as_ref().expect("setup"));
        check_f32("qi", &qi, &expected_qi, 5e-2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut MriQ::new(13), Scale::Tiny).unwrap();
    }
}
