//! `srad` — speckle-reducing anisotropic diffusion (Rodinia).
//!
//! Two kernels per iteration, as in the original: `srad1` computes the
//! local gradients and the diffusion coefficient (divisions, a `sqrt`-free
//! rational expression and clamping branches); `srad2` applies the
//! divergence update using the coefficients of the east/south neighbours.

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{check_f32, LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

const LAMBDA: f32 = 0.05;
const Q0_SQR: f32 = 0.05;

/// See the [module docs](self).
#[derive(Debug)]
pub struct Srad {
    seed: u64,
    image: Option<BufferHandle>,
    /// Image width and height (the image is square).
    w: usize,
    img: Vec<f32>,
}

impl Srad {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            image: None,
            w: 0,
            img: Vec::new(),
        }
    }
}

/// CPU reference for one SRAD iteration, mirroring the kernel arithmetic
/// (one-rounding MAD use kept consistent where it affects tolerances).
fn cpu_iter(img: &[f32], w: usize, h: usize) -> Vec<f32> {
    let idx = |x: i32, y: i32| -> usize {
        let xc = x.clamp(0, w as i32 - 1) as usize;
        let yc = y.clamp(0, h as i32 - 1) as usize;
        yc * w + xc
    };
    let mut c = vec![0.0f32; w * h];
    let mut dn = vec![0.0f32; w * h];
    let mut ds = vec![0.0f32; w * h];
    let mut de = vec![0.0f32; w * h];
    let mut dw_ = vec![0.0f32; w * h];
    for y in 0..h as i32 {
        for x in 0..w as i32 {
            let i = idx(x, y);
            let jc = img[i];
            let n = img[idx(x, y - 1)] - jc;
            let s = img[idx(x, y + 1)] - jc;
            let e = img[idx(x + 1, y)] - jc;
            let wv = img[idx(x - 1, y)] - jc;
            dn[i] = n;
            ds[i] = s;
            de[i] = e;
            dw_[i] = wv;
            let g2 = (n * n + s * s + e * e + wv * wv) / (jc * jc);
            let l = (n + s + e + wv) / jc;
            let num = 0.5 * g2 - 0.0625 * (l * l);
            let den = 1.0 + 0.25 * l;
            let qsqr = num / (den * den);
            let coef = 1.0 / (1.0 + (qsqr - Q0_SQR) / (Q0_SQR * (1.0 + Q0_SQR)));
            c[i] = coef.clamp(0.0, 1.0);
        }
    }
    let mut out = img.to_vec();
    for y in 0..h as i32 {
        for x in 0..w as i32 {
            let i = idx(x, y);
            let c_c = c[i];
            let c_s = c[idx(x, y + 1)];
            let c_e = c[idx(x + 1, y)];
            let d = c_c * dn[i] + c_s * ds[i] + c_e * de[i] + c_c * dw_[i];
            out[i] = img[i] + 0.25 * LAMBDA * d;
        }
    }
    out
}

impl Workload for Srad {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "srad",
            suite: Suite::Rodinia,
            description:
                "speckle-reducing anisotropic diffusion; gradient/coefficient and update kernels",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let w = scale.pick(32, 64, 128) as u32;
        let h = w;
        let mut rng = SeededRng::seed_from_u64(self.seed);
        let img: Vec<f32> = (0..w * h).map(|_| rng.gen_range(0.5..2.0)).collect();

        let himg = device.alloc_f32(&img);
        let hc = device.alloc_zeroed_f32((w * h) as usize);
        let hdn = device.alloc_zeroed_f32((w * h) as usize);
        let hds = device.alloc_zeroed_f32((w * h) as usize);
        let hde = device.alloc_zeroed_f32((w * h) as usize);
        let hdw = device.alloc_zeroed_f32((w * h) as usize);
        self.image = Some(himg);
        self.w = w as usize;
        self.img = img;

        // --- srad1: gradients + coefficient -----------------------------------
        let mut b = KernelBuilder::new("srad1");
        let pimg = b.param_u32("img");
        let pc = b.param_u32("c");
        let pdn = b.param_u32("dn");
        let pds = b.param_u32("ds");
        let pde = b.param_u32("de");
        let pdw = b.param_u32("dw");
        let pw = b.param_u32("w");
        let ph = b.param_u32("h");
        let x = b.global_tid_x();
        let y = b.global_tid_y();
        let w_m1 = b.sub_u32(pw, Value::U32(1));
        let h_m1 = b.sub_u32(ph, Value::U32(1));
        let x_p1 = b.add_u32(x, Value::U32(1));
        let x_e = b.min_u32(x_p1, w_m1);
        let x1 = b.max_u32(x, Value::U32(1));
        let x_w = b.sub_u32(x1, Value::U32(1));
        let y_p1 = b.add_u32(y, Value::U32(1));
        let y_s = b.min_u32(y_p1, h_m1);
        let y1 = b.max_u32(y, Value::U32(1));
        let y_n = b.sub_u32(y1, Value::U32(1));

        let i = b.mad_u32(y, pw, x);
        let ca = b.index(pimg, i, 4);
        let jc = b.ld_global_f32(ca);
        let ni = b.mad_u32(y_n, pw, x);
        let na = b.index(pimg, ni, 4);
        let jn = b.ld_global_f32(na);
        let si = b.mad_u32(y_s, pw, x);
        let sa2 = b.index(pimg, si, 4);
        let js = b.ld_global_f32(sa2);
        let ei = b.mad_u32(y, pw, x_e);
        let ea = b.index(pimg, ei, 4);
        let je = b.ld_global_f32(ea);
        let wi = b.mad_u32(y, pw, x_w);
        let wa = b.index(pimg, wi, 4);
        let jw = b.ld_global_f32(wa);

        let n = b.sub_f32(jn, jc);
        let s = b.sub_f32(js, jc);
        let e = b.sub_f32(je, jc);
        let wv = b.sub_f32(jw, jc);
        for (buf, v) in [(pdn, n), (pds, s), (pde, e), (pdw, wv)] {
            let a = b.index(buf, i, 4);
            b.st_global_f32(a, v);
        }
        let n2 = b.mul_f32(n, n);
        let s2 = b.mad_f32(s, s, n2);
        let e2 = b.mad_f32(e, e, s2);
        let sum2 = b.mad_f32(wv, wv, e2);
        let jc2 = b.mul_f32(jc, jc);
        let g2 = b.div_f32(sum2, jc2);
        let l1 = b.add_f32(n, s);
        let l2 = b.add_f32(l1, e);
        let lsum = b.add_f32(l2, wv);
        let l = b.div_f32(lsum, jc);
        let half_g2 = b.mul_f32(g2, Value::F32(0.5));
        let l_sq = b.mul_f32(l, l);
        let num = b.mad_f32(l_sq, Value::F32(-0.0625), half_g2);
        let den = b.mad_f32(l, Value::F32(0.25), Value::F32(1.0));
        let den2 = b.mul_f32(den, den);
        let qsqr = b.div_f32(num, den2);
        let dq = b.sub_f32(qsqr, Value::F32(Q0_SQR));
        let scaled = b.mul_f32(dq, Value::F32(1.0 / (Q0_SQR * (1.0 + Q0_SQR))));
        let denom = b.add_f32(scaled, Value::F32(1.0));
        let coef = b.recip_f32(denom);
        let clamped_lo = b.max_f32(coef, Value::F32(0.0));
        let clamped = b.min_f32(clamped_lo, Value::F32(1.0));
        let oa = b.index(pc, i, 4);
        b.st_global_f32(oa, clamped);
        let srad1 = b.build()?;

        // --- srad2: divergence update ------------------------------------------
        let mut b = KernelBuilder::new("srad2");
        let pimg = b.param_u32("img");
        let pc = b.param_u32("c");
        let pdn = b.param_u32("dn");
        let pds = b.param_u32("ds");
        let pde = b.param_u32("de");
        let pdw = b.param_u32("dw");
        let pw = b.param_u32("w");
        let ph = b.param_u32("h");
        let x = b.global_tid_x();
        let y = b.global_tid_y();
        let w_m1 = b.sub_u32(pw, Value::U32(1));
        let h_m1 = b.sub_u32(ph, Value::U32(1));
        let x_p1 = b.add_u32(x, Value::U32(1));
        let x_e = b.min_u32(x_p1, w_m1);
        let y_p1 = b.add_u32(y, Value::U32(1));
        let y_s = b.min_u32(y_p1, h_m1);
        let i = b.mad_u32(y, pw, x);
        let cca = b.index(pc, i, 4);
        let c_c = b.ld_global_f32(cca);
        let sidx = b.mad_u32(y_s, pw, x);
        let csa = b.index(pc, sidx, 4);
        let c_s = b.ld_global_f32(csa);
        let eidx = b.mad_u32(y, pw, x_e);
        let cea = b.index(pc, eidx, 4);
        let c_e = b.ld_global_f32(cea);
        let dna = b.index(pdn, i, 4);
        let dnv = b.ld_global_f32(dna);
        let dsa = b.index(pds, i, 4);
        let dsv = b.ld_global_f32(dsa);
        let dea = b.index(pde, i, 4);
        let dev = b.ld_global_f32(dea);
        let dwa = b.index(pdw, i, 4);
        let dwv = b.ld_global_f32(dwa);
        let t1 = b.mul_f32(c_c, dnv);
        let t2 = b.mad_f32(c_s, dsv, t1);
        let t3 = b.mad_f32(c_e, dev, t2);
        let d = b.mad_f32(c_c, dwv, t3);
        let ia = b.index(pimg, i, 4);
        let cur = b.ld_global_f32(ia);
        let upd = b.mad_f32(d, Value::F32(0.25 * LAMBDA), cur);
        b.st_global_f32(ia, upd);
        let srad2 = b.build()?;

        let grid = LaunchConfig::new_2d(w / 16, h / 16, 16, 16);
        Ok(vec![
            LaunchSpec {
                label: "srad1".into(),
                kernel: srad1,
                config: grid,
                args: vec![
                    himg.arg(),
                    hc.arg(),
                    hdn.arg(),
                    hds.arg(),
                    hde.arg(),
                    hdw.arg(),
                    Value::U32(w),
                    Value::U32(h),
                ],
            },
            LaunchSpec {
                label: "srad2".into(),
                kernel: srad2,
                config: grid,
                args: vec![
                    himg.arg(),
                    hc.arg(),
                    hdn.arg(),
                    hds.arg(),
                    hde.arg(),
                    hdw.arg(),
                    Value::U32(w),
                    Value::U32(h),
                ],
            },
        ])
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let expected = cpu_iter(&self.img, self.w, self.w);
        let got = device.read_f32(self.image.as_ref().expect("setup"));
        check_f32("srad", &got, &expected, 1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut Srad::new(23), Scale::Tiny).unwrap();
    }

    #[test]
    fn cpu_iter_uniform_image_is_fixed_point() {
        let img = vec![1.0f32; 64];
        let out = cpu_iter(&img, 8, 8);
        for v in out {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }
}
