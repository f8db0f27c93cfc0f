//! `stencil` — iterative 5-point Jacobi stencil (Parboil).
//!
//! Ping-pong buffers over several sweeps; interior threads stream
//! neighbours (mostly coalesced with one-row strides), boundary threads
//! simply copy — a mild but persistent source of divergence at tile edges.

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{check_f32, LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

const ITERS: usize = 4;

/// See the [module docs](self).
#[derive(Debug)]
pub struct Stencil {
    seed: u64,
    result: Option<BufferHandle>,
    /// Grid width and height (the grid is square).
    w: usize,
    input: Vec<f32>,
}

impl Stencil {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            result: None,
            w: 0,
            input: Vec::new(),
        }
    }
}

fn cpu_sweep(src: &[f32], w: usize, h: usize) -> Vec<f32> {
    let mut dst = src.to_vec();
    for y in 1..h - 1 {
        for x in 1..w - 1 {
            dst[y * w + x] = 0.2
                * (src[y * w + x]
                    + src[y * w + x - 1]
                    + src[y * w + x + 1]
                    + src[(y - 1) * w + x]
                    + src[(y + 1) * w + x]);
        }
    }
    dst
}

impl Workload for Stencil {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "stencil",
            suite: Suite::Parboil,
            description: "iterative 5-point Jacobi stencil with ping-pong buffers",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let w = scale.pick(32, 64, 128) as u32;
        let h = w;
        let mut rng = SeededRng::seed_from_u64(self.seed);
        let input: Vec<f32> = (0..w * h).map(|_| rng.gen_range(0.0..10.0)).collect();

        let ha = device.alloc_f32(&input);
        let hb = device.alloc_f32(&input);
        self.result = Some(if ITERS.is_multiple_of(2) { ha } else { hb });
        self.w = w as usize;
        self.input = input;

        let mut b = KernelBuilder::new("stencil_sweep");
        let psrc = b.param_u32("src");
        let pdst = b.param_u32("dst");
        let pw = b.param_u32("w");
        let ph = b.param_u32("h");
        let x = b.global_tid_x();
        let y = b.global_tid_y();
        let idx = b.mad_u32(y, pw, x);
        let sa = b.index(psrc, idx, 4);
        let center = b.ld_global_f32(sa);
        let w_m1 = b.sub_u32(pw, Value::U32(1));
        let h_m1 = b.sub_u32(ph, Value::U32(1));
        let x_ok_lo = b.gt_u32(x, Value::U32(0));
        let x_ok_hi = b.lt_u32(x, w_m1);
        let y_ok_lo = b.gt_u32(y, Value::U32(0));
        let y_ok_hi = b.lt_u32(y, h_m1);
        let x_ok = b.and_pred(x_ok_lo, x_ok_hi);
        let y_ok = b.and_pred(y_ok_lo, y_ok_hi);
        let interior = b.and_pred(x_ok, y_ok);
        let result = b.var_f32(center);
        b.if_(interior, |b| {
            let la = b.offset(sa.base, -4);
            let left = b.ld_global_f32(la);
            let ra = b.offset(sa.base, 4);
            let right = b.ld_global_f32(ra);
            let up_idx = b.sub_u32(idx, pw);
            let ua = b.index(psrc, up_idx, 4);
            let up = b.ld_global_f32(ua);
            let dn_idx = b.add_u32(idx, pw);
            let da = b.index(psrc, dn_idx, 4);
            let down = b.ld_global_f32(da);
            let s1 = b.add_f32(center, left);
            let s2 = b.add_f32(s1, right);
            let s3 = b.add_f32(s2, up);
            let s4 = b.add_f32(s3, down);
            let avg = b.mul_f32(s4, Value::F32(0.2));
            b.assign(result, avg);
        });
        let da = b.index(pdst, idx, 4);
        b.st_global_f32(da, result);
        let kernel = b.build()?;

        let grid = LaunchConfig::new_2d(w / 16, h / 16, 16, 16);
        let mut launches = Vec::new();
        for it in 0..ITERS {
            let (src, dst) = if it % 2 == 0 { (ha, hb) } else { (hb, ha) };
            launches.push(LaunchSpec {
                label: "stencil_sweep".into(),
                kernel: kernel.clone(),
                config: grid,
                args: vec![src.arg(), dst.arg(), Value::U32(w), Value::U32(h)],
            });
        }
        Ok(launches)
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let mut expected = self.input.clone();
        for _ in 0..ITERS {
            expected = cpu_sweep(&expected, self.w, self.w);
        }
        let got = device.read_f32(self.result.as_ref().expect("setup"));
        check_f32("stencil", &got, &expected, 1e-4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut Stencil::new(17), Scale::Tiny).unwrap();
    }

    #[test]
    fn cpu_sweep_preserves_boundary() {
        // Squares are not harmonic, so interior cells must change.
        let img: Vec<f32> = (0..16).map(|i| (i * i) as f32).collect();
        let out = cpu_sweep(&img, 4, 4);
        assert_eq!(out[0], img[0]);
        assert_eq!(out[3], img[3]);
        assert_ne!(out[5], img[5]);
    }
}
