//! `convolutionSeparable` — separable 2-D convolution (CUDA SDK).
//!
//! Row and column passes with a radius-4 filter held in constant memory.
//! The row pass reads mostly within a warp's segment; the column pass
//! strides by the image width, giving the two kernels distinct coalescing
//! profiles — exactly the kind of intra-workload diversity the study looks
//! for.

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{check_f32, LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

const RADIUS: i32 = 4;

/// See the [module docs](self).
#[derive(Debug)]
pub struct ConvolutionSeparable {
    seed: u64,
    out: Option<BufferHandle>,
    /// Image width and height (the image is square).
    w: usize,
    input: Vec<f32>,
    filter: Vec<f32>,
}

impl ConvolutionSeparable {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            out: None,
            w: 0,
            input: Vec::new(),
            filter: Vec::new(),
        }
    }
}

fn cpu_pass(input: &[f32], w: usize, h: usize, filter: &[f32], rows: bool) -> Vec<f32> {
    let mut out = vec![0.0f32; w * h];
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0;
            for (fi, &fv) in filter.iter().enumerate() {
                let off = fi as i32 - RADIUS;
                let (sx, sy) = if rows {
                    ((x as i32 + off).clamp(0, w as i32 - 1), y as i32)
                } else {
                    (x as i32, (y as i32 + off).clamp(0, h as i32 - 1))
                };
                acc += fv * input[sy as usize * w + sx as usize];
            }
            out[y * w + x] = acc;
        }
    }
    out
}

/// Builds one convolution pass kernel (`rows` or `cols`).
fn pass_kernel(name: &str, rows: bool) -> Result<gwc_simt::kernel::Kernel, SimtError> {
    let mut b = KernelBuilder::new(name);
    let pin = b.param_u32("in");
    let pout = b.param_u32("out");
    let pfilter = b.param_u32("filter"); // const memory
    let pw = b.param_u32("w");
    let ph = b.param_u32("h");
    let x = b.global_tid_x();
    let y = b.global_tid_y();

    let acc = b.var_f32(Value::F32(0.0));
    let w_minus1 = b.sub_u32(pw, Value::U32(1));
    let h_minus1 = b.sub_u32(ph, Value::U32(1));
    b.for_range_u32(
        Value::U32(0),
        Value::U32(2 * RADIUS as u32 + 1),
        1,
        |b, f| {
            // off = f - RADIUS, computed in i32 then clamped in u32 space by
            // min/max against the borders.
            let xi = b.to_i32(x);
            let yi = b.to_i32(y);
            let fi = b.to_i32(f);
            let off = b.add_i32(fi, Value::I32(-RADIUS));
            let (sx, sy) = if rows {
                let s = b.add_i32(xi, off);
                let clamped = b.max_i32(s, Value::I32(0));
                let sxu = b.to_u32(clamped);
                (b.min_u32(sxu, w_minus1), b.to_u32(yi))
            } else {
                let s = b.add_i32(yi, off);
                let clamped = b.max_i32(s, Value::I32(0));
                let syu = b.to_u32(clamped);
                (b.to_u32(xi), b.min_u32(syu, h_minus1))
            };
            let idx = b.mad_u32(sy, pw, sx);
            let ia = b.index(pin, idx, 4);
            let v = b.ld_global_f32(ia);
            let fa = b.index(pfilter, f, 4);
            let fv = b.ld_const_f32(fa);
            let next = b.mad_f32(v, fv, acc);
            b.assign(acc, next);
        },
    );
    let idx = b.mad_u32(y, pw, x);
    let oa = b.index(pout, idx, 4);
    b.st_global_f32(oa, acc);
    b.build()
}

impl Workload for ConvolutionSeparable {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "convolution_separable",
            suite: Suite::CudaSdk,
            description:
                "separable 2-D convolution; row and column passes with a const-memory filter",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let w = scale.pick(32, 64, 128) as u32;
        let h = w;
        let mut rng = SeededRng::seed_from_u64(self.seed);
        let input: Vec<f32> = (0..w * h).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let filter: Vec<f32> = (0..2 * RADIUS + 1)
            .map(|i| 1.0 / (1.0 + (i - RADIUS).abs() as f32))
            .collect();

        let hin = device.alloc_f32(&input);
        let htmp = device.alloc_zeroed_f32((w * h) as usize);
        let hout = device.alloc_zeroed_f32((w * h) as usize);
        let hfilter = device.alloc_const_f32(&filter);
        self.out = Some(hout);
        self.w = w as usize;
        self.input = input;
        self.filter = filter;

        let rows = pass_kernel("convolution_rows", true)?;
        let cols = pass_kernel("convolution_cols", false)?;
        let grid = LaunchConfig::new_2d(w / 16, h / 16, 16, 16);
        Ok(vec![
            LaunchSpec {
                label: "convolution_rows".into(),
                kernel: rows,
                config: grid,
                args: vec![
                    hin.arg(),
                    htmp.arg(),
                    hfilter.arg(),
                    Value::U32(w),
                    Value::U32(h),
                ],
            },
            LaunchSpec {
                label: "convolution_cols".into(),
                kernel: cols,
                config: grid,
                args: vec![
                    htmp.arg(),
                    hout.arg(),
                    hfilter.arg(),
                    Value::U32(w),
                    Value::U32(h),
                ],
            },
        ])
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let (w, filter) = (self.w, &self.filter);
        let tmp = cpu_pass(&self.input, w, w, filter, true);
        let expected = cpu_pass(&tmp, w, w, filter, false);
        let out = device.read_f32(self.out.as_ref().expect("setup"));
        check_f32("convolution", &out, &expected, 1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut ConvolutionSeparable::new(11), Scale::Tiny).unwrap();
    }

    #[test]
    fn cpu_pass_identity_filter() {
        let mut filter = vec![0.0; 9];
        filter[RADIUS as usize] = 1.0;
        let img = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(cpu_pass(&img, 2, 2, &filter, true), img);
        assert_eq!(cpu_pass(&img, 2, 2, &filter, false), img);
    }
}
