//! `sad` — sum of absolute differences for motion estimation (Parboil).
//!
//! Each thread evaluates a 4×4 block at its position against nine search
//! displacements in the reference frame, keeping the best. Integer-heavy,
//! partially coalesced (row-wise neighbouring loads), with boundary guards
//! that diverge at frame edges.

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{check_u32, LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

const BLOCK_PIX: i32 = 4;
const SEARCH: [(i32, i32); 9] = [
    (-1, -1),
    (0, -1),
    (1, -1),
    (-1, 0),
    (0, 0),
    (1, 0),
    (-1, 1),
    (0, 1),
    (1, 1),
];

/// See the [module docs](self).
#[derive(Debug)]
pub struct Sad {
    seed: u64,
    best: Option<BufferHandle>,
    /// Frame width and height in pixels (frames are square).
    w: i32,
    cur: Vec<u32>,
    rf: Vec<u32>,
}

impl Sad {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            best: None,
            w: 0,
            cur: Vec::new(),
            rf: Vec::new(),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn cpu_sad(cur: &[u32], rf: &[u32], w: i32, h: i32, bx: i32, by: i32, dx: i32, dy: i32) -> u32 {
    let mut acc = 0u32;
    for py in 0..BLOCK_PIX {
        for px in 0..BLOCK_PIX {
            let cx = bx * BLOCK_PIX + px;
            let cy = by * BLOCK_PIX + py;
            let rx = (cx + dx).clamp(0, w - 1);
            let ry = (cy + dy).clamp(0, h - 1);
            let c = cur[(cy * w + cx) as usize];
            let r = rf[(ry * w + rx) as usize];
            acc += c.abs_diff(r);
        }
    }
    acc
}

impl Workload for Sad {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "sad",
            suite: Suite::Parboil,
            description: "4x4-block sum of absolute differences over a 9-point motion search",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let w = scale.pick(32, 64, 128) as i32;
        let h = w;
        let bw = w / BLOCK_PIX;
        let bh = h / BLOCK_PIX;
        let mut rng = SeededRng::seed_from_u64(self.seed);
        let cur: Vec<u32> = (0..w * h).map(|_| rng.gen_range(0..256)).collect();
        let rf: Vec<u32> = (0..w * h).map(|_| rng.gen_range(0..256)).collect();

        let hcur = device.alloc_u32(&cur);
        let href = device.alloc_u32(&rf);
        let hbest = device.alloc_zeroed_u32((bw * bh) as usize);
        self.best = Some(hbest);
        self.w = w;
        self.cur = cur;
        self.rf = rf;

        let mut b = KernelBuilder::new("sad_search");
        let pcur = b.param_u32("cur");
        let pref = b.param_u32("ref");
        let pbest = b.param_u32("best");
        let pw = b.param_u32("w");
        let ph = b.param_u32("h");
        let pbw = b.param_u32("bw");
        let bx = b.global_tid_x();
        let by = b.global_tid_y();

        let w_m1 = b.sub_u32(pw, Value::U32(1));
        let h_m1 = b.sub_u32(ph, Value::U32(1));
        let w_m1i = b.to_i32(w_m1);
        let h_m1i = b.to_i32(h_m1);
        let best = b.var_u32(Value::U32(u32::MAX));
        for (dx, dy) in SEARCH {
            let acc = b.var_u32(Value::U32(0));
            b.for_range_u32(Value::U32(0), Value::U32(BLOCK_PIX as u32), 1, |b, py| {
                b.for_range_u32(Value::U32(0), Value::U32(BLOCK_PIX as u32), 1, |b, px| {
                    let cx = b.mad_u32(bx, Value::U32(BLOCK_PIX as u32), px);
                    let cy = b.mad_u32(by, Value::U32(BLOCK_PIX as u32), py);
                    let cxi = b.to_i32(cx);
                    let cyi = b.to_i32(cy);
                    let rx0 = b.add_i32(cxi, Value::I32(dx));
                    let rx1 = b.max_i32(rx0, Value::I32(0));
                    let rxi = b.min_i32(rx1, w_m1i);
                    let ry0 = b.add_i32(cyi, Value::I32(dy));
                    let ry1 = b.max_i32(ry0, Value::I32(0));
                    let ryi = b.min_i32(ry1, h_m1i);
                    let rx = b.to_u32(rxi);
                    let ry = b.to_u32(ryi);
                    let cidx = b.mad_u32(cy, pw, cx);
                    let ca = b.index(pcur, cidx, 4);
                    let cv = b.ld_global_u32(ca);
                    let ridx = b.mad_u32(ry, pw, rx);
                    let ra = b.index(pref, ridx, 4);
                    let rv = b.ld_global_u32(ra);
                    // |c - r| on u32 via min/max.
                    let hi = b.max_u32(cv, rv);
                    let lo = b.min_u32(cv, rv);
                    let d = b.sub_u32(hi, lo);
                    let next = b.add_u32(acc, d);
                    b.assign(acc, next);
                });
            });
            let smaller = b.lt_u32(acc, best);
            let nb = b.sel_u32(smaller, acc, best);
            b.assign(best, nb);
        }
        let idx = b.mad_u32(by, pbw, bx);
        let oa = b.index(pbest, idx, 4);
        b.st_global_u32(oa, best);
        let kernel = b.build()?;

        Ok(vec![LaunchSpec {
            label: "sad_search".into(),
            kernel,
            config: LaunchConfig::new_2d(bw as u32 / 8, bh as u32 / 8, 8, 8),
            args: vec![
                hcur.arg(),
                href.arg(),
                hbest.arg(),
                Value::U32(w as u32),
                Value::U32(h as u32),
                Value::U32(bw as u32),
            ],
        }])
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let (w, h) = (self.w, self.w);
        let (bw, bh) = (w / BLOCK_PIX, h / BLOCK_PIX);
        let mut expected = vec![0u32; (bw * bh) as usize];
        for by in 0..bh {
            for bx in 0..bw {
                let best = SEARCH
                    .iter()
                    .map(|&(dx, dy)| cpu_sad(&self.cur, &self.rf, w, h, bx, by, dx, dy))
                    .min()
                    .expect("nonempty search");
                expected[(by * bw + bx) as usize] = best;
            }
        }
        let got = device.read_u32(self.best.as_ref().expect("setup"));
        check_u32("sad", &got, &expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut Sad::new(15), Scale::Tiny).unwrap();
    }

    #[test]
    fn cpu_sad_zero_for_identical_frames() {
        let img: Vec<u32> = (0..64).collect();
        assert_eq!(cpu_sad(&img, &img, 8, 8, 1, 1, 0, 0), 0);
    }
}
