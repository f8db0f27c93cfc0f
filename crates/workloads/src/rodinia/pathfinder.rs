//! `pathfinder` — dynamic-programming grid traversal (Rodinia).
//!
//! Row-by-row DP: `dst[x] = data[row][x] + min(src[x-1], src[x], src[x+1])`,
//! one kernel launch per row with ping-pong cost buffers. Near-neighbour
//! reads keep accesses well coalesced; the edge clamps diverge the first
//! and last warps.

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{check_u32, LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

/// See the [module docs](self).
#[derive(Debug)]
pub struct PathFinder {
    seed: u64,
    result: Option<BufferHandle>,
    cols: usize,
    /// Row-major cost grid, `cols` per row.
    data: Vec<u32>,
}

impl PathFinder {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            result: None,
            cols: 0,
            data: Vec::new(),
        }
    }
}

impl Workload for PathFinder {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "pathfinder",
            suite: Suite::Rodinia,
            description: "row-wise dynamic programming with three-way min recurrence",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let cols = scale.pick(256, 1024, 4096);
        let rows = scale.pick(8, 16, 64);
        let mut rng = SeededRng::seed_from_u64(self.seed);
        let data: Vec<u32> = (0..rows * cols).map(|_| rng.gen_range(0..10)).collect();

        let hdata = device.alloc_u32(&data);
        let ha = device.alloc_u32(&data[..cols]);
        let hb = device.alloc_zeroed_u32(cols);
        // Rows - 1 DP steps: result lands in ha when steps is even.
        let steps = rows - 1;
        self.result = Some(if steps.is_multiple_of(2) { ha } else { hb });
        self.cols = cols;
        self.data = data;

        let mut b = KernelBuilder::new("pathfinder_row");
        let pdata = b.param_u32("data");
        let psrc = b.param_u32("src");
        let pdst = b.param_u32("dst");
        let pcols = b.param_u32("cols");
        let prow = b.param_u32("row");
        let x = b.global_tid_x();
        let in_range = b.lt_u32(x, pcols);
        b.if_(in_range, |b| {
            let ca = b.index(psrc, x, 4);
            let center = b.ld_global_u32(ca);
            let best = b.var_u32(center);
            let has_left = b.gt_u32(x, Value::U32(0));
            b.if_(has_left, |b| {
                let la = b.offset(ca.base, -4);
                let left = b.ld_global_u32(la);
                let m = b.min_u32(best, left);
                b.assign(best, m);
            });
            let x1 = b.add_u32(x, Value::U32(1));
            let has_right = b.lt_u32(x1, pcols);
            b.if_(has_right, |b| {
                let ra = b.offset(ca.base, 4);
                let right = b.ld_global_u32(ra);
                let m = b.min_u32(best, right);
                b.assign(best, m);
            });
            let didx = b.mad_u32(prow, pcols, x);
            let da = b.index(pdata, didx, 4);
            let dv = b.ld_global_u32(da);
            let sum = b.add_u32(dv, best);
            let oa = b.index(pdst, x, 4);
            b.st_global_u32(oa, sum);
        });
        let kernel = b.build()?;

        let cfg = LaunchConfig::linear(cols as u32, 256);
        let mut launches = Vec::new();
        for r in 1..rows {
            let step = r - 1;
            let (src, dst) = if step % 2 == 0 { (ha, hb) } else { (hb, ha) };
            launches.push(LaunchSpec {
                label: "pathfinder_row".into(),
                kernel: kernel.clone(),
                config: cfg,
                args: vec![
                    hdata.arg(),
                    src.arg(),
                    dst.arg(),
                    Value::U32(cols as u32),
                    Value::U32(r as u32),
                ],
            });
        }
        Ok(launches)
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let (cols, data) = (self.cols, &self.data);
        let mut cur: Vec<u32> = data[..cols].to_vec();
        for r in 1..data.len() / cols {
            let mut next = vec![0u32; cols];
            for x in 0..cols {
                let lo = if x > 0 { cur[x - 1] } else { u32::MAX };
                let hi = if x + 1 < cols { cur[x + 1] } else { u32::MAX };
                next[x] = data[r * cols + x] + cur[x].min(lo).min(hi);
            }
            cur = next;
        }
        let got = device.read_u32(self.result.as_ref().expect("setup"));
        check_u32("pathfinder", &got, &cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut PathFinder::new(26), Scale::Tiny).unwrap();
    }
}
