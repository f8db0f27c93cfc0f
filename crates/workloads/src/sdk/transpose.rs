//! `transpose` — matrix transpose, naive and tiled (CUDA SDK).
//!
//! The two kernels bracket the coalescing spectrum: the naive version
//! reads coalesced but writes with a large stride (one segment per lane);
//! the tiled version stages a 16×16 tile through shared memory (padded to
//! 17 columns to dodge bank conflicts) so both global accesses coalesce.

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{check_f32, LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

const TILE: u32 = 16;

/// See the [module docs](self).
#[derive(Debug)]
pub struct Transpose {
    seed: u64,
    out_naive: Option<BufferHandle>,
    out_tiled: Option<BufferHandle>,
    /// Side length of the square matrix.
    n: usize,
    input: Vec<f32>,
}

impl Transpose {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            out_naive: None,
            out_tiled: None,
            n: 0,
            input: Vec::new(),
        }
    }
}

impl Workload for Transpose {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "transpose",
            suite: Suite::CudaSdk,
            description: "matrix transpose; naive (uncoalesced store) and shared-tile variants",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let n = scale.pick(32, 64, 128) as u32;
        let mut rng = SeededRng::seed_from_u64(self.seed);
        let input: Vec<f32> = (0..n * n).map(|_| rng.gen_range(-9.0..9.0)).collect();

        let hin = device.alloc_f32(&input);
        let hnaive = device.alloc_zeroed_f32((n * n) as usize);
        let htiled = device.alloc_zeroed_f32((n * n) as usize);
        self.out_naive = Some(hnaive);
        self.out_tiled = Some(htiled);
        self.n = n as usize;
        self.input = input;

        // --- naive: out[x * n + y] = in[y * n + x] ---------------------------
        let mut b = KernelBuilder::new("transpose_naive");
        let pin = b.param_u32("in");
        let pout = b.param_u32("out");
        let pn = b.param_u32("n");
        let x = b.global_tid_x();
        let y = b.global_tid_y();
        let src = b.mad_u32(y, pn, x);
        let sa = b.index(pin, src, 4);
        let v = b.ld_global_f32(sa);
        let dst = b.mad_u32(x, pn, y);
        let da = b.index(pout, dst, 4);
        b.st_global_f32(da, v);
        let naive = b.build()?;

        // --- tiled through padded shared memory ------------------------------
        let mut b = KernelBuilder::new("transpose_tiled");
        let pin = b.param_u32("in");
        let pout = b.param_u32("out");
        let pn = b.param_u32("n");
        let tile = b.alloc_shared(TILE * (TILE + 1) * 4);
        let tx = b.var_u32(b.tid_x());
        let ty = b.var_u32(b.tid_y());
        let x = b.global_tid_x();
        let y = b.global_tid_y();
        let src = b.mad_u32(y, pn, x);
        let saddr = b.index(pin, src, 4);
        let v = b.ld_global_f32(saddr);
        let t_idx = b.mad_u32(ty, Value::U32(TILE + 1), tx);
        let ta = b.index(tile, t_idx, 4);
        b.st_shared_f32(ta, v);
        b.barrier();
        // Write transposed: out[(bx*TILE + ty) * n + (by*TILE + tx)], reading
        // tile[tx][ty].
        let bx_base = b.mul_u32(b.ctaid_x(), Value::U32(TILE));
        let by_base = b.mul_u32(b.ctaid_y(), Value::U32(TILE));
        let out_row = b.add_u32(bx_base, ty);
        let out_col = b.add_u32(by_base, tx);
        let dst = b.mad_u32(out_row, pn, out_col);
        let r_idx = b.mad_u32(tx, Value::U32(TILE + 1), ty);
        let ra = b.index(tile, r_idx, 4);
        let tv = b.ld_shared_f32(ra);
        let da = b.index(pout, dst, 4);
        b.st_global_f32(da, tv);
        let tiled = b.build()?;

        let grid = LaunchConfig::new_2d(n / TILE, n / TILE, TILE, TILE);
        Ok(vec![
            LaunchSpec {
                label: "transpose_naive".into(),
                kernel: naive,
                config: grid,
                args: vec![hin.arg(), hnaive.arg(), Value::U32(n)],
            },
            LaunchSpec {
                label: "transpose_tiled".into(),
                kernel: tiled,
                config: grid,
                args: vec![hin.arg(), htiled.arg(), Value::U32(n)],
            },
        ])
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let n = self.n;
        let mut expected = vec![0.0f32; n * n];
        for y in 0..n {
            for x in 0..n {
                expected[x * n + y] = self.input[y * n + x];
            }
        }
        let naive = device.read_f32(self.out_naive.as_ref().expect("setup"));
        check_f32("transpose_naive", &naive, &expected, 1e-6)?;
        let tiled = device.read_f32(self.out_tiled.as_ref().expect("setup"));
        check_f32("transpose_tiled", &tiled, &expected, 1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut Transpose::new(7), Scale::Tiny).unwrap();
    }
}
