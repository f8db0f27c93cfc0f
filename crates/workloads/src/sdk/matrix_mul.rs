//! `matrixMul` — tiled dense matrix multiply (CUDA SDK).
//!
//! The classic 16×16 shared-memory tiling: each block computes one output
//! tile, streaming A and B tiles through shared memory with two barriers
//! per tile. Coalesced global traffic, heavy shared reuse, no divergence.

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
pub struct MatrixMul {
    seed: u64,
    out: Option<BufferHandle>,
    /// Side length of the square matrices.
    n: usize,
    a: Vec<f32>,
    bm: Vec<f32>,
}

impl MatrixMul {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            out: None,
            n: 0,
            a: Vec::new(),
            bm: Vec::new(),
        }
    }
}

impl Workload for MatrixMul {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "matrix_mul",
            suite: Suite::CudaSdk,
            description: "16x16-tiled dense matrix multiply with shared-memory reuse",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let n = scale.pick(32, 64, 128) as u32; // square matrices n x n
        let mut rng = SeededRng::seed_from_u64(self.seed);
        let a: Vec<f32> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let bm: Vec<f32> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();

        let ha = device.alloc_f32(&a);
        let hb = device.alloc_f32(&bm);
        let hc = device.alloc_zeroed_f32((n * n) as usize);
        self.out = Some(hc);
        self.n = n as usize;
        self.a = a;
        self.bm = bm;

        let mut b = KernelBuilder::new("matrix_mul");
        let pa = b.param_u32("a");
        let pb = b.param_u32("b");
        let pc = b.param_u32("c");
        let pn = b.param_u32("n");
        let tile_a = b.alloc_shared(TILE * TILE * 4);
        let tile_b = b.alloc_shared(TILE * TILE * 4);

        let tx = b.var_u32(b.tid_x());
        let ty = b.var_u32(b.tid_y());
        let col = b.global_tid_x();
        let row = b.global_tid_y();
        let acc = b.var_f32(Value::F32(0.0));
        let n_tiles = b.div_u32(pn, Value::U32(TILE));

        b.for_range_u32(Value::U32(0), n_tiles, 1, |b, t| {
            // Load A[row, t*TILE + tx] and B[t*TILE + ty, col].
            let a_col = b.mad_u32(t, Value::U32(TILE), tx);
            let a_idx = b.mad_u32(row, pn, a_col);
            let aa = b.index(pa, a_idx, 4);
            let av = b.ld_global_f32(aa);
            let b_row = b.mad_u32(t, Value::U32(TILE), ty);
            let b_idx = b.mad_u32(b_row, pn, col);
            let ba = b.index(pb, b_idx, 4);
            let bv = b.ld_global_f32(ba);
            let sa_idx = b.mad_u32(ty, Value::U32(TILE), tx);
            let saa = b.index(tile_a, sa_idx, 4);
            b.st_shared_f32(saa, av);
            let sba = b.index(tile_b, sa_idx, 4);
            b.st_shared_f32(sba, bv);
            b.barrier();
            // Inner product over the tile.
            b.for_range_u32(Value::U32(0), Value::U32(TILE), 1, |b, k| {
                let ai = b.mad_u32(ty, Value::U32(TILE), k);
                let aa = b.index(tile_a, ai, 4);
                let av = b.ld_shared_f32(aa);
                let bi = b.mad_u32(k, Value::U32(TILE), tx);
                let ba = b.index(tile_b, bi, 4);
                let bv = b.ld_shared_f32(ba);
                let next = b.mad_f32(av, bv, acc);
                b.assign(acc, next);
            });
            b.barrier();
        });

        let c_idx = b.mad_u32(row, pn, col);
        let ca = b.index(pc, c_idx, 4);
        b.st_global_f32(ca, acc);
        let kernel = b.build()?;

        Ok(vec![LaunchSpec {
            label: "matrix_mul".into(),
            kernel,
            config: LaunchConfig::new_2d(n / TILE, n / TILE, TILE, TILE),
            args: vec![ha.arg(), hb.arg(), hc.arg(), Value::U32(n)],
        }])
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let n = self.n;
        let mut c = vec![0.0f32; n * n];
        for i in 0..n {
            for k in 0..n {
                let av = self.a[i * n + k];
                for j in 0..n {
                    c[i * n + j] += av * self.bm[k * n + j];
                }
            }
        }
        let out = device.read_f32(self.out.as_ref().expect("setup"));
        check_f32("matrix_mul", &out, &c, 1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut MatrixMul::new(6), Scale::Tiny).unwrap();
    }
}
