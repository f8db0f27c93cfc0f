//! `spmv` — sparse matrix-vector multiply, CSR (Parboil).
//!
//! One thread per row; rows have skewed lengths, so warps diverge on the
//! row loop and the `x[col]` gathers scatter across memory — the classic
//! irregular workload.

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{check_f32, LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

/// See the [module docs](self).
#[derive(Debug)]
pub struct Spmv {
    seed: u64,
    y: Option<BufferHandle>,
    row_ptr: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f32>,
    x: Vec<f32>,
}

impl Spmv {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            y: None,
            row_ptr: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
            x: Vec::new(),
        }
    }
}

impl Workload for Spmv {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "spmv",
            suite: Suite::Parboil,
            description: "CSR sparse matrix-vector multiply with skewed row lengths",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let rows = scale.pick(256, 1024, 4096) as u32;
        let mut rng = SeededRng::seed_from_u64(self.seed);
        // Skewed row lengths: most rows short, a few long.
        let mut row_ptr = vec![0u32];
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for _ in 0..rows {
            let len = if rng.gen_bool(0.1) {
                rng.gen_range(16..64)
            } else {
                rng.gen_range(1..8)
            };
            for _ in 0..len {
                cols.push(rng.gen_range(0..rows));
                vals.push(rng.gen_range(-1.0f32..1.0));
            }
            row_ptr.push(cols.len() as u32);
        }
        let x: Vec<f32> = (0..rows).map(|_| rng.gen_range(-1.0f32..1.0)).collect();

        let hrp = device.alloc_u32(&row_ptr);
        let hcols = device.alloc_u32(&cols);
        let hvals = device.alloc_f32(&vals);
        let hx = device.alloc_f32(&x);
        let hy = device.alloc_zeroed_f32(rows as usize);
        self.y = Some(hy);
        self.row_ptr = row_ptr;
        self.cols = cols;
        self.vals = vals;
        self.x = x;

        let mut b = KernelBuilder::new("spmv_csr");
        let prp = b.param_u32("row_ptr");
        let pcols = b.param_u32("cols");
        let pvals = b.param_u32("vals");
        let px = b.param_u32("x");
        let py = b.param_u32("y");
        let pn = b.param_u32("rows");
        let r = b.global_tid_x();
        let in_range = b.lt_u32(r, pn);
        b.if_(in_range, |b| {
            let sa = b.index(prp, r, 4);
            let start = b.ld_global_u32(sa);
            let r1 = b.add_u32(r, Value::U32(1));
            let ea = b.index(prp, r1, 4);
            let end = b.ld_global_u32(ea);
            let acc = b.var_f32(Value::F32(0.0));
            let i = b.var_u32(start);
            b.while_(
                |b| b.lt_u32(i, end),
                |b| {
                    let ca = b.index(pcols, i, 4);
                    let col = b.ld_global_u32(ca);
                    let va = b.index(pvals, i, 4);
                    let v = b.ld_global_f32(va);
                    let xa = b.index(px, col, 4);
                    let xv = b.ld_global_f32(xa);
                    let next = b.mad_f32(v, xv, acc);
                    b.assign(acc, next);
                    let ni = b.add_u32(i, Value::U32(1));
                    b.assign(i, ni);
                },
            );
            let ya = b.index(py, r, 4);
            b.st_global_f32(ya, acc);
        });
        let kernel = b.build()?;

        Ok(vec![LaunchSpec {
            label: "spmv_csr".into(),
            kernel,
            config: LaunchConfig::linear(rows, 128),
            args: vec![
                hrp.arg(),
                hcols.arg(),
                hvals.arg(),
                hx.arg(),
                hy.arg(),
                Value::U32(rows),
            ],
        }])
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let (row_ptr, cols, vals, x) = (&self.row_ptr, &self.cols, &self.vals, &self.x);
        let expected: Vec<f32> = row_ptr
            .windows(2)
            .map(|r| {
                (r[0] as usize..r[1] as usize)
                    .map(|i| vals[i] * x[cols[i] as usize])
                    .sum()
            })
            .collect();
        let y = device.read_f32(self.y.as_ref().expect("setup"));
        check_f32("spmv", &y, &expected, 1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut Spmv::new(16), Scale::Tiny).unwrap();
    }
}
