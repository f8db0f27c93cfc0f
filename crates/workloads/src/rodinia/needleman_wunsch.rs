//! `nw` — Needleman-Wunsch sequence alignment (Rodinia).
//!
//! The score matrix fills along anti-diagonals; each diagonal is one
//! kernel launch whose width grows then shrinks — a stream of small,
//! dependent launches whose occupancy keeps changing, plus the three-way
//! max recurrence per cell.

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

const GAP: i32 = -1;

/// See the [module docs](self).
#[derive(Debug)]
pub struct NeedlemanWunsch {
    seed: u64,
    score: Option<BufferHandle>,
    a: Vec<i32>,
    bseq: Vec<i32>,
}

impl NeedlemanWunsch {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            score: None,
            a: Vec::new(),
            bseq: Vec::new(),
        }
    }
}

fn cpu_nw(a: &[i32], bseq: &[i32], n: usize) -> Vec<i32> {
    let dim = n + 1;
    let mut m = vec![0i32; dim * dim];
    for i in 0..dim {
        m[i * dim] = GAP * i as i32;
        m[i] = GAP * i as i32;
    }
    for i in 1..dim {
        for j in 1..dim {
            let sim = if a[i - 1] == bseq[j - 1] { 2 } else { -1 };
            m[i * dim + j] = (m[(i - 1) * dim + j - 1] + sim)
                .max(m[(i - 1) * dim + j] + GAP)
                .max(m[i * dim + j - 1] + GAP);
        }
    }
    m
}

impl Workload for NeedlemanWunsch {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "needleman_wunsch",
            suite: Suite::Rodinia,
            description: "sequence alignment via anti-diagonal wavefront launches",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let n = scale.pick(24, 48, 96);
        let dim = n + 1;
        let mut rng = SeededRng::seed_from_u64(self.seed);
        let a: Vec<i32> = (0..n).map(|_| rng.gen_range(0..4)).collect();
        let bseq: Vec<i32> = (0..n).map(|_| rng.gen_range(0..4)).collect();

        // Initialize the score matrix borders on the host, as Rodinia does.
        let mut init = vec![0i32; dim * dim];
        for i in 0..dim {
            init[i * dim] = GAP * i as i32;
            init[i] = GAP * i as i32;
        }
        let hscore = device.alloc_i32(&init);
        let ha = device.alloc_i32(&a);
        let hb = device.alloc_i32(&bseq);
        self.score = Some(hscore);
        self.a = a;
        self.bseq = bseq;

        // Kernel: fill cells of one anti-diagonal `d` (cells (i, d - i) for
        // i in [lo, hi]).
        let mut b = KernelBuilder::new("nw_diagonal");
        let pscore = b.param_u32("score");
        let pa = b.param_u32("a");
        let pb = b.param_u32("b");
        let pdim = b.param_u32("dim");
        let pd = b.param_u32("d");
        let plo = b.param_u32("lo");
        let pcount = b.param_u32("count");
        let t = b.global_tid_x();
        let in_range = b.lt_u32(t, pcount);
        b.if_(in_range, |b| {
            let i = b.add_u32(plo, t);
            let j = b.sub_u32(pd, i);
            // sim = (a[i-1] == b[j-1]) ? 2 : -1
            let i_m1 = b.sub_u32(i, Value::U32(1));
            let j_m1 = b.sub_u32(j, Value::U32(1));
            let aa = b.index(pa, i_m1, 4);
            let av = b.ld_global_i32(aa);
            let ba = b.index(pb, j_m1, 4);
            let bv = b.ld_global_i32(ba);
            let same = b.eq_u32(av, bv);
            let sim = b.sel_i32(same, Value::I32(2), Value::I32(-1));
            // Neighbours.
            let row_m1 = b.mul_u32(i_m1, pdim);
            let diag_idx = b.add_u32(row_m1, j_m1);
            let da = b.index(pscore, diag_idx, 4);
            let diag = b.ld_global_i32(da);
            let up_idx = b.add_u32(row_m1, j);
            let ua = b.index(pscore, up_idx, 4);
            let up = b.ld_global_i32(ua);
            let row = b.mul_u32(i, pdim);
            let left_idx = b.add_u32(row, j_m1);
            let la = b.index(pscore, left_idx, 4);
            let left = b.ld_global_i32(la);
            let v1 = b.add_i32(diag, sim);
            let v2 = b.add_i32(up, Value::I32(GAP));
            let v3 = b.add_i32(left, Value::I32(GAP));
            let m1 = b.max_i32(v1, v2);
            let m = b.max_i32(m1, v3);
            let my_idx = b.add_u32(row, j);
            let ma = b.index(pscore, my_idx, 4);
            b.st_global_i32(ma, m);
        });
        let kernel = b.build()?;

        // One launch per anti-diagonal d = 2..=2n over interior cells
        // (1 <= i, j <= n).
        let mut launches = Vec::new();
        for d in 2..=2 * n {
            let lo = d.saturating_sub(n).max(1);
            let hi = (d - 1).min(n);
            if lo > hi {
                continue;
            }
            let count = (hi - lo + 1) as u32;
            launches.push(LaunchSpec {
                label: "nw_diagonal".into(),
                kernel: kernel.clone(),
                config: LaunchConfig::linear(count, 64),
                args: vec![
                    hscore.arg(),
                    ha.arg(),
                    hb.arg(),
                    Value::U32(dim as u32),
                    Value::U32(d as u32),
                    Value::U32(lo as u32),
                    Value::U32(count),
                ],
            });
        }
        Ok(launches)
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let expected = cpu_nw(&self.a, &self.bseq, self.a.len());
        let got = device.read_i32(self.score.as_ref().expect("setup"));
        if got != expected {
            let idx = got
                .iter()
                .zip(&expected)
                .position(|(g, w)| g != w)
                .unwrap_or(0);
            return Err(VerifyError {
                detail: format!("score[{idx}]: got {}, want {}", got[idx], expected[idx]),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut NeedlemanWunsch::new(24), Scale::Tiny).unwrap();
    }

    #[test]
    fn cpu_nw_identical_sequences_score_matches() {
        let a = vec![0, 1, 2, 3];
        let m = cpu_nw(&a, &a, 4);
        // Perfect alignment: 4 matches * 2.
        assert_eq!(m[4 * 5 + 4], 8);
    }
}
