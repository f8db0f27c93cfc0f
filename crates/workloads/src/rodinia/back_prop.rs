//! `backprop` — neural-network training step (Rodinia).
//!
//! `layerforward`: each block owns one hidden unit and reduces
//! `w[i][j] * in[i]` over the input layer in shared memory (barriered
//! tree). `adjust_weights`: streaming weight update from the hidden
//! deltas — an outer-product write pattern.

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{check_f32, LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

const BLOCK: u32 = 128;
const ETA: f32 = 0.3;

/// See the [module docs](self).
#[derive(Debug)]
pub struct BackProp {
    seed: u64,
    hidden: Option<BufferHandle>,
    weights: Option<BufferHandle>,
    input: Vec<f32>,
    /// Initial weights, input-major (`w[i * hidden + j]`); the adjust
    /// kernel overwrites the device copy.
    w: Vec<f32>,
    deltas: Vec<f32>,
}

impl BackProp {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            hidden: None,
            weights: None,
            input: Vec::new(),
            w: Vec::new(),
            deltas: Vec::new(),
        }
    }
}

impl Workload for BackProp {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "back_prop",
            suite: Suite::Rodinia,
            description: "neural net layer-forward reduction and weight-adjust kernels",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let inputs = (scale.pick(128, 512, 2048) as u32 / BLOCK).max(1) * BLOCK;
        let hidden_units = scale.pick(8, 16, 64) as u32;
        let mut rng = SeededRng::seed_from_u64(self.seed);
        let input: Vec<f32> = (0..inputs).map(|_| rng.gen_range(0.0..1.0)).collect();
        // Weights stored input-major: w[i * hidden + j].
        let weights: Vec<f32> = (0..inputs * hidden_units)
            .map(|_| rng.gen_range(-0.1..0.1))
            .collect();
        let deltas: Vec<f32> = (0..hidden_units)
            .map(|_| rng.gen_range(-0.5..0.5))
            .collect();

        let hin = device.alloc_f32(&input);
        let hw = device.alloc_f32(&weights);
        let hdelta = device.alloc_f32(&deltas);
        let hhidden = device.alloc_zeroed_f32(hidden_units as usize);
        self.hidden = Some(hhidden);
        self.weights = Some(hw);
        self.input = input;
        self.w = weights;
        self.deltas = deltas;

        // --- layerforward: one block per hidden unit ---------------------------
        let mut b = KernelBuilder::new("bp_layerforward");
        let pin = b.param_u32("in");
        let pw = b.param_u32("w");
        let pout = b.param_u32("hidden");
        let pinputs = b.param_u32("inputs");
        let phidden = b.param_u32("hidden_units");
        let smem = b.alloc_shared(BLOCK * 4);
        let tid = b.var_u32(b.tid_x());
        let j = b.var_u32(b.ctaid_x());
        // Strided accumulation: each thread sums i = tid, tid+BLOCK, ...
        let acc = b.var_f32(Value::F32(0.0));
        let i = b.var_u32(tid);
        b.while_(
            |b| b.lt_u32(i, pinputs),
            |b| {
                let ia = b.index(pin, i, 4);
                let iv = b.ld_global_f32(ia);
                let widx = b.mad_u32(i, phidden, j);
                let wa = b.index(pw, widx, 4);
                let wv = b.ld_global_f32(wa);
                let next = b.mad_f32(wv, iv, acc);
                b.assign(acc, next);
                let ni = b.add_u32(i, Value::U32(BLOCK));
                b.assign(i, ni);
            },
        );
        let sa = b.index(smem, tid, 4);
        b.st_shared_f32(sa, acc);
        b.barrier();
        let s = b.var_u32(Value::U32(BLOCK / 2));
        b.while_(
            |b| b.gt_u32(s, Value::U32(0)),
            |b| {
                let active = b.lt_u32(tid, s);
                b.if_(active, |b| {
                    let other = b.add_u32(tid, s);
                    let oa = b.index(smem, other, 4);
                    let ov = b.ld_shared_f32(oa);
                    let ma = b.index(smem, tid, 4);
                    let mv = b.ld_shared_f32(ma);
                    let sum = b.add_f32(mv, ov);
                    b.st_shared_f32(ma, sum);
                });
                b.barrier();
                let half = b.shr_u32(s, Value::U32(1));
                b.assign(s, half);
            },
        );
        let leader = b.eq_u32(tid, Value::U32(0));
        b.if_(leader, |b| {
            let r = b.index(smem, Value::U32(0), 4);
            let total = b.ld_shared_f32(r);
            let oa = b.index(pout, j, 4);
            b.st_global_f32(oa, total);
        });
        let forward = b.build()?;

        // --- adjust_weights: one thread per weight -----------------------------
        let mut b = KernelBuilder::new("bp_adjust_weights");
        let pin = b.param_u32("in");
        let pw = b.param_u32("w");
        let pdelta = b.param_u32("delta");
        let phidden = b.param_u32("hidden_units");
        let ptotal = b.param_u32("total");
        let g = b.global_tid_x();
        let in_range = b.lt_u32(g, ptotal);
        b.if_(in_range, |b| {
            let i = b.div_u32(g, phidden);
            let j = b.rem_u32(g, phidden);
            let ia = b.index(pin, i, 4);
            let iv = b.ld_global_f32(ia);
            let da = b.index(pdelta, j, 4);
            let dv = b.ld_global_f32(da);
            let wa = b.index(pw, g, 4);
            let wv = b.ld_global_f32(wa);
            let scaled = b.mul_f32(dv, Value::F32(ETA));
            let upd = b.mad_f32(scaled, iv, wv);
            b.st_global_f32(wa, upd);
        });
        let adjust = b.build()?;

        let total_w = inputs * hidden_units;
        Ok(vec![
            LaunchSpec {
                label: "bp_layerforward".into(),
                kernel: forward,
                config: LaunchConfig::new(hidden_units, BLOCK),
                args: vec![
                    hin.arg(),
                    hw.arg(),
                    hhidden.arg(),
                    Value::U32(inputs),
                    Value::U32(hidden_units),
                ],
            },
            LaunchSpec {
                label: "bp_adjust_weights".into(),
                kernel: adjust,
                config: LaunchConfig::linear(total_w, BLOCK),
                args: vec![
                    hin.arg(),
                    hw.arg(),
                    hdelta.arg(),
                    Value::U32(hidden_units),
                    Value::U32(total_w),
                ],
            },
        ])
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let (input, weights, deltas) = (&self.input, &self.w, &self.deltas);
        let hidden_units = deltas.len();
        // CPU reference. The GPU reduces block-partials in thread order, so
        // use a per-chunk tree-compatible sum with tolerance below.
        let mut expected_hidden = vec![0.0f32; hidden_units];
        for j in 0..hidden_units {
            let mut acc = 0.0f32;
            for i in 0..input.len() {
                acc += weights[i * hidden_units + j] * input[i];
            }
            expected_hidden[j] = acc;
        }
        let mut expected_weights = weights.clone();
        for i in 0..input.len() {
            for j in 0..hidden_units {
                expected_weights[i * hidden_units + j] += ETA * deltas[j] * input[i];
            }
        }
        let hidden = device.read_f32(self.hidden.as_ref().expect("setup"));
        check_f32("hidden", &hidden, &expected_hidden, 1e-3)?;
        let w = device.read_f32(self.weights.as_ref().expect("setup"));
        check_f32("weights", &w, &expected_weights, 1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut BackProp::new(21), Scale::Tiny).unwrap();
    }
}
