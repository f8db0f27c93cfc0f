//! `BlackScholes` — European option pricing (CUDA SDK).
//!
//! One thread per option; pure floating-point with heavy SFU use
//! (`log`, `exp`, `sqrt`, reciprocals) through the Abramowitz–Stegun
//! cumulative-normal polynomial. Fully coalesced, zero divergence apart
//! from the sign select — the compute-bound corner of the workload space.

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::{Reg, Value};
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{check_f32, LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

const RISK_FREE: f32 = 0.02;
const VOLATILITY: f32 = 0.30;
const LOG2_E: f32 = std::f32::consts::LOG2_E;

/// See the [module docs](self).
#[derive(Debug)]
pub struct BlackScholes {
    seed: u64,
    call: Option<BufferHandle>,
    put: Option<BufferHandle>,
    price: Vec<f32>,
    strike: Vec<f32>,
    time: Vec<f32>,
}

impl BlackScholes {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            call: None,
            put: None,
            price: Vec::new(),
            strike: Vec::new(),
            time: Vec::new(),
        }
    }
}

/// CPU reference: cumulative normal distribution (A&S 26.2.17).
fn cnd(d: f32) -> f32 {
    const A1: f32 = 0.319_381_53;
    const A2: f32 = -0.356_563_78;
    const A3: f32 = 1.781_477_9;
    const A4: f32 = -1.821_255_9;
    const A5: f32 = 1.330_274_5;
    let k = 1.0 / (1.0 + 0.231_641_9 * d.abs());
    let poly = k * (A1 + k * (A2 + k * (A3 + k * (A4 + k * A5))));
    let cnd = (-0.5 * d * d).exp() * poly * 0.398_942_3;
    if d > 0.0 {
        1.0 - cnd
    } else {
        cnd
    }
}

fn reference(s: f32, x: f32, t: f32) -> (f32, f32) {
    let sqrt_t = t.sqrt();
    let d1 =
        ((s / x).ln() + (RISK_FREE + 0.5 * VOLATILITY * VOLATILITY) * t) / (VOLATILITY * sqrt_t);
    let d2 = d1 - VOLATILITY * sqrt_t;
    let exp_rt = (-RISK_FREE * t).exp();
    let call = s * cnd(d1) - x * exp_rt * cnd(d2);
    let put = x * exp_rt * (1.0 - cnd(d2)) - s * (1.0 - cnd(d1));
    (call, put)
}

impl Workload for BlackScholes {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "black_scholes",
            suite: Suite::CudaSdk,
            description: "European option pricing; SFU-heavy floating point, fully coalesced",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let n = scale.pick(1 << 9, 1 << 12, 1 << 15) as u32;
        let mut rng = SeededRng::seed_from_u64(self.seed);
        let price: Vec<f32> = (0..n).map(|_| rng.gen_range(5.0..30.0)).collect();
        let strike: Vec<f32> = (0..n).map(|_| rng.gen_range(1.0..100.0)).collect();
        let time: Vec<f32> = (0..n).map(|_| rng.gen_range(0.25..10.0)).collect();

        let hs = device.alloc_f32(&price);
        let hx = device.alloc_f32(&strike);
        let ht = device.alloc_f32(&time);
        let hc = device.alloc_zeroed_f32(n as usize);
        let hp = device.alloc_zeroed_f32(n as usize);
        self.call = Some(hc);
        self.put = Some(hp);
        self.price = price;
        self.strike = strike;
        self.time = time;

        let mut b = KernelBuilder::new("black_scholes");
        let ps = b.param_u32("s");
        let px = b.param_u32("x");
        let pt = b.param_u32("t");
        let pcall = b.param_u32("call");
        let pput = b.param_u32("put");

        let i = b.global_tid_x();
        let sa = b.index(ps, i, 4);
        let s = b.ld_global_f32(sa);
        let xa = b.index(px, i, 4);
        let x = b.ld_global_f32(xa);
        let ta = b.index(pt, i, 4);
        let t = b.ld_global_f32(ta);

        let sqrt_t = b.sqrt_f32(t);
        // ln(s/x) = log2(s/x) / log2(e)
        let ratio = b.div_f32(s, x);
        let l2 = b.log2_f32(ratio);
        let ln_sx = b.div_f32(l2, Value::F32(LOG2_E));
        let drift = b.mul_f32(Value::F32(RISK_FREE + 0.5 * VOLATILITY * VOLATILITY), t);
        let num = b.add_f32(ln_sx, drift);
        let denom = b.mul_f32(Value::F32(VOLATILITY), sqrt_t);
        let d1 = b.div_f32(num, denom);
        let d2 = b.sub_f32(d1, denom);

        // exp(-r t) = exp2(-r t * log2(e))
        let rt = b.mul_f32(Value::F32(-RISK_FREE * LOG2_E), t);
        let exp_rt = b.exp2_f32(rt);

        // CND polynomial, emitted twice (once per d).
        let emit_cnd = |b: &mut KernelBuilder, d: Reg| -> Reg {
            let ad = b.abs_f32(d);
            let kd = b.mad_f32(Value::F32(0.231_641_9), ad, Value::F32(1.0));
            let k = b.recip_f32(kd);
            let p = b.mad_f32(Value::F32(1.330_274_5), k, Value::F32(-1.821_255_9));
            let p = b.mad_f32(p, k, Value::F32(1.781_477_9));
            let p = b.mad_f32(p, k, Value::F32(-0.356_563_78));
            let p = b.mad_f32(p, k, Value::F32(0.319_381_53));
            let poly = b.mul_f32(p, k);
            let dd = b.mul_f32(d, d);
            let e_arg = b.mul_f32(dd, Value::F32(-0.5 * LOG2_E));
            let e = b.exp2_f32(e_arg);
            let tail = b.mul_f32(e, poly);
            let cnd = b.mul_f32(tail, Value::F32(0.398_942_3));
            let pos = b.gt_f32(d, Value::F32(0.0));
            let flipped = b.sub_f32(Value::F32(1.0), cnd);
            b.sel_f32(pos, flipped, cnd)
        };
        let cnd1 = emit_cnd(&mut b, d1);
        let cnd2 = emit_cnd(&mut b, d2);

        let s_cnd1 = b.mul_f32(s, cnd1);
        let x_e = b.mul_f32(x, exp_rt);
        let x_e_cnd2 = b.mul_f32(x_e, cnd2);
        let call = b.sub_f32(s_cnd1, x_e_cnd2);
        let one_m_cnd2 = b.sub_f32(Value::F32(1.0), cnd2);
        let one_m_cnd1 = b.sub_f32(Value::F32(1.0), cnd1);
        let put_a = b.mul_f32(x_e, one_m_cnd2);
        let put_b = b.mul_f32(s, one_m_cnd1);
        let put = b.sub_f32(put_a, put_b);

        let ca = b.index(pcall, i, 4);
        b.st_global_f32(ca, call);
        let pa = b.index(pput, i, 4);
        b.st_global_f32(pa, put);
        let kernel = b.build()?;

        Ok(vec![LaunchSpec {
            label: "black_scholes".into(),
            kernel,
            config: LaunchConfig::linear(n, 128),
            args: vec![hs.arg(), hx.arg(), ht.arg(), hc.arg(), hp.arg()],
        }])
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let (mut expected_call, mut expected_put) = (Vec::new(), Vec::new());
        for i in 0..self.price.len() {
            let (c, p) = reference(self.price[i], self.strike[i], self.time[i]);
            expected_call.push(c);
            expected_put.push(p);
        }
        let call = device.read_f32(self.call.as_ref().expect("setup"));
        check_f32("call", &call, &expected_call, 2e-3)?;
        let put = device.read_f32(self.put.as_ref().expect("setup"));
        check_f32("put", &put, &expected_put, 2e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut BlackScholes::new(10), Scale::Tiny).unwrap();
    }

    #[test]
    fn cnd_is_a_cdf() {
        assert!((cnd(0.0) - 0.5).abs() < 1e-3);
        assert!(cnd(4.0) > 0.999);
        assert!(cnd(-4.0) < 0.001);
        assert!(cnd(1.0) > cnd(0.5));
    }
}
