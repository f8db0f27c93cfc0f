//! `hotspot` — thermal simulation of a processor floorplan (Rodinia).
//!
//! Iterative stencil coupling the temperature grid with a static power
//! map: `t' = t + c_p * p + c_n * (neighbours - 4t)`, with clamped
//! boundaries. Ping-pong buffers over several time steps.

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{check_f32, LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

const STEPS: usize = 4;
const CP: f32 = 0.05;
const CN: f32 = 0.1;

/// See the [module docs](self).
#[derive(Debug)]
pub struct HotSpot {
    seed: u64,
    result: Option<BufferHandle>,
    /// Grid width and height (the grid is square).
    w: usize,
    temp: Vec<f32>,
    power: Vec<f32>,
}

impl HotSpot {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            result: None,
            w: 0,
            temp: Vec::new(),
            power: Vec::new(),
        }
    }
}

fn cpu_step(t: &[f32], p: &[f32], w: usize, h: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; w * h];
    let at = |x: i32, y: i32| -> f32 {
        let xc = x.clamp(0, w as i32 - 1) as usize;
        let yc = y.clamp(0, h as i32 - 1) as usize;
        t[yc * w + xc]
    };
    for y in 0..h as i32 {
        for x in 0..w as i32 {
            let c = at(x, y);
            let neigh = at(x - 1, y) + at(x + 1, y) + at(x, y - 1) + at(x, y + 1);
            let idx = y as usize * w + x as usize;
            out[idx] = c + CP * p[idx] + CN * (neigh - 4.0 * c);
        }
    }
    out
}

impl Workload for HotSpot {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "hotspot",
            suite: Suite::Rodinia,
            description: "thermal stencil with power map and clamped boundaries",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let w = scale.pick(32, 64, 128) as u32;
        let h = w;
        let mut rng = SeededRng::seed_from_u64(self.seed);
        let temp: Vec<f32> = (0..w * h).map(|_| rng.gen_range(40.0..80.0)).collect();
        let power: Vec<f32> = (0..w * h).map(|_| rng.gen_range(0.0..5.0)).collect();

        let ha = device.alloc_f32(&temp);
        let hb = device.alloc_f32(&temp);
        let hp = device.alloc_f32(&power);
        self.result = Some(if STEPS.is_multiple_of(2) { ha } else { hb });
        self.w = w as usize;
        self.temp = temp;
        self.power = power;

        let mut b = KernelBuilder::new("hotspot_step");
        let psrc = b.param_u32("src");
        let pdst = b.param_u32("dst");
        let ppow = b.param_u32("power");
        let pw = b.param_u32("w");
        let ph = b.param_u32("h");
        let x = b.global_tid_x();
        let y = b.global_tid_y();
        let w_m1 = b.sub_u32(pw, Value::U32(1));
        let h_m1 = b.sub_u32(ph, Value::U32(1));
        // Clamped neighbour coordinates (min against borders; x-1 via
        // max(x,1)-1 to avoid wrap).
        let x_p1 = b.add_u32(x, Value::U32(1));
        let x_hi = b.min_u32(x_p1, w_m1);
        let x1 = b.max_u32(x, Value::U32(1));
        let x_lo = b.sub_u32(x1, Value::U32(1));
        let y_p1 = b.add_u32(y, Value::U32(1));
        let y_hi = b.min_u32(y_p1, h_m1);
        let y1 = b.max_u32(y, Value::U32(1));
        let y_lo = b.sub_u32(y1, Value::U32(1));

        let idx = b.mad_u32(y, pw, x);
        let ca = b.index(psrc, idx, 4);
        let c = b.ld_global_f32(ca);
        let li = b.mad_u32(y, pw, x_lo);
        let la = b.index(psrc, li, 4);
        let left = b.ld_global_f32(la);
        let ri = b.mad_u32(y, pw, x_hi);
        let ra = b.index(psrc, ri, 4);
        let right = b.ld_global_f32(ra);
        let ui = b.mad_u32(y_lo, pw, x);
        let ua = b.index(psrc, ui, 4);
        let up = b.ld_global_f32(ua);
        let di = b.mad_u32(y_hi, pw, x);
        let da = b.index(psrc, di, 4);
        let down = b.ld_global_f32(da);

        let pa = b.index(ppow, idx, 4);
        let pv = b.ld_global_f32(pa);
        let n1 = b.add_f32(left, right);
        let n2 = b.add_f32(n1, up);
        let neigh = b.add_f32(n2, down);
        let four_c = b.mul_f32(c, Value::F32(4.0));
        let lap = b.sub_f32(neigh, four_c);
        let t1 = b.mad_f32(pv, Value::F32(CP), c);
        let out = b.mad_f32(lap, Value::F32(CN), t1);
        let oa = b.index(pdst, idx, 4);
        b.st_global_f32(oa, out);
        let kernel = b.build()?;

        let grid = LaunchConfig::new_2d(w / 16, h / 16, 16, 16);
        let mut launches = Vec::new();
        for step in 0..STEPS {
            let (src, dst) = if step % 2 == 0 { (ha, hb) } else { (hb, ha) };
            launches.push(LaunchSpec {
                label: "hotspot_step".into(),
                kernel: kernel.clone(),
                config: grid,
                args: vec![src.arg(), dst.arg(), hp.arg(), Value::U32(w), Value::U32(h)],
            });
        }
        Ok(launches)
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let mut expected = self.temp.clone();
        for _ in 0..STEPS {
            expected = cpu_step(&expected, &self.power, self.w, self.w);
        }
        let got = device.read_f32(self.result.as_ref().expect("setup"));
        check_f32("hotspot", &got, &expected, 1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut HotSpot::new(22), Scale::Tiny).unwrap();
    }

    #[test]
    fn cpu_step_conserves_uniform_field_without_power() {
        let t = vec![50.0f32; 16];
        let p = vec![0.0f32; 16];
        let out = cpu_step(&t, &p, 4, 4);
        for v in out {
            assert!((v - 50.0).abs() < 1e-6);
        }
    }
}
