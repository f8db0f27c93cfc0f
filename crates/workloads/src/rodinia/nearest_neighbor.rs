//! `nn` — nearest neighbor over hurricane records (Rodinia).
//!
//! Kernel 1 computes the Euclidean distance from every record to the
//! query point (short, memory-bound, fully coalesced — the original nn
//! kernel). Kernel 2 reduces to the global minimum with the
//! monotonic-bits `atomicMin` trick used on real GPUs for positive
//! floats.

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{check_f32, LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

/// The query point (latitude, longitude).
const QUERY: (f32, f32) = (30.0, 90.0);

/// See the [module docs](self).
#[derive(Debug)]
pub struct NearestNeighbor {
    seed: u64,
    distances: Option<BufferHandle>,
    min_bits: Option<BufferHandle>,
    lat: Vec<f32>,
    lng: Vec<f32>,
}

impl NearestNeighbor {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            distances: None,
            min_bits: None,
            lat: Vec::new(),
            lng: Vec::new(),
        }
    }
}

impl Workload for NearestNeighbor {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "nearest_neighbor",
            suite: Suite::Rodinia,
            description: "per-record Euclidean distance plus atomic-min reduction",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let n = scale.pick(512, 4096, 32768) as u32;
        let mut rng = SeededRng::seed_from_u64(self.seed);
        let lat: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0..90.0)).collect();
        let lng: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0..180.0)).collect();
        let (qlat, qlng) = QUERY;

        let hlat = device.alloc_f32(&lat);
        let hlng = device.alloc_f32(&lng);
        let hdist = device.alloc_zeroed_f32(n as usize);
        let hmin = device.alloc_u32(&[f32::INFINITY.to_bits()]);
        self.distances = Some(hdist);
        self.min_bits = Some(hmin);
        self.lat = lat;
        self.lng = lng;

        // --- distance kernel --------------------------------------------------
        let mut b = KernelBuilder::new("nn_distance");
        let plat = b.param_u32("lat");
        let plng = b.param_u32("lng");
        let pdist = b.param_u32("dist");
        let pqlat = b.param_f32("qlat");
        let pqlng = b.param_f32("qlng");
        let pn = b.param_u32("n");
        let i = b.global_tid_x();
        let in_range = b.lt_u32(i, pn);
        b.if_(in_range, |b| {
            let la = b.index(plat, i, 4);
            let lav = b.ld_global_f32(la);
            let lo = b.index(plng, i, 4);
            let lov = b.ld_global_f32(lo);
            let dla = b.sub_f32(lav, pqlat);
            let dlo = b.sub_f32(lov, pqlng);
            let t = b.mul_f32(dla, dla);
            let d2 = b.mad_f32(dlo, dlo, t);
            let d = b.sqrt_f32(d2);
            let da = b.index(pdist, i, 4);
            b.st_global_f32(da, d);
        });
        let dist_kernel = b.build()?;

        // --- atomic min over the float bit patterns ----------------------------
        let mut b = KernelBuilder::new("nn_reduce_min");
        let pdist = b.param_u32("dist");
        let pmin = b.param_u32("min_bits");
        let pn = b.param_u32("n");
        let i = b.global_tid_x();
        let in_range = b.lt_u32(i, pn);
        b.if_(in_range, |b| {
            let da = b.index(pdist, i, 4);
            // Positive IEEE floats order identically to their bit patterns,
            // so reinterpret the load as u32 and use atomicMin.
            let bits = b.ld_global_u32(da);
            let ma = b.offset(pmin, 0);
            b.atomic_min_global_u32(ma, bits);
        });
        let min_kernel = b.build()?;

        Ok(vec![
            LaunchSpec {
                label: "nn_distance".into(),
                kernel: dist_kernel,
                config: LaunchConfig::linear(n, 256),
                args: vec![
                    hlat.arg(),
                    hlng.arg(),
                    hdist.arg(),
                    Value::F32(qlat),
                    Value::F32(qlng),
                    Value::U32(n),
                ],
            },
            LaunchSpec {
                label: "nn_reduce_min".into(),
                kernel: min_kernel,
                config: LaunchConfig::linear(n, 256),
                args: vec![hdist.arg(), hmin.arg(), Value::U32(n)],
            },
        ])
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let (qlat, qlng) = QUERY;
        let expected_distances: Vec<f32> = self
            .lat
            .iter()
            .zip(&self.lng)
            .map(|(&la, &lo)| {
                let dla = la - qlat;
                let dlo = lo - qlng;
                // Mirror kernel rounding: mul then one-rounding mad then sqrt.
                let t = dla * dla;
                dlo.mul_add(dlo, t).sqrt()
            })
            .collect();
        let expected_min = expected_distances
            .iter()
            .cloned()
            .fold(f32::INFINITY, f32::min);
        let dist = device.read_f32(self.distances.as_ref().expect("setup"));
        check_f32("distances", &dist, &expected_distances, 1e-4)?;
        let bits = device.read_u32(self.min_bits.as_ref().expect("setup"))[0];
        let min = f32::from_bits(bits);
        check_f32("min", &[min], &[expected_min], 1e-5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut NearestNeighbor::new(20), Scale::Tiny).unwrap();
    }
}
