//! `kmeans` — one clustering iteration (Rodinia).
//!
//! Kernel 1 assigns every point to its nearest centroid (feature-major
//! centroid reads scatter across memory — the coalescing diversity the
//! paper attributes to K-Means); kernel 2 accumulates per-cluster feature
//! sums and counts with global atomics, from which new centroids follow.

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{
    check_f32, check_u32, LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta,
};

const K: u32 = 8;
const DIMS: u32 = 8;

/// See the [module docs](self).
#[derive(Debug)]
pub struct KMeansWorkload {
    seed: u64,
    assign: Option<BufferHandle>,
    counts: Option<BufferHandle>,
    /// Point-major coordinates, `DIMS` per point.
    points: Vec<f32>,
    /// Feature-major initial centroids (`centroids[d * K + c]`).
    centroids: Vec<f32>,
}

impl KMeansWorkload {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            assign: None,
            counts: None,
            points: Vec::new(),
            centroids: Vec::new(),
        }
    }
}

impl Workload for KMeansWorkload {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "kmeans",
            suite: Suite::Rodinia,
            description: "k-means assignment and centroid accumulation (scattered centroid reads)",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let n = scale.pick(256, 1024, 8192) as u32;
        let mut rng = SeededRng::seed_from_u64(self.seed);
        // Points around K well-separated centers, point-major layout.
        let centers: Vec<Vec<f32>> = (0..K)
            .map(|c| (0..DIMS).map(|d| (c * 10 + d) as f32).collect())
            .collect();
        let mut points = vec![0.0f32; (n * DIMS) as usize];
        for p in 0..n as usize {
            let c = rng.gen_range(0..K as usize);
            for d in 0..DIMS as usize {
                points[p * DIMS as usize + d] = centers[c][d] + rng.gen_range(-0.5f32..0.5);
            }
        }
        // Initial centroids, feature-major: centroid[d * K + c].
        let mut centroids = vec![0.0f32; (K * DIMS) as usize];
        for c in 0..K as usize {
            for d in 0..DIMS as usize {
                centroids[d * K as usize + c] = centers[c][d];
            }
        }

        let hpoints = device.alloc_f32(&points);
        let hcentroids = device.alloc_f32(&centroids);
        let hassign = device.alloc_zeroed_u32(n as usize);
        let hsums = device.alloc_zeroed_f32((K * DIMS) as usize);
        let hcounts = device.alloc_zeroed_u32(K as usize);
        self.assign = Some(hassign);
        self.counts = Some(hcounts);
        self.points = points;
        self.centroids = centroids;

        // --- assignment kernel -------------------------------------------------
        let mut b = KernelBuilder::new("kmeans_assign");
        let pp = b.param_u32("points");
        let pc = b.param_u32("centroids");
        let pa = b.param_u32("assign");
        let pn = b.param_u32("n");
        let i = b.global_tid_x();
        let in_range = b.lt_u32(i, pn);
        b.if_(in_range, |b| {
            let best_d = b.var_f32(Value::F32(f32::INFINITY));
            let best_c = b.var_u32(Value::U32(0));
            b.for_range_u32(Value::U32(0), Value::U32(K), 1, |b, c| {
                let dist = b.var_f32(Value::F32(0.0));
                b.for_range_u32(Value::U32(0), Value::U32(DIMS), 1, |b, d| {
                    let pidx = b.mad_u32(i, Value::U32(DIMS), d);
                    let paddr = b.index(pp, pidx, 4);
                    let pv = b.ld_global_f32(paddr);
                    let cidx = b.mad_u32(d, Value::U32(K), c);
                    let caddr = b.index(pc, cidx, 4);
                    let cv = b.ld_global_f32(caddr);
                    let diff = b.sub_f32(pv, cv);
                    let nd = b.mad_f32(diff, diff, dist);
                    b.assign(dist, nd);
                });
                let closer = b.lt_f32(dist, best_d);
                let nbd = b.sel_f32(closer, dist, best_d);
                let nbc = b.sel_u32(closer, c, best_c);
                b.assign(best_d, nbd);
                b.assign(best_c, nbc);
            });
            let aa = b.index(pa, i, 4);
            b.st_global_u32(aa, best_c);
        });
        let assign_kernel = b.build()?;

        // --- accumulation kernel ------------------------------------------------
        let mut b = KernelBuilder::new("kmeans_accumulate");
        let pp = b.param_u32("points");
        let pa = b.param_u32("assign");
        let psums = b.param_u32("sums");
        let pcounts = b.param_u32("counts");
        let pn = b.param_u32("n");
        let i = b.global_tid_x();
        let in_range = b.lt_u32(i, pn);
        b.if_(in_range, |b| {
            let aa = b.index(pa, i, 4);
            let c = b.ld_global_u32(aa);
            let ca = b.index(pcounts, c, 4);
            b.atomic_add_global_u32(ca, Value::U32(1));
            b.for_range_u32(Value::U32(0), Value::U32(DIMS), 1, |b, d| {
                let pidx = b.mad_u32(i, Value::U32(DIMS), d);
                let paddr = b.index(pp, pidx, 4);
                let pv = b.ld_global_f32(paddr);
                let sidx = b.mad_u32(d, Value::U32(K), c);
                let saddr = b.index(psums, sidx, 4);
                b.atomic_add_global_f32(saddr, pv);
            });
        });
        let accum_kernel = b.build()?;

        Ok(vec![
            LaunchSpec {
                label: "kmeans_assign".into(),
                kernel: assign_kernel,
                config: LaunchConfig::linear(n, 128),
                args: vec![
                    hpoints.arg(),
                    hcentroids.arg(),
                    hassign.arg(),
                    Value::U32(n),
                ],
            },
            LaunchSpec {
                label: "kmeans_accumulate".into(),
                kernel: accum_kernel,
                config: LaunchConfig::linear(n, 128),
                args: vec![
                    hpoints.arg(),
                    hassign.arg(),
                    hsums.arg(),
                    hcounts.arg(),
                    Value::U32(n),
                ],
            },
        ])
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let mut expected_counts = vec![0u32; K as usize];
        let expected_assign: Vec<u32> = self
            .points
            .chunks(DIMS as usize)
            .map(|point| {
                let (mut best_c, mut best_d) = (0usize, f32::INFINITY);
                for c in 0..K as usize {
                    let mut dist = 0.0f32;
                    for (d, pv) in point.iter().enumerate() {
                        let diff = pv - self.centroids[d * K as usize + c];
                        dist = diff.mul_add(diff, dist);
                    }
                    if dist < best_d {
                        best_d = dist;
                        best_c = c;
                    }
                }
                expected_counts[best_c] += 1;
                best_c as u32
            })
            .collect();
        let assign = device.read_u32(self.assign.as_ref().expect("setup"));
        check_u32("assign", &assign, &expected_assign)?;
        let counts = device.read_u32(self.counts.as_ref().expect("setup"));
        let got: Vec<f32> = counts.iter().map(|&c| c as f32).collect();
        let want: Vec<f32> = expected_counts.iter().map(|&c| c as f32).collect();
        check_f32("counts", &got, &want, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut KMeansWorkload::new(19), Scale::Tiny).unwrap();
    }
}
