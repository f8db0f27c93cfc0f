//! `hybridsort` — bucket sort followed by per-bucket sorting (Rodinia).
//!
//! Three kernels mirroring the original's structure:
//!
//! 1. `bucket_count` — histogram the keys into buckets (global atomics);
//! 2. `bucket_scatter` — scatter keys to their bucket slot via an atomic
//!    cursor per bucket (maximally uncoalesced stores);
//! 3. `bucket_sort` — bitonic-sort each (padded) bucket in shared memory.
//!
//! The phases sit far apart in the divergence and coalescing subspaces,
//! which is exactly why the paper lists Hybrid Sort among the workloads
//! with large intra-workload variation.

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

const BUCKETS: u32 = 16;
const BUCKET_CAP: u32 = 256; // power of two for the bitonic phase

/// See the [module docs](self).
#[derive(Debug)]
pub struct HybridSort {
    seed: u64,
    buckets: Option<BufferHandle>,
    keys: Vec<u32>,
}

impl HybridSort {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            buckets: None,
            keys: Vec::new(),
        }
    }
}

impl Workload for HybridSort {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "hybrid_sort",
            suite: Suite::Rodinia,
            description: "bucket scatter plus per-bucket bitonic sort (hybridsort)",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let n = scale.pick(512, 1024, 2048);
        let mut rng = SeededRng::seed_from_u64(self.seed);
        // Keys in [0, BUCKETS * 2^16); bucket = key >> 16. Uniform keys keep
        // every bucket under BUCKET_CAP at these sizes.
        let keys: Vec<u32> = (0..n).map(|_| rng.gen_range(0..BUCKETS << 16)).collect();

        let hkeys = device.alloc_u32(&keys);
        let hcounts = device.alloc_zeroed_u32(BUCKETS as usize);
        let hcursors = device.alloc_zeroed_u32(BUCKETS as usize);
        // Bucket storage padded with u32::MAX so the bitonic phase can sort
        // full power-of-two tiles.
        let hbuckets = device.alloc_u32(&vec![u32::MAX; (BUCKETS * BUCKET_CAP) as usize]);
        self.buckets = Some(hbuckets);
        self.keys = keys;

        // --- kernel 1: count ----------------------------------------------------
        let mut b = KernelBuilder::new("bucket_count");
        let pkeys = b.param_u32("keys");
        let pcounts = b.param_u32("counts");
        let pn = b.param_u32("n");
        let i = b.global_tid_x();
        let in_range = b.lt_u32(i, pn);
        b.if_(in_range, |b| {
            let ka = b.index(pkeys, i, 4);
            let k = b.ld_global_u32(ka);
            let bucket = b.shr_u32(k, Value::U32(16));
            let ca = b.index(pcounts, bucket, 4);
            b.atomic_add_global_u32(ca, Value::U32(1));
        });
        let count = b.build()?;

        // --- kernel 2: scatter ----------------------------------------------------
        let mut b = KernelBuilder::new("bucket_scatter");
        let pkeys = b.param_u32("keys");
        let pcursors = b.param_u32("cursors");
        let pbuckets = b.param_u32("buckets");
        let pn = b.param_u32("n");
        let i = b.global_tid_x();
        let in_range = b.lt_u32(i, pn);
        b.if_(in_range, |b| {
            let ka = b.index(pkeys, i, 4);
            let k = b.ld_global_u32(ka);
            let bucket = b.shr_u32(k, Value::U32(16));
            let ca = b.index(pcursors, bucket, 4);
            let slot = b.atomic_add_global_u32(ca, Value::U32(1));
            let base = b.mul_u32(bucket, Value::U32(BUCKET_CAP));
            let idx = b.add_u32(base, slot);
            let oa = b.index(pbuckets, idx, 4);
            b.st_global_u32(oa, k);
        });
        let scatter = b.build()?;

        // --- kernel 3: per-bucket bitonic sort -------------------------------------
        let mut b = KernelBuilder::new("bucket_sort");
        let pbuckets = b.param_u32("buckets");
        let smem = b.alloc_shared(BUCKET_CAP * 4);
        let tid = b.var_u32(b.tid_x());
        let gid = b.global_tid_x();
        let ga = b.index(pbuckets, gid, 4);
        let v = b.ld_global_u32(ga);
        let sa = b.index(smem, tid, 4);
        b.st_shared_u32(sa, v);
        b.barrier();
        let k = b.var_u32(Value::U32(2));
        b.while_(
            |b| b.le_u32(k, Value::U32(BUCKET_CAP)),
            |b| {
                let half_k = b.shr_u32(k, Value::U32(1));
                let j = b.var_u32(half_k);
                b.while_(
                    |b| b.gt_u32(j, Value::U32(0)),
                    |b| {
                        let ixj = b.xor_u32(tid, j);
                        let owner = b.gt_u32(ixj, tid);
                        b.if_(owner, |b| {
                            let ma = b.index(smem, tid, 4);
                            let mv = b.ld_shared_u32(ma);
                            let pa = b.index(smem, ixj, 4);
                            let pv = b.ld_shared_u32(pa);
                            let dir_bits = b.and_u32(tid, k);
                            let ascending = b.eq_u32(dir_bits, Value::U32(0));
                            let gt = b.gt_u32(mv, pv);
                            let lt = b.lt_u32(mv, pv);
                            let asc_swap = b.and_pred(ascending, gt);
                            let desc = b.not_pred(ascending);
                            let desc_swap = b.and_pred(desc, lt);
                            let swap = b.or_pred(asc_swap, desc_swap);
                            b.if_(swap, |b| {
                                b.st_shared_u32(ma, pv);
                                b.st_shared_u32(pa, mv);
                            });
                        });
                        b.barrier();
                        let nj = b.shr_u32(j, Value::U32(1));
                        b.assign(j, nj);
                    },
                );
                let nk = b.shl_u32(k, Value::U32(1));
                b.assign(k, nk);
            },
        );
        let res = b.ld_shared_u32(sa);
        b.st_global_u32(ga, res);
        let sort = b.build()?;

        Ok(vec![
            LaunchSpec {
                label: "bucket_count".into(),
                kernel: count,
                config: LaunchConfig::linear(n as u32, 256),
                args: vec![hkeys.arg(), hcounts.arg(), Value::U32(n as u32)],
            },
            LaunchSpec {
                label: "bucket_scatter".into(),
                kernel: scatter,
                config: LaunchConfig::linear(n as u32, 256),
                args: vec![
                    hkeys.arg(),
                    hcursors.arg(),
                    hbuckets.arg(),
                    Value::U32(n as u32),
                ],
            },
            LaunchSpec {
                label: "bucket_sort".into(),
                kernel: sort,
                config: LaunchConfig::new(BUCKETS, BUCKET_CAP),
                args: vec![hbuckets.arg()],
            },
        ])
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let raw = device.read_u32(self.buckets.as_ref().expect("setup"));
        // Concatenate buckets, dropping the MAX padding.
        let gathered: Vec<u32> = raw.into_iter().filter(|&k| k != u32::MAX).collect();
        if gathered.len() != self.keys.len() {
            return Err(VerifyError {
                detail: format!(
                    "expected {} keys, found {}",
                    self.keys.len(),
                    gathered.len()
                ),
            });
        }
        let mut expected_sorted = self.keys.clone();
        expected_sorted.sort_unstable();
        if gathered != expected_sorted {
            let idx = gathered
                .iter()
                .zip(&expected_sorted)
                .position(|(g, w)| g != w)
                .unwrap_or(0);
            return Err(VerifyError {
                detail: format!(
                    "sorted[{idx}]: got {}, want {}",
                    gathered[idx], expected_sorted[idx]
                ),
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
        run_workload(&mut HybridSort::new(27), Scale::Tiny).unwrap();
    }
}
