//! `sortingNetworks` — shared-memory bitonic sort (CUDA SDK).
//!
//! Each block sorts a 256-key tile entirely in shared memory. The
//! compare-exchange network's direction test (`tid & k`) and the
//! partner-ownership guard diverge every warp at every stage, with a
//! barrier between stages — a dense mix of divergence, shared traffic and
//! synchronization.

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{check_u32, LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

const TILE: u32 = 256;

/// See the [module docs](self).
#[derive(Debug)]
pub struct BitonicSort {
    seed: u64,
    data: Option<BufferHandle>,
    /// The unsorted keys; the kernel sorts the device copy in place.
    keys: Vec<u32>,
}

impl BitonicSort {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            data: None,
            keys: Vec::new(),
        }
    }
}

impl Workload for BitonicSort {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "bitonic_sort",
            suite: Suite::CudaSdk,
            description: "per-block bitonic sorting network in shared memory",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let blocks = scale.pick(2, 16, 128) as u32;
        let n = blocks * TILE;
        let mut rng = SeededRng::seed_from_u64(self.seed);
        let data: Vec<u32> = (0..n).map(|_| rng.gen_range(0..1 << 24)).collect();

        let hdata = device.alloc_u32(&data);
        self.data = Some(hdata);
        self.keys = data;

        let mut b = KernelBuilder::new("bitonic_sort");
        let pdata = b.param_u32("data");
        let smem = b.alloc_shared(TILE * 4);
        let tid = b.var_u32(b.tid_x());
        let gid = b.global_tid_x();
        let ga = b.index(pdata, gid, 4);
        let v = b.ld_global_u32(ga);
        let sa = b.index(smem, tid, 4);
        b.st_shared_u32(sa, v);
        b.barrier();

        // for (k = 2; k <= TILE; k <<= 1)
        //   for (j = k >> 1; j > 0; j >>= 1)
        let k = b.var_u32(Value::U32(2));
        b.while_(
            |b| b.le_u32(k, Value::U32(TILE)),
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
        let kernel = b.build()?;

        Ok(vec![LaunchSpec {
            label: "bitonic_sort".into(),
            kernel,
            config: LaunchConfig::new(blocks, TILE),
            args: vec![hdata.arg()],
        }])
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        // Expected: each tile independently sorted ascending.
        let mut expected = self.keys.clone();
        for chunk in expected.chunks_mut(TILE as usize) {
            chunk.sort_unstable();
        }
        let got = device.read_u32(self.data.as_ref().expect("setup"));
        check_u32("bitonic_sort", &got, &expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut BitonicSort::new(12), Scale::Tiny).unwrap();
    }
}
