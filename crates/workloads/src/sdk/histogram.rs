//! `histogram` — 64-bin histogram (CUDA SDK).
//!
//! Two kernels, matching the SDK's two strategies:
//!
//! * `histogram_global` — every thread atomically increments the global
//!   bin array directly (contended global atomics);
//! * `histogram_smem` — each block accumulates a private shared-memory
//!   histogram, then merges it into the global one (shared atomics plus a
//!   short merge phase).

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{check_u32, LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

const BINS: u32 = 64;
const BLOCK: u32 = 256;

/// See the [module docs](self).
#[derive(Debug)]
pub struct Histogram {
    seed: u64,
    bins_global: Option<BufferHandle>,
    bins_smem: Option<BufferHandle>,
    data: Vec<u32>,
}

impl Histogram {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            bins_global: None,
            bins_smem: None,
            data: Vec::new(),
        }
    }
}

impl Workload for Histogram {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "histogram",
            suite: Suite::CudaSdk,
            description:
                "64-bin histogram; direct global atomics and shared-memory privatized variants",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let n = scale.pick(1 << 10, 1 << 14, 1 << 17) as u32;
        let mut rng = SeededRng::seed_from_u64(self.seed);
        let data: Vec<u32> = (0..n).map(|_| rng.gen_range(0..1 << 20)).collect();

        let hdata = device.alloc_u32(&data);
        let hg = device.alloc_zeroed_u32(BINS as usize);
        let hs = device.alloc_zeroed_u32(BINS as usize);
        self.bins_global = Some(hg);
        self.bins_smem = Some(hs);
        self.data = data;

        // --- direct global atomics ------------------------------------------
        let mut b = KernelBuilder::new("histogram_global");
        let pdata = b.param_u32("data");
        let pbins = b.param_u32("bins");
        let pn = b.param_u32("n");
        let i = b.global_tid_x();
        let in_range = b.lt_u32(i, pn);
        b.if_(in_range, |b| {
            let da = b.index(pdata, i, 4);
            let v = b.ld_global_u32(da);
            let bin = b.rem_u32(v, Value::U32(BINS));
            let ba = b.index(pbins, bin, 4);
            b.atomic_add_global_u32(ba, Value::U32(1));
        });
        let global = b.build()?;

        // --- shared-memory privatized ----------------------------------------
        let mut b = KernelBuilder::new("histogram_smem");
        let pdata = b.param_u32("data");
        let pbins = b.param_u32("bins");
        let pn = b.param_u32("n");
        let sbins = b.alloc_shared(BINS * 4);
        let tid = b.var_u32(b.tid_x());
        // Zero the shared bins (BLOCK >= BINS; first BINS threads).
        let zeroer = b.lt_u32(tid, Value::U32(BINS));
        b.if_(zeroer, |b| {
            let sa = b.index(sbins, tid, 4);
            b.st_shared_u32(sa, Value::U32(0));
        });
        b.barrier();
        let i = b.global_tid_x();
        let in_range = b.lt_u32(i, pn);
        b.if_(in_range, |b| {
            let da = b.index(pdata, i, 4);
            let v = b.ld_global_u32(da);
            let bin = b.rem_u32(v, Value::U32(BINS));
            let sa = b.index(sbins, bin, 4);
            b.atomic_add_shared_u32(sa, Value::U32(1));
        });
        b.barrier();
        b.if_(zeroer, |b| {
            let sa = b.index(sbins, tid, 4);
            let count = b.ld_shared_u32(sa);
            let has = b.gt_u32(count, Value::U32(0));
            b.if_(has, |b| {
                let ga = b.index(pbins, tid, 4);
                b.atomic_add_global_u32(ga, count);
            });
        });
        let smem = b.build()?;

        let cfg = LaunchConfig::linear(n, BLOCK);
        Ok(vec![
            LaunchSpec {
                label: "histogram_global".into(),
                kernel: global,
                config: cfg,
                args: vec![hdata.arg(), hg.arg(), Value::U32(n)],
            },
            LaunchSpec {
                label: "histogram_smem".into(),
                kernel: smem,
                config: cfg,
                args: vec![hdata.arg(), hs.arg(), Value::U32(n)],
            },
        ])
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let mut expected = vec![0u32; BINS as usize];
        for &v in &self.data {
            expected[(v % BINS) as usize] += 1;
        }
        let g = device.read_u32(self.bins_global.as_ref().expect("setup"));
        check_u32("histogram_global", &g, &expected)?;
        let s = device.read_u32(self.bins_smem.as_ref().expect("setup"));
        check_u32("histogram_smem", &s, &expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut Histogram::new(8), Scale::Tiny).unwrap();
    }
}
