//! `scanLargeArrays` — exclusive prefix sum over a large array (CUDA SDK).
//!
//! Three kernels, exactly as the SDK structures it:
//!
//! 1. `scan_block` — each block scans its 256-element tile in shared
//!    memory (Hillis–Steele), writes the exclusive scan and its block sum;
//! 2. `scan_top` — one block scans the array of block sums;
//! 3. `uniform_add` — adds each block's scanned offset to its tile.
//!
//! The phases have very different profiles (branchy shared-memory tree vs.
//! pure streaming), which is why the paper calls Scan of Large Arrays out
//! as diverse in both the divergence and coalescing subspaces.

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::kernel::Kernel;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{check_f32, LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

const BLOCK: u32 = 256;

/// See the [module docs](self).
#[derive(Debug)]
pub struct ScanLargeArrays {
    seed: u64,
    out: Option<BufferHandle>,
    data: Vec<f32>,
}

impl ScanLargeArrays {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            out: None,
            data: Vec::new(),
        }
    }
}

/// Per-block exclusive scan with Hillis–Steele double buffering in shared
/// memory; writes the tile scan and the tile total.
fn scan_block_kernel() -> Result<Kernel, SimtError> {
    let mut b = KernelBuilder::new("scan_block");
    let input = b.param_u32("in");
    let output = b.param_u32("out");
    let sums = b.param_u32("sums");
    // Double buffer: 2 × BLOCK floats.
    let smem = b.alloc_shared(2 * BLOCK * 4);

    let tid = b.var_u32(b.tid_x());
    let gid = b.global_tid_x();
    let ga = b.index(input, gid, 4);
    let v = b.ld_global_f32(ga);
    // ping = 0, pong = BLOCK*4.
    let ping = b.var_u32(Value::U32(0));
    let pong = b.var_u32(Value::U32(BLOCK * 4));
    let base_in = b.add_u32(ping, smem);
    let sa = b.index(base_in, tid, 4);
    b.st_shared_f32(sa, v);
    b.barrier();

    // Hillis–Steele inclusive scan: for (off = 1; off < BLOCK; off <<= 1)
    let off = b.var_u32(Value::U32(1));
    b.while_(
        |b| b.lt_u32(off, Value::U32(BLOCK)),
        |b| {
            let src_base = b.add_u32(ping, smem);
            let dst_base = b.add_u32(pong, smem);
            let my_src = b.index(src_base, tid, 4);
            let mine = b.ld_shared_f32(my_src);
            let has_left = b.ge_u32(tid, off);
            let total = b.var_f32(mine);
            b.if_(has_left, |b| {
                let left_idx = b.sub_u32(tid, off);
                let la = b.index(src_base, left_idx, 4);
                let lv = b.ld_shared_f32(la);
                let s = b.add_f32(mine, lv);
                b.assign(total, s);
            });
            let my_dst = b.index(dst_base, tid, 4);
            b.st_shared_f32(my_dst, total);
            b.barrier();
            // Swap buffers.
            let tmp = b.var_u32(ping);
            b.assign(ping, pong);
            b.assign(pong, tmp);
            let next = b.shl_u32(off, Value::U32(1));
            b.assign(off, next);
        },
    );

    // Convert inclusive -> exclusive on write: out[gid] = inclusive - v.
    let res_base = b.add_u32(ping, smem);
    let ra = b.index(res_base, tid, 4);
    let inclusive = b.ld_shared_f32(ra);
    let exclusive = b.sub_f32(inclusive, v);
    let oa = b.index(output, gid, 4);
    b.st_global_f32(oa, exclusive);
    // Last thread writes the block total.
    let last = b.eq_u32(tid, Value::U32(BLOCK - 1));
    b.if_(last, |b| {
        let sa = b.index(sums, b.ctaid_x(), 4);
        b.st_global_f32(sa, inclusive);
    });
    b.build()
}

/// Adds `offsets[blockIdx]` to every element of the block's tile.
fn uniform_add_kernel() -> Result<Kernel, SimtError> {
    let mut b = KernelBuilder::new("uniform_add");
    let data = b.param_u32("data");
    let offsets = b.param_u32("offsets");
    let gid = b.global_tid_x();
    let oa = b.index(offsets, b.ctaid_x(), 4);
    let off = b.ld_global_f32(oa);
    let da = b.index(data, gid, 4);
    let v = b.ld_global_f32(da);
    let nv = b.add_f32(v, off);
    b.st_global_f32(da, nv);
    b.build()
}

impl Workload for ScanLargeArrays {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "scan_large_arrays",
            suite: Suite::CudaSdk,
            description: "multi-phase exclusive prefix sum (block scan, top scan, uniform add)",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let blocks = scale.pick(4, 32, 256) as u32;
        let n = blocks * BLOCK;
        let mut rng = SeededRng::seed_from_u64(self.seed);
        let data: Vec<f32> = (0..n).map(|_| rng.gen_range(0..4) as f32).collect();

        let hin = device.alloc_f32(&data);
        let hout = device.alloc_zeroed_f32(n as usize);
        let hsums = device.alloc_zeroed_f32(BLOCK as usize); // padded to BLOCK
        let hsums_scanned = device.alloc_zeroed_f32(BLOCK as usize);
        let htop = device.alloc_zeroed_f32(1);
        self.out = Some(hout);
        self.data = data;

        let scan = scan_block_kernel()?;
        let add = uniform_add_kernel()?;

        Ok(vec![
            LaunchSpec {
                label: "scan_block".into(),
                kernel: scan.clone(),
                config: LaunchConfig::new(blocks, BLOCK),
                args: vec![hin.arg(), hout.arg(), hsums.arg()],
            },
            // Top-level scan of the (padded) block sums in a single block.
            LaunchSpec {
                label: "scan_top".into(),
                kernel: scan,
                config: LaunchConfig::new(1, BLOCK),
                args: vec![hsums.arg(), hsums_scanned.arg(), htop.arg()],
            },
            LaunchSpec {
                label: "uniform_add".into(),
                kernel: add,
                config: LaunchConfig::new(blocks, BLOCK),
                args: vec![hout.arg(), hsums_scanned.arg()],
            },
        ])
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let mut acc = 0.0;
        let expected: Vec<f32> = self
            .data
            .iter()
            .map(|&v| {
                let e = acc;
                acc += v;
                e
            })
            .collect();
        let out = device.read_f32(self.out.as_ref().expect("setup"));
        check_f32("scan", &out, &expected, 1e-4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut ScanLargeArrays::new(4), Scale::Tiny).unwrap();
    }

    #[test]
    fn verifies_at_small_scale() {
        run_workload(&mut ScanLargeArrays::new(5), Scale::Small).unwrap();
    }
}
