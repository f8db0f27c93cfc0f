//! `reduction` — parallel sum reduction (CUDA SDK).
//!
//! Four kernel variants from the classic SDK sample (reduce0/reduce1,
//! reduce3, reduce6), deliberately kept together because the paper
//! highlights Parallel Reduction as a workload whose *kernels differ
//! strongly* from each other:
//!
//! * `reduce_interleaved` — the naive interleaved-addressing tree
//!   (`tid % (2*s) == 0`), which diverges the warp at every level;
//! * `reduce_sequential` — sequential addressing (`tid < s`), which keeps
//!   warps converged until the last few levels;
//! * `reduce_first_add` — half the blocks, two global loads per thread
//!   (first add during load) — double the memory intensity;
//! * `reduce_grid_stride` — a small fixed grid where each thread loops over
//!   the input with a grid-size stride — the load-dominated extreme.
//!
//! A final single-block `reduce_sequential` pass combines the per-block
//! partial sums.

use crate::rng::SeededRng;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{BufferHandle, Device};
use gwc_simt::instr::Value;
use gwc_simt::kernel::Kernel;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::SimtError;

use crate::workload::{check_f32, LaunchSpec, Scale, Suite, VerifyError, Workload, WorkloadMeta};

const BLOCK: u32 = 256;

/// Fixed grid size of the grid-stride variant.
const STRIDE_BLOCKS: u32 = 4;

/// See the [module docs](self).
#[derive(Debug)]
pub struct ParallelReduction {
    seed: u64,
    partial_inter: Option<BufferHandle>,
    partial_seq: Option<BufferHandle>,
    partial_first_add: Option<BufferHandle>,
    partial_stride: Option<BufferHandle>,
    total: Option<BufferHandle>,
    data: Vec<f32>,
}

impl ParallelReduction {
    /// Creates the workload with a reproducible input seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            partial_inter: None,
            partial_seq: None,
            partial_first_add: None,
            partial_stride: None,
            total: None,
            data: Vec::new(),
        }
    }
}

/// Builds a per-block tree reduction kernel.
///
/// `interleaved` selects the naive divergent addressing; otherwise
/// sequential addressing is used.
fn reduction_kernel(name: &str, interleaved: bool) -> Result<Kernel, SimtError> {
    let mut b = KernelBuilder::new(name);
    let input = b.param_u32("in");
    let output = b.param_u32("out");
    let n = b.param_u32("n");
    let smem = b.alloc_shared(BLOCK * 4);

    let tid = b.var_u32(b.tid_x());
    let gid = b.global_tid_x();
    // Load (0 when out of range) into shared memory.
    let in_range = b.lt_u32(gid, n);
    let ga = b.index(input, gid, 4);
    let loaded = b.var_f32(Value::F32(0.0));
    b.if_(in_range, |b| {
        let v = b.ld_global_f32(ga);
        b.assign(loaded, v);
    });
    let sa = b.index(smem, tid, 4);
    b.st_shared_f32(sa, loaded);
    b.barrier();

    if interleaved {
        // for (s = 1; s < BLOCK; s *= 2)
        //   if (tid % (2*s) == 0) smem[tid] += smem[tid + s]
        let s = b.var_u32(Value::U32(1));
        b.while_(
            |b| b.lt_u32(s, Value::U32(BLOCK)),
            |b| {
                let two_s = b.mul_u32(s, Value::U32(2));
                let m = b.rem_u32(tid, two_s);
                let is_owner = b.eq_u32(m, Value::U32(0));
                b.if_(is_owner, |b| {
                    let other = b.add_u32(tid, s);
                    let oa = b.index(smem, other, 4);
                    let ov = b.ld_shared_f32(oa);
                    let ma = b.index(smem, tid, 4);
                    let mv = b.ld_shared_f32(ma);
                    let sum = b.add_f32(mv, ov);
                    b.st_shared_f32(ma, sum);
                });
                b.barrier();
                b.assign(s, two_s);
            },
        );
    } else {
        // for (s = BLOCK/2; s > 0; s >>= 1)
        //   if (tid < s) smem[tid] += smem[tid + s]
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
    }

    let leader = b.eq_u32(tid, Value::U32(0));
    b.if_(leader, |b| {
        let r = b.index(smem, Value::U32(0), 4);
        let total = b.ld_shared_f32(r);
        let oa = b.index(output, b.ctaid_x(), 4);
        b.st_global_f32(oa, total);
    });
    b.build()
}

/// Emits the sequential-addressing shared-memory tree plus the leader
/// store, shared by the remaining variants. `loaded` holds each thread's
/// pre-accumulated value.
fn emit_tree_and_store(
    b: &mut KernelBuilder,
    smem: gwc_simt::instr::Operand,
    tid: gwc_simt::instr::Reg,
    loaded: gwc_simt::instr::Reg,
    output: gwc_simt::instr::Operand,
) {
    let sa = b.index(smem, tid, 4);
    b.st_shared_f32(sa, loaded);
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
        let oa = b.index(output, b.ctaid_x(), 4);
        b.st_global_f32(oa, total);
    });
}

/// `reduce3`-style kernel: each thread loads and adds two elements
/// (`in[gid]` and `in[gid + span]`) before the shared tree.
fn first_add_kernel() -> Result<Kernel, SimtError> {
    let mut b = KernelBuilder::new("reduce_first_add");
    let input = b.param_u32("in");
    let output = b.param_u32("out");
    let span = b.param_u32("span");
    let smem = b.alloc_shared(BLOCK * 4);
    let tid = b.var_u32(b.tid_x());
    let gid = b.global_tid_x();
    let a0 = b.index(input, gid, 4);
    let v0 = b.ld_global_f32(a0);
    let hi_idx = b.add_u32(gid, span);
    let a1 = b.index(input, hi_idx, 4);
    let v1 = b.ld_global_f32(a1);
    let loaded = b.add_f32(v0, v1);
    emit_tree_and_store(&mut b, smem, tid, loaded, output);
    b.build()
}

/// `reduce6`-style kernel: a fixed small grid; each thread strides over
/// the whole input accumulating before the shared tree.
fn grid_stride_kernel() -> Result<Kernel, SimtError> {
    let mut b = KernelBuilder::new("reduce_grid_stride");
    let input = b.param_u32("in");
    let output = b.param_u32("out");
    let n = b.param_u32("n");
    let smem = b.alloc_shared(BLOCK * 4);
    let tid = b.var_u32(b.tid_x());
    let gid = b.global_tid_x();
    let stride = b.mul_u32(b.nctaid_x(), b.ntid_x());
    let acc = b.var_f32(Value::F32(0.0));
    let i = b.var_u32(gid);
    b.while_(
        |b| b.lt_u32(i, n),
        |b| {
            let a = b.index(input, i, 4);
            let v = b.ld_global_f32(a);
            let sum = b.add_f32(acc, v);
            b.assign(acc, sum);
            let next = b.add_u32(i, stride);
            b.assign(i, next);
        },
    );
    emit_tree_and_store(&mut b, smem, tid, acc, output);
    b.build()
}

impl Workload for ParallelReduction {
    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            name: "parallel_reduction",
            suite: Suite::CudaSdk,
            description: "tree-based sum reduction; divergent and converged kernel variants",
        }
    }

    fn setup(&mut self, device: &mut Device, scale: Scale) -> Result<Vec<LaunchSpec>, SimtError> {
        let blocks = scale.pick(4, 32, 256) as u32;
        let n = blocks * BLOCK;
        let mut rng = SeededRng::seed_from_u64(self.seed);
        // Small integers keep float sums exact.
        let data: Vec<f32> = (0..n).map(|_| rng.gen_range(0..8) as f32).collect();

        let hin = device.alloc_f32(&data);
        let hpi = device.alloc_zeroed_f32(blocks as usize);
        let hps = device.alloc_zeroed_f32(blocks as usize);
        let hpf = device.alloc_zeroed_f32((blocks / 2).max(1) as usize);
        let hpg = device.alloc_zeroed_f32(STRIDE_BLOCKS as usize);
        let htotal = device.alloc_zeroed_f32(1);
        self.partial_inter = Some(hpi);
        self.partial_seq = Some(hps);
        self.partial_first_add = Some(hpf);
        self.partial_stride = Some(hpg);
        self.total = Some(htotal);
        self.data = data;

        let inter = reduction_kernel("reduce_interleaved", true)?;
        let seq = reduction_kernel("reduce_sequential", false)?;
        let first_add = first_add_kernel()?;
        let grid_stride = grid_stride_kernel()?;

        let mut launches = vec![
            LaunchSpec {
                label: "reduce_interleaved".into(),
                kernel: inter,
                config: LaunchConfig::new(blocks, BLOCK),
                args: vec![hin.arg(), hpi.arg(), Value::U32(n)],
            },
            LaunchSpec {
                label: "reduce_sequential".into(),
                kernel: seq.clone(),
                config: LaunchConfig::new(blocks, BLOCK),
                args: vec![hin.arg(), hps.arg(), Value::U32(n)],
            },
            LaunchSpec {
                label: "reduce_first_add".into(),
                kernel: first_add,
                config: LaunchConfig::new((blocks / 2).max(1), BLOCK),
                args: vec![hin.arg(), hpf.arg(), Value::U32(n / 2)],
            },
            LaunchSpec {
                label: "reduce_grid_stride".into(),
                kernel: grid_stride,
                config: LaunchConfig::new(STRIDE_BLOCKS, BLOCK),
                args: vec![hin.arg(), hpg.arg(), Value::U32(n)],
            },
        ];
        // Final pass reduces the partials buffer directly (blocks <= BLOCK
        // always holds here; out-of-range threads load zero).
        launches.push(LaunchSpec {
            label: "reduce_sequential".into(),
            kernel: seq,
            config: LaunchConfig::new(1, BLOCK),
            args: vec![hps.arg(), htotal.arg(), Value::U32(blocks)],
        });
        Ok(launches)
    }

    fn verify(&self, device: &Device) -> Result<(), VerifyError> {
        let data = &self.data;
        let n = data.len();
        let expected_partials: Vec<f32> = data
            .chunks(BLOCK as usize)
            .map(|c| c.iter().sum())
            .collect();
        let expected_total: f32 = data.iter().sum();
        // First-add variant: half the blocks, each thread adds in[g] and
        // in[g + n/2].
        let half = n / 2;
        let expected_first_add: Vec<f32> = data[..half]
            .chunks(BLOCK as usize)
            .zip(data[half..].chunks(BLOCK as usize))
            .map(|(a, bb)| a.iter().sum::<f32>() + bb.iter().sum::<f32>())
            .collect();
        // Grid-stride variant: STRIDE_BLOCKS block sums over strided lanes.
        let stride_threads = (STRIDE_BLOCKS * BLOCK) as usize;
        let expected_stride: Vec<f32> = (0..STRIDE_BLOCKS as usize)
            .map(|blk| {
                let mut sum = 0.0f32;
                for t in 0..BLOCK as usize {
                    let mut i = blk * BLOCK as usize + t;
                    while i < n {
                        sum += data[i];
                        i += stride_threads;
                    }
                }
                sum
            })
            .collect();
        let pi = device.read_f32(self.partial_inter.as_ref().expect("setup"));
        check_f32("interleaved partials", &pi, &expected_partials, 1e-5)?;
        let ps = device.read_f32(self.partial_seq.as_ref().expect("setup"));
        check_f32("sequential partials", &ps, &expected_partials, 1e-5)?;
        let pf = device.read_f32(self.partial_first_add.as_ref().expect("setup"));
        check_f32("first-add partials", &pf, &expected_first_add, 1e-4)?;
        let pg = device.read_f32(self.partial_stride.as_ref().expect("setup"));
        check_f32("grid-stride partials", &pg, &expected_stride, 1e-4)?;
        let total = device.read_f32(self.total.as_ref().expect("setup"));
        check_f32("total", &total, &[expected_total], 1e-4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::run_workload;

    #[test]
    fn verifies_at_tiny_scale() {
        run_workload(&mut ParallelReduction::new(2), Scale::Tiny).unwrap();
    }

    #[test]
    fn verifies_at_small_scale() {
        run_workload(&mut ParallelReduction::new(3), Scale::Small).unwrap();
    }
}
