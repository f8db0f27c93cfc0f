//! Seeded randomized partition test.
//!
//! For dozens of seeded random kernels, launch geometries, and block
//! partitions, observing each shard separately and merging must equal
//! observing the whole trace — bit for bit — and the absorbed global
//! memory must match the serial run byte for byte.

use gwc_characterize::merge::{merge_stats, MergeableObserver};
use gwc_characterize::{characterize_launch, KernelProfile, Profiler};
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::Device;
use gwc_simt::instr::Value;
use gwc_simt::kernel::Kernel;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::trace::{LaunchStats, TraceObserver};

const TABLE_LEN: u32 = 32;

/// splitmix64: a self-contained generator so this test needs no deps.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Builds a random, block-shardable kernel from `seed`. No global
/// atomics are ever emitted and the only global store targets the
/// thread's own `out` slot, so the block-sharding contract holds by
/// construction.
fn random_kernel(seed: u64) -> Kernel {
    let mut rng = Rng(seed);
    let mut b = KernelBuilder::new("random");
    let table = b.param_u32("table");
    let out = b.param_u32("out");
    let gid = b.global_tid_x();
    let facc = b.var_f32(Value::F32(1.0));
    let iacc = b.var_u32(gid);

    if rng.below(2) == 0 {
        // Shared-memory stage: block-local exchange through a barrier.
        let smem = b.alloc_shared(128 * 4);
        let tid = b.var_u32(b.tid_x());
        let sa = b.index(smem, tid, 4);
        b.st_shared_u32(sa, gid);
        b.barrier();
        let v = b.ld_shared_u32(sa);
        let x = b.xor_u32(iacc, v);
        b.assign(iacc, x);
    }

    for _ in 0..1 + rng.below(6) {
        match rng.below(5) {
            0 => {
                // Integer arithmetic on the accumulator.
                let c = 1 + rng.below(999) as u32;
                let m = b.mul_u32(iacc, Value::U32(c | 1));
                let s = b.add_u32(m, Value::U32(c));
                b.assign(iacc, s);
            }
            1 => {
                // Data-dependent table load.
                let sel = b.rem_u32(iacc, Value::U32(TABLE_LEN));
                let ta = b.index(table, sel, 4);
                let v = b.ld_global_f32(ta);
                let n = b.add_f32(facc, v);
                b.assign(facc, n);
            }
            2 => {
                // Divergent guard: a lane-dependent subset loops.
                let mask = 1u32 << rng.below(3);
                let trip = 2 + rng.below(4) as u32;
                let bit = b.and_u32(gid, Value::U32(mask));
                let hit = b.eq_u32(bit, Value::U32(mask));
                b.if_(hit, |b| {
                    b.for_range_u32(Value::U32(0), Value::U32(trip), 1, |b, j| {
                        let n = b.add_u32(iacc, j);
                        b.assign(iacc, n);
                    });
                });
            }
            3 => {
                // SFU work.
                let a = b.abs_f32(facc);
                let r = b.sqrt_f32(a);
                let n = b.add_f32(r, Value::F32(0.25));
                b.assign(facc, n);
            }
            _ => {
                // Strided table loop: reuse at a random stride.
                let stride = 1 + rng.below(4) as u32;
                let trip = 2 + rng.below(3) as u32;
                b.for_range_u32(Value::U32(0), Value::U32(trip), 1, |b, j| {
                    let sj = b.mul_u32(j, Value::U32(stride));
                    let base = b.add_u32(sj, gid);
                    let sel = b.rem_u32(base, Value::U32(TABLE_LEN));
                    let ta = b.index(table, sel, 4);
                    let v = b.ld_global_f32(ta);
                    let n = b.add_f32(facc, v);
                    b.assign(facc, n);
                });
            }
        }
    }

    let fi = b.to_f32(iacc);
    let total = b.add_f32(facc, fi);
    let oi = b.index(out, gid, 4);
    b.st_global_f32(oi, total);
    b.build().expect("random kernel is well-formed")
}

fn setup(dev: &mut Device, total_threads: usize) -> Vec<Value> {
    let table_vals: Vec<f32> = (0..TABLE_LEN).map(|i| 1.0 + i as f32 * 0.5).collect();
    let table = dev.alloc_f32(&table_vals);
    let out = dev.alloc_zeroed_f32(total_threads);
    vec![table.arg(), out.arg()]
}

/// Runs the launch shard-by-shard over the given block-range `bounds`
/// (`bounds[i]..bounds[i+1]` per shard), merging observers in ascending
/// block order — the same protocol as
/// `gwc_characterize::profile_launch_sharded`, but with an arbitrary
/// partition instead of an even one.
fn profile_partitioned(
    dev: &mut Device,
    kernel: &Kernel,
    config: &LaunchConfig,
    args: &[Value],
    bounds: &[u32],
) -> KernelProfile {
    let mut master = Profiler::new();
    master.on_launch(kernel, config);
    let base = dev.global_image().to_vec();
    // Fork every shard from the pre-launch state first (parallel
    // semantics), then fold in ascending order.
    let shards: Vec<(Device, Profiler, LaunchStats)> = bounds
        .windows(2)
        .map(|w| {
            let mut sd = dev.fork();
            let mut sp = Profiler::shard(kernel, config);
            let stats = sd
                .run_block_range(kernel, config, args, w[0], w[1], &mut sp)
                .expect("shard runs");
            (sd, sp, stats)
        })
        .collect();
    let mut total = LaunchStats::default();
    for (sd, sp, stats) in shards {
        master.merge(sp);
        merge_stats(&mut total, &stats);
        dev.absorb_writes(&base, &sd);
    }
    master.on_launch_end(&total);
    master.finish(kernel.name())
}

#[test]
fn random_partitions_match_whole_trace() {
    for seed in 0..48u64 {
        let mut rng = Rng(seed.wrapping_mul(0x5851_F42D_4C95_7F2D) + 1);
        let kernel = random_kernel(rng.next());
        assert!(kernel.is_block_shardable(), "seed {seed}");
        let blocks = 2 + rng.below(8) as u32;
        let tpb = [16u32, 32, 64, 128][rng.below(4) as usize];
        let config = LaunchConfig::new(blocks, tpb);
        let total_threads = (blocks * tpb) as usize;

        let mut dev_s = Device::new();
        let args_s = setup(&mut dev_s, total_threads);
        let serial =
            characterize_launch(&mut dev_s, &kernel, &config, &args_s).expect("serial launch");

        let mut bounds = vec![0u32, blocks];
        for _ in 0..rng.below(4) {
            let c = rng.below(blocks as u64) as u32;
            if c != 0 {
                bounds.push(c);
            }
        }
        bounds.sort_unstable();
        bounds.dedup();

        let mut dev_p = Device::new();
        let args_p = setup(&mut dev_p, total_threads);
        let merged = profile_partitioned(&mut dev_p, &kernel, &config, &args_p, &bounds);

        for (dim, (a, b)) in serial.values().iter().zip(merged.values()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "seed {seed}: dim {dim} differs for partition {bounds:?}: {a} vs {b}"
            );
        }
        assert_eq!(serial.raw(), merged.raw(), "seed {seed}");
        assert_eq!(
            dev_s.global_image(),
            dev_p.global_image(),
            "seed {seed}: global memory diverged"
        );
    }
}
