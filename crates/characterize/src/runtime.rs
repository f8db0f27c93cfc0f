//! The thread-count-taking launch entry point, [`profile_launch_sharded`].
//!
//! Every launch runs on the serial SIMT executor: a kernel's
//! characteristics are properties of its dynamic instruction and
//! address stream, which the serial executor produces exactly, and a
//! study gets its parallelism by fanning whole workloads out across
//! threads (`gwc_core::study`). The entry point keeps its `threads`
//! parameter so existing callers compile, and ignores it.

use gwc_simt::exec::Device;
use gwc_simt::instr::Value;
use gwc_simt::kernel::Kernel;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::trace::LaunchStats;
use gwc_simt::SimtError;

use crate::profiler::Profiler;

/// Profiles one launch into `profiler` through
/// [`Profiler::profile_launch`]; `threads` is ignored. New code should
/// call [`Profiler::profile_launch`] directly.
///
/// # Errors
///
/// Propagates any [`SimtError`] from the launch.
pub fn profile_launch_sharded(
    device: &mut Device,
    kernel: &Kernel,
    config: &LaunchConfig,
    args: &[Value],
    profiler: &mut Profiler,
    threads: usize,
) -> Result<LaunchStats, SimtError> {
    let _ = threads;
    profiler.profile_launch(device, kernel, config, args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::KernelProfile;
    use crate::sketch::ObserverTier;
    use gwc_simt::builder::KernelBuilder;

    /// A kernel that stresses every observer: divergence, shared memory
    /// with barrier, global loads of a shared table (reuse + sharing),
    /// and a strided store.
    fn busy_kernel() -> Kernel {
        let mut b = KernelBuilder::new("busy");
        let table = b.param_u32("table");
        let out = b.param_u32("out");
        let smem = b.alloc_shared(64 * 4);
        let i = b.global_tid_x();
        let tid = b.var_u32(b.tid_x());
        let sa = b.index(smem, tid, 4);
        b.st_shared_u32(sa, i);
        b.barrier();
        let bit = b.and_u32(i, Value::U32(1));
        let odd = b.eq_u32(bit, Value::U32(1));
        let acc = b.var_f32(Value::F32(0.0));
        b.if_(odd, |b| {
            b.for_range_u32(Value::U32(0), Value::U32(8), 1, |b, j| {
                let sel = b.rem_u32(j, Value::U32(16));
                let ta = b.index(table, sel, 4);
                let v = b.ld_global_f32(ta);
                let n = b.add_f32(acc, v);
                b.assign(acc, n);
            });
        });
        let oi = b.index(out, i, 4);
        b.st_global_f32(oi, acc);
        b.build().unwrap()
    }

    fn setup(dev: &mut Device) -> Vec<Value> {
        let table = dev.alloc_f32(&[1.5; 16]);
        let out = dev.alloc_zeroed_f32(64 * 24);
        vec![table.arg(), out.arg()]
    }

    /// One launch profiled through the entry point at `threads`.
    fn profile_at(
        dev: &mut Device,
        k: &Kernel,
        config: &LaunchConfig,
        args: &[Value],
        tier: ObserverTier,
        threads: usize,
    ) -> KernelProfile {
        let mut p = Profiler::with_tier(tier);
        profile_launch_sharded(dev, k, config, args, &mut p, threads).unwrap();
        p.finish(k.name())
    }

    fn assert_bit_identical(serial: &KernelProfile, other: &KernelProfile, what: &str) {
        for (i, (a, b)) in serial.values().iter().zip(other.values()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: dim {i}: {a} vs {b}");
        }
        assert_eq!(serial.raw(), other.raw(), "{what}: raw counts");
    }

    #[test]
    fn sharded_profile_is_bit_identical_to_serial() {
        let k = busy_kernel();
        let config = LaunchConfig::new(24, 64);

        let mut dev_s = Device::new();
        let args = setup(&mut dev_s);
        let serial = crate::characterize_launch(&mut dev_s, &k, &config, &args).unwrap();

        for threads in [2, 3, 4, 8] {
            let mut dev_p = Device::new();
            let args = setup(&mut dev_p);
            let p = profile_at(&mut dev_p, &k, &config, &args, ObserverTier::Exact, threads);
            assert_bit_identical(&serial, &p, &format!("{threads} threads"));
            assert_eq!(
                dev_s.global_image(),
                dev_p.global_image(),
                "global memory diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn sharded_sketch_tier_is_bit_identical_to_serial() {
        let k = busy_kernel();
        let config = LaunchConfig::new(24, 64);

        let mut dev_s = Device::new();
        let args = setup(&mut dev_s);
        let serial = profile_at(&mut dev_s, &k, &config, &args, ObserverTier::Sketch, 1);

        for threads in [2, 3, 4, 8] {
            let mut dev_p = Device::new();
            let args = setup(&mut dev_p);
            let p = profile_at(
                &mut dev_p,
                &k,
                &config,
                &args,
                ObserverTier::Sketch,
                threads,
            );
            assert_bit_identical(&serial, &p, &format!("sketch at {threads} threads"));
        }
    }

    #[test]
    fn exec_profiles_are_thread_count_invariant() {
        use gwc_simt::profile::ExecProfile;

        let k = busy_kernel();
        let config = LaunchConfig::new(24, 64);
        let mut reference: Option<ExecProfile> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut dev = Device::new();
            dev.set_exec_profiling(Some(true));
            let args = setup(&mut dev);
            profile_at(&mut dev, &k, &config, &args, ObserverTier::Exact, threads);
            let exec = dev.take_exec_profile().expect("profile collected");
            let total = exec.total();
            assert!(total.warp_uops > 0 && total.lane_uops > 0);
            match &reference {
                Some(r) => assert_eq!(r, &exec, "exec profile differs at {threads} threads"),
                None => reference = Some(exec),
            }
        }
    }

    #[test]
    fn global_atomics_fall_back_to_serial() {
        let mut b = KernelBuilder::new("atomic");
        let out = b.param_u32("out");
        let i = b.global_tid_x();
        let slot = b.rem_u32(i, Value::U32(4));
        let oa = b.index(out, slot, 4);
        b.atomic_add_global_u32(oa, Value::U32(1));
        let k = b.build().unwrap();

        let config = LaunchConfig::new(16, 32);
        let mut dev_s = Device::new();
        let out_s = dev_s.alloc_zeroed_u32(4);
        let serial = crate::characterize_launch(&mut dev_s, &k, &config, &[out_s.arg()]).unwrap();

        let mut dev_p = Device::new();
        let out_p = dev_p.alloc_zeroed_u32(4);
        let p = profile_at(
            &mut dev_p,
            &k,
            &config,
            &[out_p.arg()],
            ObserverTier::Exact,
            4,
        );
        assert_eq!(serial.values(), p.values());
        assert_eq!(dev_s.read_u32(&out_s), dev_p.read_u32(&out_p));
        assert_eq!(dev_s.read_u32(&out_s), vec![128; 4]);
    }

    #[test]
    fn sharded_write_back_reproduces_serial_memory() {
        let mut b = KernelBuilder::new("stream");
        let out = b.param_u32("out");
        let i = b.global_tid_x();
        let sq = b.mul_u32(i, i);
        let oi = b.index(out, i, 4);
        b.st_global_u32(oi, sq);
        let k = b.build().unwrap();

        let n = 1024;
        let config = LaunchConfig::linear(n, 64);
        let mut dev = Device::new();
        let out = dev.alloc_zeroed_u32(n as usize);
        profile_at(&mut dev, &k, &config, &[out.arg()], ObserverTier::Exact, 4);
        let got = dev.read_u32(&out);
        for (i, &v) in got.iter().enumerate() {
            assert_eq!(v, (i as u32).wrapping_mul(i as u32), "element {i}");
        }
    }
}
