//! One set of launch books: a solo launch and a co-scheduled pair pass
//! the same launch boundary, so the recorder books every launched kernel
//! exactly once, and every launch opens one `launch/` span and records
//! one `launch.latency_ns` sample.
//!
//! This test installs the global recorder, so it lives in its own
//! integration-test binary: no other test's launches can reach it.

use std::sync::Arc;

use gwc_obs::metrics::MetricsRecorder;
use gwc_simt::backend::BackendKind;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{Device, PairLaunch};
use gwc_simt::kernel::Kernel;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::sched::{PerKernel, SchedPolicy};
use gwc_simt::trace::NullObserver;

/// `out[i] = i`, named `name`.
fn fill(name: &str) -> Kernel {
    let mut b = KernelBuilder::new(name);
    let out = b.param_u32("out");
    let i = b.global_tid_x();
    let addr = b.index(out, i, 4);
    b.st_global_u32(addr, i);
    b.build().expect("build fill kernel")
}

#[test]
fn solo_and_pair_launches_share_one_set_of_books() {
    let (a, b) = (fill("A"), fill("B"));
    let (cfg_a, cfg_b) = (LaunchConfig::linear(128, 32), LaunchConfig::linear(64, 32));

    let rec = Arc::new(MetricsRecorder::default());
    let guard = gwc_obs::install(rec.clone());
    let mut dev = Device::with_backend(BackendKind::Simd);
    let args_a = [dev.alloc_zeroed_u32(128).arg()];
    let args_b = [dev.alloc_zeroed_u32(64).arg()];
    let solo = dev.launch(&a, &cfg_a, &args_a).expect("solo launch");
    let [pa, pb] = dev
        .launch_pair(
            PairLaunch {
                kernel: &a,
                config: &cfg_a,
                args: &args_a,
            },
            PairLaunch {
                kernel: &b,
                config: &cfg_b,
                args: &args_b,
            },
            SchedPolicy::RoundRobin,
            &mut PerKernel::new(vec![NullObserver, NullObserver]),
        )
        .expect("pair launch");
    drop(guard);
    let snap = rec.snapshot();

    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    };
    assert_eq!(counter("simt.launches"), Some(3));
    assert_eq!(counter(BackendKind::Simd.counter_name()), Some(3));
    assert_eq!(
        counter("simt.thread_instrs"),
        Some(solo.thread_instrs + pa.thread_instrs + pb.thread_instrs)
    );

    let latency = snap
        .hists
        .iter()
        .find(|(n, _)| n == "launch.latency_ns")
        .map(|(_, h)| h.count());
    assert_eq!(latency, Some(2), "one latency sample per launch");

    let spans: Vec<(&str, u64)> = snap
        .spans
        .iter()
        .map(|s| (s.path.as_str(), s.count))
        .collect();
    assert_eq!(spans, [("launch/A", 1), ("launch/A+B", 1)]);

    let kernels: Vec<(&str, u64)> = snap
        .kernels
        .iter()
        .map(|k| (k.name.as_str(), k.launches))
        .collect();
    assert_eq!(kernels, [("A", 2), ("B", 1)]);
    // Pair members profile like solo launches.
    let profiled: Vec<&str> = snap.execs.iter().map(|e| e.kernel.as_str()).collect();
    assert_eq!(profiled, ["A", "B"]);
}
