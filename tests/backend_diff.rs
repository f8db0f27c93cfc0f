//! Cross-backend differential harness: the SIMD warp engine must be
//! bit-identical to the scalar reference.
//!
//! "Bit-identical" is checked at every observable layer:
//!
//! 1. **Trace stream** — every registry kernel runs through both
//!    backends under a [`TraceHasher`], which folds the full event
//!    stream (instructions with class/active/live/operands, per-lane
//!    memory addresses, branch outcomes, barriers, launch stats) into
//!    one digest. Equal digests mean the engines retired the same
//!    events in the same order with the same masks and addresses.
//! 2. **Memory image** — after each workload the devices' entire
//!    global memory must match byte for byte, and the workload's own
//!    `verify()` must pass on the SIMD device.
//! 3. **Profiles** — the 33-dimension characteristic vector produced
//!    by the characterization profiler matches bitwise across backends.
//! 4. **Generated kernels** — hundreds of seeded random kernels from
//!    [`gwc::simt::kgen`] (divergence / stride / atomic-density knobs)
//!    sweep the corners registry workloads don't reach. Set
//!    `GWC_DIFF_KERNELS` to change the count; the `#[ignore]`d
//!    `fuzz_500_generated_kernels` test is the CI nightly-style step.
//!
//! Backends are pinned per [`Device`] via [`Device::with_backend`] —
//! never via the process-global default or `GWC_BACKEND`, which would
//! race across the test harness's threads.

use std::collections::HashSet;

use gwc::characterize::characterize_launch;
use gwc::simt::backend::BackendKind;
use gwc::simt::exec::Device;
use gwc::simt::kgen;
use gwc::simt::trace::TraceHasher;
use gwc::simt::SimtError;
use gwc::workloads::{registry, Scale};

/// Registry seed; arbitrary but fixed so both backend instances see
/// identical workload data.
const SEED: u64 = 7;

/// Distinct kernels the registry must exercise for the differential
/// run to count as covering the suite. The registry currently ships
/// 41 distinct kernels across 115 launches; this floor catches an
/// accidental shrink without forbidding growth.
const MIN_REGISTRY_KERNELS: usize = 41;

fn diff_kernel_count() -> u64 {
    std::env::var("GWC_DIFF_KERNELS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

/// Runs every launch of every registry workload through both backends
/// and asserts the traces, stats, final memory images and workload
/// verification all agree.
#[test]
fn registry_traces_bit_identical_across_backends() {
    let mut scalar_wl = registry::all_workloads(SEED);
    let mut simd_wl = registry::all_workloads(SEED);
    assert_eq!(scalar_wl.len(), simd_wl.len());

    let mut kernels = HashSet::new();
    for (ws, wp) in scalar_wl.iter_mut().zip(simd_wl.iter_mut()) {
        let name = ws.meta().name;
        let mut ds = Device::with_backend(BackendKind::Scalar);
        let mut dp = Device::with_backend(BackendKind::Simd);
        let specs_s = ws.setup(&mut ds, Scale::Tiny).expect("scalar setup");
        let specs_p = wp.setup(&mut dp, Scale::Tiny).expect("simd setup");
        assert_eq!(specs_s.len(), specs_p.len(), "{name}: launch count");

        for (ls, lp) in specs_s.iter().zip(specs_p.iter()) {
            assert_eq!(
                ls.kernel.content_hash(),
                lp.kernel.content_hash(),
                "{name}/{}: setup must be backend-independent",
                ls.label
            );
            kernels.insert(ls.kernel.content_hash());

            let mut hs = TraceHasher::new();
            let mut hp = TraceHasher::new();
            let ss = ds
                .launch_observed(&ls.kernel, &ls.config, &ls.args, &mut hs)
                .expect("scalar launch");
            let sp = dp
                .launch_observed(&lp.kernel, &lp.config, &lp.args, &mut hp)
                .expect("simd launch");
            assert_eq!(ss, sp, "{name}/{}: launch stats", ls.label);
            assert_eq!(
                hs.events(),
                hp.events(),
                "{name}/{}: trace event count",
                ls.label
            );
            assert_eq!(
                hs.digest(),
                hp.digest(),
                "{name}/{}: trace digest",
                ls.label
            );
        }

        assert_eq!(
            ds.global_image(),
            dp.global_image(),
            "{name}: global memory image"
        );
        ws.verify(&ds).expect("scalar verify");
        wp.verify(&dp).expect("simd verify");
    }

    assert!(
        kernels.len() >= MIN_REGISTRY_KERNELS,
        "registry exercised only {} distinct kernels (< {MIN_REGISTRY_KERNELS})",
        kernels.len()
    );
}

/// The characteristic vectors of every registry launch must match
/// bitwise across backends.
#[test]
fn registry_profiles_bit_identical_across_backends() {
    let mut scalar_wl = registry::all_workloads(SEED);
    let mut simd_wl = registry::all_workloads(SEED);
    for (ws, wp) in scalar_wl.iter_mut().zip(simd_wl.iter_mut()) {
        let name = ws.meta().name;
        let mut ds = Device::with_backend(BackendKind::Scalar);
        let mut dp = Device::with_backend(BackendKind::Simd);
        let specs_s = ws.setup(&mut ds, Scale::Tiny).expect("scalar setup");
        let specs_p = wp.setup(&mut dp, Scale::Tiny).expect("simd setup");

        for (ls, lp) in specs_s.iter().zip(specs_p.iter()) {
            let ps = characterize_launch(&mut ds, &ls.kernel, &ls.config, &ls.args)
                .expect("scalar profile");
            let pp = characterize_launch(&mut dp, &lp.kernel, &lp.config, &lp.args)
                .expect("simd profile");
            assert_eq!(ps.raw(), pp.raw(), "{name}/{}: raw counts", ls.label);
            let vs: Vec<u64> = ps.values().iter().map(|v| v.to_bits()).collect();
            let vp: Vec<u64> = pp.values().iter().map(|v| v.to_bits()).collect();
            assert_eq!(vs, vp, "{name}/{}: characteristic vector", ls.label);
        }
    }
}

/// Retired-µop accounting must be backend-invariant: with execution
/// profiling forced on (no recorder needed), both engines must report
/// identical per-µop-class and per-pc warp/lane counts for every
/// registry launch.
#[test]
fn exec_profiles_identical_across_backends() {
    let mut scalar_wl = registry::all_workloads(SEED);
    let mut simd_wl = registry::all_workloads(SEED);
    for (ws, wp) in scalar_wl.iter_mut().zip(simd_wl.iter_mut()) {
        let name = ws.meta().name;
        let mut ds = Device::with_backend(BackendKind::Scalar);
        let mut dp = Device::with_backend(BackendKind::Simd);
        ds.set_exec_profiling(Some(true));
        dp.set_exec_profiling(Some(true));
        let specs_s = ws.setup(&mut ds, Scale::Tiny).expect("scalar setup");
        let specs_p = wp.setup(&mut dp, Scale::Tiny).expect("simd setup");

        for (ls, lp) in specs_s.iter().zip(specs_p.iter()) {
            let ss = ds
                .launch(&ls.kernel, &ls.config, &ls.args)
                .expect("scalar launch");
            let sp = dp
                .launch(&lp.kernel, &lp.config, &lp.args)
                .expect("simd launch");
            let es = ds.take_exec_profile().expect("scalar profile collected");
            let ep = dp.take_exec_profile().expect("simd profile collected");
            assert_eq!(es, ep, "{name}/{}: exec profiles", ls.label);
            // The profile shadows the launch statistics exactly: both
            // engines account one µop per retired µop.
            assert_eq!(ss, sp, "{name}/{}: launch stats", ls.label);
            let total = es.total();
            assert_eq!(
                total.warp_uops, ss.warp_instrs,
                "{name}/{}: warp µops",
                ls.label
            );
            assert_eq!(
                total.lane_uops, ss.thread_instrs,
                "{name}/{}: lane µops",
                ls.label
            );
        }
    }
}

/// Runs one generated kernel through both backends and asserts trace,
/// stats and memory equivalence (or that both fail identically).
fn diff_generated(seed: u64) {
    let gk = kgen::generate_seeded(seed).expect("kernel generation");
    let mut ds = Device::with_backend(BackendKind::Scalar);
    let mut dp = Device::with_backend(BackendKind::Simd);
    let args_s = gk.alloc_args(&mut ds);
    let args_p = gk.alloc_args(&mut dp);

    let mut hs = TraceHasher::new();
    let mut hp = TraceHasher::new();
    let rs = ds.launch_observed(&gk.kernel, &gk.config, &args_s.args, &mut hs);
    let rp = dp.launch_observed(&gk.kernel, &gk.config, &args_p.args, &mut hp);

    match (&rs, &rp) {
        (Ok(ss), Ok(sp)) => assert_eq!(ss, sp, "seed {seed}: launch stats"),
        (Err(es), Err(ep)) => {
            assert_eq!(format!("{es:?}"), format!("{ep:?}"), "seed {seed}: errors")
        }
        _ => panic!("seed {seed}: one backend failed, the other did not: {rs:?} vs {rp:?}"),
    }
    assert_eq!(hs.events(), hp.events(), "seed {seed}: trace event count");
    assert_eq!(hs.digest(), hp.digest(), "seed {seed}: trace digest");
    assert_eq!(
        ds.global_image(),
        dp.global_image(),
        "seed {seed}: global memory image"
    );
    assert_eq!(
        ds.read_u32(&args_s.out),
        dp.read_u32(&args_p.out),
        "seed {seed}: u32 outputs"
    );
}

/// Sweeps seeded random kernels (default 200, `GWC_DIFF_KERNELS` to
/// override) through both backends.
#[test]
fn generated_kernels_bit_identical_across_backends() {
    let n = diff_kernel_count();
    for seed in 0..n {
        diff_generated(seed);
    }
}

/// Generated kernels' profiles must also agree across backends, for
/// kernels with and without global atomics alike.
#[test]
fn generated_kernel_profiles_match_across_backends() {
    for seed in 200..240 {
        let gk = kgen::generate_seeded(seed).expect("kernel generation");
        let mut ds = Device::with_backend(BackendKind::Scalar);
        let mut dp = Device::with_backend(BackendKind::Simd);
        let args_s = gk.alloc_args(&mut ds);
        let args_p = gk.alloc_args(&mut dp);
        let ps = characterize_launch(&mut ds, &gk.kernel, &gk.config, &args_s.args);
        let pp = characterize_launch(&mut dp, &gk.kernel, &gk.config, &args_p.args);
        match (ps, pp) {
            (Ok(ps), Ok(pp)) => {
                assert_eq!(ps.raw(), pp.raw(), "seed {seed}: raw counts");
                let vs: Vec<u64> = ps.values().iter().map(|v| v.to_bits()).collect();
                let vp: Vec<u64> = pp.values().iter().map(|v| v.to_bits()).collect();
                assert_eq!(vs, vp, "seed {seed}: characteristic vector");
            }
            (Err(es), Err(ep)) => {
                assert_eq!(format!("{es:?}"), format!("{ep:?}"), "seed {seed}: errors")
            }
            (ps, pp) => panic!("seed {seed}: backend disagreement: {ps:?} vs {pp:?}"),
        }
    }
}

/// Faulting kernels must fault identically: same error, same partial
/// memory writes, same trace prefix — across backends, and as either
/// member of a pair launch under every policy, where each must return
/// its solo launch's error and trace prefix. Exercises the fault paths
/// the generator deliberately avoids: divide-by-zero, an out-of-bounds
/// global store at a thread-dependent pc, and out-of-bounds loads from
/// every memory space and stores to shared and local memory, each
/// faulting at a middle active lane.
#[test]
fn faulting_kernels_fail_identically_across_backends() {
    use gwc::simt::builder::KernelBuilder;
    use gwc::simt::exec::PairLaunch;
    use gwc::simt::instr::{Space, Value};
    use gwc::simt::launch::LaunchConfig;
    use gwc::simt::sched::{PerKernel, SchedPolicy};

    // Out-of-bounds store at a thread-dependent pc.
    let mut b = KernelBuilder::new("oob_store");
    let base = b.param_u32("base");
    let i = b.global_tid_x();
    let addr = b.index(base, i, 64);
    b.st_global_u32(addr, i);
    let oob = b.build().expect("build oob kernel");

    // Divide by a value that is zero for the lower half-warp.
    let mut b = KernelBuilder::new("div_fault");
    let out = b.param_u32("out");
    let i = b.global_tid_x();
    let divisor = b.and_u32(i, Value::U32(16));
    let q = b.div_u32(i, divisor);
    let addr = b.index(out, i, 4);
    b.st_global_u32(addr, q);
    let div = b.build().expect("build div kernel");

    // An out-of-bounds load from `space` (or, with `store`, a store to
    // it). Every thread first stores its index to slot `i % 8` of
    // `base`, so the fault leaves partial writes to compare. Then the
    // even threads access an in-bounds address, or `FAR + 4 * i` from
    // thread 13 on: lane 14, the first active lane past 13, faults, and
    // the error's address names it.
    const FAR: u32 = 1 << 20;
    const FAULT_ADDR: u64 = FAR as u64 + 14 * 4;
    let oob_access = |space: Space, store: bool| {
        let kind = if store { "st" } else { "ld" };
        let mut b = KernelBuilder::new(format!("oob_{kind}_{space:?}").to_lowercase());
        let base = b.param_u32("base");
        let i = b.global_tid_x();
        let slot = b.and_u32(i, Value::U32(7));
        let own = b.index(base, slot, 4);
        b.st_global_u32(own, i);
        let odd = b.and_u32(i, Value::U32(1));
        let even = b.eq_u32(odd, Value::U32(0));
        b.if_(even, |b| {
            let ok = match space {
                Space::Global => own.base,
                Space::Shared => b.alloc_shared(64),
                Space::Const => Value::U32(4).into(),
                Space::Local => b.alloc_local(16),
            };
            let bad = b.ge_u32(i, Value::U32(13));
            let far = b.mad_u32(i, Value::U32(4), Value::U32(FAR));
            let at = b.sel_u32(bad, far, ok);
            let a = b.offset(at, 0);
            if store {
                match space {
                    Space::Shared => b.st_shared_u32(a, i),
                    Space::Local => b.st_local_u32(a, i),
                    _ => unreachable!("stores are exercised on shared and local"),
                }
            } else {
                let v = match space {
                    Space::Global => b.ld_global_u32(a),
                    Space::Shared => b.ld_shared_u32(a),
                    Space::Const => b.ld_const_u32(a),
                    Space::Local => b.ld_local_u32(a),
                };
                b.st_global_u32(own, v);
            }
        });
        b.build().expect("build oob access kernel")
    };
    let mut kernels = vec![(oob, None), (div, None)];
    for (space, store) in [
        (Space::Global, false),
        (Space::Shared, false),
        (Space::Const, false),
        (Space::Local, false),
        (Space::Shared, true),
        (Space::Local, true),
    ] {
        kernels.push((oob_access(space, store), Some(FAULT_ADDR)));
    }

    // The benign pair partner: every thread stores to its own slot.
    let mut b = KernelBuilder::new("fill");
    let out = b.param_u32("out");
    let i = b.global_tid_x();
    let addr = b.index(out, i, 4);
    b.st_global_u32(addr, i);
    let fill = b.build().expect("build fill kernel");
    let fill_cfg = LaunchConfig::linear(256, 32);
    // Every device holds the same 16 bytes of constant memory, so the
    // const load's in-bounds lanes read something.
    let device = |backend: BackendKind| {
        let mut dev = Device::with_backend(backend);
        dev.alloc_const_f32(&[1.5; 4]);
        dev
    };
    // Allocates the faulting kernel's and the partner's buffers in member
    // order, so a pair device and its solo reference share one layout
    // (out-of-bounds errors name the global memory size).
    let alloc = |dev: &mut Device, member: usize| {
        if member == 0 {
            let faulting = dev.alloc_zeroed_u32(8);
            (faulting, dev.alloc_zeroed_u32(256))
        } else {
            let partner = dev.alloc_zeroed_u32(256);
            (dev.alloc_zeroed_u32(8), partner)
        }
    };

    for (kernel, fault_addr) in &kernels {
        let mut ds = device(BackendKind::Scalar);
        let mut dp = device(BackendKind::Simd);
        let bs = ds.alloc_zeroed_u32(8);
        let bp = dp.alloc_zeroed_u32(8);
        let cfg = LaunchConfig::linear(64, 64);
        let mut hs = TraceHasher::new();
        let mut hp = TraceHasher::new();
        let rs = ds.launch_observed(kernel, &cfg, &[bs.arg()], &mut hs);
        let rp = dp.launch_observed(kernel, &cfg, &[bp.arg()], &mut hp);
        let es = rs.expect_err("scalar launch must fault");
        let ep = rp.expect_err("simd launch must fault");
        match fault_addr {
            Some(want) => assert!(
                matches!(es, SimtError::OutOfBounds { addr, .. } if addr == *want),
                "{}: must fault at lane 14, got {es:?}",
                kernel.name()
            ),
            None => assert!(matches!(
                es,
                SimtError::OutOfBounds { .. } | SimtError::DivideByZero { .. }
            )),
        }
        assert_eq!(
            format!("{es:?}"),
            format!("{ep:?}"),
            "{}: error",
            kernel.name()
        );
        assert_eq!(hs.digest(), hp.digest(), "{}: trace prefix", kernel.name());
        assert_eq!(
            ds.global_image(),
            dp.global_image(),
            "{}: partial writes",
            kernel.name()
        );

        for member in 0..2 {
            let mut solo_dev = device(BackendKind::Simd);
            let (buf, _) = alloc(&mut solo_dev, member);
            let mut solo = TraceHasher::new();
            let solo_err = solo_dev
                .launch_observed(kernel, &cfg, &[buf.arg()], &mut solo)
                .expect_err("solo launch must fault");
            for policy in SchedPolicy::ALL {
                let mut images = Vec::new();
                for backend in [BackendKind::Scalar, BackendKind::Simd] {
                    let what = format!(
                        "{} as member {member} under {} on {backend:?}",
                        kernel.name(),
                        policy.name()
                    );
                    let mut dev = device(backend);
                    let (buf, partner_buf) = alloc(&mut dev, member);
                    let (args, partner_args) = ([buf.arg()], [partner_buf.arg()]);
                    let faulting = PairLaunch {
                        kernel,
                        config: &cfg,
                        args: &args,
                    };
                    let partner = PairLaunch {
                        kernel: &fill,
                        config: &fill_cfg,
                        args: &partner_args,
                    };
                    let [a, b] = if member == 0 {
                        [faulting, partner]
                    } else {
                        [partner, faulting]
                    };
                    let mut hashers = PerKernel::new(vec![TraceHasher::new(), TraceHasher::new()]);
                    let err = dev
                        .launch_pair(a, b, policy, &mut hashers)
                        .expect_err("pair launch must fault");
                    assert_eq!(format!("{err:?}"), format!("{solo_err:?}"), "{what}: error");
                    assert_eq!(
                        hashers.members()[member].digest(),
                        solo.digest(),
                        "{what}: trace prefix"
                    );
                    images.push(dev.global_image().to_vec());
                }
                assert_eq!(
                    images[0],
                    images[1],
                    "{}: pair partial writes",
                    kernel.name()
                );
            }
        }
    }
}

/// Co-scheduled pair launches must be bit-identical across backends
/// under every dispatch policy — and each member's own trace must equal
/// its solo run. Every policy keeps a kernel's blocks in ascending
/// order on one device, so co-residence never changes what either
/// member executes: interference is observational (the shared reuse
/// timeline), never semantic.
///
/// The solo baselines set up *both* members (so the device heap layout
/// matches the co-run byte for byte) but launch only one, making the
/// per-member trace digests directly comparable.
#[test]
fn pair_launches_bit_identical_across_backends_and_policies() {
    use gwc::simt::exec::PairLaunch;
    use gwc::simt::sched::{PerKernel, SchedPolicy};
    use gwc::workloads::pairs::{partner_member, registry_member, PAIR_SCENARIOS};
    use gwc::workloads::LaunchSpec;

    fn pl(l: &LaunchSpec) -> PairLaunch<'_> {
        PairLaunch {
            kernel: &l.kernel,
            config: &l.config,
            args: &l.args,
        }
    }

    for scenario in &PAIR_SCENARIOS {
        // Per member: one (digest, events, stats) entry per launch.
        let mut solo = [Vec::new(), Vec::new()];
        for (member, records) in solo.iter_mut().enumerate() {
            let mut wa = registry_member(scenario.a, SEED);
            let mut wb = partner_member(scenario.partner, SEED);
            let mut dev = Device::with_backend(BackendKind::Simd);
            let la = wa.setup(&mut dev, Scale::Tiny).expect("solo setup a");
            let lb = wb.setup(&mut dev, Scale::Tiny).expect("solo setup b");
            for l in if member == 0 { &la } else { &lb } {
                let mut h = TraceHasher::new();
                let stats = dev
                    .launch_observed(&l.kernel, &l.config, &l.args, &mut h)
                    .expect("solo launch");
                records.push((h.digest(), h.events(), stats));
            }
        }

        for policy in SchedPolicy::ALL {
            let what = format!("{}/{}", scenario.name, policy.name());
            let mut a_s = registry_member(scenario.a, SEED);
            let mut b_s = partner_member(scenario.partner, SEED);
            let mut a_p = registry_member(scenario.a, SEED);
            let mut b_p = partner_member(scenario.partner, SEED);
            let mut ds = Device::with_backend(BackendKind::Scalar);
            let mut dp = Device::with_backend(BackendKind::Simd);
            let la_s = a_s.setup(&mut ds, Scale::Tiny).expect("scalar setup a");
            let lb_s = b_s.setup(&mut ds, Scale::Tiny).expect("scalar setup b");
            let la_p = a_p.setup(&mut dp, Scale::Tiny).expect("simd setup a");
            let lb_p = b_p.setup(&mut dp, Scale::Tiny).expect("simd setup b");
            let paired = la_s.len().min(lb_s.len());

            for i in 0..paired {
                let mut hs = PerKernel::new(vec![TraceHasher::new(), TraceHasher::new()]);
                let mut hp = PerKernel::new(vec![TraceHasher::new(), TraceHasher::new()]);
                let ss = ds
                    .launch_pair(pl(&la_s[i]), pl(&lb_s[i]), policy, &mut hs)
                    .expect("scalar pair launch");
                let sp = dp
                    .launch_pair(pl(&la_p[i]), pl(&lb_p[i]), policy, &mut hp)
                    .expect("simd pair launch");
                assert_eq!(ss, sp, "{what}: pair launch stats");
                let hs = hs.into_members();
                let hp = hp.into_members();
                for m in 0..2 {
                    assert_eq!(
                        hs[m].digest(),
                        hp[m].digest(),
                        "{what}: member {m} trace digest"
                    );
                    let (digest, events, stats) = &solo[m][i];
                    assert_eq!(
                        hs[m].digest(),
                        *digest,
                        "{what}: member {m} co-run trace must equal its solo run"
                    );
                    assert_eq!(hs[m].events(), *events, "{what}: member {m} event count");
                    assert_eq!(ss[m], *stats, "{what}: member {m} stats must equal solo");
                }
            }
            // Leftover launches of the longer member keep both devices
            // (and the solo baseline) in lockstep.
            for (specs_s, specs_p) in [(&la_s, &la_p), (&lb_s, &lb_p)] {
                for (ls, lp) in specs_s.iter().zip(specs_p.iter()).skip(paired) {
                    let ss = ds
                        .launch(&ls.kernel, &ls.config, &ls.args)
                        .expect("scalar leftover");
                    let sp = dp
                        .launch(&lp.kernel, &lp.config, &lp.args)
                        .expect("simd leftover");
                    assert_eq!(ss, sp, "{what}: leftover stats");
                }
            }

            assert_eq!(
                ds.global_image(),
                dp.global_image(),
                "{what}: global memory image"
            );
            a_s.verify(&ds).expect("scalar member a verifies");
            b_s.verify(&ds).expect("scalar member b verifies");
            a_p.verify(&dp).expect("simd member a verifies");
            b_p.verify(&dp).expect("simd member b verifies");
        }
    }
}

/// Nightly-style fuzz sweep: 500 generated kernels through the
/// differential check. Run explicitly (CI does) with
/// `cargo test --test backend_diff -- --ignored`.
#[test]
#[ignore = "long fuzz sweep; run explicitly or via the CI fuzz job"]
fn fuzz_500_generated_kernels() {
    for seed in 1_000..1_500 {
        diff_generated(seed);
    }
}
