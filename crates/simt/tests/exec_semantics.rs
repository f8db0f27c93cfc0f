//! End-to-end execution semantics of the SIMT engine: arithmetic, control
//! flow with divergence, shared memory + barriers, atomics, local memory,
//! error paths, trace-event accuracy, and seeded random kernels checked
//! against a CPU evaluation.

use gwc_simt::backend::BackendKind;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::{Device, DeviceLimits};
use gwc_simt::instr::{Reg, Value};
use gwc_simt::kgen::Rng;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::trace::{BranchEvent, InstrEvent, LaunchStats, MemEvent, TraceObserver};
use gwc_simt::SimtError;

/// out[i] = a[i] + b[i], guarded by i < n.
fn vec_add_kernel() -> gwc_simt::kernel::Kernel {
    let mut b = KernelBuilder::new("vec_add");
    let a = b.param_u32("a");
    let bb = b.param_u32("b");
    let out = b.param_u32("out");
    let n = b.param_u32("n");
    let i = b.global_tid_x();
    let p = b.lt_u32(i, n);
    b.if_(p, |b| {
        let ai = b.index(a, i, 4);
        let x = b.ld_global_f32(ai);
        let bi = b.index(bb, i, 4);
        let y = b.ld_global_f32(bi);
        let s = b.add_f32(x, y);
        let oi = b.index(out, i, 4);
        b.st_global_f32(oi, s);
    });
    b.build().unwrap()
}

#[test]
fn vec_add_exact() {
    let k = vec_add_kernel();
    let mut dev = Device::new();
    let n = 1000usize;
    let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let b: Vec<f32> = (0..n).map(|i| 2.0 * i as f32).collect();
    let ha = dev.alloc_f32(&a);
    let hb = dev.alloc_f32(&b);
    let hout = dev.alloc_zeroed_f32(n);
    dev.launch(
        &k,
        &LaunchConfig::linear(n as u32, 128),
        &[ha.arg(), hb.arg(), hout.arg(), Value::U32(n as u32)],
    )
    .unwrap();
    let out = dev.read_f32(&hout);
    for (i, &v) in out.iter().enumerate() {
        assert_eq!(v, 3.0 * i as f32);
    }
}

#[test]
fn guard_prevents_out_of_bounds() {
    // n = 100 with 128-thread blocks: threads 100..127 must not store.
    let k = vec_add_kernel();
    let mut dev = Device::new();
    let ha = dev.alloc_f32(&[1.0; 100]);
    let hb = dev.alloc_f32(&[1.0; 100]);
    let hout = dev.alloc_zeroed_f32(100);
    let stats = dev
        .launch(
            &k,
            &LaunchConfig::new(1, 128),
            &[ha.arg(), hb.arg(), hout.arg(), Value::U32(100)],
        )
        .unwrap();
    assert!(stats.warp_instrs > 0);
    assert_eq!(dev.read_f32(&hout), vec![2.0; 100]);
}

#[test]
fn if_else_divergent_paths_both_execute() {
    // out[i] = even(i) ? i * 10 : i + 1000
    let mut b = KernelBuilder::new("ie");
    let out = b.param_u32("out");
    let i = b.global_tid_x();
    let bit = b.and_u32(i, Value::U32(1));
    let even = b.eq_u32(bit, Value::U32(0));
    let oi = b.index(out, i, 4);
    b.if_else(
        even,
        |b| {
            let v = b.mul_u32(i, Value::U32(10));
            b.st_global_u32(oi, v);
        },
        |b| {
            let v = b.add_u32(i, Value::U32(1000));
            b.st_global_u32(oi, v);
        },
    );
    let k = b.build().unwrap();

    let mut dev = Device::new();
    let hout = dev.alloc_zeroed_u32(64);
    dev.launch(&k, &LaunchConfig::new(1, 64), &[hout.arg()])
        .unwrap();
    let out = dev.read_u32(&hout);
    for i in 0..64u32 {
        let expect = if i % 2 == 0 { i * 10 } else { i + 1000 };
        assert_eq!(out[i as usize], expect, "thread {i}");
    }
}

#[test]
fn divergent_loop_trip_counts() {
    // out[i] = sum of 0..i  (each lane loops a different number of times)
    let mut b = KernelBuilder::new("tri");
    let out = b.param_u32("out");
    let i = b.global_tid_x();
    let acc = b.var_u32(Value::U32(0));
    b.for_range_u32(Value::U32(0), i, 1, |b, j| {
        let next = b.add_u32(acc, j);
        b.assign(acc, next);
    });
    let oi = b.index(out, i, 4);
    b.st_global_u32(oi, acc);
    let k = b.build().unwrap();

    let mut dev = Device::new();
    let hout = dev.alloc_zeroed_u32(96);
    dev.launch(&k, &LaunchConfig::new(3, 32), &[hout.arg()])
        .unwrap();
    let out = dev.read_u32(&hout);
    for i in 0..96u32 {
        assert_eq!(out[i as usize], i * (i.wrapping_sub(1)) / 2, "thread {i}");
    }
}

#[test]
fn nested_divergence() {
    // out[i] = i%2==0 ? (i%4==0 ? 4 : 2) : 1
    let mut b = KernelBuilder::new("nest");
    let out = b.param_u32("out");
    let i = b.global_tid_x();
    let m2 = b.rem_u32(i, Value::U32(2));
    let m4 = b.rem_u32(i, Value::U32(4));
    let p2 = b.eq_u32(m2, Value::U32(0));
    let p4 = b.eq_u32(m4, Value::U32(0));
    let oi = b.index(out, i, 4);
    b.if_else(
        p2,
        |b| {
            b.if_else(
                p4,
                |b| b.st_global_u32(oi, Value::U32(4)),
                |b| b.st_global_u32(oi, Value::U32(2)),
            );
        },
        |b| b.st_global_u32(oi, Value::U32(1)),
    );
    let k = b.build().unwrap();

    let mut dev = Device::new();
    let hout = dev.alloc_zeroed_u32(32);
    dev.launch(&k, &LaunchConfig::new(1, 32), &[hout.arg()])
        .unwrap();
    let out = dev.read_u32(&hout);
    for (i, &v) in out.iter().enumerate() {
        let expect = if i % 2 == 0 {
            if i % 4 == 0 {
                4
            } else {
                2
            }
        } else {
            1
        };
        assert_eq!(v, expect, "thread {i}");
    }
}

#[test]
fn shared_memory_block_reduction() {
    // Classic tree reduction over one block of 256 values.
    let n: u32 = 256;
    let mut b = KernelBuilder::new("reduce");
    let input = b.param_u32("in");
    let output = b.param_u32("out");
    let smem = b.alloc_shared(n * 4);
    let tid = b.var_u32(b.tid_x());
    let gi = b.global_tid_x();
    let ia = b.index(input, gi, 4);
    let v = b.ld_global_f32(ia);
    let sa = b.index(smem, tid, 4);
    b.st_shared_f32(sa, v);
    b.barrier();
    // for (s = 128; s > 0; s >>= 1)
    let s = b.var_u32(Value::U32(n / 2));
    b.while_(
        |b| b.gt_u32(s, Value::U32(0)),
        |b| {
            let p = b.lt_u32(tid, s);
            b.if_(p, |b| {
                let other = b.add_u32(tid, s);
                let oa = b.index(smem, other, 4);
                let ov = b.ld_shared_f32(oa);
                let my = b.index(smem, tid, 4);
                let mv = b.ld_shared_f32(my);
                let sum = b.add_f32(mv, ov);
                b.st_shared_f32(my, sum);
            });
            b.barrier();
            let half = b.shr_u32(s, Value::U32(1));
            b.assign(s, half);
        },
    );
    let is_zero = b.eq_u32(tid, Value::U32(0));
    b.if_(is_zero, |b| {
        let r = b.index(smem, Value::U32(0), 4);
        let total = b.ld_shared_f32(r);
        let out0 = b.index(output, b.ctaid_x(), 4);
        b.st_global_f32(out0, total);
    });
    let k = b.build().unwrap();

    let mut dev = Device::new();
    let data: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
    let expected: f32 = data.iter().sum();
    let hin = dev.alloc_f32(&data);
    let hout = dev.alloc_zeroed_f32(1);
    let stats = dev
        .launch(&k, &LaunchConfig::new(1, n), &[hin.arg(), hout.arg()])
        .unwrap();
    assert_eq!(dev.read_f32(&hout)[0], expected);
    // log2(256) = 8 loop iterations, each with one barrier, plus the first.
    assert_eq!(stats.barriers, 9);
}

#[test]
fn barrier_in_divergent_code_is_error() {
    let mut b = KernelBuilder::new("bad_bar");
    let tid = b.var_u32(b.tid_x());
    let p = b.lt_u32(tid, Value::U32(8));
    b.if_(p, |b| b.barrier());
    let k = b.build().unwrap();
    let mut dev = Device::new();
    let err = dev.launch(&k, &LaunchConfig::new(1, 32), &[]).unwrap_err();
    assert!(matches!(err, SimtError::BarrierDivergence { .. }), "{err}");
}

#[test]
fn barrier_converged_multiwarp_ok() {
    // 4 warps all hit the same barrier; uniform condition per warp is fine.
    let mut b = KernelBuilder::new("bar_ok");
    let out = b.param_u32("out");
    let i = b.global_tid_x();
    let oi = b.index(out, i, 4);
    b.st_global_u32(oi, Value::U32(1));
    b.barrier();
    let v = b.ld_global_u32(oi);
    let v2 = b.add_u32(v, Value::U32(1));
    b.st_global_u32(oi, v2);
    let k = b.build().unwrap();
    let mut dev = Device::new();
    let hout = dev.alloc_zeroed_u32(128);
    let stats = dev
        .launch(&k, &LaunchConfig::new(1, 128), &[hout.arg()])
        .unwrap();
    assert_eq!(stats.barriers, 1);
    assert_eq!(dev.read_u32(&hout), vec![2u32; 128]);
}

#[test]
fn global_atomics_histogram() {
    // 1024 threads increment 16 bins.
    let mut b = KernelBuilder::new("hist");
    let bins = b.param_u32("bins");
    let i = b.global_tid_x();
    let bin = b.rem_u32(i, Value::U32(16));
    let ba = b.index(bins, bin, 4);
    b.atomic_add_global_u32(ba, Value::U32(1));
    let k = b.build().unwrap();
    let mut dev = Device::new();
    let hbins = dev.alloc_zeroed_u32(16);
    dev.launch(&k, &LaunchConfig::new(8, 128), &[hbins.arg()])
        .unwrap();
    assert_eq!(dev.read_u32(&hbins), vec![64u32; 16]);
}

#[test]
fn shared_atomics_and_minmax() {
    let mut b = KernelBuilder::new("sh_atom");
    let out = b.param_u32("out");
    let s = b.alloc_shared(8);
    let tid = b.var_u32(b.tid_x());
    let zero = b.eq_u32(tid, Value::U32(0));
    b.if_(zero, |b| {
        let a0 = b.offset(s, 0);
        b.st_shared_u32(a0, Value::U32(0));
    });
    b.barrier();
    let a0 = b.offset(s, 0);
    b.atomic_add_shared_u32(a0, Value::U32(2));
    b.barrier();
    b.if_(zero, |b| {
        let a0 = b.offset(s, 0);
        let total = b.ld_shared_u32(a0);
        let oa = b.offset(out, 0);
        b.st_global_u32(oa, total);
    });
    let k = b.build().unwrap();
    let mut dev = Device::new();
    let hout = dev.alloc_zeroed_u32(1);
    dev.launch(&k, &LaunchConfig::new(1, 64), &[hout.arg()])
        .unwrap();
    assert_eq!(dev.read_u32(&hout)[0], 128);
}

#[test]
fn atomic_max_and_cas() {
    let mut b = KernelBuilder::new("maxcas");
    let out = b.param_u32("out");
    let i = b.global_tid_x();
    let m = b.offset(out, 0);
    b.atomic_max_global_u32(m, i);
    let c = b.offset(out, 4);
    // Only the first thread to see 0 wins the CAS.
    b.atomic_cas_global_u32(c, Value::U32(0), i);
    let k = b.build().unwrap();
    let mut dev = Device::new();
    let hout = dev.alloc_zeroed_u32(2);
    dev.launch(&k, &LaunchConfig::new(2, 64), &[hout.arg()])
        .unwrap();
    let out = dev.read_u32(&hout);
    assert_eq!(out[0], 127, "atomic max of all thread ids");
    // CAS: thread 0 writes i=0 (no visible change), then the slot stays 0
    // until a nonzero thread succeeds — deterministically thread 1, since
    // lanes apply atomics in lane order and 0's write keeps the value 0.
    assert_eq!(out[1], 1);
}

#[test]
fn local_memory_is_private_per_thread() {
    let mut b = KernelBuilder::new("local");
    let out = b.param_u32("out");
    let lbuf = b.alloc_local(64);
    let i = b.global_tid_x();
    // Write thread id into local[0..16] and read back local[i % 16].
    b.for_range_u32(Value::U32(0), Value::U32(16), 1, |b, j| {
        let a = b.index(lbuf, j, 4);
        let v = b.add_u32(i, j);
        b.st_local_u32(a, v);
    });
    let sel = b.rem_u32(i, Value::U32(16));
    let a = b.index(lbuf, sel, 4);
    let v = b.ld_local_u32(a);
    let oi = b.index(out, i, 4);
    b.st_global_u32(oi, v);
    let k = b.build().unwrap();

    let mut dev = Device::new();
    let hout = dev.alloc_zeroed_u32(64);
    dev.launch(&k, &LaunchConfig::new(2, 32), &[hout.arg()])
        .unwrap();
    let out = dev.read_u32(&hout);
    for i in 0..64u32 {
        assert_eq!(out[i as usize], i + i % 16, "thread {i}");
    }
}

#[test]
fn const_memory_broadcast() {
    let mut b = KernelBuilder::new("cmem");
    let table = b.param_u32("table");
    let out = b.param_u32("out");
    let i = b.global_tid_x();
    let sel = b.rem_u32(i, Value::U32(4));
    let ta = b.index(table, sel, 4);
    let v = b.ld_const_f32(ta);
    let oi = b.index(out, i, 4);
    b.st_global_f32(oi, v);
    let k = b.build().unwrap();

    let mut dev = Device::new();
    let htab = dev.alloc_const_f32(&[1.5, 2.5, 3.5, 4.5]);
    let hout = dev.alloc_zeroed_f32(32);
    dev.launch(&k, &LaunchConfig::new(1, 32), &[htab.arg(), hout.arg()])
        .unwrap();
    let out = dev.read_f32(&hout);
    for (i, &v) in out.iter().enumerate() {
        assert_eq!(v, 1.5 + (i % 4) as f32);
    }
}

#[test]
fn ret_in_divergent_flow() {
    // Odd threads exit early; even threads still complete.
    let mut b = KernelBuilder::new("early");
    let out = b.param_u32("out");
    let i = b.global_tid_x();
    let bit = b.and_u32(i, Value::U32(1));
    let odd = b.eq_u32(bit, Value::U32(1));
    b.if_(odd, |b| b.ret());
    let oi = b.index(out, i, 4);
    b.st_global_u32(oi, Value::U32(7));
    let k = b.build().unwrap();

    let mut dev = Device::new();
    let hout = dev.alloc_zeroed_u32(64);
    dev.launch(&k, &LaunchConfig::new(1, 64), &[hout.arg()])
        .unwrap();
    let out = dev.read_u32(&hout);
    for (i, &v) in out.iter().enumerate() {
        assert_eq!(v, if i % 2 == 0 { 7 } else { 0 }, "thread {i}");
    }
}

#[test]
fn out_of_bounds_reported_with_pc() {
    let mut b = KernelBuilder::new("oob");
    let out = b.param_u32("out");
    let a = b.offset(out, 0);
    b.st_global_u32(a, Value::U32(1));
    let k = b.build().unwrap();
    let mut dev = Device::new();
    // Pass an address far past the allocation.
    let err = dev
        .launch(&k, &LaunchConfig::new(1, 32), &[Value::U32(1 << 30)])
        .unwrap_err();
    match err {
        SimtError::OutOfBounds { space, .. } => assert_eq!(space, "global"),
        other => panic!("expected OutOfBounds, got {other:?}"),
    }
}

#[test]
fn integer_div_by_zero_reported() {
    let mut b = KernelBuilder::new("div0");
    let d = b.param_u32("d");
    let i = b.global_tid_x();
    b.div_u32(i, d);
    b.ret();
    let k = b.build().unwrap();
    let mut dev = Device::new();
    let err = dev
        .launch(&k, &LaunchConfig::new(1, 32), &[Value::U32(0)])
        .unwrap_err();
    assert!(matches!(err, SimtError::DivideByZero { .. }));
}

#[test]
fn instruction_budget_enforced() {
    let mut b = KernelBuilder::new("long");
    let acc = b.var_u32(Value::U32(0));
    b.for_range_u32(Value::U32(0), Value::U32(1_000_000), 1, |b, j| {
        let n = b.add_u32(acc, j);
        b.assign(acc, n);
    });
    let k = b.build().unwrap();
    let mut dev = Device::new();
    dev.set_limits(DeviceLimits { instr_budget: 1000 });
    let err = dev.launch(&k, &LaunchConfig::new(1, 32), &[]).unwrap_err();
    assert!(matches!(
        err,
        SimtError::InstructionBudgetExceeded { budget: 1000 }
    ));
}

#[test]
fn launch_arg_validation() {
    let k = vec_add_kernel();
    let mut dev = Device::new();
    assert!(matches!(
        dev.launch(&k, &LaunchConfig::new(1, 32), &[]),
        Err(SimtError::BadLaunchArgs { .. })
    ));
    assert!(matches!(
        dev.launch(
            &k,
            &LaunchConfig::new(1, 32),
            &[Value::F32(0.0), Value::U32(0), Value::U32(0), Value::U32(0)]
        ),
        Err(SimtError::BadLaunchArgs { .. })
    ));
}

/// Observer recording branch outcomes and activity.
#[derive(Default)]
struct Recorder {
    branches: Vec<BranchEvent>,
    warp_instrs: u64,
    active_lanes: u64,
    mem_events: Vec<(u32, Vec<u32>)>,
    stats: Option<LaunchStats>,
}

impl TraceObserver for Recorder {
    fn on_instr(&mut self, e: &InstrEvent<'_>) {
        self.warp_instrs += 1;
        self.active_lanes += e.active_lanes() as u64;
    }
    fn on_branch(&mut self, e: &BranchEvent) {
        self.branches.push(*e);
    }
    fn on_mem(&mut self, e: &MemEvent<'_>) {
        self.mem_events.push((e.active, e.active_addrs().collect()));
    }
    fn on_launch_end(&mut self, stats: &LaunchStats) {
        self.stats = Some(*stats);
    }
}

#[test]
fn trace_observes_divergence_and_activity() {
    // Half the warp takes the branch.
    let mut b = KernelBuilder::new("half");
    let out = b.param_u32("out");
    let i = b.global_tid_x();
    let p = b.lt_u32(i, Value::U32(16));
    b.if_(p, |b| {
        let oi = b.index(out, i, 4);
        b.st_global_u32(oi, Value::U32(1));
    });
    let k = b.build().unwrap();

    let mut dev = Device::new();
    let hout = dev.alloc_zeroed_u32(32);
    let mut rec = Recorder::default();
    let stats = dev
        .launch_observed(&k, &LaunchConfig::new(1, 32), &[hout.arg()], &mut rec)
        .unwrap();

    assert_eq!(rec.branches.len(), 1);
    let br = rec.branches[0];
    assert!(br.divergent());
    // The builder emits bra_ifnot: lanes 16..32 take the skip.
    assert_eq!(br.taken, 0xFFFF_0000);
    assert_eq!(br.active, 0xFFFF_FFFF);

    // Store executed with only 16 lanes active.
    let (mask, addrs) = &rec.mem_events[0];
    assert_eq!(mask.count_ones(), 16);
    assert_eq!(addrs.len(), 16);

    assert_eq!(rec.stats, Some(stats));
    assert_eq!(stats.warp_instrs, rec.warp_instrs);
    assert!(
        rec.active_lanes < rec.warp_instrs * 32,
        "divergence visible"
    );
}

#[test]
fn deterministic_across_runs() {
    let k = vec_add_kernel();
    let run = || {
        let mut dev = Device::new();
        let a: Vec<f32> = (0..500).map(|i| i as f32 * 0.25).collect();
        let ha = dev.alloc_f32(&a);
        let hb = dev.alloc_f32(&a);
        let hout = dev.alloc_zeroed_f32(500);
        let stats = dev
            .launch(
                &k,
                &LaunchConfig::linear(500, 64),
                &[ha.arg(), hb.arg(), hout.arg(), Value::U32(500)],
            )
            .unwrap();
        (stats, dev.read_f32(&hout))
    };
    let (s1, o1) = run();
    let (s2, o2) = run();
    assert_eq!(s1, s2);
    assert_eq!(o1, o2);
}

#[test]
fn two_dimensional_launch_coordinates() {
    // out[y * W + x] = x * 100 + y over a 2-D grid of 2-D blocks.
    let mut b = KernelBuilder::new("coords");
    let out = b.param_u32("out");
    let w = b.param_u32("w");
    let x = b.global_tid_x();
    let y = b.global_tid_y();
    let row = b.mul_u32(y, w);
    let idx = b.add_u32(row, x);
    let v = b.mad_u32(x, Value::U32(100), y);
    let oa = b.index(out, idx, 4);
    b.st_global_u32(oa, v);
    let k = b.build().unwrap();

    let mut dev = Device::new();
    let width = 16u32;
    let height = 8u32;
    let hout = dev.alloc_zeroed_u32((width * height) as usize);
    dev.launch(
        &k,
        &LaunchConfig::new_2d(2, 2, 8, 4),
        &[hout.arg(), Value::U32(width)],
    )
    .unwrap();
    let out = dev.read_u32(&hout);
    for y in 0..height {
        for x in 0..width {
            assert_eq!(out[(y * width + x) as usize], x * 100 + y, "({x},{y})");
        }
    }
}

/// Every special register, stored per thread, equals the coordinates
/// computed on the host on both backends — over block widths that leave
/// tail warps (1, 3, 31, 33, 48, 100) or fill warps exactly (32), and
/// heights that make warps straddle block rows.
#[test]
fn special_registers_match_host_coordinates_on_both_backends() {
    let mut b = KernelBuilder::new("sregs");
    let out = b.param_u32("out");
    let sregs = [
        b.tid_x(),
        b.tid_y(),
        b.ntid_x(),
        b.ntid_y(),
        b.ctaid_x(),
        b.ctaid_y(),
        b.nctaid_x(),
        b.nctaid_y(),
        b.lane_id(),
    ];
    let [tx, ty, ntx, nty, cx, cy, ncx, _, _] = sregs;
    // Linear slot: (block * threads_per_block + thread) * 9.
    let block = b.mad_u32(cy, ncx, cx);
    let threads = b.mul_u32(ntx, nty);
    let thread = b.mad_u32(ty, ntx, tx);
    let linear = b.mad_u32(block, threads, thread);
    let slot = b.mul_u32(linear, Value::U32(9));
    for (k, s) in sregs.into_iter().enumerate() {
        let idx = b.add_u32(slot, Value::U32(k as u32));
        let a = b.index(out, idx, 4);
        b.st_global_u32(a, s);
    }
    let k = b.build().unwrap();

    for block_x in [1u32, 3, 31, 32, 33, 48, 100] {
        for block_y in [1u32, 2, 3] {
            for (grid_x, grid_y) in [(3u32, 2u32), (2, 3)] {
                let threads = block_x * block_y;
                let mut want = Vec::new();
                for block in 0..grid_x * grid_y {
                    for t in 0..threads {
                        want.extend([
                            t % block_x,
                            t / block_x,
                            block_x,
                            block_y,
                            block % grid_x,
                            block / grid_x,
                            grid_x,
                            grid_y,
                            t % 32,
                        ]);
                    }
                }
                let config = LaunchConfig::new_2d(grid_x, grid_y, block_x, block_y);
                for backend in BackendKind::ALL {
                    let mut dev = Device::with_backend(backend);
                    let hout = dev.alloc_zeroed_u32(want.len());
                    dev.launch(&k, &config, &[hout.arg()]).unwrap();
                    assert_eq!(
                        dev.read_u32(&hout),
                        want,
                        "{backend:?}: grid {grid_x}x{grid_y}, block {block_x}x{block_y}"
                    );
                }
            }
        }
    }
}

#[test]
fn sfu_and_float_ops() {
    let mut b = KernelBuilder::new("sfu");
    let out = b.param_u32("out");
    let i = b.global_tid_x();
    let f = b.to_f32(i);
    let one = b.add_f32(f, Value::F32(1.0));
    let s = b.sqrt_f32(one);
    let r = b.mul_f32(s, s);
    let oi = b.index(out, i, 4);
    b.st_global_f32(oi, r);
    let k = b.build().unwrap();
    let mut dev = Device::new();
    let hout = dev.alloc_zeroed_f32(32);
    dev.launch(&k, &LaunchConfig::new(1, 32), &[hout.arg()])
        .unwrap();
    let out = dev.read_f32(&hout);
    for (i, &v) in out.iter().enumerate() {
        assert!((v - (i as f32 + 1.0)).abs() < 1e-4, "thread {i}: {v}");
    }
}

#[test]
fn partial_last_warp_masks_correctly() {
    // 40 threads: second warp has only 8 live lanes.
    let mut b = KernelBuilder::new("partial");
    let out = b.param_u32("out");
    let i = b.global_tid_x();
    let oi = b.index(out, i, 4);
    b.st_global_u32(oi, Value::U32(5));
    let k = b.build().unwrap();
    let mut dev = Device::new();
    let hout = dev.alloc_zeroed_u32(40);
    let stats = dev
        .launch(&k, &LaunchConfig::new(1, 40), &[hout.arg()])
        .unwrap();
    assert_eq!(stats.warps, 2);
    assert_eq!(dev.read_u32(&hout), vec![5u32; 40]);
    // Thread-instr count reflects the partial warp.
    assert_eq!(stats.thread_instrs % 40, 0);
}

/// A random expression over the thread id, built both as IR and as a CPU
/// reference.
#[derive(Debug)]
enum Expr {
    Tid,
    Const(u32),
    Add(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Min(Box<Expr>, Box<Expr>),
    /// `if a < b { c } else { d }`.
    Select(Box<Expr>, Box<Expr>, Box<Expr>, Box<Expr>),
}

fn random_expr(rng: &mut Rng, depth: u32) -> Expr {
    if depth == 0 || rng.chance(25) {
        return if rng.chance(50) {
            Expr::Tid
        } else {
            Expr::Const(rng.below(1000))
        };
    }
    let op = rng.below(5);
    let mut kid = || Box::new(random_expr(rng, depth - 1));
    match op {
        0 => Expr::Add(kid(), kid()),
        1 => Expr::Mul(kid(), kid()),
        2 => Expr::Xor(kid(), kid()),
        3 => Expr::Min(kid(), kid()),
        _ => Expr::Select(kid(), kid(), kid(), kid()),
    }
}

fn eval_cpu(e: &Expr, tid: u32) -> u32 {
    match e {
        Expr::Tid => tid,
        Expr::Const(c) => *c,
        Expr::Add(a, b) => eval_cpu(a, tid).wrapping_add(eval_cpu(b, tid)),
        Expr::Mul(a, b) => eval_cpu(a, tid).wrapping_mul(eval_cpu(b, tid)),
        Expr::Xor(a, b) => eval_cpu(a, tid) ^ eval_cpu(b, tid),
        Expr::Min(a, b) => eval_cpu(a, tid).min(eval_cpu(b, tid)),
        Expr::Select(a, b, c, d) => {
            if eval_cpu(a, tid) < eval_cpu(b, tid) {
                eval_cpu(c, tid)
            } else {
                eval_cpu(d, tid)
            }
        }
    }
}

/// Emits the expression as IR. `Select` lowers to divergent control flow
/// (if/else writing a variable), so the reconvergence stack is exercised,
/// not just `sel` instructions.
fn emit(b: &mut KernelBuilder, e: &Expr, tid: Reg) -> Reg {
    match e {
        Expr::Tid => tid,
        Expr::Const(c) => b.var_u32(Value::U32(*c)),
        Expr::Add(x, y) | Expr::Mul(x, y) | Expr::Xor(x, y) | Expr::Min(x, y) => {
            let rx = emit(b, x, tid);
            let ry = emit(b, y, tid);
            match e {
                Expr::Add(..) => b.add_u32(rx, ry),
                Expr::Mul(..) => b.mul_u32(rx, ry),
                Expr::Xor(..) => b.xor_u32(rx, ry),
                _ => b.min_u32(rx, ry),
            }
        }
        Expr::Select(x, y, t, f) => {
            let rx = emit(b, x, tid);
            let ry = emit(b, y, tid);
            let p = b.lt_u32(rx, ry);
            let out = b.var_u32(Value::U32(0));
            b.if_else(
                p,
                |b| {
                    let rt = emit(b, t, tid);
                    b.assign(out, rt);
                },
                |b| {
                    let rf = emit(b, f, tid);
                    b.assign(out, rf);
                },
            );
            out
        }
    }
}

#[test]
fn random_expression_trees_match_cpu_evaluation() {
    let mut rng = Rng::new(0xe4);
    for case in 0..64 {
        let e = random_expr(&mut rng, 3);
        let mut b = KernelBuilder::new("expr");
        let out = b.param_u32("out");
        let tid = b.global_tid_x();
        let result = emit(&mut b, &e, tid);
        let oa = b.index(out, tid, 4);
        b.st_global_u32(oa, result);
        let kernel = b.build().unwrap();

        let mut dev = Device::new();
        let hout = dev.alloc_zeroed_u32(64);
        dev.launch(&kernel, &LaunchConfig::new(2, 32), &[hout.arg()])
            .unwrap();
        for (t, &got) in dev.read_u32(&hout).iter().enumerate() {
            assert_eq!(got, eval_cpu(&e, t as u32), "case {case}, tid {t}: {e:?}");
        }
    }
}

#[test]
fn masked_stores_touch_only_selected_threads() {
    let mut b = KernelBuilder::new("mask");
    let out = b.param_u32("out");
    let threshold = b.param_u32("threshold");
    let i = b.global_tid_x();
    let p = b.lt_u32(i, threshold);
    b.if_(p, |b| {
        let oa = b.index(out, i, 4);
        b.st_global_u32(oa, Value::U32(1));
    });
    let kernel = b.build().unwrap();
    for threshold in 0..=64u32 {
        let mut dev = Device::new();
        let hout = dev.alloc_zeroed_u32(64);
        dev.launch(
            &kernel,
            &LaunchConfig::new(2, 32),
            &[hout.arg(), Value::U32(threshold)],
        )
        .unwrap();
        for (i, &v) in dev.read_u32(&hout).iter().enumerate() {
            assert_eq!(
                v,
                u32::from((i as u32) < threshold),
                "threshold {threshold}, thread {i}"
            );
        }
    }
}

#[test]
fn random_data_dependent_loops_are_exact() {
    // Each thread counts the multiples of its own divisor below 100.
    let mut b = KernelBuilder::new("count");
    let out = b.param_u32("out");
    let divs = b.param_u32("divs");
    let i = b.global_tid_x();
    let da = b.index(divs, i, 4);
    let d = b.ld_global_u32(da);
    let count = b.var_u32(Value::U32(0));
    b.for_range_u32(Value::U32(1), Value::U32(100), 1, |b, j| {
        let m = b.rem_u32(j, d);
        let hit = b.eq_u32(m, Value::U32(0));
        b.if_(hit, |b| {
            let n = b.add_u32(count, Value::U32(1));
            b.assign(count, n);
        });
    });
    let oa = b.index(out, i, 4);
    b.st_global_u32(oa, count);
    let kernel = b.build().unwrap();

    let mut rng = Rng::new(0xd1);
    for case in 0..32 {
        let divisors: Vec<u32> = (0..32).map(|_| 1 + rng.below(16)).collect();
        let mut dev = Device::new();
        let hdivs = dev.alloc_u32(&divisors);
        let hout = dev.alloc_zeroed_u32(32);
        dev.launch(
            &kernel,
            &LaunchConfig::new(1, 32),
            &[hout.arg(), hdivs.arg()],
        )
        .unwrap();
        for (t, (&got, &d)) in dev.read_u32(&hout).iter().zip(&divisors).enumerate() {
            let want = (1..100).filter(|j| j % d == 0).count() as u32;
            assert_eq!(got, want, "case {case}, thread {t}, divisor {d}");
        }
    }
}
