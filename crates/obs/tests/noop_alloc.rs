//! The disabled-path cost contract: with no recorder installed, the
//! span/counter/histogram hot paths perform **zero heap allocations**.
//!
//! This file contains exactly one test so no sibling test can allocate
//! concurrently on another thread while the window is being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates verbatim to `System`; only bumps a counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One measurement window: 10_000 passes over every disabled
/// instrumentation site, returning the allocations observed.
fn measure_window() -> usize {
    let classes = [gwc_obs::ExecClass {
        class: "int_alu",
        warp_uops: 1,
        lane_uops: 32,
    }];
    let hotspots = [gwc_obs::ExecHotspot {
        pc: 0,
        class: "int_alu",
        warp_uops: 1,
        lane_uops: 32,
    }];
    let before = ALLOCS.load(Ordering::SeqCst);
    for i in 0..10_000u64 {
        // Dynamic span names: the format! must not run while disabled.
        let _s = gwc_obs::span!("hot/kernel-{i}");
        // A pool task entering its caller's span stack.
        let _entered = gwc_obs::span::Inherited::capture().enter();
        gwc_obs::count("simt.warp_instrs", i);
        gwc_obs::count_max("observer.bytes_peak", i);
        gwc_obs::hist("launch.latency_ns", i);
        // Exec-profile reporting borrows stack slices either way.
        gwc_obs::exec_profile("kernel", &classes, &hotspots);
        gwc_obs::exec_profile("kernel", &[], &[]);
        // Folding an empty span stream must not allocate either: the
        // recorder-free pipeline calls this with nothing recorded.
        let tree = gwc_obs::selftime::fold(&[]);
        std::hint::black_box(tree);
    }
    ALLOCS.load(Ordering::SeqCst) - before
}

#[test]
fn disabled_hot_path_never_allocates() {
    assert!(!gwc_obs::enabled(), "no recorder is installed in this test");
    // Warm up any lazy one-time initialization outside the window.
    {
        let _s = gwc_obs::span!("warmup/{}", 0);
        gwc_obs::count("warmup", 1);
        gwc_obs::count_max("warmup", 1);
        gwc_obs::hist("warmup", 1);
    }
    // The counter is process-global, so the libtest harness thread can
    // contribute a stray allocation while a window runs. Take the best
    // of several windows: ambient noise is a rare one-off, while a real
    // hot-path allocation fires >= 10_000 times in *every* window.
    let best = (0..5).map(|_| measure_window()).min().unwrap();
    assert_eq!(best, 0, "disabled instrumentation path allocated");
}
