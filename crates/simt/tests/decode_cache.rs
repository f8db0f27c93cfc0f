//! The predecoded µop stream is computed once per built kernel and shared.
//!
//! `Kernel::decoded` backs every launch; if the cache ever stopped
//! hitting, each launch would re-lower the kernel and the predecode
//! optimization would silently evaporate. These tests pin the caching
//! contract: lazy on first use, stable across launches, and shared (same
//! `Arc`) by every clone, whether taken before or after the first decode.
//! Workloads hand each launch spec a clone made before any decode, so a
//! clone that decoded on its own would re-lower the kernel per launch.

use std::sync::Arc;

use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::Device;
use gwc_simt::instr::Value;
use gwc_simt::kernel::Kernel;
use gwc_simt::launch::LaunchConfig;

/// out[i] = 2 * i, with a guard branch so decode sees control flow.
fn doubling_kernel() -> Kernel {
    let mut b = KernelBuilder::new("doubling");
    let out = b.param_u32("out");
    let n = b.param_u32("n");
    let i = b.global_tid_x();
    let p = b.lt_u32(i, n);
    b.if_(p, |b| {
        let v = b.mul_u32(i, Value::U32(2));
        let oi = b.index(out, i, 4);
        b.st_global_u32(oi, v);
    });
    b.build().unwrap()
}

fn launch_once(dev: &mut Device, k: &Kernel) {
    let out = dev.alloc_zeroed_u32(64);
    dev.launch(
        k,
        &LaunchConfig::linear(64, 32),
        &[out.arg(), Value::U32(64)],
    )
    .unwrap();
    assert_eq!(dev.read_u32(&out)[3], 6);
}

#[test]
fn decode_is_lazy_and_hits_on_every_later_launch() {
    let k = doubling_kernel();
    assert!(
        !k.decode_cached(),
        "freshly built kernel must not predecode"
    );

    let mut dev = Device::new();
    launch_once(&mut dev, &k);
    assert!(k.decode_cached(), "first launch must populate the cache");

    let first = Arc::clone(k.decoded());
    launch_once(&mut dev, &k);
    launch_once(&mut dev, &k);
    assert!(
        Arc::ptr_eq(&first, k.decoded()),
        "later launches must reuse the same decoded stream, not re-lower"
    );
    assert_eq!(first.len(), k.instrs().len());
}

#[test]
fn clones_share_the_decoded_stream() {
    let k = doubling_kernel();
    let before = k.clone();
    assert!(!before.decode_cached(), "nothing decodes at clone time");

    // Decoding through the original fills the cache of the earlier clone.
    let original = Arc::clone(k.decoded());
    assert!(
        before.decode_cached(),
        "clone taken before decoding must see the shared decode"
    );
    assert!(
        Arc::ptr_eq(&original, before.decoded()),
        "clone taken before decoding must share the Arc, not re-decode"
    );
    let after = k.clone();
    assert!(
        Arc::ptr_eq(&original, after.decoded()),
        "clone taken after decoding must share the Arc, not re-decode"
    );

    // A launch through either clone reuses the one decode.
    let mut dev = Device::new();
    launch_once(&mut dev, &before);
    assert!(Arc::ptr_eq(&original, before.decoded()));

    // The memoized hash is the value a fresh build of the same kernel
    // computes, whichever clone asks first.
    let hash = before.content_hash();
    assert_eq!(k.content_hash(), hash);
    assert_eq!(after.content_hash(), hash);
    assert_eq!(doubling_kernel().content_hash(), hash);
}
