//! The combined profiler: runs every observer over one launch and
//! assembles the canonical characteristic vector.

use gwc_simt::exec::Device;
use gwc_simt::instr::{InstrClass, Value};
use gwc_simt::kernel::Kernel;
use gwc_simt::launch::LaunchConfig;
use gwc_simt::trace::{BranchEvent, InstrEvent, LaunchStats, MemEvent, TraceObserver};
use gwc_simt::SimtError;

use crate::coalescing::CoalescingObserver;
use crate::divergence::DivergenceObserver;
use crate::ilp::IlpObserver;
use crate::locality::LocalityObserver;
use crate::mix::MixObserver;
use crate::profile::{KernelProfile, RawCounts};
use crate::schema;
use crate::sketch::{ObserverTier, SketchLocalityObserver};

/// Tier-selected locality state: the exact per-line observer or its
/// bounded-memory sketch. Both sides expose the same derived
/// characteristics, so the profiler treats them uniformly.
#[derive(Debug)]
pub enum LocalityState {
    Exact(LocalityObserver),
    Sketch(SketchLocalityObserver),
}

impl LocalityState {
    fn new(tier: ObserverTier) -> Self {
        match tier {
            ObserverTier::Exact => LocalityState::Exact(LocalityObserver::new()),
            ObserverTier::Sketch => LocalityState::Sketch(SketchLocalityObserver::new()),
        }
    }

    fn reuse_cdf(&self, bucket: usize) -> f64 {
        match self {
            LocalityState::Exact(o) => o.reuse_cdf(bucket),
            LocalityState::Sketch(o) => o.reuse_cdf(bucket),
        }
    }

    fn cold_frac(&self) -> f64 {
        match self {
            LocalityState::Exact(o) => o.cold_frac(),
            LocalityState::Sketch(o) => o.cold_frac(),
        }
    }

    fn inter_warp_sharing(&self) -> f64 {
        match self {
            LocalityState::Exact(o) => o.inter_warp_sharing(),
            LocalityState::Sketch(o) => o.inter_warp_sharing(),
        }
    }

    fn inter_block_sharing(&self) -> f64 {
        match self {
            LocalityState::Exact(o) => o.inter_block_sharing(),
            LocalityState::Sketch(o) => o.inter_block_sharing(),
        }
    }

    fn footprint_lines(&self) -> u64 {
        match self {
            LocalityState::Exact(o) => o.footprint_lines(),
            LocalityState::Sketch(o) => o.footprint_lines(),
        }
    }

    fn bytes_in_use(&self) -> u64 {
        match self {
            LocalityState::Exact(o) => o.bytes_in_use(),
            LocalityState::Sketch(o) => o.bytes_in_use(),
        }
    }

    fn on_mem(&mut self, e: &MemEvent<'_>) {
        match self {
            LocalityState::Exact(o) => o.on_mem(e),
            LocalityState::Sketch(o) => o.on_mem(e),
        }
    }
}

/// Runs all characterization observers over a launch.
///
/// Use [`characterize_launch`] unless you need to keep the profiler
/// around (e.g. to profile several launches of the same logical kernel
/// into one profile — the observers accumulate across launches).
#[derive(Debug)]
pub struct Profiler {
    mix: MixObserver,
    ilp: IlpObserver,
    divergence: DivergenceObserver,
    coalescing: CoalescingObserver,
    locality: LocalityState,
    stats: LaunchStats,
    launch_shape: Option<(u64, u64, u64)>,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::with_tier(ObserverTier::Exact)
    }
}

impl Profiler {
    /// Creates an empty profiler on the exact (default) tier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty profiler with the given observer tier.
    pub fn with_tier(tier: ObserverTier) -> Self {
        Self {
            mix: MixObserver::default(),
            ilp: IlpObserver::default(),
            divergence: DivergenceObserver::default(),
            coalescing: CoalescingObserver::default(),
            locality: LocalityState::new(tier),
            stats: LaunchStats::default(),
            launch_shape: None,
        }
    }

    /// Runs one launch on `device` under this profiler: the same as
    /// `device.launch_observed(kernel, config, args, self)`, but the
    /// warp engine is monomorphized for the profiler here, in the crate
    /// that defines the observers, so their per-event hooks inline into
    /// it. Instantiated from the study's crate instead, the engine calls
    /// them out of line, which cost a cold study 5–13% on 2 vCPUs
    /// (`benchmark/`'s `cold_sketch`).
    ///
    /// # Errors
    ///
    /// Propagates any [`SimtError`] from the launch.
    pub fn profile_launch(
        &mut self,
        device: &mut Device,
        kernel: &Kernel,
        config: &LaunchConfig,
        args: &[Value],
    ) -> Result<LaunchStats, SimtError> {
        device.launch_observed(kernel, config, args, self)
    }

    /// Approximate heap bytes held by the heavy (locality + coalescing)
    /// observers right now; feeds the `observer.bytes_peak` high-water counter.
    pub fn observer_bytes(&self) -> u64 {
        self.locality.bytes_in_use() + self.coalescing.bytes_in_use()
    }

    /// Finalizes the accumulated observations into a [`KernelProfile`]
    /// named `name`.
    pub fn finish(self, name: impl Into<String>) -> KernelProfile {
        let (total_threads, threads_per_block, blocks) = self.launch_shape.unwrap_or((0, 0, 0));
        let thread_instrs = self.mix.total().max(1);
        let mut v = vec![0.0; schema::len()];
        let mut set = |n: &str, val: f64| v[schema::index_of(n)] = val;

        set("mix_int_alu", self.mix.fraction(InstrClass::IntAlu));
        set("mix_fp_alu", self.mix.fraction(InstrClass::FpAlu));
        set("mix_sfu", self.mix.fraction(InstrClass::Sfu));
        set("mix_mem_global", self.mix.fraction(InstrClass::MemGlobal));
        set("mix_mem_shared", self.mix.fraction(InstrClass::MemShared));
        set(
            "mix_mem_other",
            self.mix.fraction(InstrClass::MemLocal) + self.mix.fraction(InstrClass::MemConst),
        );
        set("mix_ctrl", self.mix.fraction(InstrClass::Ctrl));
        set("mix_sync", self.mix.fraction(InstrClass::Sync));
        set("mix_atomic", self.mix.fraction(InstrClass::Atomic));
        set("mix_move", self.mix.fraction(InstrClass::Move));

        set("ilp_dataflow", self.ilp.ilp());
        set("ilp_dep_distance", self.ilp.dep_distance());

        set("div_branch_density", self.divergence.branch_density());
        set("div_branch_frac", self.divergence.divergent_branch_frac());
        set("div_simd_activity", self.divergence.simd_activity());
        set("div_warp_instr_frac", self.divergence.diverged_instr_frac());

        set(
            "coal_segments_per_access",
            self.coalescing.segments_per_access(),
        );
        set("coal_unit_stride_frac", self.coalescing.unit_stride_frac());
        set("coal_broadcast_frac", self.coalescing.broadcast_frac());
        set("coal_scatter_frac", self.coalescing.scatter_frac());

        set("smem_bank_conflict", self.coalescing.bank_conflict_factor());

        set("loc_reuse_le16", self.locality.reuse_cdf(0));
        set("loc_reuse_le256", self.locality.reuse_cdf(1));
        set("loc_reuse_le4096", self.locality.reuse_cdf(2));
        set("loc_cold_frac", self.locality.cold_frac());

        set("share_inter_warp", self.locality.inter_warp_sharing());
        set("share_inter_block", self.locality.inter_block_sharing());

        let warp_instrs = self.stats.warp_instrs.max(1);
        set(
            "sync_barrier_kinstr",
            self.stats.barriers as f64 * 1000.0 / warp_instrs as f64,
        );
        set(
            "sync_atomic_kinstr",
            self.mix.count(InstrClass::Atomic) as f64 * 1000.0 / thread_instrs as f64,
        );

        set("shape_log_threads", (total_threads.max(1) as f64).log2());
        set(
            "shape_log_instrs_per_thread",
            (thread_instrs as f64 / total_threads.max(1) as f64)
                .max(1.0)
                .log2(),
        );
        set("shape_block_occupancy", threads_per_block as f64 / 1024.0);
        set(
            "shape_log_footprint",
            (self.locality.footprint_lines().max(1) as f64).log2(),
        );

        let raw = RawCounts {
            warp_instrs: self.stats.warp_instrs,
            thread_instrs: self.mix.total(),
            global_accesses: self.coalescing.global_accesses(),
            global_transactions: self.coalescing.global_segments(),
            shared_accesses: self.coalescing.shared_accesses(),
            shared_serialized: self.coalescing.shared_serialized(),
            sfu_thread_instrs: self.mix.count(InstrClass::Sfu),
            barriers: self.stats.barriers,
            atomic_thread_ops: self.mix.count(InstrClass::Atomic),
            total_threads,
            threads_per_block,
            blocks,
            footprint_lines: self.locality.footprint_lines(),
        };
        KernelProfile::new(name, v, raw, self.stats)
    }
}

impl TraceObserver for Profiler {
    fn on_launch(&mut self, kernel: &Kernel, config: &LaunchConfig) {
        self.ilp.on_launch(kernel, config);
        let shape = self.launch_shape.get_or_insert((0, 0, 0));
        shape.0 += config.total_threads() as u64;
        shape.1 = config.threads_per_block() as u64;
        shape.2 += config.blocks() as u64;
    }
    fn on_instr(&mut self, e: &InstrEvent<'_>) {
        self.mix.on_instr(e);
        self.ilp.on_instr(e);
        self.divergence.on_instr(e);
    }
    fn on_mem(&mut self, e: &MemEvent<'_>) {
        self.coalescing.on_mem(e);
        self.locality.on_mem(e);
    }
    fn on_branch(&mut self, e: &BranchEvent) {
        self.divergence.on_branch(e);
    }
    fn on_launch_end(&mut self, stats: &LaunchStats) {
        self.stats.warp_instrs += stats.warp_instrs;
        self.stats.thread_instrs += stats.thread_instrs;
        self.stats.blocks += stats.blocks;
        self.stats.warps += stats.warps;
        self.stats.barriers += stats.barriers;
        gwc_obs::count_max("observer.bytes_peak", self.observer_bytes());
    }
}

/// Characterizes a single kernel launch: runs it under a fresh
/// [`Profiler`] and returns the resulting profile (named after the
/// kernel).
///
/// # Errors
///
/// Propagates any [`SimtError`] from the launch.
pub fn characterize_launch(
    device: &mut Device,
    kernel: &Kernel,
    config: &LaunchConfig,
    args: &[Value],
) -> Result<KernelProfile, SimtError> {
    let mut profiler = Profiler::new();
    device.launch_observed(kernel, config, args, &mut profiler)?;
    Ok(profiler.finish(kernel.name()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gwc_simt::builder::KernelBuilder;

    fn device_with(n: usize) -> (Device, gwc_simt::exec::BufferHandle) {
        let mut dev = Device::new();
        let buf = dev.alloc_zeroed_f32(n);
        (dev, buf)
    }

    #[test]
    fn coalesced_streaming_kernel_profile() {
        let mut b = KernelBuilder::new("stream");
        let out = b.param_u32("out");
        let i = b.global_tid_x();
        let f = b.to_f32(i);
        let g = b.mul_f32(f, Value::F32(2.0));
        let oi = b.index(out, i, 4);
        b.st_global_f32(oi, g);
        let k = b.build().unwrap();

        let (mut dev, buf) = device_with(4096);
        let p = characterize_launch(&mut dev, &k, &LaunchConfig::linear(4096, 256), &[buf.arg()])
            .unwrap();

        assert!(p.get("coal_segments_per_access") < 1.01);
        assert_eq!(p.get("coal_unit_stride_frac"), 1.0);
        assert_eq!(p.get("div_simd_activity"), 1.0);
        assert_eq!(p.get("div_branch_frac"), 0.0);
        assert_eq!(p.get("loc_cold_frac"), 1.0, "streaming never reuses");
        assert!(p.get("mix_fp_alu") > 0.0);
        assert_eq!(p.raw().total_threads, 4096);
        let sum: f64 = schema::SCHEMA
            .iter()
            .filter(|d| d.group == schema::Group::Mix)
            .map(|d| p.get(d.name))
            .sum();
        assert!((sum - 1.0).abs() < 1e-9, "mix fractions sum to 1: {sum}");
    }

    #[test]
    fn divergent_kernel_profile() {
        // Odd lanes do extra work in a data-dependent loop.
        let mut b = KernelBuilder::new("div");
        let out = b.param_u32("out");
        let i = b.global_tid_x();
        let bit = b.and_u32(i, Value::U32(1));
        let odd = b.eq_u32(bit, Value::U32(1));
        let acc = b.var_u32(Value::U32(0));
        b.if_(odd, |b| {
            b.for_range_u32(Value::U32(0), Value::U32(32), 1, |b, j| {
                let n = b.add_u32(acc, j);
                b.assign(acc, n);
            });
        });
        let oi = b.index(out, i, 4);
        b.st_global_u32(oi, acc);
        let k = b.build().unwrap();

        let (mut dev, buf) = device_with(256);
        let p =
            characterize_launch(&mut dev, &k, &LaunchConfig::new(2, 128), &[buf.arg()]).unwrap();
        assert!(p.get("div_branch_frac") > 0.0, "guard branch diverges");
        assert!(
            p.get("div_simd_activity") < 0.8,
            "half the lanes idle through the loop: {}",
            p.get("div_simd_activity")
        );
        assert!(p.get("div_warp_instr_frac") > 0.3);
    }

    #[test]
    fn reuse_heavy_kernel_profile() {
        // Every thread reads the same small table repeatedly.
        let mut b = KernelBuilder::new("reuse");
        let table = b.param_u32("table");
        let out = b.param_u32("out");
        let i = b.global_tid_x();
        let acc = b.var_f32(Value::F32(0.0));
        b.for_range_u32(Value::U32(0), Value::U32(16), 1, |b, j| {
            let sel = b.rem_u32(j, Value::U32(8));
            let ta = b.index(table, sel, 4);
            let v = b.ld_global_f32(ta);
            let n = b.add_f32(acc, v);
            b.assign(acc, n);
        });
        let oi = b.index(out, i, 4);
        b.st_global_f32(oi, acc);
        let k = b.build().unwrap();

        let mut dev = Device::new();
        let table = dev.alloc_f32(&[1.0; 8]);
        let buf = dev.alloc_zeroed_f32(128);
        let p = characterize_launch(
            &mut dev,
            &k,
            &LaunchConfig::new(1, 128),
            &[table.arg(), buf.arg()],
        )
        .unwrap();
        assert!(p.get("loc_reuse_le16") > 0.9, "table reuse is near");
        assert!(p.get("loc_cold_frac") < 0.1);
        assert!(p.get("share_inter_warp") > 0.0, "table shared across warps");
    }

    #[test]
    fn barrier_and_shared_kernel_profile() {
        let mut b = KernelBuilder::new("smem");
        let smem = b.alloc_shared(128 * 4);
        let tid = b.var_u32(b.tid_x());
        let sa = b.index(smem, tid, 4);
        b.st_shared_u32(sa, tid);
        b.barrier();
        let nb = b.sub_u32(Value::U32(127), tid);
        let na = b.index(smem, nb, 4);
        let v = b.ld_shared_u32(na);
        let _ = v;
        b.ret();
        let k = b.build().unwrap();

        let mut dev = Device::new();
        let p = characterize_launch(&mut dev, &k, &LaunchConfig::new(4, 128), &[]).unwrap();
        assert!(p.get("mix_mem_shared") > 0.0);
        assert!(p.get("sync_barrier_kinstr") > 0.0);
        assert_eq!(
            p.get("smem_bank_conflict"),
            1.0,
            "reversal is conflict-free"
        );
    }

    #[test]
    fn profiler_accumulates_multiple_launches() {
        let mut b = KernelBuilder::new("tiny");
        let out = b.param_u32("out");
        let i = b.global_tid_x();
        let oi = b.index(out, i, 4);
        b.st_global_u32(oi, i);
        let k = b.build().unwrap();

        let mut dev = Device::new();
        let buf = dev.alloc_zeroed_u32(64);
        let mut profiler = Profiler::new();
        for _ in 0..3 {
            dev.launch_observed(&k, &LaunchConfig::new(2, 32), &[buf.arg()], &mut profiler)
                .unwrap();
        }
        let p = profiler.finish("tiny_x3");
        assert_eq!(p.raw().total_threads, 3 * 64);
        assert_eq!(p.raw().blocks, 6);
        assert!(p.stats().warp_instrs > 0);
        assert_eq!(p.name(), "tiny_x3");
    }
}
