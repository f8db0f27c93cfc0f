//! Per-thread instruction-level parallelism from register dataflow.
//!
//! For every thread we assign each dynamic instruction a *dataflow level*:
//! `1 + max(level of the instructions that produced its register
//! operands)`. The maximum level is the register-dataflow critical path,
//! and `instructions / critical path` is the thread's inherent ILP — the
//! parallelism an idealized in-order-issue machine with unlimited
//! functional units could extract. Memory-carried dependences are ignored,
//! matching MICA-style characterization.

use gwc_simt::instr::Reg;
use gwc_simt::trace::{InstrEvent, TraceObserver};
use gwc_simt::WARP_SIZE;

use crate::fxhash::FxHashMap;

#[derive(Debug, Clone, PartialEq)]
struct WarpIlp {
    /// While `true`, every event so far carried the same active mask
    /// (`mask`), so the active lanes have identical dataflow state —
    /// and the inactive ones none at all. One scalar copy stands in
    /// for all active lanes: `levels`/`write_idx` are indexed by
    /// register alone and `count[0]`/`crit[0]` hold the shared
    /// per-lane values. The first event with a *different* mask
    /// expands to the per-lane layout below; the flag is one-way.
    uniform: bool,
    /// The stable active mask of a uniform warp (full warps, tail
    /// warps and coherent sub-warps alike).
    mask: u32,
    /// Dataflow level of the last writer: `levels[reg * 32 + lane]`
    /// (uniform: `levels[reg]`).
    levels: Vec<u32>,
    /// Dynamic index of the last writer: `write_idx[reg * 32 + lane]`
    /// (uniform: `write_idx[reg]`). `u32` on purpose: a lane's dynamic
    /// index is bounded by the per-launch warp instruction budget
    /// (400M), and the narrower arrays halve this hot path's cache
    /// traffic.
    write_idx: Vec<u32>,
    /// Per-lane instruction counts.
    count: [u32; WARP_SIZE],
    /// Per-lane critical-path length.
    crit: [u32; WARP_SIZE],
}

impl WarpIlp {
    /// `mask` is the active mask of the warp's first event; the warp
    /// stays in the scalar representation while every later event
    /// repeats it.
    fn new(regs: usize, mask: u32) -> Self {
        Self {
            uniform: true,
            mask,
            levels: vec![0; regs],
            write_idx: vec![0; regs],
            count: [0; WARP_SIZE],
            crit: [0; WARP_SIZE],
        }
    }

    /// Broadcasts the shared scalar state to the per-lane layout.
    /// Active lanes of a uniform warp are bit-for-bit identical and
    /// inactive lanes never executed anything, so expanding at any
    /// point yields exactly the state a per-lane observer would hold.
    fn expand(&mut self) {
        let regs = self.levels.len();
        let mut levels = vec![0u32; regs * WARP_SIZE];
        let mut write_idx = vec![0u32; regs * WARP_SIZE];
        let mut count = [0u32; WARP_SIZE];
        let mut crit = [0u32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            if (self.mask >> lane) & 1 == 1 {
                for reg in 0..regs {
                    levels[reg * WARP_SIZE + lane] = self.levels[reg];
                    write_idx[reg * WARP_SIZE + lane] = self.write_idx[reg];
                }
                count[lane] = self.count[0];
                crit[lane] = self.crit[0];
            }
        }
        self.levels = levels;
        self.write_idx = write_idx;
        self.count = count;
        self.crit = crit;
        self.uniform = false;
    }
}

/// The 32-lane kernel: one event over the per-lane layout. Returns
/// the event's dependence count and distance sum, to be added to the
/// observer's running totals. `#[inline(always)]` so that each
/// instance below compiles its own copy for its own target features.
#[inline(always)]
fn step_lanes(w: &mut WarpIlp, active: u32, srcs: &[Reg], dst: Option<Reg>) -> (u64, u64) {
    // Hot path, restructured for autovectorization: sources outer,
    // lanes inner, everything in branch-free u32 select/mask form
    // with one widening horizontal sum per event. Per-lane `dist`
    // accumulation across sources cannot overflow u32: each term is
    // at most `count + 1` (bounded by the 400M warp instruction
    // budget) and instructions carry at most a handful of sources.
    // The reordering only permutes integer additions into
    // `dep_distance_sum`/`dep_count`, so results stay bit-identical
    // to the per-lane formulation.
    let mut level = [0u32; WARP_SIZE];
    let mut dep = [0u32; WARP_SIZE];
    let mut dist = [0u32; WARP_SIZE];
    if active == u32::MAX {
        // Full mask over diverged lane *state*: no per-lane selects,
        // every loop is straight-line vector code.
        for src in srcs {
            let base = src.0 as usize * WARP_SIZE;
            let levels: &[u32; WARP_SIZE] = w.levels[base..base + WARP_SIZE]
                .try_into()
                .expect("32 lanes");
            let write_idx: &[u32; WARP_SIZE] = w.write_idx[base..base + WARP_SIZE]
                .try_into()
                .expect("32 lanes");
            for lane in 0..WARP_SIZE {
                let src_level = levels[lane];
                level[lane] = level[lane].max(src_level);
                // `write_idx <= count` always holds (it is set to
                // `count` at write time), so the distance term never
                // underflows; masking with `-d` (all-ones or zero)
                // replaces a multiply the baseline x86-64 target
                // would scalarize.
                let d = u32::from(src_level != 0);
                dep[lane] += d;
                dist[lane] += d.wrapping_neg() & (w.count[lane] + 1 - write_idx[lane]);
            }
        }
        if let Some(dst) = dst {
            let base = dst.0 as usize * WARP_SIZE;
            let levels: &mut [u32; WARP_SIZE] = (&mut w.levels[base..base + WARP_SIZE])
                .try_into()
                .expect("32 lanes");
            let write_idx: &mut [u32; WARP_SIZE] = (&mut w.write_idx[base..base + WARP_SIZE])
                .try_into()
                .expect("32 lanes");
            for lane in 0..WARP_SIZE {
                let lv = level[lane] + 1;
                w.count[lane] += 1;
                w.crit[lane] = w.crit[lane].max(lv);
                levels[lane] = lv;
                write_idx[lane] = w.count[lane];
            }
        } else {
            for (lane, &lv0) in level.iter().enumerate() {
                let lv = lv0 + 1;
                w.count[lane] += 1;
                w.crit[lane] = w.crit[lane].max(lv);
            }
        }
    } else {
        let on: [u32; WARP_SIZE] = std::array::from_fn(|lane| (active >> lane) & 1);
        for src in srcs {
            let base = src.0 as usize * WARP_SIZE;
            let levels: &[u32; WARP_SIZE] = w.levels[base..base + WARP_SIZE]
                .try_into()
                .expect("32 lanes");
            let write_idx: &[u32; WARP_SIZE] = w.write_idx[base..base + WARP_SIZE]
                .try_into()
                .expect("32 lanes");
            for lane in 0..WARP_SIZE {
                let src_level = levels[lane];
                level[lane] = level[lane].max(src_level);
                // A dependence is counted for active lanes whose
                // source has a recorded writer.
                let d = on[lane] & u32::from(src_level != 0);
                dep[lane] += d;
                dist[lane] += d.wrapping_neg() & (w.count[lane] + 1 - write_idx[lane]);
            }
        }
        // Commit: bump per-lane counts, stretch critical paths,
        // record the writer level/index — select form, active lanes
        // only.
        if let Some(dst) = dst {
            let base = dst.0 as usize * WARP_SIZE;
            let levels: &mut [u32; WARP_SIZE] = (&mut w.levels[base..base + WARP_SIZE])
                .try_into()
                .expect("32 lanes");
            let write_idx: &mut [u32; WARP_SIZE] = (&mut w.write_idx[base..base + WARP_SIZE])
                .try_into()
                .expect("32 lanes");
            for lane in 0..WARP_SIZE {
                let hit = on[lane] != 0;
                let lv = level[lane] + 1;
                w.count[lane] += on[lane];
                w.crit[lane] = if hit {
                    w.crit[lane].max(lv)
                } else {
                    w.crit[lane]
                };
                levels[lane] = if hit { lv } else { levels[lane] };
                write_idx[lane] = if hit { w.count[lane] } else { write_idx[lane] };
            }
        } else {
            for lane in 0..WARP_SIZE {
                let hit = on[lane] != 0;
                let lv = level[lane] + 1;
                w.count[lane] += on[lane];
                w.crit[lane] = if hit {
                    w.crit[lane].max(lv)
                } else {
                    w.crit[lane]
                };
            }
        }
    }
    // Horizontal sums widen to u64 once per event (32 lanes × u32
    // cannot overflow it); only the running total is u128.
    (
        dep.iter().copied().map(u64::from).sum(),
        dist.iter().copied().map(u64::from).sum(),
    )
}

/// [`step_lanes`] for the build's baseline target: the instance
/// every host can run.
#[inline(never)]
fn step_lanes_portable(w: &mut WarpIlp, active: u32, srcs: &[Reg], dst: Option<Reg>) -> (u64, u64) {
    step_lanes(w, active, srcs, dst)
}

/// [`step_lanes`] with AVX2 enabled: the same source, with
/// eight `u32` lanes per vector instead of four.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn step_lanes_avx2(w: &mut WarpIlp, active: u32, srcs: &[Reg], dst: Option<Reg>) -> (u64, u64) {
    step_lanes(w, active, srcs, dst)
}

/// Sentinel for "no warp seen yet" in the one-entry lookup cache.
const NO_WARP: (u32, u32) = (u32::MAX, u32::MAX);

/// Streams register dataflow into per-thread ILP statistics.
///
/// Observations accumulate across launches: at each launch boundary the
/// finished warps of the previous launch are folded into running sums, so
/// memory stays bounded by one launch's warp count.
///
/// Warp state lives in a dense `store` with a `(block, warp)` → slot
/// index on the side, plus a one-entry cache of the last slot: the
/// executor runs each warp for long uninterrupted stretches (until a
/// barrier or exit), so nearly every event hits the cache and skips the
/// hash lookup entirely.
///
/// Diverged warps run the 32-lane kernel through one of two instances of
/// the same source, chosen once per observer: the AVX2 one where the
/// host has AVX2, the portable one elsewhere. Both produce bit-identical
/// state.
#[derive(Debug)]
pub struct IlpObserver {
    /// Whether this host runs the AVX2 instance of the lane kernel.
    #[cfg(target_arch = "x86_64")]
    avx2: bool,
    regs: usize,
    index: FxHashMap<(u32, u32), u32>,
    store: Vec<((u32, u32), WarpIlp)>,
    last_key: (u32, u32),
    last_slot: u32,
    folded_weighted: f64,
    folded_instrs: u64,
    /// Exact integer sum of producer→consumer distances.
    dep_distance_sum: u128,
    dep_count: u64,
}

impl Default for IlpObserver {
    fn default() -> Self {
        Self {
            #[cfg(target_arch = "x86_64")]
            avx2: is_x86_feature_detected!("avx2"),
            regs: 0,
            index: FxHashMap::default(),
            store: Vec::new(),
            last_key: NO_WARP,
            last_slot: 0,
            folded_weighted: 0.0,
            folded_instrs: 0,
            dep_distance_sum: 0,
            dep_count: 0,
        }
    }
}

impl IlpObserver {
    /// Creates an empty observer.
    pub fn new() -> Self {
        Self::default()
    }

    fn fold_of(store: &[((u32, u32), WarpIlp)]) -> (f64, u64) {
        let mut instr_sum = 0u64;
        let mut weighted = 0.0;
        // Sorted iteration: floating-point accumulation order must not
        // depend on insertion or map layout, or studies stop being
        // reproducible.
        let mut entries: Vec<&((u32, u32), WarpIlp)> = store.iter().collect();
        entries.sort_unstable_by_key(|(key, _)| *key);
        for (_, w) in entries {
            for lane in 0..WARP_SIZE {
                // A uniform warp stores one shared copy in lane 0: every
                // lane in its mask contributes the identical term — in
                // the same order the expanded layout would — and lanes
                // outside it contribute nothing.
                let c = if w.uniform {
                    if (w.mask >> lane) & 1 == 1 {
                        w.count[0]
                    } else {
                        0
                    }
                } else {
                    w.count[lane]
                };
                if c > 0 {
                    let crit = if w.uniform { w.crit[0] } else { w.crit[lane] };
                    let ilp = c as f64 / crit.max(1) as f64;
                    weighted += ilp * c as f64;
                    instr_sum += u64::from(c);
                }
            }
        }
        (weighted, instr_sum)
    }

    /// Mean per-thread ILP (`instructions / critical path`), averaged over
    /// threads weighted by their instruction counts. 1.0 for fully serial
    /// code; higher means more independent instructions per thread.
    pub fn ilp(&self) -> f64 {
        let (weighted, instrs) = Self::fold_of(&self.store);
        let total_w = self.folded_weighted + weighted;
        let total_i = self.folded_instrs + instrs;
        if total_i == 0 {
            0.0
        } else {
            total_w / total_i as f64
        }
    }

    /// Mean producer→consumer distance in dynamic instructions.
    pub fn dep_distance(&self) -> f64 {
        if self.dep_count == 0 {
            0.0
        } else {
            self.dep_distance_sum as f64 / self.dep_count as f64
        }
    }
}

impl TraceObserver for IlpObserver {
    fn on_launch(
        &mut self,
        kernel: &gwc_simt::kernel::Kernel,
        _config: &gwc_simt::launch::LaunchConfig,
    ) {
        let (weighted, instrs) = Self::fold_of(&self.store);
        self.folded_weighted += weighted;
        self.folded_instrs += instrs;
        self.regs = kernel.reg_count();
        self.index.clear();
        self.store.clear();
        self.last_key = NO_WARP;
    }

    fn on_instr(&mut self, e: &InstrEvent<'_>) {
        let active = e.active;
        if active == 0 {
            // Fully predicated-off events change no lane's state.
            return;
        }
        let key = (e.block, e.warp);
        let slot = if key == self.last_key {
            self.last_slot
        } else {
            let slot = match self.index.get(&key) {
                Some(&slot) => slot,
                None => {
                    let slot = self.store.len() as u32;
                    self.store.push((key, WarpIlp::new(self.regs, active)));
                    self.index.insert(key, slot);
                    slot
                }
            };
            self.last_key = key;
            self.last_slot = slot;
            slot
        };
        let w = &mut self.store[slot as usize].1;

        if w.uniform {
            if active == w.mask {
                // Scalar fast path: while a warp repeats one active
                // mask — full warps, tail warps, coherent sub-warps —
                // its active lanes share one dataflow state, so one
                // lane's arithmetic with integer sums scaled by the
                // lane count reproduces the per-lane results exactly.
                // Coherent kernels spend nearly all their events here.
                let lanes = u64::from(active.count_ones());
                let mut level = 0u32;
                for src in e.srcs {
                    let src_level = w.levels[src.0 as usize];
                    level = level.max(src_level);
                    if src_level != 0 {
                        self.dep_count += lanes;
                        self.dep_distance_sum += u128::from(
                            lanes * u64::from(w.count[0] + 1 - w.write_idx[src.0 as usize]),
                        );
                    }
                }
                let lv = level + 1;
                w.count[0] += 1;
                w.crit[0] = w.crit[0].max(lv);
                if let Some(dst) = e.dst {
                    w.levels[dst.0 as usize] = lv;
                    w.write_idx[dst.0 as usize] = w.count[0];
                }
                return;
            }
            w.expand();
        }

        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        let (dep, dist) = if self.avx2 {
            // SAFETY: `avx2` is set only where `is_x86_feature_detected!`
            // found AVX2 on the running CPU, which is all that calling an
            // `avx2` target-feature function requires.
            unsafe { step_lanes_avx2(w, active, e.srcs, e.dst) }
        } else {
            step_lanes_portable(w, active, e.srcs, e.dst)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let (dep, dist) = step_lanes_portable(w, active, e.srcs, e.dst);
        self.dep_count += dep;
        self.dep_distance_sum += u128::from(dist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gwc_simt::builder::KernelBuilder;
    use gwc_simt::exec::Device;
    use gwc_simt::instr::{InstrClass, Type};
    use gwc_simt::kernel::Kernel;
    use gwc_simt::kgen::{self, Rng};
    use gwc_simt::launch::LaunchConfig;
    use std::collections::BTreeMap;

    fn ev(active: u32, dst: Option<Reg>, srcs: &'static [Reg]) -> InstrEvent<'static> {
        InstrEvent {
            block: 0,
            warp: 0,
            pc: 0,
            class: InstrClass::IntAlu,
            active,
            live: u32::MAX,
            dst,
            srcs,
        }
    }

    fn with_regs(regs: usize) -> IlpObserver {
        let mut o = IlpObserver::new();
        o.regs = regs;
        o
    }

    #[test]
    fn serial_chain_has_ilp_one() {
        // r0 = ...; r0 = f(r0); r0 = f(r0): fully serial.
        let mut o = with_regs(1);
        o.on_instr(&ev(1, Some(Reg(0)), &[]));
        static SRC: [Reg; 1] = [Reg(0)];
        o.on_instr(&ev(1, Some(Reg(0)), &SRC));
        o.on_instr(&ev(1, Some(Reg(0)), &SRC));
        assert!((o.ilp() - 1.0).abs() < 1e-12, "{}", o.ilp());
    }

    #[test]
    fn independent_instrs_have_high_ilp() {
        // Four writes to distinct registers with no sources.
        let mut o = with_regs(4);
        for r in 0..4 {
            o.on_instr(&ev(1, Some(Reg(r)), &[]));
        }
        assert!((o.ilp() - 4.0).abs() < 1e-12, "{}", o.ilp());
    }

    #[test]
    fn dep_distance_tracks_gap() {
        let mut o = with_regs(2);
        o.on_instr(&ev(1, Some(Reg(0)), &[])); // idx 1 writes r0
        o.on_instr(&ev(1, Some(Reg(1)), &[])); // idx 2 independent
        static SRC: [Reg; 1] = [Reg(0)];
        o.on_instr(&ev(1, None, &SRC)); // idx 3 reads r0 (distance 2)
        assert!((o.dep_distance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lanes_are_independent() {
        // Lane 0 serial on r0; lane 1 never reads its own r0.
        let mut o = with_regs(1);
        static SRC: [Reg; 1] = [Reg(0)];
        o.on_instr(&ev(0b11, Some(Reg(0)), &[]));
        o.on_instr(&ev(0b01, Some(Reg(0)), &SRC)); // lane 0 dependent
        o.on_instr(&ev(0b10, Some(Reg(0)), &[])); // lane 1 independent
                                                  // lane0: 2 instrs, crit 2 -> 1.0; lane1: 2 instrs, crit 1 -> 2.0.
        let expect = (1.0 * 2.0 + 2.0 * 2.0) / 4.0;
        assert!((o.ilp() - expect).abs() < 1e-12, "{}", o.ilp());
    }

    #[test]
    fn empty_observer_reports_zero() {
        let o = IlpObserver::new();
        assert_eq!(o.ilp(), 0.0);
        assert_eq!(o.dep_distance(), 0.0);
    }

    /// Everything the observer reports, bit for bit, plus the exact
    /// integer sums behind `dep_distance`.
    type Results = (u64, u128, u64, u64);

    fn results(o: &IlpObserver) -> Results {
        let (ilp, dist) = (o.ilp(), o.dep_distance());
        (
            o.dep_count,
            o.dep_distance_sum,
            ilp.to_bits(),
            dist.to_bits(),
        )
    }

    /// Per-lane state of the reference model: every lane keeps its own
    /// registers from the first event on.
    struct NaiveWarp {
        levels: Vec<[u32; WARP_SIZE]>,
        write_idx: Vec<[u32; WARP_SIZE]>,
        count: [u32; WARP_SIZE],
        crit: [u32; WARP_SIZE],
    }

    /// The definition read literally, one lane and one source at a time,
    /// with no scalar path, no expansion and no vector form.
    #[derive(Default)]
    struct Naive {
        regs: usize,
        warps: BTreeMap<(u32, u32), NaiveWarp>,
        folded_weighted: f64,
        folded_instrs: u64,
        dep_distance_sum: u128,
        dep_count: u64,
    }

    impl Naive {
        /// Warps in key order, lanes in lane order: the fold order the
        /// observer promises.
        fn fold(&self) -> (f64, u64) {
            let (mut weighted, mut instrs) = (0.0, 0u64);
            for w in self.warps.values() {
                for lane in 0..WARP_SIZE {
                    let c = w.count[lane];
                    if c > 0 {
                        weighted += c as f64 / w.crit[lane].max(1) as f64 * c as f64;
                        instrs += u64::from(c);
                    }
                }
            }
            (weighted, instrs)
        }

        fn results(&self) -> Results {
            let (weighted, instrs) = self.fold();
            let instrs = self.folded_instrs + instrs;
            let ilp = if instrs == 0 {
                0.0
            } else {
                (self.folded_weighted + weighted) / instrs as f64
            };
            let dist = if self.dep_count == 0 {
                0.0
            } else {
                self.dep_distance_sum as f64 / self.dep_count as f64
            };
            (
                self.dep_count,
                self.dep_distance_sum,
                ilp.to_bits(),
                dist.to_bits(),
            )
        }
    }

    impl TraceObserver for Naive {
        fn on_launch(&mut self, kernel: &Kernel, _config: &LaunchConfig) {
            let (weighted, instrs) = self.fold();
            self.folded_weighted += weighted;
            self.folded_instrs += instrs;
            self.regs = kernel.reg_count();
            self.warps.clear();
        }

        fn on_instr(&mut self, e: &InstrEvent<'_>) {
            if e.active == 0 {
                return;
            }
            let regs = self.regs;
            let w = self
                .warps
                .entry((e.block, e.warp))
                .or_insert_with(|| NaiveWarp {
                    levels: vec![[0; WARP_SIZE]; regs],
                    write_idx: vec![[0; WARP_SIZE]; regs],
                    count: [0; WARP_SIZE],
                    crit: [0; WARP_SIZE],
                });
            for lane in (0..WARP_SIZE).filter(|lane| (e.active >> lane) & 1 == 1) {
                let mut level = 0;
                for src in e.srcs {
                    let src_level = w.levels[src.0 as usize][lane];
                    level = level.max(src_level);
                    if src_level != 0 {
                        self.dep_count += 1;
                        self.dep_distance_sum +=
                            u128::from(w.count[lane] + 1 - w.write_idx[src.0 as usize][lane]);
                    }
                }
                w.count[lane] += 1;
                w.crit[lane] = w.crit[lane].max(level + 1);
                if let Some(dst) = e.dst {
                    w.levels[dst.0 as usize][lane] = level + 1;
                    w.write_idx[dst.0 as usize][lane] = w.count[lane];
                }
            }
        }
    }

    /// One event stream fed to three legs: the observer with its AVX2
    /// instance switched off, the observer as constructed where that runs
    /// the AVX2 instance (`None` on hosts and targets without AVX2, so the
    /// AVX2 instance is never called there), and the per-lane model.
    struct Legs {
        portable: IlpObserver,
        avx2: Option<IlpObserver>,
        naive: Naive,
    }

    impl Legs {
        fn new() -> Self {
            #[cfg(target_arch = "x86_64")]
            let (portable, avx2) = {
                let detected = IlpObserver::new();
                let portable = IlpObserver {
                    avx2: false,
                    ..IlpObserver::new()
                };
                (portable, detected.avx2.then_some(detected))
            };
            #[cfg(not(target_arch = "x86_64"))]
            let (portable, avx2) = (IlpObserver::new(), None);
            Self {
                portable,
                avx2,
                naive: Naive::default(),
            }
        }

        /// The portable instance matches the model bit for bit, and the
        /// AVX2 instance holds the portable one's exact warp state.
        fn check(&self, what: &str) {
            assert_eq!(results(&self.portable), self.naive.results(), "{what}");
            if let Some(avx2) = &self.avx2 {
                assert!(avx2.store == self.portable.store, "{what}: warp state");
                assert_eq!(results(avx2), results(&self.portable), "{what}");
            }
        }
    }

    impl TraceObserver for Legs {
        fn on_launch(&mut self, kernel: &Kernel, config: &LaunchConfig) {
            self.portable.on_launch(kernel, config);
            self.naive.on_launch(kernel, config);
            if let Some(avx2) = &mut self.avx2 {
                avx2.on_launch(kernel, config);
            }
        }

        fn on_instr(&mut self, e: &InstrEvent<'_>) {
            self.portable.on_instr(e);
            self.naive.on_instr(e);
            if let Some(avx2) = &mut self.avx2 {
                avx2.on_instr(e);
            }
        }
    }

    /// A kernel that only declares `regs` registers: what `on_launch`
    /// reads.
    fn kernel_with_regs(regs: usize) -> Kernel {
        let mut b = KernelBuilder::new("regs");
        for _ in 0..regs {
            b.reg(Type::U32);
        }
        b.ret();
        b.build().expect("register-only kernel")
    }

    /// One of the mask shapes warps take: full, a tail warp, a half
    /// warp, a single lane, or random lanes.
    fn mask(rng: &mut Rng) -> u32 {
        match rng.below(5) {
            0 => u32::MAX,
            1 => u32::MAX >> (1 + rng.below(31)),
            2 => [0x0000_ffff, 0xffff_0000][rng.below(2) as usize],
            3 => 1 << rng.below(32),
            _ => rng.next_u32(),
        }
    }

    /// Seeded synthetic streams: 1–3 launches of 1–4 interleaved warps
    /// over 1–16 registers, 0–3 sources and an optional destination per
    /// event, each warp repeating its first mask for a while before it
    /// diverges. The legs must agree after every launch.
    #[test]
    fn lane_kernel_instances_match_a_per_lane_model() {
        for seed in 0..200u64 {
            let mut rng = Rng::new(seed);
            let mut legs = Legs::new();
            for launch in 0..1 + rng.below(3) {
                let kernel = kernel_with_regs(1 + rng.below(16) as usize);
                legs.on_launch(&kernel, &LaunchConfig::new(1, 32));
                let regs = kernel.reg_count() as u32;
                let warps: Vec<((u32, u32), u32, u32)> = (0..1 + rng.below(4))
                    .map(|i| ((i / 2, i % 2), mask(&mut rng), rng.below(40)))
                    .collect();
                let mut sent = vec![0u32; warps.len()];
                for _ in 0..rng.below(300) {
                    let i = rng.below(warps.len() as u32) as usize;
                    let ((block, warp), first, uniform_for) = warps[i];
                    let active = if sent[i] < uniform_for || rng.chance(20) {
                        first
                    } else if rng.chance(10) {
                        0
                    } else {
                        mask(&mut rng)
                    };
                    sent[i] += 1;
                    let srcs: Vec<Reg> = (0..rng.below(4))
                        .map(|_| Reg(rng.below(regs) as u16))
                        .collect();
                    let dst = rng.chance(75).then(|| Reg(rng.below(regs) as u16));
                    legs.on_instr(&InstrEvent {
                        block,
                        warp,
                        pc: 0,
                        class: InstrClass::IntAlu,
                        active,
                        live: u32::MAX,
                        dst,
                        srcs: &srcs,
                    });
                }
                legs.check(&format!("seed {seed}, launch {launch}"));
            }
        }
    }

    /// Real event streams: 50 generated kernels (divergence, loops,
    /// barriers), one launch each, into the same legs.
    #[test]
    fn lane_kernel_instances_agree_on_generated_kernels() {
        let mut legs = Legs::new();
        for seed in 0..50u64 {
            let gk = kgen::generate_seeded(seed).expect("kernel generation");
            let mut dev = Device::new();
            let args = gk.alloc_args(&mut dev);
            dev.launch_observed(&gk.kernel, &gk.config, &args.args, &mut legs)
                .expect("launch");
            legs.check(&format!("kernel {seed}"));
        }
    }
}
