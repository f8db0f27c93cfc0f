//! Execution trace observers.
//!
//! The executor streams warp-level events to a [`TraceObserver`] while a
//! kernel runs. Observers see everything a microarchitecture-independent
//! characterization needs — dynamic instruction classes with active masks,
//! per-lane memory addresses, branch outcomes, barriers — without the
//! executor ever materializing a full trace in memory.

use crate::instr::{InstrClass, Reg, Space};
use crate::kernel::Kernel;
use crate::launch::LaunchConfig;
use crate::WARP_SIZE;

/// A warp-level dynamic instruction.
#[derive(Debug, Clone, Copy)]
pub struct InstrEvent<'a> {
    /// Linear block index within the grid.
    pub block: u32,
    /// Warp index within the block.
    pub warp: u32,
    /// Instruction index in the kernel.
    pub pc: usize,
    /// Dynamic classification.
    pub class: InstrClass,
    /// Active lane mask (bit `i` = lane `i` executed).
    pub active: u32,
    /// Live lane mask: lanes of this warp that exist and have not exited.
    /// `active == live` means the warp is fully converged.
    pub live: u32,
    /// Destination register, if the instruction writes one.
    pub dst: Option<Reg>,
    /// Register operands read (statically known per pc).
    pub srcs: &'a [Reg],
}

impl InstrEvent<'_> {
    /// Number of active lanes.
    pub fn active_lanes(&self) -> u32 {
        self.active.count_ones()
    }
}

/// What kind of access a [`MemEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Load.
    Load,
    /// Store.
    Store,
    /// Atomic read-modify-write.
    Atomic,
}

/// A warp-level memory access with per-lane byte addresses.
#[derive(Debug, Clone, Copy)]
pub struct MemEvent<'a> {
    /// Linear block index within the grid.
    pub block: u32,
    /// Warp index within the block.
    pub warp: u32,
    /// Instruction index in the kernel.
    pub pc: usize,
    /// Memory space accessed.
    pub space: Space,
    /// Load, store or atomic.
    pub kind: AccessKind,
    /// Access width in bytes per lane (always 4 in the current IR).
    pub bytes: u8,
    /// Active lane mask.
    pub active: u32,
    /// Per-lane byte addresses; entry `i` is valid iff bit `i` of
    /// `active` is set.
    pub addrs: &'a [u32; WARP_SIZE],
}

impl MemEvent<'_> {
    /// Iterates over the addresses of active lanes.
    pub fn active_addrs(&self) -> impl Iterator<Item = u32> + '_ {
        (0..WARP_SIZE).filter_map(move |i| {
            if self.active & (1 << i) != 0 {
                Some(self.addrs[i])
            } else {
                None
            }
        })
    }
}

/// A warp-level conditional-branch outcome.
#[derive(Debug, Clone, Copy)]
pub struct BranchEvent {
    /// Linear block index within the grid.
    pub block: u32,
    /// Warp index within the block.
    pub warp: u32,
    /// Instruction index in the kernel.
    pub pc: usize,
    /// Active lane mask when the branch executed.
    pub active: u32,
    /// Lanes that took the branch.
    pub taken: u32,
}

impl BranchEvent {
    /// True when the branch split the warp (some lanes taken, some not).
    pub fn divergent(&self) -> bool {
        self.taken != 0 && self.taken != self.active
    }
}

/// Summary counters the executor returns from each launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaunchStats {
    /// Warp-level dynamic instructions (one per lock-step issue).
    pub warp_instrs: u64,
    /// Thread-level dynamic instructions (sum of active lanes).
    pub thread_instrs: u64,
    /// Blocks executed.
    pub blocks: u64,
    /// Warps executed.
    pub warps: u64,
    /// Barriers released (block-wide).
    pub barriers: u64,
}

/// Reports one retired launch to the observability recorder: the
/// per-kernel aggregate (instructions retired, warp steps, blocks,
/// barriers) plus the global `simt.*` counters. One branch when no
/// recorder is installed.
///
/// The device's launch boundary calls this once per launched kernel:
/// once for a solo launch, once per member of a co-scheduled one.
pub(crate) fn record_launch(kernel: &str, stats: &LaunchStats, wall_ns: u64) {
    let Some(rec) = gwc_obs::recorder() else {
        return;
    };
    rec.record_kernel_launch(
        kernel,
        &gwc_obs::recorder::KernelLaunch {
            warp_instrs: stats.warp_instrs,
            thread_instrs: stats.thread_instrs,
            blocks: stats.blocks,
            warps: stats.warps,
            barriers: stats.barriers,
            wall_ns,
        },
    );
    rec.add_counter("simt.launches", 1);
    rec.add_counter("simt.warp_instrs", stats.warp_instrs);
    rec.add_counter("simt.thread_instrs", stats.thread_instrs);
    rec.add_counter("simt.blocks", stats.blocks);
    rec.add_counter("simt.barriers", stats.barriers);
}

/// Reports one retired launch's execution-cost profile: nonzero µop
/// classes plus the [`crate::profile::HOTSPOT_TOP_N`] hottest pcs, each
/// tagged with its class from the kernel's decoded stream. Like
/// [`record_launch`], reported once per launched kernel. One branch when
/// no recorder is installed; the payload slices live on this stack
/// frame.
pub(crate) fn record_exec_profile(kernel: &Kernel, profile: &crate::profile::ExecProfile) {
    let Some(rec) = gwc_obs::recorder() else {
        return;
    };
    let mut classes = [gwc_obs::ExecClass {
        class: "",
        warp_uops: 0,
        lane_uops: 0,
    }; crate::profile::N_CLASSES];
    let mut n = 0;
    for (class, counts) in profile.classes() {
        if counts.warp_uops == 0 {
            continue;
        }
        classes[n] = gwc_obs::ExecClass {
            class: class.name(),
            warp_uops: counts.warp_uops,
            lane_uops: counts.lane_uops,
        };
        n += 1;
    }
    let dec = kernel.decoded();
    let top = profile.top_pcs(crate::profile::HOTSPOT_TOP_N);
    let mut hotspots = [gwc_obs::ExecHotspot {
        pc: 0,
        class: "",
        warp_uops: 0,
        lane_uops: 0,
    }; crate::profile::HOTSPOT_TOP_N];
    for (slot, (pc, counts)) in hotspots.iter_mut().zip(&top) {
        *slot = gwc_obs::ExecHotspot {
            pc: *pc as u64,
            class: dec.class(*pc).name(),
            warp_uops: counts.warp_uops,
            lane_uops: counts.lane_uops,
        };
    }
    rec.record_exec_profile(kernel.name(), &classes[..n], &hotspots[..top.len()]);
}

/// Receives execution events during a launch.
///
/// All methods have empty default bodies, so observers implement only what
/// they need. Observers run synchronously inside the executor loop; heavy
/// observers should stream-update their statistics rather than buffer.
pub trait TraceObserver {
    /// The events that follow belong to member `member` of a
    /// co-scheduled launch ([`crate::exec::Device::launch_pair`]). Fires
    /// before each member's [`Self::on_launch`] and [`Self::on_launch_end`]
    /// and before each of its dispatch slices; never fires for a solo
    /// launch, so an observer keeps its own member choice there.
    fn on_member(&mut self, member: usize) {
        let _ = member;
    }
    /// A kernel launch is starting.
    fn on_launch(&mut self, kernel: &Kernel, config: &LaunchConfig) {
        let _ = (kernel, config);
    }
    /// A warp executed one instruction.
    fn on_instr(&mut self, event: &InstrEvent<'_>) {
        let _ = event;
    }
    /// A warp performed a memory access (also reported via [`Self::on_instr`]).
    fn on_mem(&mut self, event: &MemEvent<'_>) {
        let _ = event;
    }
    /// A warp executed a conditional branch (also reported via [`Self::on_instr`]).
    fn on_branch(&mut self, event: &BranchEvent) {
        let _ = event;
    }
    /// A block-wide barrier was released in `block`.
    fn on_barrier(&mut self, block: u32) {
        let _ = block;
    }
    /// The launch finished.
    fn on_launch_end(&mut self, stats: &LaunchStats) {
        let _ = stats;
    }
}

/// An observer that ignores every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl TraceObserver for NullObserver {}

/// Folds the complete event stream of a launch into one FNV-1a digest.
///
/// Two launches produce the same digest iff they emitted the same events
/// with the same payloads in the same order — which is exactly the
/// bit-identity contract the cross-backend differential harness
/// (`tests/backend_diff.rs`) asserts between the scalar and SIMD
/// engines. Every field of every event is folded in, with one
/// deliberate exception: memory-event addresses are hashed for **active
/// lanes only**, because inactive-lane `addrs` entries are documented as
/// stale garbage ([`MemEvent::addrs`]) and backends legitimately differ
/// in what they leave there.
#[derive(Debug, Clone)]
pub struct TraceHasher {
    h: crate::hash::Fnv1a,
    events: u64,
}

impl TraceHasher {
    /// A fresh hasher (empty stream digest).
    pub fn new() -> Self {
        Self {
            h: crate::hash::Fnv1a::new(),
            events: 0,
        }
    }

    /// Digest of the event stream folded so far.
    pub fn digest(&self) -> u64 {
        self.h.finish()
    }

    /// Number of events folded in (launch boundaries included).
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl Default for TraceHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceObserver for TraceHasher {
    fn on_launch(&mut self, kernel: &Kernel, config: &LaunchConfig) {
        self.events += 1;
        self.h.write_str("launch");
        self.h.write_u64(kernel.content_hash());
        self.h.write_u32(config.grid_x);
        self.h.write_u32(config.grid_y);
        self.h.write_u32(config.block_x);
        self.h.write_u32(config.block_y);
    }

    fn on_instr(&mut self, event: &InstrEvent<'_>) {
        self.events += 1;
        self.h.write_str("instr");
        self.h.write_u32(event.block);
        self.h.write_u32(event.warp);
        self.h.write_u64(event.pc as u64);
        self.h.write_u32(event.class as u8 as u32);
        self.h.write_u32(event.active);
        self.h.write_u32(event.live);
        self.h.write_u32(match event.dst {
            Some(r) => 0x1_0000 | r.0 as u32,
            None => 0,
        });
        self.h.write_u64(event.srcs.len() as u64);
        for r in event.srcs {
            self.h.write_u32(r.0 as u32);
        }
    }

    fn on_mem(&mut self, event: &MemEvent<'_>) {
        self.events += 1;
        self.h.write_str("mem");
        self.h.write_u32(event.block);
        self.h.write_u32(event.warp);
        self.h.write_u64(event.pc as u64);
        self.h.write_u32(event.space as u8 as u32);
        self.h.write_u32(match event.kind {
            AccessKind::Load => 0,
            AccessKind::Store => 1,
            AccessKind::Atomic => 2,
        });
        self.h.write_u32(event.bytes as u32);
        self.h.write_u32(event.active);
        // Active lanes only — see the type docs.
        for a in event.active_addrs() {
            self.h.write_u32(a);
        }
    }

    fn on_branch(&mut self, event: &BranchEvent) {
        self.events += 1;
        self.h.write_str("branch");
        self.h.write_u32(event.block);
        self.h.write_u32(event.warp);
        self.h.write_u64(event.pc as u64);
        self.h.write_u32(event.active);
        self.h.write_u32(event.taken);
    }

    fn on_barrier(&mut self, block: u32) {
        self.events += 1;
        self.h.write_str("bar");
        self.h.write_u32(block);
    }

    fn on_launch_end(&mut self, stats: &LaunchStats) {
        self.events += 1;
        self.h.write_str("end");
        self.h.write_u64(stats.warp_instrs);
        self.h.write_u64(stats.thread_instrs);
        self.h.write_u64(stats.blocks);
        self.h.write_u64(stats.warps);
        self.h.write_u64(stats.barriers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_divergence_detection() {
        let e = BranchEvent {
            block: 0,
            warp: 0,
            pc: 0,
            active: 0b1111,
            taken: 0b0011,
        };
        assert!(e.divergent());
        let uniform_taken = BranchEvent { taken: 0b1111, ..e };
        assert!(!uniform_taken.divergent());
        let uniform_not = BranchEvent { taken: 0, ..e };
        assert!(!uniform_not.divergent());
    }

    #[test]
    fn mem_event_active_addrs() {
        let mut addrs = [0u32; WARP_SIZE];
        addrs[0] = 100;
        addrs[2] = 300;
        let e = MemEvent {
            block: 0,
            warp: 0,
            pc: 0,
            space: Space::Global,
            kind: AccessKind::Load,
            bytes: 4,
            active: 0b101,
            addrs: &addrs,
        };
        assert_eq!(e.active_addrs().collect::<Vec<_>>(), vec![100, 300]);
    }

    #[test]
    fn instr_event_lane_count() {
        let e = InstrEvent {
            block: 0,
            warp: 0,
            pc: 0,
            class: InstrClass::IntAlu,
            active: 0xFFFF_FFFF,
            live: 0xFFFF_FFFF,
            dst: None,
            srcs: &[],
        };
        assert_eq!(e.active_lanes(), 32);
    }
}
