//! Policy-driven block dispatch for (co-)scheduled kernel launches.
//!
//! "Which block of which kernel runs next" is a scheduling decision, not
//! a property of the warp engine. This module makes that decision
//! explicit: a [`SchedPolicy`] turns the grid geometry of one or more
//! co-resident kernels into a [`DispatchPlan`] — a deterministic sequence
//! of `(kernel, block_range)` slices — and the executor
//! ([`crate::exec::Device`]) simply consumes the plan, one slice at a
//! time, with whichever warp engine the device is pinned to.
//!
//! The plan is a pure function of `(policy, grid geometry)`: no clocks,
//! no thread scheduling, no randomness. That is what lets the
//! determinism and cross-backend differential suites extend to every
//! policy unchanged — a co-scheduled launch retires exactly the same
//! per-kernel event stream on every backend and at every thread count,
//! because the interleaving itself is data.
//!
//! Every policy emits each kernel's blocks in ascending order, so a
//! kernel's own execution (including its global-atomics ordering) is
//! identical to its solo launch; co-residence changes *when* a kernel's
//! blocks run relative to its partner's, which is exactly the axis the
//! pairwise-interference characterization (`gwc-characterize`'s pair
//! profile) measures.

use std::ops::Range;

use crate::kernel::Kernel;
use crate::launch::LaunchConfig;
use crate::trace::{BranchEvent, InstrEvent, LaunchStats, MemEvent, TraceObserver};

/// One contiguous run of blocks of one co-scheduled kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchSlice {
    /// Index of the kernel in the co-schedule (0 for single launches).
    pub kernel: usize,
    /// Block range of that kernel's grid to execute, `[start, end)`.
    pub blocks: Range<u32>,
}

/// A deterministic dispatch sequence: the order in which block ranges of
/// co-scheduled kernels execute.
///
/// Invariants (checked by [`DispatchPlan::validate`], asserted in debug
/// builds wherever a plan is generated): every kernel's blocks are
/// covered exactly once with no overlap, and each kernel's slices appear
/// in ascending block order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DispatchPlan {
    slices: Vec<DispatchSlice>,
}

impl DispatchPlan {
    /// The trivial single-kernel plan: one slice covering `blocks` of
    /// kernel 0. A solo launch ([`crate::exec::Device::launch_observed`])
    /// dispatches through this, so it runs the same plan executor as a
    /// co-scheduled one.
    pub fn single(blocks: Range<u32>) -> Self {
        Self {
            slices: vec![DispatchSlice { kernel: 0, blocks }],
        }
    }

    /// Builds a plan from explicit slices (policies use this).
    pub fn from_slices(slices: Vec<DispatchSlice>) -> Self {
        Self { slices }
    }

    /// The dispatch sequence.
    pub fn slices(&self) -> &[DispatchSlice] {
        &self.slices
    }

    /// Total blocks the plan dispatches (all kernels).
    pub fn total_blocks(&self) -> u64 {
        self.slices
            .iter()
            .map(|s| (s.blocks.end - s.blocks.start) as u64)
            .sum()
    }

    /// Blocks the plan dispatches for `kernel`.
    pub fn blocks_of(&self, kernel: usize) -> u64 {
        self.slices
            .iter()
            .filter(|s| s.kernel == kernel)
            .map(|s| (s.blocks.end - s.blocks.start) as u64)
            .sum()
    }

    /// Checks the plan invariants against the grid sizes it was built
    /// for: per-kernel ascending, non-overlapping, gap-free coverage of
    /// `0..grids[k]` for every kernel.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self, grids: &[u32]) -> Result<(), String> {
        let mut next: Vec<u32> = vec![0; grids.len()];
        for (i, s) in self.slices.iter().enumerate() {
            let Some(&grid) = grids.get(s.kernel) else {
                return Err(format!(
                    "slice {i} names kernel {} of {}",
                    s.kernel,
                    grids.len()
                ));
            };
            if s.blocks.start > s.blocks.end {
                return Err(format!("slice {i}: inverted range {:?}", s.blocks));
            }
            if s.blocks.start != next[s.kernel] {
                return Err(format!(
                    "slice {i}: kernel {} jumps to block {} (expected {})",
                    s.kernel, s.blocks.start, next[s.kernel]
                ));
            }
            if s.blocks.end > grid {
                return Err(format!(
                    "slice {i}: kernel {} range {:?} exceeds grid {grid}",
                    s.kernel, s.blocks
                ));
            }
            next[s.kernel] = s.blocks.end;
        }
        for (k, (&done, &grid)) in next.iter().zip(grids).enumerate() {
            if done != grid {
                return Err(format!("kernel {k}: covered {done} of {grid} blocks"));
            }
        }
        Ok(())
    }
}

/// Streaming-multiprocessor count the SM-partitioned and leftover-fill
/// policies model. The value matters only as a ratio (it sets the
/// relative slice widths); 16 matches the GT200-class machines of the
/// source study.
pub const MODEL_SMS: u32 = 16;

/// The co-scheduling policies selectable from the command line
/// (`regen --policy`). [`SchedPolicy::plan`] turns one into a
/// [`DispatchPlan`]; every policy is a pure function of the grid
/// geometry, so the same grids always yield the same plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Kernels alternate one block at a time until every grid is
    /// exhausted. The finest-grained mixing — the canonical
    /// high-contention co-schedule.
    RoundRobin,
    /// The modeled machine's [`MODEL_SMS`] SMs are split evenly between
    /// the kernels (remainder to the earlier kernels), and each round
    /// dispatches every kernel's per-round share of blocks. A kernel
    /// that exhausts its grid leaves its partition idle — partitions are
    /// static, which is what distinguishes this policy from
    /// [`SchedPolicy::LeftoverFill`].
    SmPartitioned,
    /// The kernel with the larger grid is the primary and streams
    /// through the machine in full-machine waves of [`MODEL_SMS`]
    /// blocks; the other kernels' blocks fill the capacity left at wave
    /// boundaries, spread evenly across the primary's timeline.
    /// Grid-size ties break toward kernel 0 as primary. The coarsest
    /// mixing of the three policies.
    LeftoverFill,
}

impl SchedPolicy {
    /// Every policy, in presentation order.
    pub const ALL: [SchedPolicy; 3] = [
        SchedPolicy::RoundRobin,
        SchedPolicy::SmPartitioned,
        SchedPolicy::LeftoverFill,
    ];

    /// Parses a CLI spelling; `None` if unrecognized.
    pub fn parse(s: &str) -> Option<SchedPolicy> {
        match s.to_ascii_lowercase().as_str() {
            "round-robin" | "rr" => Some(SchedPolicy::RoundRobin),
            "sm-partitioned" | "sm" => Some(SchedPolicy::SmPartitioned),
            "leftover-fill" | "fill" => Some(SchedPolicy::LeftoverFill),
            _ => None,
        }
    }

    /// Canonical CLI/report spelling.
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::RoundRobin => "round-robin",
            SchedPolicy::SmPartitioned => "sm-partitioned",
            SchedPolicy::LeftoverFill => "leftover-fill",
        }
    }

    /// Builds the dispatch plan for co-resident kernels with `grids[k]`
    /// blocks each.
    pub fn plan(self, grids: &[u32]) -> DispatchPlan {
        match self {
            SchedPolicy::RoundRobin => interleave(grids, |_| 1),
            SchedPolicy::SmPartitioned => {
                let n = grids.len().max(1) as u32;
                let sms = MODEL_SMS.max(n);
                interleave(grids, |k| sms / n + u32::from(k < sms % n))
            }
            SchedPolicy::LeftoverFill => leftover_fill(grids),
        }
    }
}

/// Dispatches `turn(k)` blocks of each kernel `k` in kernel order, round
/// after round, until every grid is exhausted.
fn interleave(grids: &[u32], turn: impl Fn(u32) -> u32) -> DispatchPlan {
    let mut next: Vec<u32> = vec![0; grids.len()];
    let mut slices = Vec::new();
    loop {
        let mut emitted = false;
        for (k, &grid) in grids.iter().enumerate() {
            if next[k] < grid {
                let end = (next[k] + turn(k as u32)).min(grid);
                slices.push(DispatchSlice {
                    kernel: k,
                    blocks: next[k]..end,
                });
                next[k] = end;
                emitted = true;
            }
        }
        if !emitted {
            return DispatchPlan::from_slices(slices);
        }
    }
}

/// [`SchedPolicy::LeftoverFill`] in its general n-kernel form: the
/// largest grid is primary, every other kernel is a filler spread evenly
/// through its waves.
fn leftover_fill(grids: &[u32]) -> DispatchPlan {
    let Some(primary) = (0..grids.len()).max_by_key(|&k| (grids[k], std::cmp::Reverse(k))) else {
        return DispatchPlan::default();
    };
    let big = grids[primary];
    let mut slices = Vec::new();
    if big == 0 {
        // Degenerate: no primary blocks; emit fillers whole.
        for (k, &g) in grids.iter().enumerate() {
            if k != primary && g > 0 {
                slices.push(DispatchSlice {
                    kernel: k,
                    blocks: 0..g,
                });
            }
        }
        return DispatchPlan::from_slices(slices);
    }
    let waves = big.div_ceil(MODEL_SMS) as u64;
    let mut next: Vec<u32> = vec![0; grids.len()];
    for w in 0..waves {
        let start = (w * MODEL_SMS as u64) as u32;
        let end = ((w + 1) * MODEL_SMS as u64).min(big as u64) as u32;
        slices.push(DispatchSlice {
            kernel: primary,
            blocks: start..end,
        });
        for (k, &g) in grids.iter().enumerate() {
            if k == primary || g == 0 {
                continue;
            }
            // After wave w, filler k should have dispatched
            // floor((w + 1) * g / waves) blocks — an even spread.
            let due = (((w + 1) * g as u64) / waves) as u32;
            if due > next[k] {
                slices.push(DispatchSlice {
                    kernel: k,
                    blocks: next[k]..due,
                });
                next[k] = due;
            }
        }
    }
    DispatchPlan::from_slices(slices)
}

/// Marker for observers of co-scheduled launches, implemented for every
/// [`TraceObserver`]: member routing is [`TraceObserver::on_member`], so
/// any observer can watch a [`crate::exec::Device::launch_pair`].
pub trait CoScheduleObserver: TraceObserver {}

impl<T: TraceObserver + ?Sized> CoScheduleObserver for T {}

/// Routes a co-scheduled launch's events to one observer per member
/// kernel, so each member's observer sees exactly the event stream a
/// solo launch of that kernel would have produced. In a solo launch the
/// events go to the most recently routed member (member 0 at first).
#[derive(Debug, Clone)]
pub struct PerKernel<O> {
    members: Vec<O>,
    current: usize,
}

impl<O: TraceObserver> PerKernel<O> {
    /// Wraps one observer per member kernel.
    pub fn new(members: Vec<O>) -> Self {
        Self {
            members,
            current: 0,
        }
    }

    /// The per-member observers, in member order.
    pub fn members(&self) -> &[O] {
        &self.members
    }

    /// Unwraps into the per-member observers.
    pub fn into_members(self) -> Vec<O> {
        self.members
    }
}

impl<O: TraceObserver> TraceObserver for PerKernel<O> {
    fn on_member(&mut self, member: usize) {
        self.current = member;
    }
    fn on_launch(&mut self, kernel: &Kernel, config: &LaunchConfig) {
        self.members[self.current].on_launch(kernel, config);
    }
    fn on_instr(&mut self, event: &InstrEvent<'_>) {
        self.members[self.current].on_instr(event);
    }
    fn on_mem(&mut self, event: &MemEvent<'_>) {
        self.members[self.current].on_mem(event);
    }
    fn on_branch(&mut self, event: &BranchEvent) {
        self.members[self.current].on_branch(event);
    }
    fn on_barrier(&mut self, block: u32) {
        self.members[self.current].on_barrier(block);
    }
    fn on_launch_end(&mut self, stats: &LaunchStats) {
        self.members[self.current].on_launch_end(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(policy: SchedPolicy, grids: &[u32]) {
        let plan = policy.plan(grids);
        plan.validate(grids)
            .unwrap_or_else(|e| panic!("invalid plan for grids {grids:?}: {e}"));
        let total: u64 = grids.iter().map(|&g| g as u64).sum();
        assert_eq!(plan.total_blocks(), total);
        for (k, &g) in grids.iter().enumerate() {
            assert_eq!(plan.blocks_of(k), g as u64, "kernel {k} coverage");
        }
    }

    /// Seeded sweep: every policy covers every kernel's blocks exactly
    /// once, in order, with no overlap — over a few hundred random
    /// geometries including zero-block and wildly asymmetric grids.
    #[test]
    fn every_policy_covers_every_grid_exactly_once() {
        let mut rng = crate::kgen::Rng::new(0x0C05_C4ED);
        for _ in 0..300 {
            let ga = rng.below(257);
            let gb = rng.below(257);
            for p in SchedPolicy::ALL {
                check(p, &[ga, gb]);
            }
        }
        // Corner geometries every policy must survive.
        for grids in [
            &[0u32, 0][..],
            &[0, 5],
            &[5, 0],
            &[1, 1],
            &[1, 1024],
            &[1024, 1],
        ] {
            for p in SchedPolicy::ALL {
                check(p, grids);
            }
        }
        // Policies are not limited to pairs.
        for p in SchedPolicy::ALL {
            check(p, &[3, 0, 17, 64]);
        }
    }

    #[test]
    fn plans_are_pure_functions_of_geometry() {
        for policy in SchedPolicy::ALL {
            let a = policy.plan(&[37, 101]);
            let b = policy.plan(&[37, 101]);
            assert_eq!(a, b, "{} replans identically", policy.name());
        }
    }

    #[test]
    fn policies_actually_differ() {
        let plans: Vec<DispatchPlan> = SchedPolicy::ALL.iter().map(|p| p.plan(&[32, 32])).collect();
        assert_ne!(plans[0], plans[1]);
        assert_ne!(plans[0], plans[2]);
        assert_ne!(plans[1], plans[2]);
    }

    #[test]
    fn round_robin_alternates_single_blocks() {
        let plan = SchedPolicy::RoundRobin.plan(&[2, 2]);
        let got: Vec<(usize, Range<u32>)> = plan
            .slices()
            .iter()
            .map(|s| (s.kernel, s.blocks.clone()))
            .collect();
        assert_eq!(got, vec![(0, 0..1), (1, 0..1), (0, 1..2), (1, 1..2)]);
    }

    #[test]
    fn sm_partition_slices_by_share() {
        // MODEL_SMS = 16 SMs over 2 kernels: 8-block turns.
        let plan = SchedPolicy::SmPartitioned.plan(&[16, 8]);
        let first: Vec<(usize, Range<u32>)> = plan
            .slices()
            .iter()
            .take(3)
            .map(|s| (s.kernel, s.blocks.clone()))
            .collect();
        assert_eq!(first, vec![(0, 0..8), (1, 0..8), (0, 8..16)]);
    }

    #[test]
    fn leftover_fill_spreads_the_smaller_kernel() {
        // One full-machine wave per 16 primary blocks; the filler's
        // blocks land at wave boundaries, spread evenly.
        let plan = SchedPolicy::LeftoverFill.plan(&[32, 4]);
        let got: Vec<(usize, Range<u32>)> = plan
            .slices()
            .iter()
            .map(|s| (s.kernel, s.blocks.clone()))
            .collect();
        assert_eq!(got, vec![(0, 0..16), (1, 0..2), (0, 16..32), (1, 2..4)]);
        // Ties pick kernel 0 as primary and still mix more coarsely
        // than round-robin or the SM partition.
        let tie = SchedPolicy::LeftoverFill.plan(&[16, 16]);
        assert_eq!(
            tie.slices()[0],
            DispatchSlice {
                kernel: 0,
                blocks: 0..16
            }
        );
        assert_eq!(
            tie.slices()[1],
            DispatchSlice {
                kernel: 1,
                blocks: 0..16
            }
        );
    }

    #[test]
    fn policy_parse_round_trips_and_rejects_junk() {
        for p in SchedPolicy::ALL {
            assert_eq!(SchedPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(SchedPolicy::parse("RR"), Some(SchedPolicy::RoundRobin));
        assert_eq!(SchedPolicy::parse("gang"), None);
        assert_eq!(SchedPolicy::parse(""), None);
    }

    #[test]
    fn single_plan_is_one_slice() {
        let plan = DispatchPlan::single(3..9);
        assert_eq!(plan.slices().len(), 1);
        assert_eq!(plan.total_blocks(), 6);
        assert_eq!(plan.blocks_of(0), 6);
    }

    #[test]
    fn validate_rejects_gaps_overlaps_and_disorder() {
        let gap = DispatchPlan::from_slices(vec![DispatchSlice {
            kernel: 0,
            blocks: 0..3,
        }]);
        assert!(gap.validate(&[5]).is_err());
        let overlap = DispatchPlan::from_slices(vec![
            DispatchSlice {
                kernel: 0,
                blocks: 0..3,
            },
            DispatchSlice {
                kernel: 0,
                blocks: 2..5,
            },
        ]);
        assert!(overlap.validate(&[5]).is_err());
        let disorder = DispatchPlan::from_slices(vec![
            DispatchSlice {
                kernel: 0,
                blocks: 3..5,
            },
            DispatchSlice {
                kernel: 0,
                blocks: 0..3,
            },
        ]);
        assert!(disorder.validate(&[5]).is_err());
    }
}
