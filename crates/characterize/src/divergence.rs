//! Branch-divergence observer.

use gwc_simt::trace::{BranchEvent, InstrEvent, TraceObserver};
use gwc_simt::WARP_SIZE;

/// Streams branch outcomes and warp activity into divergence metrics.
///
/// Activity is accumulated in integer domain — active lanes bucketed by
/// live-lane count — and only converted to floating point at read time,
/// in a fixed order.
#[derive(Debug, Clone)]
pub struct DivergenceObserver {
    warp_instrs: u64,
    diverged_warp_instrs: u64,
    /// `active_by_live[m]` sums active-lane counts over warp instructions
    /// issued with exactly `m` live lanes (index 0 unused).
    active_by_live: [u64; WARP_SIZE + 1],
    branches: u64,
    divergent_branches: u64,
}

impl Default for DivergenceObserver {
    fn default() -> Self {
        Self {
            warp_instrs: 0,
            diverged_warp_instrs: 0,
            active_by_live: [0; WARP_SIZE + 1],
            branches: 0,
            divergent_branches: 0,
        }
    }
}

impl DivergenceObserver {
    /// Creates an empty observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Conditional branches per warp instruction.
    pub fn branch_density(&self) -> f64 {
        if self.warp_instrs == 0 {
            0.0
        } else {
            self.branches as f64 / self.warp_instrs as f64
        }
    }

    /// Fraction of dynamic branches that split their warp.
    pub fn divergent_branch_frac(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.divergent_branches as f64 / self.branches as f64
        }
    }

    /// Mean `active / live` lane ratio over warp instructions
    /// (1.0 = never diverged).
    pub fn simd_activity(&self) -> f64 {
        if self.warp_instrs == 0 {
            return 0.0;
        }
        let activity_sum: f64 = (1..=WARP_SIZE)
            .map(|m| self.active_by_live[m] as f64 / m as f64)
            .sum();
        activity_sum / self.warp_instrs as f64
    }

    /// Fraction of warp instructions issued with a diverged mask.
    pub fn diverged_instr_frac(&self) -> f64 {
        if self.warp_instrs == 0 {
            0.0
        } else {
            self.diverged_warp_instrs as f64 / self.warp_instrs as f64
        }
    }

    /// Total dynamic conditional branches observed.
    pub fn branches(&self) -> u64 {
        self.branches
    }
}

impl TraceObserver for DivergenceObserver {
    fn on_instr(&mut self, e: &InstrEvent<'_>) {
        self.warp_instrs += 1;
        let live = e.live.count_ones().max(1);
        self.active_by_live[live as usize] += e.active_lanes() as u64;
        if e.active != e.live {
            self.diverged_warp_instrs += 1;
        }
    }

    fn on_branch(&mut self, e: &BranchEvent) {
        self.branches += 1;
        if e.divergent() {
            self.divergent_branches += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gwc_simt::instr::InstrClass;

    fn instr(active: u32, live: u32) -> InstrEvent<'static> {
        InstrEvent {
            block: 0,
            warp: 0,
            pc: 0,
            class: InstrClass::IntAlu,
            active,
            live,
            dst: None,
            srcs: &[],
        }
    }

    fn branch(active: u32, taken: u32) -> BranchEvent {
        BranchEvent {
            block: 0,
            warp: 0,
            pc: 0,
            active,
            taken,
        }
    }

    #[test]
    fn fully_converged_kernel() {
        let mut d = DivergenceObserver::new();
        for _ in 0..10 {
            d.on_instr(&instr(u32::MAX, u32::MAX));
        }
        d.on_branch(&branch(u32::MAX, u32::MAX));
        assert_eq!(d.simd_activity(), 1.0);
        assert_eq!(d.divergent_branch_frac(), 0.0);
        assert_eq!(d.diverged_instr_frac(), 0.0);
        assert!((d.branch_density() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn half_diverged_activity() {
        let mut d = DivergenceObserver::new();
        d.on_instr(&instr(u32::MAX, u32::MAX));
        d.on_instr(&instr(0xFFFF, u32::MAX));
        assert!((d.simd_activity() - 0.75).abs() < 1e-12);
        assert!((d.diverged_instr_frac() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn partial_warp_is_not_divergence() {
        // A 16-thread block: live = 0xFFFF; all alive lanes active.
        let mut d = DivergenceObserver::new();
        d.on_instr(&instr(0xFFFF, 0xFFFF));
        assert_eq!(d.simd_activity(), 1.0);
        assert_eq!(d.diverged_instr_frac(), 0.0);
    }

    #[test]
    fn divergent_branch_counted() {
        let mut d = DivergenceObserver::new();
        d.on_branch(&branch(0b1111, 0b0011));
        d.on_branch(&branch(0b1111, 0b1111));
        assert!((d.divergent_branch_frac() - 0.5).abs() < 1e-12);
        assert_eq!(d.branches(), 2);
    }

    #[test]
    fn empty_observer_is_zero() {
        let d = DivergenceObserver::new();
        assert_eq!(d.simd_activity(), 0.0);
        assert_eq!(d.branch_density(), 0.0);
    }
}
