//! Execution-cost profiles: where the retired µops of a launch went.
//!
//! An [`ExecProfile`] counts, per µop class and per pc, how many
//! warp-level µops retired and how many lane-slots were active when they
//! did. Both backends bump it with two flat array adds per retired µop
//! (see the scalar prologue in [`crate::exec`] and `account` in the SIMD
//! engine), so collection is cheap enough to leave on whenever a
//! recorder is installed — and exactly one branch when it is not.
//!
//! Every launched kernel gets its own profile — a co-scheduled pair
//! launch collects one per member, exactly as their solo launches would.

use crate::instr::InstrClass;

/// Number of µop classes ([`InstrClass::ALL`]).
pub const N_CLASSES: usize = InstrClass::ALL.len();

/// How many hotspot pcs a launch reports to the recorder.
pub const HOTSPOT_TOP_N: usize = 8;

/// Retired-µop counters at one attribution site (a class or a pc).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UopCounts {
    /// Warp-level µops retired (one per lock-step issue).
    pub warp_uops: u64,
    /// Active lane-slots summed over those µops.
    pub lane_uops: u64,
}

impl UopCounts {
    #[inline]
    fn add(&mut self, other: UopCounts) {
        self.warp_uops += other.warp_uops;
        self.lane_uops += other.lane_uops;
    }
}

/// Per-µop-class and per-pc retired-µop/active-lane counters for one
/// launched kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecProfile {
    classes: [UopCounts; N_CLASSES],
    pcs: Vec<UopCounts>,
}

impl ExecProfile {
    /// An empty profile over a kernel with `n_pcs` decoded µops.
    pub fn new(n_pcs: usize) -> Self {
        Self {
            classes: [UopCounts::default(); N_CLASSES],
            pcs: vec![UopCounts::default(); n_pcs],
        }
    }

    /// Records one retired warp-level µop at `pc` with active mask
    /// `mask`. Two array bumps; called from the backends' lane loops.
    #[inline]
    pub(crate) fn bump(&mut self, pc: usize, class: InstrClass, mask: u32) {
        let lanes = mask.count_ones() as u64;
        let c = &mut self.classes[class as usize];
        c.warp_uops += 1;
        c.lane_uops += lanes;
        let p = &mut self.pcs[pc];
        p.warp_uops += 1;
        p.lane_uops += lanes;
    }

    /// All classes with their counters, in [`InstrClass::ALL`] order.
    pub fn classes(&self) -> impl Iterator<Item = (InstrClass, UopCounts)> + '_ {
        InstrClass::ALL
            .iter()
            .map(move |&c| (c, self.classes[c as usize]))
    }

    /// Per-pc counters, indexed by decoded µop index.
    pub fn pcs(&self) -> &[UopCounts] {
        &self.pcs
    }

    /// Totals over all classes.
    pub fn total(&self) -> UopCounts {
        let mut t = UopCounts::default();
        for c in &self.classes {
            t.add(*c);
        }
        t
    }

    /// The `n` hottest pcs by active lane-slots (ties broken by lower
    /// pc), hottest first. Zero-count pcs are never reported.
    pub fn top_pcs(&self, n: usize) -> Vec<(usize, UopCounts)> {
        let mut hot: Vec<(usize, UopCounts)> = self
            .pcs
            .iter()
            .enumerate()
            .filter(|(_, c)| c.warp_uops > 0)
            .map(|(pc, c)| (pc, *c))
            .collect();
        hot.sort_by(|a, b| b.1.lane_uops.cmp(&a.1.lane_uops).then(a.0.cmp(&b.0)));
        hot.truncate(n);
        hot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_match_all_order() {
        for (i, &c) in InstrClass::ALL.iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?} discriminant out of ALL order");
        }
    }

    #[test]
    fn bump_updates_class_and_pc() {
        let mut p = ExecProfile::new(4);
        p.bump(2, InstrClass::FpAlu, 0b1011);
        p.bump(2, InstrClass::FpAlu, 0b0001);
        assert_eq!(
            p.classes().find(|(c, _)| *c == InstrClass::FpAlu),
            Some((
                InstrClass::FpAlu,
                UopCounts {
                    warp_uops: 2,
                    lane_uops: 4
                }
            ))
        );
        assert_eq!(p.pcs()[2].warp_uops, 2);
        assert_eq!(p.pcs()[2].lane_uops, 4);
        assert_eq!(p.total().warp_uops, 2);
    }

    #[test]
    fn top_pcs_ranks_by_lanes_then_pc() {
        let mut p = ExecProfile::new(5);
        p.bump(0, InstrClass::IntAlu, 0b1); // 1 lane
        p.bump(3, InstrClass::IntAlu, 0b1111); // 4 lanes
        p.bump(1, InstrClass::Move, 0b11); // 2 lanes
        p.bump(4, InstrClass::Move, 0b11); // 2 lanes (tie with pc 1)
        let top = p.top_pcs(3);
        let pcs: Vec<usize> = top.iter().map(|(pc, _)| *pc).collect();
        assert_eq!(pcs, vec![3, 1, 4]);
        assert_eq!(p.top_pcs(10).len(), 4, "zero-count pcs excluded");
    }
}
