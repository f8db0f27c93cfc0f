//! Pairwise-interference characterization of co-scheduled kernels.
//!
//! When two kernels co-reside (see `gwc_simt::sched` and
//! `Device::launch_pair`), each kernel's own execution — its retired
//! instructions, memory values, and per-kernel event stream — is
//! bit-identical to its solo launch: every dispatch policy keeps a
//! kernel's blocks in ascending order and the kernels' buffers are
//! disjoint. What co-residence changes is the *memory timeline*: both
//! kernels' lines now share one LRU stack, so the partner's traffic sits
//! between a kernel's consecutive touches and widens its reuse
//! distances, exactly as co-resident kernels contend for a shared cache.
//!
//! This module measures that effect exactly, with two timelines observed
//! in one pass:
//!
//! * a **shared stack** ([`InterferenceStack`]) fed both members'
//!   global accesses in dispatch order, accumulating reuse statistics
//!   *per member* — the co-resident (contention-adjusted) locality;
//! * one **solo stack** per member fed only that member's accesses —
//!   the isolated baseline, bit-identical to what a solo launch of the
//!   member would measure.
//!
//! The interference delta of a member is `co − solo` per statistic: a
//! pure partner effect, exact by construction because both timelines
//! observe the same single execution. Both are the crate's one LRU reuse
//! stack at 128-byte granularity with the
//! [`crate::locality::REUSE_THRESHOLDS`] buckets, so co and solo numbers
//! are directly comparable.

use gwc_simt::trace::{MemEvent, TraceObserver};

use crate::locality::REUSE_THRESHOLDS;
use crate::reuse::{global_lines, ReuseStack};

/// A reuse-distance stack over the *merged* access stream of two
/// co-scheduled kernels, attributing every touch to the member that
/// issued it.
///
/// The exact observer's stack with per-member histogram, cold and touch
/// counters, plus a member-ownership bitmask per line (bit `k` set iff
/// member `k` touched it) for footprint-overlap accounting.
#[derive(Debug, Default)]
pub struct InterferenceStack {
    stack: ReuseStack<2>,
    /// Owner bits by line id.
    owners: Vec<u8>,
}

impl InterferenceStack {
    /// Creates a stack with the default time-axis capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a stack whose time axis starts at `cap` slots. Results
    /// are the same at every capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            stack: ReuseStack::with_capacity(cap),
            owners: Vec::new(),
        }
    }

    /// Records a touch of `line` by `member` on the shared timeline.
    ///
    /// # Panics
    ///
    /// Panics if `member >= 2`.
    pub fn touch(&mut self, member: usize, line: u32) {
        let t = self.stack.touch(member, line);
        if t.cold {
            self.owners.push(1 << member);
        } else {
            self.owners[t.id] |= 1 << member;
        }
    }

    /// Member `m`'s line touches on the shared timeline.
    pub fn touches(&self, m: usize) -> u64 {
        self.stack.touches(m)
    }

    /// Member `m`'s cold-touch fraction on the shared timeline.
    pub fn cold_frac(&self, m: usize) -> f64 {
        self.stack.cold_frac(m)
    }

    /// Member `m`'s cumulative reuse CDF at
    /// `REUSE_THRESHOLDS[bucket]` on the shared timeline.
    ///
    /// # Panics
    ///
    /// Panics if `bucket >= 3`.
    pub fn reuse_cdf(&self, m: usize, bucket: usize) -> f64 {
        self.stack.reuse_cdf(m, bucket)
    }

    /// Distinct lines on the shared timeline (the combined footprint).
    pub fn footprint_lines(&self) -> u64 {
        self.stack.lines()
    }

    /// Distinct lines touched by member `m`.
    pub fn member_lines(&self, m: usize) -> u64 {
        let bit = 1u8 << m;
        self.owners.iter().filter(|&&o| o & bit != 0).count() as u64
    }

    /// Lines touched by *both* members. Registry pairs allocate disjoint
    /// buffers, so this is normally zero — it is a sanity metric (a
    /// nonzero value means the pair genuinely shares data).
    pub fn overlap_lines(&self) -> u64 {
        self.owners.iter().filter(|&&o| o == 0b11).count() as u64
    }
}

/// One timeline's locality summary for one member, in the units the
/// solo characterization reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalitySummary {
    /// Line touches.
    pub touches: u64,
    /// First-touch fraction.
    pub cold_frac: f64,
    /// Cumulative reuse CDF at [`REUSE_THRESHOLDS`].
    pub reuse_cdf: [f64; 3],
    /// Distinct 128-byte lines.
    pub footprint_lines: u64,
}

impl LocalitySummary {
    /// Member `m`'s summary on `stack`, with its footprint counted by
    /// the caller.
    fn of<const M: usize>(stack: &ReuseStack<M>, m: usize, footprint_lines: u64) -> Self {
        Self {
            touches: stack.touches(m),
            cold_frac: stack.cold_frac(m),
            reuse_cdf: [0, 1, 2].map(|b| stack.reuse_cdf(m, b)),
            footprint_lines,
        }
    }
}

/// One member's solo-vs-co-resident locality characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct PairMemberProfile {
    /// Workload / kernel name of the member.
    pub name: String,
    /// Isolated baseline (in-pass solo timeline).
    pub solo: LocalitySummary,
    /// Contention-adjusted (shared timeline).
    pub co: LocalitySummary,
}

impl PairMemberProfile {
    /// Contention-adjusted reuse-CDF delta at `bucket`: `co − solo`.
    /// Negative means the partner's traffic pushed this member's reuses
    /// past the threshold (lost cache hits at that capacity).
    pub fn reuse_delta(&self, bucket: usize) -> f64 {
        self.co.reuse_cdf[bucket] - self.solo.reuse_cdf[bucket]
    }

    /// Cold-fraction delta, `co − solo`. Zero unless the pair shares
    /// lines (first touches are timeline-independent otherwise).
    pub fn cold_delta(&self) -> f64 {
        self.co.cold_frac - self.solo.cold_frac
    }

    /// Mean absolute reuse-CDF delta across the three thresholds — the
    /// member's scalar interference magnitude.
    pub fn interference(&self) -> f64 {
        (0..REUSE_THRESHOLDS.len())
            .map(|b| self.reuse_delta(b).abs())
            .sum::<f64>()
            / REUSE_THRESHOLDS.len() as f64
    }
}

/// The pairwise-interference profile of one co-scheduled kernel pair
/// under one dispatch policy.
#[derive(Debug, Clone, PartialEq)]
pub struct PairProfile {
    /// The two members' solo/co characteristics.
    pub members: [PairMemberProfile; 2],
    /// Dispatch policy the pair ran under.
    pub policy: &'static str,
    /// Combined footprint of the shared timeline, in lines.
    pub footprint_lines: u64,
    /// Lines touched by both members (normally zero — disjoint buffers).
    pub overlap_lines: u64,
}

impl PairProfile {
    /// Fraction of the combined footprint touched by both members.
    pub fn overlap_frac(&self) -> f64 {
        if self.footprint_lines == 0 {
            0.0
        } else {
            self.overlap_lines as f64 / self.footprint_lines as f64
        }
    }

    /// Pair-level interference score: the mean of the members' scalar
    /// interference magnitudes.
    pub fn interference(&self) -> f64 {
        (self.members[0].interference() + self.members[1].interference()) / 2.0
    }

    /// The interference signature this pair clusters by (experiment
    /// E14): each member's three reuse-CDF deltas and cold delta, plus
    /// the footprint-overlap fraction. Deterministic, dimension order
    /// fixed ([`PairProfile::SIGNATURE_DIMS`]).
    pub fn signature(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(Self::SIGNATURE_DIMS.len());
        for m in &self.members {
            for b in 0..REUSE_THRESHOLDS.len() {
                v.push(m.reuse_delta(b));
            }
            v.push(m.cold_delta());
        }
        v.push(self.overlap_frac());
        v
    }

    /// Names of the signature dimensions, in [`PairProfile::signature`]
    /// order.
    pub const SIGNATURE_DIMS: [&'static str; 9] = [
        "a_reuse_d16",
        "a_reuse_d256",
        "a_reuse_d4096",
        "a_cold_d",
        "b_reuse_d16",
        "b_reuse_d256",
        "b_reuse_d4096",
        "b_cold_d",
        "overlap",
    ];
}

/// Observes a co-scheduled pair launch (or a sequence of them) and
/// produces the [`PairProfile`]: routes every global access to the
/// shared stack (attributed to the issuing member) *and* to that
/// member's solo stack, so both timelines are measured in one pass over
/// one execution.
///
/// Keep one observer across all of a pair scenario's co-scheduled
/// launches: the stacks carry reuse state across launches exactly like
/// a solo workload characterization does.
#[derive(Debug, Default)]
pub struct PairObserver {
    shared: InterferenceStack,
    solo: [ReuseStack<1>; 2],
    current: usize,
}

impl PairObserver {
    /// Creates an empty observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared (contention) timeline.
    pub fn shared(&self) -> &InterferenceStack {
        &self.shared
    }

    /// Attributes subsequent events to member `m`. A co-scheduled launch
    /// routes via [`TraceObserver::on_member`]; a solo launch leaves the
    /// member alone, so call this before a member's leftover launches
    /// run solo (the pair's timeline continues, just without partner
    /// traffic).
    pub fn set_member(&mut self, m: usize) {
        assert!(m < 2);
        self.current = m;
    }

    /// Member `m`'s touch to both of its timelines.
    fn touch(&mut self, m: usize, line: u32) {
        self.solo[m].touch(0, line);
        self.shared.touch(m, line);
    }

    /// Finalizes the profile. `names` label the members (workload or
    /// kernel names); `policy` is the dispatch policy's canonical name.
    pub fn finish(self, names: [&str; 2], policy: &'static str) -> PairProfile {
        PairProfile {
            members: [0, 1].map(|m| PairMemberProfile {
                name: names[m].to_string(),
                solo: LocalitySummary::of(&self.solo[m], 0, self.solo[m].lines()),
                co: LocalitySummary::of(&self.shared.stack, m, self.shared.member_lines(m)),
            }),
            policy,
            footprint_lines: self.shared.footprint_lines(),
            overlap_lines: self.shared.overlap_lines(),
        }
    }
}

impl TraceObserver for PairObserver {
    fn on_member(&mut self, member: usize) {
        self.current = member;
    }

    /// Extracts the access's line set once and feeds it to the current
    /// member's solo stack and to the shared stack.
    fn on_mem(&mut self, e: &MemEvent<'_>) {
        let mut buf = [0u32; gwc_simt::WARP_SIZE];
        for &line in global_lines(e, &mut buf) {
            self.touch(self.current, line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locality::LocalityObserver;

    /// A member alone on the shared stack measures exactly what the solo
    /// observer measures — the timelines only diverge when the partner
    /// actually interleaves.
    #[test]
    fn lone_member_matches_solo_observer() {
        let mut shared = InterferenceStack::with_capacity(64);
        let mut solo = LocalityObserver::with_capacity(64);
        let stream: Vec<u32> = (0..200).map(|i| (i * 13 + i / 7) % 30).collect();
        for &l in &stream {
            shared.touch(0, l);
            solo.touch(l, (0, 0));
        }
        assert_eq!(shared.touches(0), solo.touches());
        assert_eq!(shared.cold_frac(0).to_bits(), solo.cold_frac().to_bits());
        for b in 0..3 {
            assert_eq!(
                shared.reuse_cdf(0, b).to_bits(),
                solo.reuse_cdf(b).to_bits(),
                "bucket {b}"
            );
        }
        assert_eq!(shared.footprint_lines(), solo.footprint_lines());
        assert_eq!(shared.member_lines(0), solo.footprint_lines());
        assert_eq!(shared.member_lines(1), 0);
        assert_eq!(shared.overlap_lines(), 0);
    }

    /// An interleaved partner widens the victim's reuse distances: the
    /// victim alternates between two lines (distance 1 solo) while the
    /// partner streams 40 distinct lines between the victim's touches,
    /// pushing every victim reuse past the 16-line threshold.
    #[test]
    fn partner_traffic_widens_reuse_distances() {
        let mut obs = PairObserver::new();
        for round in 0..10u32 {
            obs.touch(0, round % 2);
            for l in 0..40u32 {
                obs.touch(1, 1000 + l);
            }
        }
        let profile = obs.finish(["victim", "aggressor"], "round-robin");
        let victim = &profile.members[0];
        // Solo: every reuse at distance 1 (bucket 0). Co-resident: every
        // reuse sits behind the partner's 40 lines (bucket 1).
        assert_eq!(victim.solo.reuse_cdf[0], 1.0);
        assert_eq!(victim.co.reuse_cdf[0], 0.0);
        assert!(
            victim.reuse_delta(0) < -0.99,
            "delta {}",
            victim.reuse_delta(0)
        );
        assert!(victim.interference() > 0.3);
        // Footprints are timeline-independent (disjoint lines).
        assert_eq!(victim.solo.footprint_lines, victim.co.footprint_lines);
        assert_eq!(victim.cold_delta(), 0.0);
        assert_eq!(profile.overlap_lines, 0);
        assert_eq!(
            profile.footprint_lines,
            victim.solo.footprint_lines + profile.members[1].solo.footprint_lines
        );
        assert_eq!(profile.signature().len(), PairProfile::SIGNATURE_DIMS.len());
    }

    /// Shared lines set both owner bits and register as overlap.
    #[test]
    fn overlap_accounting() {
        let mut s = InterferenceStack::with_capacity(64);
        s.touch(0, 1);
        s.touch(1, 1);
        s.touch(0, 2);
        s.touch(1, 3);
        assert_eq!(s.footprint_lines(), 3);
        assert_eq!(s.overlap_lines(), 1);
        assert_eq!(s.member_lines(0), 2);
        assert_eq!(s.member_lines(1), 2);
    }

    /// Compression (forced by a tiny capacity) preserves distances, as
    /// in the solo observer.
    #[test]
    fn compression_preserves_member_distances() {
        let mut small = InterferenceStack::with_capacity(64);
        let mut big = InterferenceStack::with_capacity(1 << 14);
        let mut x = 0x9E37_79B9u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let m = (x & 1) as usize;
            let line = ((x >> 8) % 50) as u32 + (m as u32 * 1000);
            small.touch(m, line);
            big.touch(m, line);
        }
        for m in 0..2 {
            assert_eq!(
                small.stack.hist(m),
                big.stack.hist(m),
                "member {m} histograms"
            );
            assert_eq!(small.stack.cold(m), big.stack.cold(m));
        }
        assert_eq!(small.footprint_lines(), big.footprint_lines());
    }
}
