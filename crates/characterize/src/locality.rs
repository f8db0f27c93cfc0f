//! Temporal locality (LRU stack distances) and data sharing of global
//! memory, at 128-byte line granularity.
//!
//! Reuse distance — the number of *distinct* lines touched between two
//! accesses to the same line — is the canonical microarchitecture-
//! independent locality metric: a fully associative LRU cache of `N` lines
//! hits exactly the accesses with distance `< N`. We compute it exactly
//! with the classic last-access-time + Fenwick-tree algorithm, compressing
//! the time axis when it fills.

use gwc_simt::instr::Space;
use gwc_simt::trace::{MemEvent, TraceObserver};

use crate::coalescing::SEGMENT_BYTES;
use crate::fxhash::FxHashMap;

/// Reuse-distance histogram thresholds, in 128-byte lines.
pub const REUSE_THRESHOLDS: [u64; 3] = [16, 256, 4096];

/// Binary indexed tree over time slots. Shared with the bounded-window
/// sketch tier (see [`crate::sketch`]), which runs the same
/// last-access-time algorithm over a capped recency window.
#[derive(Debug, Clone)]
pub(crate) struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            tree: vec![0; n + 1],
        }
    }

    /// Backing-array length in slots, for memory accounting.
    pub(crate) fn slots(&self) -> usize {
        self.tree.len()
    }

    pub(crate) fn add(&mut self, mut i: usize, delta: i32) {
        i += 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta as i64) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of `[0, i]`.
    pub(crate) fn prefix(&self, mut i: usize) -> u64 {
        i += 1;
        let mut s = 0u64;
        while i > 0 {
            s += self.tree[i] as u64;
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Sum of `[lo, hi]` (inclusive); 0 when the range is empty.
    pub(crate) fn range(&self, lo: usize, hi: usize) -> u64 {
        if lo > hi {
            return 0;
        }
        let head = if lo == 0 { 0 } else { self.prefix(lo - 1) };
        self.prefix(hi) - head
    }
}

#[derive(Debug, Clone, Copy)]
struct LineInfo {
    last_time: usize,
    first_warp: (u32, u32),
    multi_warp: bool,
    multi_block: bool,
}

/// Streams global accesses into reuse-distance and sharing statistics.
#[derive(Debug)]
pub struct LocalityObserver {
    lines: FxHashMap<u32, LineInfo>,
    fenwick: Fenwick,
    now: usize,
    cap: usize,
    /// Reuses bucketed by [`REUSE_THRESHOLDS`], with a final overflow
    /// bucket.
    hist: [u64; 4],
    cold: u64,
    touches: u64,
}

/// Initial time-axis capacity. Deliberately small: a study creates one
/// observer per kernel label, most with small footprints, and a large
/// up-front zeroed Fenwick allocation would cost page faults for all of
/// them. The axis grows geometrically with the footprint, so large
/// workloads still get a long axis — they just pay for it only when
/// they actually touch that many lines.
pub(crate) const INITIAL_CAP: usize = 1 << 12;

impl Default for LocalityObserver {
    fn default() -> Self {
        Self::with_capacity(INITIAL_CAP)
    }
}

impl LocalityObserver {
    /// Creates an observer with the default time-axis capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an observer compressing its time axis every `cap` touches.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            lines: FxHashMap::default(),
            fenwick: Fenwick::new(cap),
            now: 0,
            cap,
            hist: [0; 4],
            cold: 0,
            touches: 0,
        }
    }

    /// Total line touches (one per distinct line per warp access).
    pub fn touches(&self) -> u64 {
        self.touches
    }

    /// Fraction of touches that were first-touch (cold).
    pub fn cold_frac(&self) -> f64 {
        if self.touches == 0 {
            0.0
        } else {
            self.cold as f64 / self.touches as f64
        }
    }

    /// Fraction of *reuses* with stack distance at most
    /// `REUSE_THRESHOLDS[bucket]`. Cumulative.
    ///
    /// # Panics
    ///
    /// Panics if `bucket >= 3`.
    pub fn reuse_cdf(&self, bucket: usize) -> f64 {
        assert!(bucket < REUSE_THRESHOLDS.len());
        let reuses: u64 = self.hist.iter().sum();
        if reuses == 0 {
            return 0.0;
        }
        let upto: u64 = self.hist.iter().take(bucket + 1).sum();
        upto as f64 / reuses as f64
    }

    /// Distinct 128-byte lines touched.
    pub fn footprint_lines(&self) -> u64 {
        self.lines.len() as u64
    }

    /// Fraction of lines touched by at least two distinct warps.
    pub fn inter_warp_sharing(&self) -> f64 {
        self.sharing(|l| l.multi_warp)
    }

    /// Fraction of lines touched by at least two distinct blocks.
    pub fn inter_block_sharing(&self) -> f64 {
        self.sharing(|l| l.multi_block)
    }

    fn sharing(&self, pred: impl Fn(&LineInfo) -> bool) -> f64 {
        if self.lines.is_empty() {
            return 0.0;
        }
        let shared = self.lines.values().filter(|l| pred(l)).count();
        shared as f64 / self.lines.len() as f64
    }

    /// Approximate heap bytes held by this observer's per-line state.
    /// Capacity-based (not length-based): it is the allocation, not the
    /// occupancy, that the `observer.bytes_peak` gauge must account for.
    pub fn bytes_in_use(&self) -> u64 {
        let map_entry = std::mem::size_of::<(u32, LineInfo)>() + 1;
        (self.lines.capacity() * map_entry + self.fenwick.slots() * std::mem::size_of::<u32>())
            as u64
    }

    /// Reuse histogram (the [`REUSE_THRESHOLDS`] buckets, then overflow)
    /// and cold-touch count, for the sketch tier's exactness tests.
    #[cfg(test)]
    pub(crate) fn hist_and_cold(&self) -> ([u64; 4], u64) {
        (self.hist, self.cold)
    }

    pub(crate) fn touch(&mut self, line: u32, warp: (u32, u32)) {
        self.touches += 1;
        if self.now >= self.cap {
            // Compression needs headroom over the live footprint; grow
            // the axis instead when the footprint itself filled it.
            // Either way the recency order — and with it every future
            // distance — is preserved, so when growth (or compression)
            // happens cannot affect results.
            if self.lines.len() * 2 > self.cap {
                self.cap = (self.lines.len() * 4).next_power_of_two();
            }
            self.compress();
        }
        match self.lines.get_mut(&line) {
            Some(info) => {
                let t = info.last_time;
                // Lines whose most recent access is after t = LRU depth.
                let distance = self.fenwick.range(t + 1, self.now.saturating_sub(1));
                let bucket = REUSE_THRESHOLDS
                    .iter()
                    .position(|&th| distance <= th)
                    .unwrap_or(REUSE_THRESHOLDS.len());
                self.hist[bucket] += 1;
                self.fenwick.add(t, -1);
                self.fenwick.add(self.now, 1);
                info.last_time = self.now;
                if info.first_warp != warp {
                    info.multi_warp = true;
                    if info.first_warp.0 != warp.0 {
                        info.multi_block = true;
                    }
                }
            }
            None => {
                self.cold += 1;
                self.fenwick.add(self.now, 1);
                self.lines.insert(
                    line,
                    LineInfo {
                        last_time: self.now,
                        first_warp: warp,
                        multi_warp: false,
                        multi_block: false,
                    },
                );
            }
        }
        self.now += 1;
    }

    /// Reassigns time slots densely, preserving order.
    fn compress(&mut self) {
        let mut order: Vec<(usize, u32)> = self
            .lines
            .iter()
            .map(|(&line, info)| (info.last_time, line))
            .collect();
        order.sort_unstable();
        self.fenwick = Fenwick::new(self.cap);
        for (new_t, &(_, line)) in order.iter().enumerate() {
            self.lines.get_mut(&line).expect("line exists").last_time = new_t;
            self.fenwick.add(new_t, 1);
        }
        self.now = order.len();
        assert!(
            self.now < self.cap,
            "footprint exceeds locality time-axis capacity"
        );
    }
}

impl TraceObserver for LocalityObserver {
    fn on_mem(&mut self, e: &MemEvent<'_>) {
        if e.space != Space::Global {
            return;
        }
        // Stack-buffered line extraction: at most 32 lanes, so the sort
        // and dedup run on a fixed array with no per-event allocation.
        let mut lines = [0u32; gwc_simt::WARP_SIZE];
        let mut n = 0usize;
        for a in e.active_addrs() {
            lines[n] = a / SEGMENT_BYTES;
            n += 1;
        }
        lines[..n].sort_unstable();
        let mut prev = u32::MAX;
        for (i, &line) in lines[..n].iter().enumerate() {
            if i == 0 || line != prev {
                self.touch(line, (e.block, e.warp));
            }
            prev = line;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn touch(o: &mut LocalityObserver, line: u32) {
        o.touch(line, (0, 0));
    }

    #[test]
    fn fenwick_basics() {
        let mut f = Fenwick::new(16);
        f.add(3, 1);
        f.add(7, 1);
        f.add(10, 1);
        assert_eq!(f.prefix(15), 3);
        assert_eq!(f.range(4, 9), 1);
        assert_eq!(f.range(0, 3), 1);
        f.add(7, -1);
        assert_eq!(f.range(4, 9), 0);
        assert_eq!(f.range(5, 4), 0);
    }

    #[test]
    fn immediate_reuse_distance_zero() {
        let mut o = LocalityObserver::with_capacity(64);
        touch(&mut o, 1);
        touch(&mut o, 1);
        assert_eq!(o.touches(), 2);
        assert_eq!(o.cold_frac(), 0.5);
        // Distance 0 <= 16: bucket 0.
        assert_eq!(o.reuse_cdf(0), 1.0);
    }

    #[test]
    fn stack_distance_counts_distinct_lines() {
        let mut o = LocalityObserver::with_capacity(4096);
        // Touch A, then 20 distinct lines, then A again: distance 20.
        touch(&mut o, 0);
        for l in 1..=20 {
            touch(&mut o, l);
        }
        touch(&mut o, 0);
        // 20 > 16 -> bucket 1 (<= 256). CDF(0) = 0, CDF(1) = 1.
        assert_eq!(o.reuse_cdf(0), 0.0);
        assert_eq!(o.reuse_cdf(1), 1.0);
    }

    #[test]
    fn repeated_intermediate_lines_count_once() {
        let mut o = LocalityObserver::with_capacity(4096);
        touch(&mut o, 0);
        // Touch line 1 ten times: only ONE distinct line between reuses.
        for _ in 0..10 {
            touch(&mut o, 1);
        }
        touch(&mut o, 0);
        // Distance 1 <= 16.
        assert!(o.reuse_cdf(0) > 0.0);
    }

    #[test]
    fn compression_preserves_distances() {
        let mut o = LocalityObserver::with_capacity(64);
        // Generate enough touches to force several compressions.
        for round in 0..20 {
            for l in 0..30u32 {
                touch(&mut o, l);
            }
            let _ = round;
        }
        // Every line reuse sees 29 distinct other lines: bucket 1.
        assert_eq!(o.reuse_cdf(0), 0.0);
        assert_eq!(o.reuse_cdf(1), 1.0);
        assert_eq!(o.footprint_lines(), 30);
    }

    #[test]
    fn sharing_flags() {
        let mut o = LocalityObserver::with_capacity(64);
        o.touch(0, (0, 0));
        o.touch(0, (0, 1)); // same block, different warp
        o.touch(1, (0, 0));
        o.touch(1, (2, 0)); // different block
        o.touch(2, (1, 1)); // private
        assert!((o.inter_warp_sharing() - 2.0 / 3.0).abs() < 1e-12);
        assert!((o.inter_block_sharing() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn non_global_ignored() {
        use crate::coalescing::addr_array;
        use gwc_simt::trace::AccessKind;
        let mut o = LocalityObserver::new();
        let (arr, mask) = addr_array(&[0, 4, 8]);
        o.on_mem(&MemEvent {
            block: 0,
            warp: 0,
            pc: 0,
            space: Space::Shared,
            kind: AccessKind::Load,
            bytes: 4,
            active: mask,
            addrs: &arr,
        });
        assert_eq!(o.touches(), 0);
    }

    #[test]
    fn warp_access_touches_each_line_once() {
        use crate::coalescing::addr_array;
        use gwc_simt::trace::AccessKind;
        let mut o = LocalityObserver::new();
        // 32 lanes over 2 lines (16 lanes per 128B line at stride 8).
        let addrs: Vec<u32> = (0..32u32).map(|i| i * 8).collect();
        let (arr, mask) = addr_array(&addrs);
        o.on_mem(&MemEvent {
            block: 0,
            warp: 0,
            pc: 0,
            space: Space::Global,
            kind: AccessKind::Load,
            bytes: 4,
            active: mask,
            addrs: &arr,
        });
        assert_eq!(o.touches(), 2);
        assert_eq!(o.footprint_lines(), 2);
    }
}
