//! Temporal locality (LRU stack distances) and data sharing of global
//! memory, at 128-byte line granularity.
//!
//! The exact tier: the crate's one LRU reuse stack over the whole
//! footprint, plus sharing flags for every line.

use gwc_simt::trace::{MemEvent, TraceObserver};

use crate::reuse::{global_lines, ReuseStack};

/// Reuse-distance histogram thresholds, in 128-byte lines.
pub const REUSE_THRESHOLDS: [u64; 3] = [16, 256, 4096];

/// Which warps touched a line: its first toucher, and whether another
/// warp, or a warp of another block, followed. Kept for every line by
/// the exact observer and for the sampled lines by the sketch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Sharing {
    first_warp: (u32, u32),
    multi_warp: bool,
    multi_block: bool,
}

impl Sharing {
    pub(crate) fn new(warp: (u32, u32)) -> Self {
        Self {
            first_warp: warp,
            multi_warp: false,
            multi_block: false,
        }
    }

    pub(crate) fn see(&mut self, warp: (u32, u32)) {
        if self.first_warp != warp {
            self.multi_warp = true;
            if self.first_warp.0 != warp.0 {
                self.multi_block = true;
            }
        }
    }

    /// Fractions of `lines` touched by at least two warps and by at
    /// least two blocks; zero when there are none.
    pub(crate) fn fractions<'a>(lines: impl ExactSizeIterator<Item = &'a Sharing>) -> [f64; 2] {
        let n = lines.len();
        if n == 0 {
            return [0.0; 2];
        }
        let mut shared = [0usize; 2];
        for l in lines {
            shared[0] += usize::from(l.multi_warp);
            shared[1] += usize::from(l.multi_block);
        }
        shared.map(|k| k as f64 / n as f64)
    }
}

/// Streams global accesses into reuse-distance and sharing statistics.
#[derive(Debug, Default)]
pub struct LocalityObserver {
    stack: ReuseStack<1>,
    /// Sharing flags by line id.
    sharing: Vec<Sharing>,
}

impl LocalityObserver {
    /// Creates an observer with the default time-axis capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an observer whose time axis starts at `cap` slots.
    /// Results are the same at every capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            stack: ReuseStack::with_capacity(cap),
            sharing: Vec::new(),
        }
    }

    /// Total line touches (one per distinct line per warp access).
    pub fn touches(&self) -> u64 {
        self.stack.touches(0)
    }

    /// Fraction of touches that were first-touch (cold).
    pub fn cold_frac(&self) -> f64 {
        self.stack.cold_frac(0)
    }

    /// Fraction of *reuses* with stack distance at most
    /// `REUSE_THRESHOLDS[bucket]`. Cumulative.
    ///
    /// # Panics
    ///
    /// Panics if `bucket >= 3`.
    pub fn reuse_cdf(&self, bucket: usize) -> f64 {
        self.stack.reuse_cdf(0, bucket)
    }

    /// Distinct 128-byte lines touched.
    pub fn footprint_lines(&self) -> u64 {
        self.stack.lines()
    }

    /// Fraction of lines touched by at least two distinct warps.
    pub fn inter_warp_sharing(&self) -> f64 {
        Sharing::fractions(self.sharing.iter())[0]
    }

    /// Fraction of lines touched by at least two distinct blocks.
    pub fn inter_block_sharing(&self) -> f64 {
        Sharing::fractions(self.sharing.iter())[1]
    }

    /// Approximate heap bytes held by this observer's per-line state.
    /// Capacity-based (not length-based): it is the allocation, not the
    /// occupancy, that the `observer.bytes_peak` counter must account for.
    pub fn bytes_in_use(&self) -> u64 {
        self.stack.bytes_in_use()
            + (self.sharing.capacity() * std::mem::size_of::<Sharing>()) as u64
    }

    /// Reuse histogram (the [`REUSE_THRESHOLDS`] buckets, then overflow)
    /// and cold-touch count, for the sketch tier's exactness tests.
    #[cfg(test)]
    pub(crate) fn hist_and_cold(&self) -> ([u64; 4], u64) {
        (self.stack.hist(0), self.stack.cold(0))
    }

    pub(crate) fn touch(&mut self, line: u32, warp: (u32, u32)) {
        let t = self.stack.touch(0, line);
        if t.cold {
            self.sharing.push(Sharing::new(warp));
        } else {
            self.sharing[t.id].see(warp);
        }
    }
}

impl TraceObserver for LocalityObserver {
    fn on_mem(&mut self, e: &MemEvent<'_>) {
        let mut buf = [0u32; gwc_simt::WARP_SIZE];
        for &line in global_lines(e, &mut buf) {
            self.touch(line, (e.block, e.warp));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gwc_simt::instr::Space;

    fn touch(o: &mut LocalityObserver, line: u32) {
        o.touch(line, (0, 0));
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
