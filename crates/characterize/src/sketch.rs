//! Bounded-memory streaming tier for the locality observer.
//!
//! The exact [`LocalityObserver`](crate::locality::LocalityObserver)
//! keeps one map entry per distinct 128-byte line for the lifetime of a
//! launch, so its memory grows linearly with the address footprint. The
//! sketch tier replaces that state with two fixed-size summaries chosen
//! so that everything the profile schema actually consumes is either
//! *exact* or carries a declared error bound (see [`bounds`]):
//!
//! 1. **Bounded recency window** of the `W = REUSE_THRESHOLDS[2] + 1`
//!    most recently touched distinct lines, running the same
//!    last-access-time + Fenwick algorithm as the exact observer. A
//!    touch that hits the window has a true LRU stack distance of at
//!    most `REUSE_THRESHOLDS[2]`, so the three bounded histogram
//!    buckets the schema reports (`reuse_cdf(0..=2)`) are **exact** —
//!    the window is precisely the region the thresholds can see. A
//!    touch that misses the window is either a cold touch or a reuse at
//!    distance `> REUSE_THRESHOLDS[2]`; only that *split* is estimated.
//!    The time axis is a dense slot array (time → line): LRU eviction
//!    advances a monotone cursor to the oldest live slot, and
//!    compression walks the array in order. The axis grows with the
//!    live window as the exact observer's does, so it never exceeds
//!    `(4 W).next_power_of_two()` slots.
//! 2. **KMV (bottom-k) distinct sample** over line ids: the `K`
//!    smallest `splitmix64` images of the lines seen, each carrying the
//!    line's first-toucher warp and sharing flags, held in a hash map
//!    plus a max-heap of the sampled hashes. Once the sample is full, a
//!    hash above its k-th smallest is rejected with one comparison. It
//!    yields the footprint estimate used to split window misses into
//!    cold vs. far reuse, and an unbiased sample for the
//!    inter-warp/inter-block sharing fractions. `splitmix64` is a
//!    bijection on `u64`, so distinct lines can never collide and
//!    membership tests are exact.
//!
//! When a launch's footprint fits both summaries (`<= K` distinct lines
//! and `<= W` window slots) every derived characteristic is
//! bit-identical to the exact tier.

use std::collections::BinaryHeap;

use gwc_simt::instr::Space;
use gwc_simt::trace::{MemEvent, TraceObserver};

use crate::coalescing::SEGMENT_BYTES;
use crate::fxhash::FxHashMap;
use crate::locality::{Fenwick, INITIAL_CAP, REUSE_THRESHOLDS};

/// Which implementation backs the heavy observers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObserverTier {
    /// Full per-line state; the bit-identical oracle (default).
    #[default]
    Exact,
    /// Bounded-memory sketches with declared error bounds.
    Sketch,
}

impl ObserverTier {
    pub fn name(self) -> &'static str {
        match self {
            ObserverTier::Exact => "exact",
            ObserverTier::Sketch => "sketch",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "exact" => Some(ObserverTier::Exact),
            "sketch" => Some(ObserverTier::Sketch),
            _ => None,
        }
    }
}

/// Profiles observed under the sketch tier are *different artifacts*
/// from exact ones (estimated characteristics); this salt is XORed into
/// the workload fingerprint so the two tiers can never alias in the
/// profile or matrix caches.
pub const CACHE_SALT: u64 = 0x9d3c_5f21_7a86_44b1;

/// Recency-window depth in distinct lines. One more than the largest
/// reuse-distance threshold: every in-window reuse lands in a bounded
/// histogram bucket, every eviction corresponds exactly to the exact
/// tier's overflow bucket.
pub const WINDOW_LINES: usize = REUSE_THRESHOLDS[2] as usize + 1;

/// KMV sample size. Relative standard error of the footprint estimate
/// is ~`1/sqrt(K - 1)` ≈ 3.1%.
pub const KMV_K: usize = 1024;

/// Ceiling of the window's time axis: the axis grows to four times the
/// live window, which never exceeds `WINDOW_LINES`.
const SKETCH_CAP: usize = (WINDOW_LINES * 4).next_power_of_two();

/// Marks a time slot whose touch is no longer its line's latest, or
/// whose line left the window. Never a line id: lines are 32-bit byte
/// addresses divided by `SEGMENT_BYTES`.
const VACANT: u32 = u32::MAX;

/// Declared error bounds for sketch-derived characteristics, asserted
/// by the exact-vs-sketch cross-check suite. All bounds are conditional
/// only on the KMV estimate (the reuse histogram buckets are exact):
/// at `K = 1024` the footprint estimator's relative standard error is
/// ~3.1%, and the bounds below sit at roughly 5 standard errors.
pub mod bounds {
    /// Relative error of `footprint_lines` (exact below `KMV_K`).
    pub const FOOTPRINT_REL: f64 = 0.2;
    /// Absolute error of `cold_frac`.
    pub const COLD_FRAC_ABS: f64 = 0.05;
    /// Absolute error of each `reuse_cdf` bucket (numerators exact;
    /// only the far-reuse share of the denominator is estimated).
    pub const REUSE_CDF_ABS: f64 = 0.08;
    /// Absolute error of the inter-warp / inter-block sharing
    /// fractions (binomial error of a >=1024-line uniform sample).
    pub const SHARING_ABS: f64 = 0.10;
}

/// `splitmix64` finalizer: a bijective mixer on `u64`, so distinct line
/// ids map to distinct, uniformly spread hash values.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct KmvEntry {
    first_warp: (u32, u32),
    multi_warp: bool,
    multi_block: bool,
}

/// Bottom-k distinct sample keyed by `splitmix64(line)`, with exact
/// sharing flags for every surviving entry. The acceptance threshold
/// (the k-th smallest hash) only ever decreases, so a line rejected at
/// its first touch stays rejected and a surviving entry was inserted at
/// the line's true first touch — its flags are exact.
#[derive(Debug, Default)]
struct KmvSketch {
    entries: FxHashMap<u64, KmvEntry>,
    /// The sampled hashes, largest on top: the k-th smallest once full.
    heap: BinaryHeap<u64>,
}

impl KmvSketch {
    fn observe(&mut self, hash: u64, warp: (u32, u32)) {
        let full = self.heap.len() == KMV_K;
        if full && self.heap.peek().is_some_and(|&kth| hash > kth) {
            return;
        }
        if let Some(e) = self.entries.get_mut(&hash) {
            if e.first_warp != warp {
                e.multi_warp = true;
                if e.first_warp.0 != warp.0 {
                    e.multi_block = true;
                }
            }
            return;
        }
        if full {
            self.evict_largest();
        }
        self.heap.push(hash);
        self.entries.insert(
            hash,
            KmvEntry {
                first_warp: warp,
                multi_warp: false,
                multi_block: false,
            },
        );
    }

    fn evict_largest(&mut self) {
        let largest = self.heap.pop().expect("sample is not empty");
        self.entries.remove(&largest);
    }

    /// Estimated number of distinct lines: exact while the sample is
    /// not full, the standard `(K - 1) / h_(K)` estimator afterwards.
    fn footprint_estimate(&self) -> f64 {
        match self.heap.peek() {
            Some(&kth) if self.heap.len() == KMV_K => {
                (KMV_K as f64 - 1.0) * 18_446_744_073_709_551_616.0 / (kth as f64 + 1.0)
            }
            _ => self.heap.len() as f64,
        }
    }

    fn sharing(&self, pred: impl Fn(&KmvEntry) -> bool) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let shared = self.entries.values().filter(|e| pred(e)).count();
        shared as f64 / self.entries.len() as f64
    }

    fn bytes_in_use(&self) -> usize {
        self.entries.capacity() * (std::mem::size_of::<(u64, KmvEntry)>() + 1)
            + self.heap.capacity() * std::mem::size_of::<u64>()
    }
}

/// Bounded-memory replacement for `LocalityObserver`: bounded recency
/// window + KMV distinct sample. Peak memory is O(`WINDOW_LINES` +
/// `KMV_K`), independent of the address footprint.
#[derive(Debug)]
pub struct SketchLocalityObserver {
    /// Lines currently inside the recency window, by last access time.
    window: FxHashMap<u32, usize>,
    /// `slots[t]` is the line touched at time `t` if that touch is still
    /// its line's latest in the window, else [`VACANT`]. Its length is
    /// the current time.
    slots: Vec<u32>,
    /// Every slot below this index is vacant: the LRU line sits at the
    /// first live slot at or after it.
    oldest: usize,
    fenwick: Fenwick,
    /// Time-axis capacity; compression (or growth) runs when
    /// `slots` reaches it.
    cap: usize,
    /// In-window reuses bucketed by [`REUSE_THRESHOLDS`] — exact; an
    /// in-window distance never exceeds `REUSE_THRESHOLDS[2]`.
    hist: [u64; 3],
    /// Touches that missed the window: cold touches plus reuses at
    /// distance `> REUSE_THRESHOLDS[2]`, split via the KMV estimate.
    misses: u64,
    touches: u64,
    kmv: KmvSketch,
}

impl Default for SketchLocalityObserver {
    fn default() -> Self {
        Self {
            window: FxHashMap::default(),
            slots: Vec::new(),
            oldest: 0,
            fenwick: Fenwick::new(INITIAL_CAP),
            cap: INITIAL_CAP,
            hist: [0; 3],
            misses: 0,
            touches: 0,
            kmv: KmvSketch::default(),
        }
    }
}

impl SketchLocalityObserver {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn touches(&self) -> u64 {
        self.touches
    }

    /// Estimated distinct 128-byte lines touched (exact below
    /// [`KMV_K`]).
    pub fn footprint_lines(&self) -> u64 {
        self.kmv.footprint_estimate().round() as u64
    }

    fn cold_estimate(&self) -> f64 {
        // Every cold touch is a window miss, and the number of cold
        // touches is exactly the distinct-line count the KMV estimates.
        self.kmv.footprint_estimate().min(self.misses as f64)
    }

    /// Estimated reuses at distance beyond the window (bit-exact zero
    /// when the footprint fits the summaries).
    fn far_reuse_estimate(&self) -> f64 {
        (self.misses as f64 - self.cold_estimate()).max(0.0)
    }

    /// Fraction of touches that were first-touch (cold), estimated.
    pub fn cold_frac(&self) -> f64 {
        if self.touches == 0 {
            0.0
        } else {
            self.cold_estimate() / self.touches as f64
        }
    }

    /// Fraction of reuses with stack distance at most
    /// `REUSE_THRESHOLDS[bucket]`; numerators exact, denominator's
    /// far-reuse share estimated.
    ///
    /// # Panics
    ///
    /// Panics if `bucket >= 3`.
    pub fn reuse_cdf(&self, bucket: usize) -> f64 {
        assert!(bucket < REUSE_THRESHOLDS.len());
        let in_window: u64 = self.hist.iter().sum();
        let reuses = in_window as f64 + self.far_reuse_estimate();
        if reuses == 0.0 {
            return 0.0;
        }
        let upto: u64 = self.hist.iter().take(bucket + 1).sum();
        upto as f64 / reuses
    }

    /// Fraction of sampled lines touched by at least two warps.
    pub fn inter_warp_sharing(&self) -> f64 {
        self.kmv.sharing(|e| e.multi_warp)
    }

    /// Fraction of sampled lines touched by at least two blocks.
    pub fn inter_block_sharing(&self) -> f64 {
        self.kmv.sharing(|e| e.multi_block)
    }

    /// Approximate heap bytes held. Capacity-based, like
    /// [`LocalityObserver::bytes_in_use`](crate::locality::LocalityObserver::bytes_in_use),
    /// and bounded by construction: O(`WINDOW_LINES` + `KMV_K`)
    /// whatever the footprint.
    pub fn bytes_in_use(&self) -> u64 {
        let window_entry = std::mem::size_of::<(u32, usize)>() + 1;
        (self.window.capacity() * window_entry
            + self.slots.capacity() * std::mem::size_of::<u32>()
            + self.fenwick.slots() * std::mem::size_of::<u32>()
            + self.kmv.bytes_in_use()) as u64
    }

    pub(crate) fn touch(&mut self, line: u32, warp: (u32, u32)) {
        self.touches += 1;
        self.kmv.observe(splitmix64(line as u64), warp);
        if self.slots.len() == self.cap {
            self.compress();
        }
        let now = self.slots.len();
        match self.window.get_mut(&line) {
            Some(last) => {
                let t = *last;
                // Distinct lines between two touches never outnumber
                // the time slots between them, so a short gap is a
                // bucket-0 reuse without a Fenwick query.
                let bucket = if (now - t - 1) as u64 <= REUSE_THRESHOLDS[0] {
                    0
                } else {
                    let distance = self.fenwick.range(t + 1, now - 1);
                    REUSE_THRESHOLDS
                        .iter()
                        .position(|&th| distance <= th)
                        .expect("in-window distance is at most REUSE_THRESHOLDS[2]")
                };
                self.hist[bucket] += 1;
                self.fenwick.add(t, -1);
                self.slots[t] = VACANT;
                *last = now;
            }
            None => {
                self.misses += 1;
                self.window.insert(line, now);
                if self.window.len() > WINDOW_LINES {
                    while self.slots[self.oldest] == VACANT {
                        self.oldest += 1;
                    }
                    let lru = std::mem::replace(&mut self.slots[self.oldest], VACANT);
                    self.window.remove(&lru);
                    self.fenwick.add(self.oldest, -1);
                }
            }
        }
        self.fenwick.add(now, 1);
        self.slots.push(line);
    }

    /// Reassigns time slots densely, preserving recency order — same
    /// invariant as the exact observer's compression — and grows the
    /// axis as the exact observer does when the live window would fill
    /// more than half of it.
    fn compress(&mut self) {
        let order: Vec<u32> = self.slots[self.oldest..]
            .iter()
            .copied()
            .filter(|&line| line != VACANT)
            .collect();
        if order.len() * 2 > self.cap {
            self.cap = (order.len() * 4).next_power_of_two();
        }
        debug_assert!(self.cap <= SKETCH_CAP, "window exceeds sketch time axis");
        self.window.clear();
        self.slots.clear();
        self.slots.reserve_exact(self.cap);
        self.oldest = 0;
        self.fenwick = Fenwick::new(self.cap);
        for (t, &line) in order.iter().enumerate() {
            self.window.insert(line, t);
            self.slots.push(line);
            self.fenwick.add(t, 1);
        }
    }
}

impl TraceObserver for SketchLocalityObserver {
    fn on_mem(&mut self, e: &MemEvent<'_>) {
        if e.space != Space::Global {
            return;
        }
        // Identical lane handling to the exact observer: stack-buffered
        // line extraction, per-warp dedup, global space only.
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
    use crate::locality::LocalityObserver;

    fn xorshift_stream(len: usize, lines: u32) -> Vec<(u32, (u32, u32))> {
        let mut x = 0x243f_6a88_85a3_08d3u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let line = (x >> 8) as u32 % lines;
                let block = (x >> 16) as u32 % 4;
                let warp = (x >> 24) as u32 % 2;
                (line, (block, warp))
            })
            .collect()
    }

    fn assert_bits_equal_exact(s: &SketchLocalityObserver, e: &LocalityObserver) {
        assert_eq!(s.touches(), e.touches());
        assert_eq!(s.footprint_lines(), e.footprint_lines());
        assert_eq!(s.cold_frac().to_bits(), e.cold_frac().to_bits());
        for b in 0..REUSE_THRESHOLDS.len() {
            assert_eq!(s.reuse_cdf(b).to_bits(), e.reuse_cdf(b).to_bits());
        }
        assert_eq!(
            s.inter_warp_sharing().to_bits(),
            e.inter_warp_sharing().to_bits()
        );
        assert_eq!(
            s.inter_block_sharing().to_bits(),
            e.inter_block_sharing().to_bits()
        );
    }

    /// Below both sketch capacities the sketch IS the exact observer,
    /// bit for bit, on every derived characteristic.
    #[test]
    fn small_footprint_is_bit_identical_to_exact() {
        let stream = xorshift_stream(5000, 700);
        let mut sketch = SketchLocalityObserver::new();
        let mut exact = LocalityObserver::new();
        for &(line, warp) in &stream {
            sketch.touch(line, warp);
            exact.touch(line, warp);
        }
        assert_bits_equal_exact(&sketch, &exact);
    }

    /// 200k touches over a 40_000-line footprint (>> KMV_K and >>
    /// WINDOW_LINES), with a mix of near reuse and far scans.
    fn large_stream() -> Vec<(u32, (u32, u32))> {
        let mut x = 0x1234_5678_9abc_def0u64;
        (0..200_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let line = (x >> 8) as u32 % 40_000;
                let warp = ((x >> 16) as u32 % 4, (x >> 24) as u32 % 2);
                (line, warp)
            })
            .collect()
    }

    /// Beyond the window: in-window buckets stay exact, the footprint
    /// stays exact below KMV_K... here we push past both and check the
    /// declared bounds instead.
    #[test]
    fn large_footprint_within_declared_bounds() {
        let mut sketch = SketchLocalityObserver::new();
        let mut exact = LocalityObserver::new();
        for (line, warp) in large_stream() {
            sketch.touch(line, warp);
            exact.touch(line, warp);
        }
        let fp_err = (sketch.footprint_lines() as f64 - exact.footprint_lines() as f64).abs()
            / exact.footprint_lines() as f64;
        assert!(fp_err <= bounds::FOOTPRINT_REL, "footprint err {fp_err}");
        assert!((sketch.cold_frac() - exact.cold_frac()).abs() <= bounds::COLD_FRAC_ABS);
        for b in 0..REUSE_THRESHOLDS.len() {
            assert!((sketch.reuse_cdf(b) - exact.reuse_cdf(b)).abs() <= bounds::REUSE_CDF_ABS);
        }
        assert!(
            (sketch.inter_warp_sharing() - exact.inter_warp_sharing()).abs() <= bounds::SHARING_ABS
        );
        assert!(
            (sketch.inter_block_sharing() - exact.inter_block_sharing()).abs()
                <= bounds::SHARING_ABS
        );
    }

    /// Far beyond both capacities the bounded buckets and the miss count
    /// stay exact integers: `hist` is the exact observer's first three
    /// buckets, and every miss is a cold touch or an overflow-bucket
    /// reuse.
    #[test]
    fn bounded_buckets_are_exact_beyond_capacity() {
        let mut exact = LocalityObserver::new();
        let mut sketch = SketchLocalityObserver::new();
        for (line, warp) in large_stream() {
            exact.touch(line, warp);
            sketch.touch(line, warp);
        }
        let (hist, cold) = exact.hist_and_cold();
        assert_eq!(sketch.hist[..], hist[..3]);
        assert_eq!(sketch.misses, cold + hist[3]);
    }

    /// Memory stays under a fixed ceiling, and a small footprint holds
    /// no more than a huge one, while the exact observer's grows with
    /// the footprint.
    #[test]
    fn sketch_memory_is_flat_in_footprint() {
        let mut small = SketchLocalityObserver::new();
        for line in 0..1_000u32 {
            small.touch(line, (0, 0));
        }
        let mut big = SketchLocalityObserver::new();
        for line in 0..400_000u32 {
            big.touch(line, (0, 0));
        }
        assert!(
            big.bytes_in_use() <= 450 * 1024,
            "{} bytes",
            big.bytes_in_use()
        );
        assert!(small.bytes_in_use() <= big.bytes_in_use());

        let mut exact = LocalityObserver::new();
        for line in 0..400_000u32 {
            exact.touch(line, (0, 0));
        }
        assert!(exact.bytes_in_use() > big.bytes_in_use() * 5);
    }

    #[test]
    fn eviction_matches_exact_overflow_bucket() {
        // Touch W+1 distinct lines, then the first again: the exact
        // observer puts the reuse in the overflow bucket; the sketch
        // counts a miss (and no in-window reuse).
        let mut sketch = SketchLocalityObserver::new();
        let mut exact = LocalityObserver::new();
        for line in 0..=(WINDOW_LINES as u32) {
            sketch.touch(line, (0, 0));
            exact.touch(line, (0, 0));
        }
        sketch.touch(0, (0, 0));
        exact.touch(0, (0, 0));
        assert_eq!(sketch.hist.iter().sum::<u64>(), 0);
        assert_eq!(sketch.misses, WINDOW_LINES as u64 + 2);
        // Exact: one reuse, in the overflow bucket -> cdf(2) = 0.
        assert_eq!(exact.reuse_cdf(2), 0.0);
        assert_eq!(sketch.reuse_cdf(2), 0.0);
    }

    #[test]
    fn splitmix64_is_injective_on_lines() {
        // Bijectivity spot check over a contiguous id range.
        let mut seen = std::collections::BTreeSet::new();
        for line in 0..100_000u64 {
            assert!(seen.insert(splitmix64(line)));
        }
    }

    #[test]
    fn tier_parse_round_trips() {
        for tier in [ObserverTier::Exact, ObserverTier::Sketch] {
            assert_eq!(ObserverTier::parse(tier.name()), Some(tier));
        }
        assert_eq!(ObserverTier::parse("bogus"), None);
        assert_eq!(ObserverTier::default(), ObserverTier::Exact);
    }
}
