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
//!    most recently touched distinct lines: the exact observer's LRU
//!    reuse stack under a window bound. A touch that hits the window has
//!    a true LRU stack distance of at most `REUSE_THRESHOLDS[2]`, so the
//!    three bounded histogram buckets the schema reports
//!    (`reuse_cdf(0..=2)`) are **exact** — the window is precisely the
//!    region the thresholds can see. A touch that misses the window is
//!    either a cold touch or a reuse at distance
//!    `> REUSE_THRESHOLDS[2]`; only that *split* is estimated. LRU
//!    eviction advances a monotone cursor to the oldest live slot, and
//!    the time axis grows with the live window as the exact observer's
//!    does with its footprint, so it never exceeds
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

use gwc_simt::trace::{MemEvent, TraceObserver};

use crate::fxhash::FxHashMap;
use crate::locality::{Sharing, REUSE_THRESHOLDS};
use crate::reuse::{global_lines, ReuseStack};

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
/// profile cache.
pub const CACHE_SALT: u64 = 0x9d3c_5f21_7a86_44b1;

/// Recency-window depth in distinct lines. One more than the largest
/// reuse-distance threshold: every in-window reuse lands in a bounded
/// histogram bucket, every eviction corresponds exactly to the exact
/// tier's overflow bucket.
pub const WINDOW_LINES: usize = REUSE_THRESHOLDS[2] as usize + 1;

/// KMV sample size. Relative standard error of the footprint estimate
/// is ~`1/sqrt(K - 1)` ≈ 3.1%.
pub const KMV_K: usize = 1024;

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

/// Bottom-k distinct sample keyed by `splitmix64(line)`, with exact
/// sharing flags for every surviving entry. The acceptance threshold
/// (the k-th smallest hash) only ever decreases, so a line rejected at
/// its first touch stays rejected and a surviving entry was inserted at
/// the line's true first touch — its flags are exact.
#[derive(Debug, Default)]
struct KmvSketch {
    entries: FxHashMap<u64, Sharing>,
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
            e.see(warp);
            return;
        }
        if full {
            self.evict_largest();
        }
        self.heap.push(hash);
        self.entries.insert(hash, Sharing::new(warp));
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

    fn bytes_in_use(&self) -> u64 {
        (self.entries.capacity() * (std::mem::size_of::<(u64, Sharing)>() + 1)
            + self.heap.capacity() * std::mem::size_of::<u64>()) as u64
    }
}

/// Bounded-memory replacement for `LocalityObserver`: bounded recency
/// window + KMV distinct sample. Peak memory is O(`WINDOW_LINES` +
/// `KMV_K`), independent of the address footprint.
#[derive(Debug)]
pub struct SketchLocalityObserver {
    /// The reuse stack bounded to the recency window. Its histogram's
    /// in-window reuses are exact (an in-window distance never exceeds
    /// `REUSE_THRESHOLDS[2]`); its cold touches are window misses: cold
    /// touches plus reuses at distance `> REUSE_THRESHOLDS[2]`, split
    /// via the KMV estimate.
    window: ReuseStack<1>,
    kmv: KmvSketch,
}

impl Default for SketchLocalityObserver {
    fn default() -> Self {
        Self {
            window: ReuseStack::windowed(WINDOW_LINES),
            kmv: KmvSketch::default(),
        }
    }
}

impl SketchLocalityObserver {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn touches(&self) -> u64 {
        self.window.touches(0)
    }

    /// Estimated distinct 128-byte lines touched (exact below
    /// [`KMV_K`]).
    pub fn footprint_lines(&self) -> u64 {
        self.kmv.footprint_estimate().round() as u64
    }

    fn cold_estimate(&self) -> f64 {
        // Every cold touch is a window miss, and the number of cold
        // touches is exactly the distinct-line count the KMV estimates.
        self.kmv
            .footprint_estimate()
            .min(self.window.cold(0) as f64)
    }

    /// Estimated reuses at distance beyond the window (bit-exact zero
    /// when the footprint fits the summaries).
    fn far_reuse_estimate(&self) -> f64 {
        (self.window.cold(0) as f64 - self.cold_estimate()).max(0.0)
    }

    /// Fraction of touches that were first-touch (cold), estimated.
    pub fn cold_frac(&self) -> f64 {
        if self.touches() == 0 {
            0.0
        } else {
            self.cold_estimate() / self.touches() as f64
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
        let hist = self.window.hist(0);
        let in_window: u64 = hist.iter().sum();
        let reuses = in_window as f64 + self.far_reuse_estimate();
        if reuses == 0.0 {
            return 0.0;
        }
        let upto: u64 = hist.iter().take(bucket + 1).sum();
        upto as f64 / reuses
    }

    /// Fraction of sampled lines touched by at least two warps.
    pub fn inter_warp_sharing(&self) -> f64 {
        Sharing::fractions(self.kmv.entries.values())[0]
    }

    /// Fraction of sampled lines touched by at least two blocks.
    pub fn inter_block_sharing(&self) -> f64 {
        Sharing::fractions(self.kmv.entries.values())[1]
    }

    /// Approximate heap bytes held. Capacity-based, like
    /// [`LocalityObserver::bytes_in_use`](crate::locality::LocalityObserver::bytes_in_use),
    /// and bounded by construction: O(`WINDOW_LINES` + `KMV_K`)
    /// whatever the footprint.
    pub fn bytes_in_use(&self) -> u64 {
        self.window.bytes_in_use() + self.kmv.bytes_in_use()
    }

    pub(crate) fn touch(&mut self, line: u32, warp: (u32, u32)) {
        self.kmv.observe(splitmix64(line as u64), warp);
        self.window.touch(0, line);
    }
}

impl TraceObserver for SketchLocalityObserver {
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
        let window = sketch.window.hist(0);
        assert_eq!(window[..3], hist[..3]);
        assert_eq!(window[3], 0, "an in-window distance is at most W - 1");
        assert_eq!(sketch.window.cold(0), cold + hist[3]);
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
        assert_eq!(sketch.window.hist(0).iter().sum::<u64>(), 0);
        assert_eq!(sketch.window.cold(0), WINDOW_LINES as u64 + 2);
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
