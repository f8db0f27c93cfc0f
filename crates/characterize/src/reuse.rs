//! The one LRU reuse-distance stack behind the exact, sketch and pair
//! locality views.
//!
//! Reuse distance — the number of *distinct* lines touched between two
//! accesses to the same line — is the canonical microarchitecture-
//! independent locality metric: a fully associative LRU cache of `N`
//! lines hits exactly the accesses with distance `< N`. The views only
//! ever ask which [`REUSE_THRESHOLDS`] bucket a reuse falls in, so the
//! stack answers exactly that:
//!
//! * **Time axis.** Every touch takes the next slot of a dense slot
//!   array (time → line id). A slot is *live* while its touch is still
//!   its line's latest; a reuse vacates the line's previous slot.
//! * **Live bitmap.** One bit per slot, plus a live count per
//!   [`BLOCK`]-slot block. A reuse's distance is the number of live
//!   slots strictly between its line's previous slot and now: a popcount
//!   over the gap's words, with whole blocks taken from their counts,
//!   stopping as soon as the count passes the largest threshold.
//! * **Short gaps.** Distinct lines between two touches never outnumber
//!   the slots between them, so a gap of at most `REUSE_THRESHOLDS[0]`
//!   slots is a bucket-0 reuse without a count.
//! * **Compression.** When the axis fills, one in-order walk packs the
//!   live slots to its front (no sort, no per-line lookup), growing the
//!   axis first when the live lines would fill more than half of it.
//!   Recency order — and with it every future distance — survives, so
//!   when compression or growth happens cannot affect results.
//! * **Window bound** (optional). A new line that would make the stack
//!   hold more lines than the bound evicts the least recently used one;
//!   a later touch of an evicted line counts as cold.
//!
//! The stack is generic over its member count `M`: every touch is
//! attributed to one member, which keeps its own reuse histogram, cold
//! and touch counters on the one shared timeline.

use gwc_simt::instr::Space;
use gwc_simt::trace::MemEvent;

use crate::coalescing::SEGMENT_BYTES;
use crate::fxhash::FxHashMap;
use crate::locality::REUSE_THRESHOLDS;

/// Slots per live-count block.
const BLOCK: usize = 4096;

/// Bits per bitmap word.
const WORD: usize = u64::BITS as usize;

/// Initial time-axis capacity. Deliberately small: a study creates one
/// stack per kernel label, most with small footprints, and a large
/// up-front axis would cost page faults for all of them. The axis grows
/// geometrically with the footprint, so large workloads still get a long
/// axis — they just pay for it only when they touch that many lines.
const INITIAL_CAP: usize = 1 << 12;

/// Marks a slot whose touch is no longer its line's latest, or whose
/// line left the window. Never a line id: ids count lines, and a 32-bit
/// address space holds at most `2^32 / SEGMENT_BYTES` of them.
const VACANT: u32 = u32::MAX;

/// A gap of at most this many slots is a bucket-0 reuse.
const SHORT_GAP: usize = REUSE_THRESHOLDS[0] as usize;

/// Counting stops once a distance passes this: beyond it lies only the
/// overflow bucket.
const FAR: u64 = REUSE_THRESHOLDS[2];

#[derive(Debug, Clone, Copy)]
struct Line {
    line: u32,
    /// The slot of the line's latest touch.
    last: u32,
}

/// What one [`ReuseStack::touch`] found.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Touch {
    /// The line's dense id. Without a window bound, ids count up from 0
    /// in first-touch order and never change, so a view can keep its
    /// per-line extras in a `Vec` indexed by id.
    pub(crate) id: usize,
    /// The line was not in the stack: a first touch or, under a window
    /// bound, a touch of a line evicted since.
    pub(crate) cold: bool,
}

/// An exact LRU reuse-distance stack over `M` members' touches; see the
/// module docs.
#[derive(Debug)]
pub(crate) struct ReuseStack<const M: usize> {
    /// Line → id of every line in the stack.
    ids: FxHashMap<u32, u32>,
    /// Id → line and the slot of its latest touch.
    lines: Vec<Line>,
    /// Ids of evicted lines, reused before new ones are minted.
    free: Vec<u32>,
    /// Time → id of the line touched then, or [`VACANT`]. Its length is
    /// the current time.
    slots: Vec<u32>,
    /// Bit `t` is set iff `slots[t]` is live.
    live: Vec<u64>,
    /// Live slots per [`BLOCK`] slots.
    block_live: Vec<u32>,
    /// Every slot below this one is vacant: the LRU line sits at the
    /// first live slot at or after it.
    oldest: usize,
    /// Time-axis capacity: compression (or growth) runs when `slots`
    /// reaches it.
    cap: usize,
    /// Most lines the stack holds before evicting its LRU line.
    window: usize,
    /// Reuses per member, bucketed by [`REUSE_THRESHOLDS`] with a final
    /// overflow bucket.
    hist: [[u64; 4]; M],
    cold: [u64; M],
    touches: [u64; M],
}

impl<const M: usize> Default for ReuseStack<M> {
    fn default() -> Self {
        Self::with_capacity(INITIAL_CAP)
    }
}

impl<const M: usize> ReuseStack<M> {
    /// An unbounded stack whose time axis starts at `cap` slots.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is 0.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        assert!(cap > 0, "the time axis needs at least one slot");
        Self {
            ids: FxHashMap::default(),
            lines: Vec::new(),
            free: Vec::new(),
            slots: Vec::with_capacity(cap),
            live: vec![0; cap.div_ceil(WORD)],
            block_live: vec![0; cap.div_ceil(BLOCK)],
            oldest: 0,
            cap,
            window: usize::MAX,
            hist: [[0; 4]; M],
            cold: [0; M],
            touches: [0; M],
        }
    }

    /// A stack holding at most `window` lines, evicting its LRU line
    /// past that.
    pub(crate) fn windowed(window: usize) -> Self {
        Self {
            window,
            ..Self::default()
        }
    }

    /// Records a touch of `line` by `member`.
    ///
    /// # Panics
    ///
    /// Panics if `member >= M`.
    pub(crate) fn touch(&mut self, member: usize, line: u32) -> Touch {
        self.touches[member] += 1;
        if self.slots.len() == self.cap {
            self.compress();
        }
        let now = self.slots.len();
        let (id, cold) = match self.ids.get(&line) {
            Some(&id) => {
                let last = self.lines[id as usize].last as usize;
                let bucket = self.bucket(last, now);
                self.hist[member][bucket] += 1;
                self.vacate(last);
                (id, false)
            }
            None => {
                self.cold[member] += 1;
                let id = self.free.pop().unwrap_or_else(|| {
                    self.lines.push(Line { line, last: 0 });
                    (self.lines.len() - 1) as u32
                });
                self.lines[id as usize].line = line;
                self.ids.insert(line, id);
                if self.ids.len() > self.window {
                    self.evict_lru();
                }
                (id, true)
            }
        };
        self.lines[id as usize].last = now as u32;
        self.slots.push(id);
        self.live[now / WORD] |= 1 << (now % WORD);
        self.block_live[now / BLOCK] += 1;
        Touch {
            id: id as usize,
            cold,
        }
    }

    /// The bucket of a reuse whose previous touch took slot `last`.
    fn bucket(&self, last: usize, now: usize) -> usize {
        if now - last - 1 <= SHORT_GAP {
            return 0;
        }
        let distance = self.live_between(last + 1, now);
        REUSE_THRESHOLDS
            .iter()
            .position(|&th| distance <= th)
            .unwrap_or(REUSE_THRESHOLDS.len())
    }

    /// Live slots in `lo..hi`, exact up to `FAR + 1`: counting stops
    /// once the count passes [`FAR`].
    fn live_between(&self, lo: usize, hi: usize) -> u64 {
        let mut n = 0u64;
        let mut i = lo;
        while i < hi && n <= FAR {
            if i.is_multiple_of(BLOCK) && hi - i >= BLOCK {
                n += u64::from(self.block_live[i / BLOCK]);
                i += BLOCK;
            } else {
                let end = (i - i % WORD + WORD).min(hi);
                let mask = (u64::MAX >> (WORD - (end - i))) << (i % WORD);
                n += u64::from((self.live[i / WORD] & mask).count_ones());
                i = end;
            }
        }
        n
    }

    fn vacate(&mut self, t: usize) {
        self.slots[t] = VACANT;
        self.live[t / WORD] &= !(1 << (t % WORD));
        self.block_live[t / BLOCK] -= 1;
    }

    fn evict_lru(&mut self) {
        while self.slots[self.oldest] == VACANT {
            self.oldest += 1;
        }
        let id = self.slots[self.oldest];
        self.vacate(self.oldest);
        self.ids.remove(&self.lines[id as usize].line);
        self.free.push(id);
    }

    /// Packs the live slots to the front of the axis in recency order,
    /// growing the axis first when they would fill more than half of it.
    fn compress(&mut self) {
        let live = self.ids.len();
        if live * 2 > self.cap {
            self.cap = (live * 4).next_power_of_two();
        }
        let mut t = 0;
        for i in self.oldest..self.slots.len() {
            let id = self.slots[i];
            if id != VACANT {
                self.slots[t] = id;
                self.lines[id as usize].last = t as u32;
                t += 1;
            }
        }
        debug_assert_eq!(t, live, "one live slot per line");
        self.slots.truncate(t);
        self.slots.reserve_exact(self.cap - t);
        self.oldest = 0;
        self.live.clear();
        self.live.resize(self.cap.div_ceil(WORD), 0);
        self.live[..t / WORD].fill(u64::MAX);
        if t % WORD != 0 {
            self.live[t / WORD] = (1 << (t % WORD)) - 1;
        }
        self.block_live.clear();
        self.block_live.extend(
            (0..self.cap.div_ceil(BLOCK)).map(|b| t.saturating_sub(b * BLOCK).min(BLOCK) as u32),
        );
    }

    /// Lines in the stack: every distinct line touched, or under a window
    /// bound the window's lines.
    pub(crate) fn lines(&self) -> u64 {
        self.ids.len() as u64
    }

    /// Member `m`'s touches.
    pub(crate) fn touches(&self, m: usize) -> u64 {
        self.touches[m]
    }

    /// Member `m`'s cold touches (see [`Touch::cold`]).
    pub(crate) fn cold(&self, m: usize) -> u64 {
        self.cold[m]
    }

    /// Member `m`'s reuses by bucket: the [`REUSE_THRESHOLDS`], then
    /// overflow.
    pub(crate) fn hist(&self, m: usize) -> [u64; 4] {
        self.hist[m]
    }

    /// Fraction of member `m`'s touches that were cold.
    pub(crate) fn cold_frac(&self, m: usize) -> f64 {
        if self.touches[m] == 0 {
            0.0
        } else {
            self.cold[m] as f64 / self.touches[m] as f64
        }
    }

    /// Fraction of member `m`'s reuses with stack distance at most
    /// `REUSE_THRESHOLDS[bucket]`. Cumulative.
    ///
    /// # Panics
    ///
    /// Panics if `bucket >= 3`.
    pub(crate) fn reuse_cdf(&self, m: usize, bucket: usize) -> f64 {
        assert!(bucket < REUSE_THRESHOLDS.len());
        let reuses: u64 = self.hist[m].iter().sum();
        if reuses == 0 {
            return 0.0;
        }
        let upto: u64 = self.hist[m].iter().take(bucket + 1).sum();
        upto as f64 / reuses as f64
    }

    /// Approximate heap bytes held. Capacity-based (not length-based):
    /// it is the allocation, not the occupancy, that the
    /// `observer.bytes_peak` counter must account for.
    pub(crate) fn bytes_in_use(&self) -> u64 {
        use std::mem::size_of;
        (self.ids.capacity() * (size_of::<(u32, u32)>() + 1)
            + self.lines.capacity() * size_of::<Line>()
            + (self.free.capacity() + self.slots.capacity() + self.block_live.capacity())
                * size_of::<u32>()
            + self.live.capacity() * size_of::<u64>()) as u64
    }
}

/// The distinct 128-byte lines a global-memory warp access touches, in
/// ascending order; empty for every other space. The lines are gathered
/// into `buf` — at most one per lane — so the sort and dedup run with no
/// per-event allocation.
pub(crate) fn global_lines<'b>(
    e: &MemEvent<'_>,
    buf: &'b mut [u32; gwc_simt::WARP_SIZE],
) -> &'b [u32] {
    if e.space != Space::Global {
        return &[];
    }
    let mut n = 0;
    for a in e.active_addrs() {
        buf[n] = a / SEGMENT_BYTES;
        n += 1;
    }
    buf[..n].sort_unstable();
    let mut k = 0;
    for i in 0..n {
        if k == 0 || buf[i] != buf[k - 1] {
            buf[k] = buf[i];
            k += 1;
        }
    }
    &buf[..k]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The textbook LRU stack: lines least recent first, a reuse's
    /// distance is its depth from the top. The set only spares cold
    /// touches a scan.
    struct Naive<const M: usize> {
        stack: Vec<u32>,
        members: HashSet<u32>,
        window: usize,
        hist: [[u64; 4]; M],
        cold: [u64; M],
        touches: [u64; M],
    }

    impl<const M: usize> Naive<M> {
        fn new(window: usize) -> Self {
            Self {
                stack: Vec::new(),
                members: HashSet::new(),
                window,
                hist: [[0; 4]; M],
                cold: [0; M],
                touches: [0; M],
            }
        }

        fn touch(&mut self, member: usize, line: u32) {
            self.touches[member] += 1;
            if self.members.contains(&line) {
                let pos = self.stack.iter().rposition(|&l| l == line).unwrap();
                let depth = (self.stack.len() - 1 - pos) as u64;
                let bucket = REUSE_THRESHOLDS
                    .iter()
                    .position(|&th| depth <= th)
                    .unwrap_or(3);
                self.hist[member][bucket] += 1;
                self.stack.remove(pos);
            } else {
                self.cold[member] += 1;
                self.members.insert(line);
                if self.stack.len() == self.window {
                    let lru = self.stack.remove(0);
                    self.members.remove(&lru);
                }
            }
            self.stack.push(line);
        }
    }

    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    const EDGES: [u32; 6] = [16, 17, 256, 257, 4096, 4097];

    /// Touches `line`, then `d` lines never touched before, then `line`
    /// again: a reuse at distance exactly `d`.
    fn at_distance(s: &mut Vec<u32>, line: u32, d: u32, fresh: &mut u32) {
        s.push(line);
        for _ in 0..d {
            s.push(*fresh);
            *fresh += 1;
        }
        s.push(line);
    }

    /// One seeded stream: every threshold distance and its successor,
    /// then rounds of random hot/warm/new-line traffic, each closed by a
    /// long sparse gap (two lines ping-ponging, which spans whole blocks
    /// once the axis is long enough) and one more threshold distance.
    fn stream(seed: u64) -> Vec<u32> {
        let mut rng = Rng(seed);
        let mut fresh = 1 << 20;
        let mut s = Vec::new();
        for d in EDGES {
            at_distance(&mut s, (rng.next() % 64) as u32, d, &mut fresh);
        }
        for _ in 0..5 {
            for _ in 0..2000 {
                let r = rng.next();
                s.push(match r % 4 {
                    0 => (r >> 8) as u32 % 32,
                    1 => (r >> 8) as u32 % 600,
                    2 => (r >> 8) as u32 % 5000,
                    _ => {
                        fresh += 1;
                        fresh
                    }
                });
            }
            let line = (rng.next() % 600) as u32;
            s.push(line);
            for i in 0..10_000 {
                s.push(2_000_000 + i % 2);
            }
            s.push(line);
            let d = EDGES[(rng.next() % 6) as usize];
            at_distance(&mut s, line, d, &mut fresh);
        }
        s
    }

    /// Replays one seeded stream into the naive stack and into reuse
    /// stacks at every capacity, attributing each touch to a seeded
    /// member, and compares every counter.
    fn check<const M: usize>(seed: u64, window: usize) {
        let caps = [64, INITIAL_CAP, 1 << 15];
        let mut stacks = caps.map(|cap| ReuseStack::<M> {
            window,
            ..ReuseStack::with_capacity(cap)
        });
        let mut naive = Naive::<M>::new(window);
        let mut rng = Rng(seed ^ 0x5851_f42d_4c95_7f2d);
        for (i, line) in stream(seed).into_iter().enumerate() {
            let member = (rng.next() % M as u64) as usize;
            naive.touch(member, line);
            for stack in &mut stacks {
                stack.touch(member, line);
                if i % 997 == 0 {
                    assert_eq!(stack.lines(), naive.stack.len() as u64, "touch {i}");
                }
            }
        }
        for (stack, cap) in stacks.iter().zip(caps) {
            let what = format!("{M} members, cap {cap}, window {window}, seed {seed}");
            for m in 0..M {
                assert_eq!(stack.hist(m), naive.hist[m], "{what}: member {m} histogram");
                assert_eq!(stack.cold(m), naive.cold[m], "{what}: member {m} cold");
                assert_eq!(stack.touches(m), naive.touches[m], "{what}: member {m}");
            }
            assert_eq!(stack.lines(), naive.stack.len() as u64, "{what}: lines");
        }
    }

    /// The stack against the textbook LRU stack, with 1 and 2 members,
    /// with and without a window bound, at axis capacities that compress
    /// and grow mid-stream (64, the default) and that hold whole blocks
    /// from the start (2^15).
    #[test]
    fn matches_naive_lru_stack() {
        for seed in [7, 11] {
            for window in [usize::MAX, REUSE_THRESHOLDS[2] as usize + 1, 300] {
                check::<1>(seed, window);
                check::<2>(seed, window);
            }
        }
    }

    /// Each threshold distance lands in its bucket, and one more lands
    /// in the next.
    #[test]
    fn threshold_distances_bucket_exactly() {
        for (bucket, &th) in REUSE_THRESHOLDS.iter().enumerate() {
            for (d, want) in [(th, bucket), (th + 1, bucket + 1)] {
                let mut s = Vec::new();
                at_distance(&mut s, 0, d as u32, &mut 1);
                let mut stack = ReuseStack::<1>::default();
                for line in s {
                    stack.touch(0, line);
                }
                let mut hist = [0; 4];
                hist[want] = 1;
                assert_eq!(stack.hist(0), hist, "distance {d}");
            }
        }
    }

    /// Compression packs the live slots: the axis keeps its capacity
    /// while the lines fit in half of it, and grows once they do not.
    #[test]
    fn axis_compresses_then_grows() {
        let mut stack = ReuseStack::<1>::with_capacity(64);
        for _ in 0..20 {
            for line in 0..30 {
                stack.touch(0, line);
            }
        }
        assert_eq!(stack.cap, 64);
        for _ in 0..3 {
            for line in 0..40 {
                stack.touch(0, line);
            }
        }
        assert_eq!(stack.cap, 256);
        assert_eq!(stack.lines(), 40);
        assert_eq!(stack.hist(0), [0, 680, 0, 0]);
    }
}
