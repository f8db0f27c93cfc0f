//! Memory-coalescing and shared-memory bank observers.
//!
//! Global accesses are judged by how many 128-byte segments a warp access
//! touches (the unit a GPU memory controller fetches); shared accesses by
//! how many serialized bank cycles they need on a 32-bank scratchpad.
//! Both are properties of the address stream, not of any cache.

use gwc_simt::instr::Space;
use gwc_simt::trace::{MemEvent, TraceObserver};
use gwc_simt::WARP_SIZE;

/// Size of a global-memory segment (transaction) in bytes.
pub const SEGMENT_BYTES: u32 = 128;
/// Number of shared-memory banks.
pub const SHARED_BANKS: usize = 32;

/// Streams global accesses into coalescing metrics and shared accesses
/// into bank-conflict metrics.
#[derive(Debug, Clone, Default)]
pub struct CoalescingObserver {
    global_accesses: u64,
    global_segments: u64,
    unit_stride: u64,
    broadcast: u64,
    scatter: u64,
    shared_accesses: u64,
    shared_serialized: u64,
}

impl CoalescingObserver {
    /// Creates an empty observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Warp-level global accesses observed.
    pub fn global_accesses(&self) -> u64 {
        self.global_accesses
    }

    /// Total 128-byte segments those accesses needed.
    pub fn global_segments(&self) -> u64 {
        self.global_segments
    }

    /// Mean segments per global warp access (1.0 = perfectly coalesced).
    pub fn segments_per_access(&self) -> f64 {
        if self.global_accesses == 0 {
            0.0
        } else {
            self.global_segments as f64 / self.global_accesses as f64
        }
    }

    /// Fraction of global accesses whose consecutive active lanes all had
    /// stride exactly 4 bytes.
    pub fn unit_stride_frac(&self) -> f64 {
        self.frac(self.unit_stride)
    }

    /// Fraction of global accesses where all active lanes shared one
    /// address.
    pub fn broadcast_frac(&self) -> f64 {
        self.frac(self.broadcast)
    }

    /// Fraction of global accesses touching more than 8 segments.
    pub fn scatter_frac(&self) -> f64 {
        self.frac(self.scatter)
    }

    /// Warp-level shared accesses observed.
    pub fn shared_accesses(&self) -> u64 {
        self.shared_accesses
    }

    /// Total serialized bank cycles for shared accesses.
    pub fn shared_serialized(&self) -> u64 {
        self.shared_serialized
    }

    /// Mean serialization degree of shared accesses (1.0 = conflict-free).
    pub fn bank_conflict_factor(&self) -> f64 {
        if self.shared_accesses == 0 {
            // Kernels that never touch shared memory are conflict-free.
            1.0
        } else {
            self.shared_serialized as f64 / self.shared_accesses as f64
        }
    }

    fn frac(&self, n: u64) -> f64 {
        if self.global_accesses == 0 {
            0.0
        } else {
            n as f64 / self.global_accesses as f64
        }
    }

    /// Bytes of state held by this observer. Already bounded — seven
    /// plain counters, no per-address state — so the `Exact` and
    /// `Sketch` observer tiers share this one implementation; it exists
    /// so the `observer.bytes_peak` counter accounts for every heavy
    /// observer uniformly.
    pub fn bytes_in_use(&self) -> u64 {
        std::mem::size_of::<Self>() as u64
    }
}

/// Sorts (in place) and counts the distinct values in a short scratch
/// slice. Warp accesses have at most 32 lanes, so this runs entirely on
/// the caller's stack buffer — the hot path allocates nothing.
fn sorted_distinct(scratch: &mut [u32]) -> usize {
    scratch.sort_unstable();
    let mut distinct = 0usize;
    let mut prev = u32::MAX;
    for &v in scratch.iter() {
        distinct += usize::from(v != prev || distinct == 0);
        prev = v;
    }
    distinct
}

/// Number of distinct 128B segments among `addrs`.
pub fn segment_count(addrs: &[u32]) -> usize {
    let mut segs = [0u32; WARP_SIZE];
    for (s, &a) in segs.iter_mut().zip(addrs) {
        *s = a / SEGMENT_BYTES;
    }
    sorted_distinct(&mut segs[..addrs.len().min(WARP_SIZE)])
}

/// Serialized cycles for a shared access on a 32-bank, 4-byte-word
/// scratchpad: the maximum, over banks, of distinct words requested in
/// that bank (same word by many lanes broadcasts in one cycle).
pub fn shared_serialization(addrs: &[u32]) -> usize {
    // Distinct words first (duplicates broadcast), then a per-bank
    // census — fixed-size arrays instead of per-bank heap vectors.
    let mut words = [0u32; WARP_SIZE];
    for (w, &a) in words.iter_mut().zip(addrs) {
        *w = a / 4;
    }
    let n = addrs.len().min(WARP_SIZE);
    words[..n].sort_unstable();
    let mut per_bank = [0u32; SHARED_BANKS];
    let mut prev = u32::MAX;
    let mut first = true;
    for &word in &words[..n] {
        if first || word != prev {
            per_bank[(word as usize) % SHARED_BANKS] += 1;
        }
        prev = word;
        first = false;
    }
    per_bank.iter().copied().max().unwrap_or(0).max(1) as usize
}

impl TraceObserver for CoalescingObserver {
    fn on_mem(&mut self, e: &MemEvent<'_>) {
        let mut buf = [0u32; WARP_SIZE];
        let mut n = 0usize;
        for a in e.active_addrs() {
            buf[n] = a;
            n += 1;
        }
        if n == 0 {
            return;
        }
        let addrs = &buf[..n];
        match e.space {
            Space::Global => {
                self.global_accesses += 1;
                let segs = segment_count(addrs);
                self.global_segments += segs as u64;
                if segs == 1 && addrs.iter().all(|&a| a == addrs[0]) {
                    self.broadcast += 1;
                }
                // A single active lane is trivially unit-stride (empty windows).
                if addrs.windows(2).all(|w| w[1].wrapping_sub(w[0]) == 4) {
                    self.unit_stride += 1;
                }
                if segs > 8 {
                    self.scatter += 1;
                }
            }
            Space::Shared => {
                self.shared_accesses += 1;
                self.shared_serialized += shared_serialization(addrs) as u64;
            }
            _ => {}
        }
    }
}

/// Helper for tests in this crate and downstream: builds a [`MemEvent`]
/// address array from a slice.
pub fn addr_array(addrs: &[u32]) -> ([u32; WARP_SIZE], u32) {
    let mut arr = [0u32; WARP_SIZE];
    let mut mask = 0u32;
    for (i, &a) in addrs.iter().enumerate() {
        arr[i] = a;
        mask |= 1 << i;
    }
    (arr, mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gwc_simt::trace::AccessKind;

    fn mem_event<'a>(space: Space, arr: &'a [u32; WARP_SIZE], mask: u32) -> MemEvent<'a> {
        MemEvent {
            block: 0,
            warp: 0,
            pc: 0,
            space,
            kind: AccessKind::Load,
            bytes: 4,
            active: mask,
            addrs: arr,
        }
    }

    #[test]
    fn unit_stride_is_one_segment() {
        let addrs: Vec<u32> = (0..32u32).map(|i| i * 4).collect();
        assert_eq!(segment_count(&addrs), 1);
        let mut o = CoalescingObserver::new();
        let (arr, mask) = addr_array(&addrs);
        o.on_mem(&mem_event(Space::Global, &arr, mask));
        assert_eq!(o.segments_per_access(), 1.0);
        assert_eq!(o.unit_stride_frac(), 1.0);
        assert_eq!(o.broadcast_frac(), 0.0);
        assert_eq!(o.scatter_frac(), 0.0);
    }

    #[test]
    fn stride_128_is_full_scatter() {
        let addrs: Vec<u32> = (0..32u32).map(|i| i * 128).collect();
        assert_eq!(segment_count(&addrs), 32);
        let mut o = CoalescingObserver::new();
        let (arr, mask) = addr_array(&addrs);
        o.on_mem(&mem_event(Space::Global, &arr, mask));
        assert_eq!(o.segments_per_access(), 32.0);
        assert_eq!(o.scatter_frac(), 1.0);
        assert_eq!(o.unit_stride_frac(), 0.0);
    }

    #[test]
    fn broadcast_detected() {
        let addrs = vec![400u32; 32];
        let mut o = CoalescingObserver::new();
        let (arr, mask) = addr_array(&addrs);
        o.on_mem(&mem_event(Space::Global, &arr, mask));
        assert_eq!(o.broadcast_frac(), 1.0);
        assert_eq!(o.segments_per_access(), 1.0);
    }

    #[test]
    fn misaligned_unit_stride_spans_two_segments() {
        // Start at byte 64: lanes 0..15 in segment 0, 16..31 in segment 1.
        let addrs: Vec<u32> = (0..32u32).map(|i| 64 + i * 4).collect();
        assert_eq!(segment_count(&addrs), 2);
    }

    #[test]
    fn shared_conflict_free_and_conflicted() {
        // All lanes hit distinct banks: words 0..32.
        let free: Vec<u32> = (0..32u32).map(|i| i * 4).collect();
        assert_eq!(shared_serialization(&free), 1);
        // Stride of 2 words: 2-way conflict.
        let two_way: Vec<u32> = (0..32u32).map(|i| i * 8).collect();
        assert_eq!(shared_serialization(&two_way), 2);
        // All lanes same word: broadcast, 1 cycle.
        let bcast = vec![16u32; 32];
        assert_eq!(shared_serialization(&bcast), 1);
        // Stride of 32 words: all in bank 0, 32-way.
        let worst: Vec<u32> = (0..32u32).map(|i| i * 32 * 4).collect();
        assert_eq!(shared_serialization(&worst), 32);
    }

    #[test]
    fn bank_conflict_factor_defaults_to_one() {
        assert_eq!(CoalescingObserver::new().bank_conflict_factor(), 1.0);
    }

    #[test]
    fn shared_accesses_tracked_separately() {
        let mut o = CoalescingObserver::new();
        let addrs: Vec<u32> = (0..32u32).map(|i| i * 8).collect();
        let (arr, mask) = addr_array(&addrs);
        o.on_mem(&mem_event(Space::Shared, &arr, mask));
        assert_eq!(o.global_accesses(), 0);
        assert_eq!(o.shared_accesses(), 1);
        assert_eq!(o.bank_conflict_factor(), 2.0);
    }

    #[test]
    fn single_lane_counts_as_unit_stride() {
        let mut o = CoalescingObserver::new();
        let (arr, mask) = addr_array(&[512]);
        o.on_mem(&mem_event(Space::Global, &arr, mask));
        assert_eq!(o.unit_stride_frac(), 1.0);
    }
}
