/// A tiny deterministic PRNG (SplitMix64) used internally for k-means++
/// seeding so the crate stays dependency-free and bit-reproducible.
///
/// Not exposed publicly; callers control determinism through explicit seeds.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`. `n` must be non-zero.
    pub(crate) fn next_below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// A `2..=max_rows` by `1..=max_cols` matrix of values in
    /// `[-100, 100)`: the input of this crate's seeded property loops.
    #[cfg(test)]
    pub(crate) fn matrix(&mut self, max_rows: usize, max_cols: usize) -> crate::Matrix {
        let rows = 2 + self.next_below(max_rows - 1);
        let cols = 1 + self.next_below(max_cols);
        let data = (0..rows * cols)
            .map(|_| self.next_f64() * 200.0 - 100.0)
            .collect();
        crate::Matrix::from_vec(rows, cols, data).expect("sized")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(9);
        for _ in 0..1000 {
            assert!(r.next_below(17) < 17);
        }
    }

    #[test]
    fn roughly_uniform_mean() {
        let mut r = SplitMix64::new(1);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
