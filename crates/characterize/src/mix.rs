//! Instruction-mix observer.

use gwc_simt::instr::InstrClass;
use gwc_simt::trace::{InstrEvent, TraceObserver};

/// Streams thread-level instruction counts per [`InstrClass`].
#[derive(Debug, Clone, Default)]
pub struct MixObserver {
    counts: [u64; InstrClass::ALL.len()],
    total: u64,
}

impl MixObserver {
    /// Creates an empty observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// `class`'s index in [`InstrClass::ALL`], which lists the classes in
    /// declaration order (pinned by a test below).
    fn slot(class: InstrClass) -> usize {
        class as usize
    }

    /// Thread-level instruction count for `class`.
    pub fn count(&self, class: InstrClass) -> u64 {
        self.counts[Self::slot(class)]
    }

    /// Total thread-level instructions observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of thread-level instructions in `class` (0 when empty).
    pub fn fraction(&self, class: InstrClass) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(class) as f64 / self.total as f64
        }
    }
}

impl TraceObserver for MixObserver {
    fn on_instr(&mut self, e: &InstrEvent<'_>) {
        let lanes = e.active_lanes() as u64;
        self.counts[Self::slot(e.class)] += lanes;
        self.total += lanes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(class: InstrClass, active: u32) -> InstrEvent<'static> {
        InstrEvent {
            block: 0,
            warp: 0,
            pc: 0,
            class,
            active,
            live: u32::MAX,
            dst: None,
            srcs: &[],
        }
    }

    #[test]
    fn counts_active_lanes() {
        let mut m = MixObserver::new();
        m.on_instr(&event(InstrClass::IntAlu, 0b1111));
        m.on_instr(&event(InstrClass::FpAlu, 0b1));
        assert_eq!(m.count(InstrClass::IntAlu), 4);
        assert_eq!(m.count(InstrClass::FpAlu), 1);
        assert_eq!(m.total(), 5);
        assert!((m.fraction(InstrClass::IntAlu) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn slot_is_the_index_in_all() {
        for (i, &c) in InstrClass::ALL.iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?}");
        }
    }

    #[test]
    fn empty_fractions_are_zero() {
        let m = MixObserver::new();
        assert_eq!(m.fraction(InstrClass::Sfu), 0.0);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut m = MixObserver::new();
        for (i, &c) in InstrClass::ALL.iter().enumerate() {
            m.on_instr(&event(c, (1 << (i + 1)) - 1));
        }
        let sum: f64 = InstrClass::ALL.iter().map(|&c| m.fraction(c)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }
}
