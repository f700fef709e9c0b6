//! The simulation clock: warmup → measurement → drain.
//!
//! Latency/throughput statistics only count packets *generated* inside
//! the measurement window; the run then drains until every measured
//! packet is delivered or the drain budget expires (the saturated case).

use crate::config::SimConfig;

/// Warmup/measurement/drain boundaries (in cycles).
#[derive(Debug, Clone, Copy)]
pub struct PhaseClock {
    /// Warmup length.
    pub warmup: u32,
    /// Measurement window length.
    pub measure: u32,
    /// Maximum drain length.
    pub drain_max: u32,
}

impl PhaseClock {
    /// The clock described by a [`SimConfig`].
    pub fn new(cfg: &SimConfig) -> PhaseClock {
        PhaseClock {
            warmup: cfg.warmup,
            measure: cfg.measure,
            drain_max: cfg.drain_max,
        }
    }

    /// Whether packets generated at `cycle` are measured. (Subtraction
    /// form: immune to `warmup + measure` overflow for sentinel-sized
    /// warmups.)
    #[inline]
    pub fn in_measurement(&self, cycle: u32) -> bool {
        cycle >= self.warmup && cycle - self.warmup < self.measure
    }

    /// First cycle past the measurement window.
    #[inline]
    pub fn steady_end(&self) -> u32 {
        self.warmup.saturating_add(self.measure)
    }

    /// Hard stop: measurement end plus the drain budget.
    #[inline]
    pub fn deadline(&self) -> u32 {
        self.steady_end().saturating_add(self.drain_max)
    }

    /// The last cycle a cycle-by-cycle run loop would actually execute
    /// (it runs `0..deadline()`). The event-driven idle leap must never
    /// target a later cycle: leaping *to* the deadline would execute a
    /// cycle such a walk never runs.
    #[inline]
    pub fn last_cycle(&self) -> u32 {
        self.deadline().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_partition_the_timeline() {
        let c = PhaseClock {
            warmup: 10,
            measure: 20,
            drain_max: 5,
        };
        assert!(!c.in_measurement(0));
        assert!(!c.in_measurement(9));
        assert!(c.in_measurement(10));
        assert!(c.in_measurement(29));
        assert!(!c.in_measurement(30));
        assert_eq!(c.steady_end(), 30);
        assert_eq!(c.deadline(), 35);
        assert_eq!(c.last_cycle(), 34);
    }

    #[test]
    fn sentinel_warmup_never_measures_and_never_overflows() {
        let c = PhaseClock {
            warmup: u32::MAX,
            measure: 2000,
            drain_max: 4000,
        };
        assert!(!c.in_measurement(0));
        assert!(!c.in_measurement(u32::MAX - 1));
        assert_eq!(c.steady_end(), u32::MAX);
        assert_eq!(c.deadline(), u32::MAX);
    }
}
