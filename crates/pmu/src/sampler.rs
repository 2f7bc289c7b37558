//! Sampling-period bookkeeping for a set of VCPUs.

use crate::counters::{PmuSample, VcpuPmu};
use sim_core::{SimDuration, SimTime};

/// Manages one [`VcpuPmu`] per VCPU and the sampling-period boundary.
///
/// The hypervisor calls [`PeriodSampler::record`] every quantum for each
/// VCPU that ran and [`PeriodSampler::maybe_sample`] every quantum with the
/// current time; when a period boundary passes, the latter returns one
/// sample per VCPU for the analyzer.
#[derive(Debug, Clone)]
pub struct PeriodSampler {
    period: SimDuration,
    next_boundary: SimTime,
    pmus: Vec<VcpuPmu>,
    periods_completed: u64,
}

impl PeriodSampler {
    /// Panics on a zero period.
    pub fn new(num_vcpus: usize, num_nodes: usize, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "sampling period must be nonzero");
        PeriodSampler {
            period,
            next_boundary: SimTime::ZERO + period,
            pmus: (0..num_vcpus).map(|_| VcpuPmu::new(num_nodes)).collect(),
            periods_completed: 0,
        }
    }

    pub fn period(&self) -> SimDuration {
        self.period
    }

    pub fn num_vcpus(&self) -> usize {
        self.pmus.len()
    }

    pub fn periods_completed(&self) -> u64 {
        self.periods_completed
    }

    /// Record a quantum's results for VCPU `vcpu`.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        vcpu: usize,
        instructions: u64,
        llc_refs: u64,
        llc_misses: u64,
        local: u64,
        remote: u64,
        node_accesses: &[u64],
    ) {
        self.pmus[vcpu].record(instructions, llc_refs, llc_misses, local, remote, node_accesses);
    }

    /// If `now` has reached the period boundary, close every VCPU's window
    /// and return the samples; otherwise `None`. Skipped boundaries (if the
    /// caller stepped past several) collapse into one sample, matching a
    /// real sampler that missed its timer.
    pub fn maybe_sample(&mut self, now: SimTime) -> Option<Vec<PmuSample>> {
        if now < self.next_boundary {
            return None;
        }
        while self.next_boundary <= now {
            self.next_boundary += self.period;
        }
        self.periods_completed += 1;
        Some(self.pmus.iter_mut().map(|p| p.sample_window()).collect())
    }

    /// Peek a single VCPU's in-progress window.
    pub fn peek(&self, vcpu: usize) -> PmuSample {
        self.pmus[vcpu].peek_window()
    }

    /// Whole-run totals for a VCPU.
    pub fn totals(&self, vcpu: usize) -> PmuSample {
        self.pmus[vcpu].totals()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn samples_fire_on_boundary() {
        let mut s = PeriodSampler::new(2, 2, SimDuration::from_secs(1));
        s.record(0, 100, 10, 5, 2, 3, &[2, 3]);
        assert!(s.maybe_sample(t(999)).is_none());
        let samples = s.maybe_sample(t(1_000)).unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].instructions, 100);
        assert_eq!(samples[1].instructions, 0);
        assert_eq!(s.periods_completed(), 1);
    }

    #[test]
    fn window_resets_between_periods() {
        let mut s = PeriodSampler::new(1, 2, SimDuration::from_secs(1));
        s.record(0, 100, 0, 0, 0, 0, &[0, 0]);
        s.maybe_sample(t(1_000)).unwrap();
        s.record(0, 7, 0, 0, 0, 0, &[0, 0]);
        let second = s.maybe_sample(t(2_000)).unwrap();
        assert_eq!(second[0].instructions, 7);
        assert_eq!(s.totals(0).instructions, 107);
    }

    #[test]
    fn missed_boundaries_collapse() {
        let mut s = PeriodSampler::new(1, 2, SimDuration::from_secs(1));
        s.record(0, 50, 0, 0, 0, 0, &[0, 0]);
        let samples = s.maybe_sample(t(3_500)).unwrap();
        assert_eq!(samples[0].instructions, 50);
        // Next boundary is 4 s, not 2 s.
        assert!(s.maybe_sample(t(3_900)).is_none());
        assert!(s.maybe_sample(t(4_000)).is_some());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_period_rejected() {
        PeriodSampler::new(1, 1, SimDuration::ZERO);
    }
}
