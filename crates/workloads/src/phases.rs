//! Phase behaviour: workloads whose memory intensity changes over time.
//!
//! Real programs alternate between compute and memory phases; the paper's
//! Fig. 8 sampling-period sweep exists precisely because stale
//! characteristics mislead the scheduler when behaviour shifts. A
//! [`PhasedWorkload`] cycles a base [`WorkloadSpec`] through multiplicative
//! phases so experiments can stress how quickly each policy re-adapts.

use crate::spec::WorkloadSpec;
use sim_core::{SimDuration, SimTime};

/// One phase: scale factors applied to the base spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    pub duration: SimDuration,
    /// Multiplies RPTI (memory intensity).
    pub rpti_scale: f64,
    /// Multiplies the working-set size.
    pub ws_scale: f64,
}

/// Phase `index` is in effect at every time `t` with
/// `start_us <= t.as_micros() < end_us`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    pub index: usize,
    pub start_us: u64,
    pub end_us: u64,
}

impl PhaseSpan {
    /// Whether phase `index` is in effect at `t`.
    pub fn contains(&self, t: SimTime) -> bool {
        (self.start_us..self.end_us).contains(&t.as_micros())
    }
}

/// A workload whose behaviour cycles through phases.
#[derive(Debug, Clone)]
pub struct PhasedWorkload {
    base: WorkloadSpec,
    phases: Vec<Phase>,
    cycle: SimDuration,
}

impl PhasedWorkload {
    /// Panics if `phases` is empty or any phase has zero duration.
    pub fn new(base: WorkloadSpec, phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        assert!(
            phases.iter().all(|p| !p.duration.is_zero()),
            "phases must have nonzero duration"
        );
        let cycle = phases.iter().map(|p| p.duration).sum();
        PhasedWorkload {
            base,
            phases,
            cycle,
        }
    }

    /// A steady workload (single identity phase).
    pub fn steady(base: WorkloadSpec) -> Self {
        PhasedWorkload::new(
            base,
            vec![Phase {
                duration: SimDuration::from_secs(1),
                rpti_scale: 1.0,
                ws_scale: 1.0,
            }],
        )
    }

    /// Alternate memory-heavy and compute-heavy halves of period `period`.
    pub fn alternating(base: WorkloadSpec, period: SimDuration) -> Self {
        let half = period / 2;
        PhasedWorkload::new(
            base,
            vec![
                Phase {
                    duration: half,
                    rpti_scale: 1.5,
                    ws_scale: 1.2,
                },
                Phase {
                    duration: half,
                    rpti_scale: 0.3,
                    ws_scale: 0.5,
                },
            ],
        )
    }

    pub fn base(&self) -> &WorkloadSpec {
        &self.base
    }

    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// Index of the phase in effect at simulated time `t`.
    pub fn phase_index_at(&self, t: SimTime) -> usize {
        self.phase_span_at(t).index
    }

    /// The phase in effect at simulated time `t`, with the stretch of
    /// time it stays in effect: a caller that keeps the span answers every
    /// later `t` inside it without the modulo and the scan.
    pub fn phase_span_at(&self, t: SimTime) -> PhaseSpan {
        let t_us = t.as_micros();
        let offset = t_us % self.cycle.as_micros();
        let cycle_start = t_us - offset;
        let mut start = 0;
        for (index, p) in self.phases.iter().enumerate() {
            let end = start + p.duration.as_micros();
            if offset < end {
                return PhaseSpan {
                    index,
                    start_us: cycle_start + start,
                    end_us: cycle_start.saturating_add(end),
                };
            }
            start = end;
        }
        unreachable!("offset < cycle implies a phase matches")
    }

    /// The spec of phase `idx` (see [`PhasedWorkload::phase_index_at`]).
    /// Phases are static, so callers on a hot path can compute each
    /// phase's spec once and index by phase instead of rebuilding it
    /// every quantum.
    pub fn spec_for_phase(&self, idx: usize) -> WorkloadSpec {
        let phase = &self.phases[idx];
        let mut spec = self.base.clone();
        spec.rpti *= phase.rpti_scale;
        let ws = (self.base.miss_curve.ws_bytes as f64 * phase.ws_scale).max(1.0) as u64;
        spec.miss_curve = mem_model::MissCurve::new(
            self.base.miss_curve.min_miss,
            self.base.miss_curve.max_miss,
            ws,
        );
        spec
    }

    /// The spec in effect at simulated time `t`.
    pub fn spec_at(&self, t: SimTime) -> WorkloadSpec {
        self.spec_for_phase(self.phase_index_at(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::npb;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn steady_never_changes() {
        let p = PhasedWorkload::steady(npb::lu());
        assert_eq!(p.spec_at(t(0)).rpti, p.spec_at(t(12_345)).rpti);
    }

    #[test]
    fn alternating_switches_at_half_period() {
        let p = PhasedWorkload::alternating(npb::lu(), SimDuration::from_secs(2));
        let heavy = p.spec_at(t(500));
        let light = p.spec_at(t(1_500));
        assert!(heavy.rpti > light.rpti * 3.0);
        assert!(heavy.miss_curve.ws_bytes > light.miss_curve.ws_bytes);
    }

    #[test]
    fn phases_wrap_around() {
        let p = PhasedWorkload::alternating(npb::lu(), SimDuration::from_secs(2));
        assert_eq!(p.spec_at(t(100)).rpti, p.spec_at(t(2_100)).rpti);
    }

    #[test]
    fn phase_spans_tile_time_and_agree_with_a_walk() {
        let phases = [3, 1, 5].map(|ms| Phase {
            duration: SimDuration::from_millis(ms),
            rpti_scale: 1.0,
            ws_scale: 1.0,
        });
        let p = PhasedWorkload::new(npb::lu(), phases.to_vec());
        // Walk phase by phase from time zero over several cycles: every
        // microsecond of each phase maps to that phase's span.
        let mut start = 0;
        for k in 0..4 * phases.len() {
            let index = k % phases.len();
            let end = start + phases[index].duration.as_micros();
            let want = PhaseSpan {
                index,
                start_us: start,
                end_us: end,
            };
            for us in [start, start + 1, (start + end) / 2, end - 1] {
                let at = SimTime::from_micros(us);
                assert_eq!(p.phase_span_at(at), want, "t = {us} us");
                assert_eq!(p.phase_index_at(at), index);
                assert!(want.contains(at));
            }
            assert!(!want.contains(SimTime::from_micros(end)));
            start = end;
        }
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_rejected() {
        PhasedWorkload::new(npb::lu(), vec![]);
    }
}
