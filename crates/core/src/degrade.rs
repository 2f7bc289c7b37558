//! Graceful degradation under unreliable PMU data and flaky migrations.
//!
//! The paper's vProbe trusts its analyzer inputs unconditionally; this
//! module adds the defensive layer a production scheduler needs when the
//! counter pipeline loses samples or the hypervisor fails migrations:
//!
//! * **confidence gating** — a period whose mean sample validity falls
//!   below a threshold is skipped outright, and individual VCPUs with
//!   invalid samples are dampened (excluded from partitioning, their
//!   existing pins left untouched) even in accepted periods;
//! * **Credit fallback** — after N consecutive low-validity periods the
//!   policy stops partitioning and steals like stock Credit until the PMU
//!   stream recovers;
//! * **bounded retry with backoff** — migrations the machine reports as
//!   failed are re-requested after an exponentially growing number of
//!   periods, up to a retry cap.
//!
//! [`DegradeState`] is pure bookkeeping driven by
//! [`xen_sim::PeriodFeedback`]; it draws no randomness, so a policy with
//! degradation enabled stays bit-deterministic.

use numa_topo::{NodeId, VcpuId};
use xen_sim::PeriodFeedback;

/// Tunables for the degradation layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeConfig {
    /// Minimum mean sample validity for a period to be acted on; also the
    /// per-VCPU validity cutoff for dampening.
    pub validity_threshold: f64,
    /// Consecutive below-threshold periods before falling back to plain
    /// Credit behaviour.
    pub dark_periods_to_fallback: u32,
    /// Retry attempts per failed migration before giving up.
    pub max_retries: u32,
    /// Backoff before the first retry, in sampling periods; doubles with
    /// every further attempt.
    pub backoff_periods: u32,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        DegradeConfig {
            validity_threshold: 0.5,
            dark_periods_to_fallback: 3,
            max_retries: 3,
            backoff_periods: 1,
        }
    }
}

#[derive(Debug, Clone)]
struct RetryEntry {
    vcpu: VcpuId,
    node: NodeId,
    attempts: u32,
    /// Period number at which the next attempt is due.
    due: u64,
    /// True while a retry has been issued and its outcome is unknown.
    in_flight: bool,
}

/// Degradation bookkeeping fed by per-period health signals.
#[derive(Debug, Clone)]
pub struct DegradeState {
    cfg: DegradeConfig,
    /// Periods observed so far (the retry clock).
    period: u64,
    dark_streak: u32,
    in_fallback: bool,
    entered_this_period: bool,
    mean_validity: f64,
    validity: Vec<f64>,
    retries: Vec<RetryEntry>,
}

impl DegradeState {
    pub fn new(cfg: DegradeConfig) -> Self {
        DegradeState {
            cfg,
            period: 0,
            dark_streak: 0,
            in_fallback: false,
            entered_this_period: false,
            mean_validity: 1.0,
            validity: Vec::new(),
            retries: Vec::new(),
        }
    }

    pub fn config(&self) -> &DegradeConfig {
        &self.cfg
    }

    /// Currently degraded to plain-Credit behaviour?
    pub fn in_fallback(&self) -> bool {
        self.in_fallback
    }

    /// Did this period's feedback trigger the fallback transition?
    pub fn entered_this_period(&self) -> bool {
        self.entered_this_period
    }

    /// Mean sample validity of the period just ended (1.0 before the
    /// first feedback).
    pub fn mean_validity(&self) -> f64 {
        self.mean_validity
    }

    /// Should this period's analysis be skipped entirely?
    pub fn period_invalid(&self) -> bool {
        self.mean_validity < self.cfg.validity_threshold
    }

    /// Is this VCPU's latest sample trustworthy? (Unknown VCPUs are
    /// trusted — degradation must never disable a policy by default.)
    pub fn vcpu_valid(&self, vcpu: usize) -> bool {
        self.validity
            .get(vcpu)
            .is_none_or(|&v| v >= self.cfg.validity_threshold)
    }

    /// Ingest one period's health signals: update validity and the
    /// fallback state machine, then fold failed migrations into the retry
    /// ledger (success removes an in-flight entry, failure re-arms it
    /// with doubled backoff, exhaustion drops it).
    pub fn on_feedback(&mut self, fb: &PeriodFeedback<'_>) {
        self.period += 1;
        self.validity.clear();
        self.validity.extend_from_slice(fb.sample_validity);
        self.mean_validity = if self.validity.is_empty() {
            1.0
        } else {
            self.validity.iter().sum::<f64>() / self.validity.len() as f64
        };

        self.entered_this_period = false;
        if self.period_invalid() {
            self.dark_streak += 1;
            if !self.in_fallback && self.dark_streak >= self.cfg.dark_periods_to_fallback {
                self.in_fallback = true;
                self.entered_this_period = true;
            }
        } else {
            self.dark_streak = 0;
            self.in_fallback = false;
        }

        // In-flight retries that did not fail again succeeded.
        let failed = fb.failed_migrations;
        self.retries
            .retain(|e| !e.in_flight || failed.iter().any(|&(v, _)| v == e.vcpu));
        let period = self.period;
        let max_retries = self.cfg.max_retries;
        let backoff_base = self.cfg.backoff_periods;
        let backoff = |attempts: u32| u64::from(backoff_base) << (attempts - 1).min(16);
        for &(vcpu, node) in failed {
            match self.retries.iter_mut().find(|e| e.vcpu == vcpu) {
                Some(e) => {
                    e.attempts += 1;
                    e.in_flight = false;
                    if e.attempts > max_retries {
                        self.retries.retain(|x| x.vcpu != vcpu);
                    } else {
                        e.node = node;
                        e.due = period + backoff(e.attempts);
                    }
                }
                None => {
                    let due = period + backoff(1);
                    self.retries.push(RetryEntry {
                        vcpu,
                        node,
                        attempts: 1,
                        due,
                        in_flight: false,
                    });
                }
            }
        }
    }

    /// Retries whose backoff has elapsed; each is marked in-flight until
    /// the next feedback resolves it.
    pub fn take_due_retries(&mut self) -> Vec<(VcpuId, NodeId)> {
        let period = self.period;
        self.retries
            .iter_mut()
            .filter(|e| !e.in_flight && e.due <= period)
            .map(|e| {
                e.in_flight = true;
                (e.vcpu, e.node)
            })
            .collect()
    }

    /// Failed migrations currently awaiting a retry.
    pub fn pending_retries(&self) -> usize {
        self.retries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feedback(state: &mut DegradeState, validity: &[f64], failed: &[(VcpuId, NodeId)]) {
        state.on_feedback(&PeriodFeedback {
            sample_validity: validity,
            failed_migrations: failed,
        });
    }

    #[test]
    fn clean_periods_never_degrade() {
        let mut d = DegradeState::new(DegradeConfig::default());
        for _ in 0..10 {
            feedback(&mut d, &[1.0, 1.0, 1.0], &[]);
            assert!(!d.period_invalid());
            assert!(!d.in_fallback());
            assert!(d.vcpu_valid(0));
        }
        assert_eq!(d.pending_retries(), 0);
    }

    #[test]
    fn low_validity_skips_then_falls_back() {
        let mut d = DegradeState::new(DegradeConfig::default());
        feedback(&mut d, &[0.0, 0.0], &[]);
        assert!(d.period_invalid(), "first dark period is skipped");
        assert!(!d.in_fallback(), "one dark period is not an outage");
        feedback(&mut d, &[0.0, 0.0], &[]);
        assert!(!d.in_fallback());
        feedback(&mut d, &[0.0, 0.0], &[]);
        assert!(d.in_fallback(), "third consecutive dark period");
        assert!(d.entered_this_period());
        feedback(&mut d, &[0.0, 0.0], &[]);
        assert!(d.in_fallback());
        assert!(!d.entered_this_period(), "entry flag is one-shot");
        // Stream recovers: fallback exits immediately.
        feedback(&mut d, &[1.0, 1.0], &[]);
        assert!(!d.in_fallback());
        assert!(!d.period_invalid());
    }

    #[test]
    fn per_vcpu_dampening_tracks_validity() {
        let mut d = DegradeState::new(DegradeConfig::default());
        feedback(&mut d, &[1.0, 0.0, 1.0], &[]);
        assert!(!d.period_invalid(), "2/3 valid is above threshold");
        assert!(d.vcpu_valid(0));
        assert!(!d.vcpu_valid(1));
        assert!(d.vcpu_valid(2));
        assert!(d.vcpu_valid(99), "unknown VCPUs are trusted");
    }

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let cfg = DegradeConfig {
            max_retries: 3,
            backoff_periods: 1,
            ..DegradeConfig::default()
        };
        let mut d = DegradeState::new(cfg);
        let vcpu = VcpuId::new(4);
        let node = NodeId::new(1);

        // Attempt 1: fails at period 1, due at period 2.
        feedback(&mut d, &[1.0], &[(vcpu, node)]);
        assert_eq!(d.pending_retries(), 1);
        assert!(d.take_due_retries().is_empty(), "backoff not yet elapsed");
        feedback(&mut d, &[1.0], &[]);
        assert_eq!(d.take_due_retries(), vec![(vcpu, node)]);

        // The retry fails again: attempt 2, backoff doubles to 2 periods.
        feedback(&mut d, &[1.0], &[(vcpu, node)]);
        feedback(&mut d, &[1.0], &[]);
        assert!(d.take_due_retries().is_empty());
        feedback(&mut d, &[1.0], &[]);
        assert_eq!(d.take_due_retries(), vec![(vcpu, node)]);

        // Fails a third time (attempt 3), then a fourth failure exhausts
        // the cap and the entry is dropped.
        feedback(&mut d, &[1.0], &[(vcpu, node)]);
        assert_eq!(d.pending_retries(), 1);
        for _ in 0..4 {
            feedback(&mut d, &[1.0], &[]);
        }
        assert_eq!(d.take_due_retries(), vec![(vcpu, node)]);
        feedback(&mut d, &[1.0], &[(vcpu, node)]);
        assert_eq!(d.pending_retries(), 0, "retry budget exhausted");
    }

    #[test]
    fn successful_retry_clears_the_entry() {
        let mut d = DegradeState::new(DegradeConfig::default());
        let vcpu = VcpuId::new(2);
        let node = NodeId::new(0);
        feedback(&mut d, &[1.0], &[(vcpu, node)]);
        feedback(&mut d, &[1.0], &[]);
        assert_eq!(d.take_due_retries(), vec![(vcpu, node)]);
        // Next feedback reports no failure: the in-flight retry landed.
        feedback(&mut d, &[1.0], &[]);
        assert_eq!(d.pending_retries(), 0);
        assert!(d.take_due_retries().is_empty());
    }

    #[test]
    fn empty_validity_means_trusted() {
        let mut d = DegradeState::new(DegradeConfig::default());
        feedback(&mut d, &[], &[]);
        assert_eq!(d.mean_validity(), 1.0);
        assert!(!d.period_invalid());
    }

    #[test]
    fn validity_exactly_at_threshold_is_trusted() {
        // The gate is strict `<`: a period sitting exactly on the
        // threshold is acted on, and a VCPU exactly at the threshold is
        // not dampened. The boundary must not flap.
        let cfg = DegradeConfig::default();
        let mut d = DegradeState::new(cfg);
        feedback(
            &mut d,
            &[cfg.validity_threshold, cfg.validity_threshold],
            &[],
        );
        assert_eq!(d.mean_validity(), cfg.validity_threshold);
        assert!(!d.period_invalid());
        assert!(d.vcpu_valid(0));
        // Nudge one sample below: that VCPU is dampened but the period
        // mean may still pass.
        feedback(&mut d, &[cfg.validity_threshold - 1e-9, 1.0], &[]);
        assert!(!d.vcpu_valid(0));
        assert!(d.vcpu_valid(1));
        assert!(!d.period_invalid());
    }

    #[test]
    fn interrupted_dark_streak_never_falls_back() {
        // dark_periods_to_fallback - 1 dark periods, one clean period,
        // then more darkness: the streak restarts from zero, so fallback
        // needs the full consecutive run again.
        let cfg = DegradeConfig::default();
        assert_eq!(cfg.dark_periods_to_fallback, 3);
        let mut d = DegradeState::new(cfg);
        feedback(&mut d, &[0.0], &[]);
        feedback(&mut d, &[0.0], &[]);
        assert!(!d.in_fallback(), "streak of 2 is below the bar");
        feedback(&mut d, &[1.0], &[]);
        assert!(!d.in_fallback());
        feedback(&mut d, &[0.0], &[]);
        feedback(&mut d, &[0.0], &[]);
        assert!(!d.in_fallback(), "clean period reset the streak");
        feedback(&mut d, &[0.0], &[]);
        assert!(d.in_fallback(), "third consecutive dark period after reset");
    }

    #[test]
    fn recovery_immediately_followed_by_new_outage_restarts_hysteresis() {
        let cfg = DegradeConfig::default();
        let mut d = DegradeState::new(cfg);
        for _ in 0..3 {
            feedback(&mut d, &[0.0], &[]);
        }
        assert!(d.in_fallback());
        // One good period exits fallback...
        feedback(&mut d, &[1.0], &[]);
        assert!(!d.in_fallback());
        // ...and the very next dark period must NOT re-enter instantly:
        // the streak counter restarted, so the outage has to prove itself
        // again before partitioning is surrendered.
        feedback(&mut d, &[0.0], &[]);
        assert!(
            d.period_invalid(),
            "the dark period itself is still skipped"
        );
        assert!(!d.in_fallback());
        feedback(&mut d, &[0.0], &[]);
        assert!(!d.in_fallback());
        feedback(&mut d, &[0.0], &[]);
        assert!(d.in_fallback());
        assert!(
            d.entered_this_period(),
            "fresh transition, fresh entry flag"
        );
    }

    #[test]
    fn exhausted_vcpu_can_open_a_fresh_retry_ledger() {
        // Burn through the whole retry budget for one VCPU, then report a
        // brand-new failure for it: the old exhausted state must not leak
        // into the new fault — it gets a full budget again.
        let cfg = DegradeConfig {
            max_retries: 1,
            backoff_periods: 1,
            ..DegradeConfig::default()
        };
        let mut d = DegradeState::new(cfg);
        let vcpu = VcpuId::new(0);
        let node = NodeId::new(1);
        feedback(&mut d, &[1.0], &[(vcpu, node)]);
        feedback(&mut d, &[1.0], &[]);
        assert_eq!(d.take_due_retries(), vec![(vcpu, node)]);
        // The single allowed retry fails: entry dropped.
        feedback(&mut d, &[1.0], &[(vcpu, node)]);
        assert_eq!(d.pending_retries(), 0, "budget exhausted");
        // A new failure (e.g. after fleet-level churn re-pinned the VCPU)
        // opens a fresh entry with a fresh budget.
        let node2 = NodeId::new(0);
        feedback(&mut d, &[1.0], &[(vcpu, node2)]);
        assert_eq!(d.pending_retries(), 1);
        feedback(&mut d, &[1.0], &[]);
        assert_eq!(d.take_due_retries(), vec![(vcpu, node2)]);
    }

    #[test]
    fn fallback_exit_does_not_disturb_pending_retries() {
        // A migration failure recorded before an outage survives the
        // fallback round-trip and still fires once its backoff elapses.
        let mut d = DegradeState::new(DegradeConfig::default());
        let vcpu = VcpuId::new(3);
        let node = NodeId::new(1);
        feedback(&mut d, &[1.0], &[(vcpu, node)]);
        assert_eq!(d.pending_retries(), 1);
        for _ in 0..3 {
            feedback(&mut d, &[0.0], &[]);
        }
        assert!(d.in_fallback());
        assert_eq!(d.pending_retries(), 1, "outage does not drop the ledger");
        feedback(&mut d, &[1.0], &[]);
        assert!(!d.in_fallback());
        assert_eq!(d.take_due_retries(), vec![(vcpu, node)]);
    }
}
