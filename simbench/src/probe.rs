//! A forwarding [`SchedPolicy`] wrapper that times the policy's two
//! decision hooks for the traced run.
//!
//! Every trait method is forwarded, including the ones with default
//! bodies: a wrapper that fell back to a default would silently change
//! overhead accounting (`uses_pmu`, `decision_overhead_us`,
//! `tick_overhead_us`), degradation input (`on_period_feedback`) or the
//! provenance rule names (`set_explain`, `explain_steal`). The traced and
//! untraced output fingerprints must match, which the benchmark checks.

use numa_topo::{PcpuId, VcpuId};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use xen_sim::policy::{AnalyzerView, PartitionPlan, PeriodFeedback, StealContext};
use xen_sim::SchedPolicy;

/// What the wrapper observed since the benchmark last drained it.
#[derive(Debug, Default)]
pub struct PolicyProbe {
    pub steal_calls: u64,
    /// Steals that returned a choice.
    pub steal_hits: u64,
    pub steal_ns: u64,
    /// Start and end of every `on_sample` call.
    pub on_sample: Vec<(Instant, Instant)>,
}

pub type SharedProbe = Arc<Mutex<PolicyProbe>>;

fn lock(probe: &SharedProbe) -> std::sync::MutexGuard<'_, PolicyProbe> {
    probe
        .lock()
        .expect("policy probe poisoned by a panic in a policy hook")
}

/// Take everything recorded so far, leaving the probe empty.
pub fn drain(probe: &SharedProbe) -> PolicyProbe {
    std::mem::take(&mut *lock(probe))
}

pub struct Probed {
    inner: Box<dyn SchedPolicy>,
    probe: SharedProbe,
}

impl Probed {
    pub fn wrap(inner: Box<dyn SchedPolicy>, probe: SharedProbe) -> Box<dyn SchedPolicy> {
        Box::new(Probed { inner, probe })
    }
}

impl SchedPolicy for Probed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_sample(&mut self, view: AnalyzerView<'_>) -> PartitionPlan {
        let start = Instant::now();
        let plan = self.inner.on_sample(view);
        lock(&self.probe).on_sample.push((start, Instant::now()));
        plan
    }

    fn steal(&mut self, ctx: StealContext<'_>) -> Option<(PcpuId, VcpuId)> {
        let start = Instant::now();
        let choice = self.inner.steal(ctx);
        let ns = start.elapsed().as_nanos() as u64;
        let mut p = lock(&self.probe);
        p.steal_calls += 1;
        p.steal_hits += u64::from(choice.is_some());
        p.steal_ns += ns;
        choice
    }

    fn on_period_feedback(&mut self, fb: &PeriodFeedback<'_>) {
        self.inner.on_period_feedback(fb)
    }

    fn uses_pmu(&self) -> bool {
        self.inner.uses_pmu()
    }

    fn decision_overhead_us(&self, runnable_vcpus: usize) -> f64 {
        self.inner.decision_overhead_us(runnable_vcpus)
    }

    fn tick_overhead_us(&self, runnable_vcpus: usize) -> f64 {
        self.inner.tick_overhead_us(runnable_vcpus)
    }

    fn set_explain(&mut self, on: bool) {
        self.inner.set_explain(on)
    }

    fn explain_steal(
        &self,
        ctx: &StealContext<'_>,
        choice: &Option<(PcpuId, VcpuId)>,
    ) -> &'static str {
        self.inner.explain_steal(ctx, choice)
    }
}
