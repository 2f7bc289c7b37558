//! The pluggable scheduling-policy interface.
//!
//! The hypervisor owns the mechanism (run queues, credits, migration); a
//! [`SchedPolicy`] supplies the two decisions the paper varies:
//!
//! 1. **work stealing** ([`SchedPolicy::steal`]) — invoked when a PCPU
//!    would otherwise idle or run only OVER-priority work (Xen's
//!    `csched_load_balance`); the stock Credit policy scans PCPUs in id
//!    order, vProbe's Algorithm 2 prefers the local node, heaviest queue,
//!    smallest LLC pressure;
//! 2. **periodic partitioning** ([`SchedPolicy::on_sample`]) — invoked at
//!    the end of each PMU sampling period with per-VCPU samples; vProbe's
//!    Algorithm 1 returns node assignments for the memory-intensive VCPUs.

use numa_topo::{NodeId, PcpuId, Topology, VcpuId, VmId};
use pmu::PmuSample;

/// What the machine knows about each VCPU when consulting a policy.
#[derive(Debug, Clone)]
pub struct VcpuView {
    pub id: VcpuId,
    pub vm: VmId,
}

/// Candidate VCPUs a stealing PCPU may take, per victim PCPU.
#[derive(Debug, Clone)]
pub struct StealContext<'a> {
    pub topo: &'a Topology,
    /// The PCPU looking for work.
    pub idle_pcpu: PcpuId,
    /// For every other PCPU, in id order: its `workload` counter and the
    /// stealable VCPUs in queue order. Hard constraints (priority
    /// threshold, node-assignment compatibility with the idle PCPU) are
    /// already filtered by the machine.
    pub victims: &'a [(PcpuId, usize, Vec<VcpuId>)],
    /// Last sampled LLC access pressure per VCPU (Eq. 2), indexed by VCPU
    /// id. Zero before the first sampling period.
    pub pressure: &'a [f64],
    /// True when the stealing PCPU has nothing runnable at all (it will
    /// idle unless the steal succeeds); false when it merely holds
    /// OVER-priority work and is looking for an upgrade. Algorithm 2
    /// reaches across nodes only in the former case ("to utilize available
    /// CPU resources").
    pub would_idle: bool,
}

/// Analyzer inputs delivered at the end of a sampling period.
#[derive(Debug, Clone)]
pub struct AnalyzerView<'a> {
    pub topo: &'a Topology,
    /// One sample per VCPU, indexed by VCPU id.
    pub samples: &'a [PmuSample],
    pub vcpus: &'a [VcpuView],
}

/// One partitioning decision: move the VCPU to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcpuAssignment {
    pub vcpu: VcpuId,
    pub node: NodeId,
}

/// A request to migrate part of a VCPU's working memory to a node (the
/// paper's §VI page-migration extension). The machine migrates up to
/// `max_bytes` of the guest range backing the VCPU's current thread and
/// charges the copy cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMigration {
    pub vcpu: VcpuId,
    pub to_node: NodeId,
    pub max_bytes: u64,
}

/// Health signals for the period just ended, delivered to the policy
/// before [`SchedPolicy::on_sample`] so degradation-aware policies can
/// gate their decisions on input quality.
#[derive(Debug, Clone)]
pub struct PeriodFeedback<'a> {
    /// Per-VCPU sample validity in `[0, 1]`, indexed by VCPU id: 1 for a
    /// clean sample, 0 for a lost one. (Intermediate values are reserved
    /// for partially multiplexed windows.)
    pub sample_validity: &'a [f64],
    /// Migrations requested last period that the machine failed to apply.
    pub failed_migrations: &'a [(VcpuId, NodeId)],
}

/// What a degradation-aware policy did this period, reported back through
/// [`PartitionPlan::report`] so the machine can record it in `RunMetrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradeReport {
    /// The policy skipped partitioning because sample validity fell below
    /// its confidence threshold.
    pub period_skipped: bool,
    /// The policy is running in plain-Credit fallback mode this period.
    pub fallback_active: bool,
    /// The policy entered fallback mode this period.
    pub fallback_entered: bool,
    /// Failed migrations re-requested this period after backoff.
    pub migration_retries: u32,
}

/// Provenance for one partitioning assignment: which rule placed the VCPU
/// and what the per-node alternatives looked like when it fired. Policies
/// fill these only in explain mode ([`SchedPolicy::set_explain`]); the
/// machine copies them into its decision log and they never influence the
/// schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionNote {
    pub vcpu: VcpuId,
    pub node: NodeId,
    /// Stable machine-readable rule name (e.g. "min-load-local-group").
    pub rule: &'static str,
    /// Candidate set at decision time: `(node index, load)` per node.
    pub candidates: Vec<(usize, u64)>,
}

/// The outcome of a policy's sampling-period pass.
#[derive(Debug, Clone, Default)]
pub struct PartitionPlan {
    pub assignments: Vec<VcpuAssignment>,
    /// Page-migration requests (§VI extension); empty for the paper's
    /// schedulers.
    pub page_migrations: Vec<PageMigration>,
    /// Degradation bookkeeping for this period (all-default for policies
    /// without degradation handling).
    pub report: DegradeReport,
    /// Per-assignment provenance, present only in explain mode and only
    /// for policies that produce it. Never affects plan application.
    pub notes: Vec<PartitionNote>,
}

impl PartitionPlan {
    pub fn none() -> Self {
        PartitionPlan::default()
    }
}

/// A scheduling policy. See module docs.
///
/// `Send` is required so a `Machine` (which boxes its policy) can be owned
/// by a fleet host that moves between worker threads; every policy here
/// holds only plain owned state, so the bound costs nothing.
pub trait SchedPolicy: Send {
    /// Human-readable policy name ("credit", "vprobe", "brm", …).
    fn name(&self) -> &str;

    /// End-of-period analysis; return node (re)assignments. The machine
    /// applies them, migrating VCPUs as needed and charging each migration
    /// to the overhead budget.
    fn on_sample(&mut self, view: AnalyzerView<'_>) -> PartitionPlan;

    /// Choose a VCPU to steal for `ctx.idle_pcpu`, or `None` to let the
    /// PCPU run what it has (or idle).
    fn steal(&mut self, ctx: StealContext<'_>) -> Option<(PcpuId, VcpuId)>;

    /// Health signals for the period just ended, delivered immediately
    /// before [`SchedPolicy::on_sample`]. The default ignores them — the
    /// paper's schedulers trust their inputs unconditionally.
    fn on_period_feedback(&mut self, _fb: &PeriodFeedback<'_>) {}

    /// Whether the policy consumes PMU data (controls whether sampling
    /// overhead is charged — the stock Credit scheduler reads no counters).
    fn uses_pmu(&self) -> bool {
        true
    }

    /// Serialization cost of one load-balance decision, in microseconds,
    /// as a function of the number of runnable VCPUs. BRM's global
    /// uncore-penalty lock makes this grow with contention; everything
    /// else is effectively free.
    fn decision_overhead_us(&self, _runnable_vcpus: usize) -> f64 {
        0.0
    }

    /// Serialization cost charged at every per-PCPU counter-update tick,
    /// in microseconds. BRM updates each VCPU's uncore penalty under one
    /// system-wide lock, so every tick waits behind the other runnable
    /// VCPUs' updates; vProbe's per-VCPU state needs no such lock.
    fn tick_overhead_us(&self, _runnable_vcpus: usize) -> f64 {
        0.0
    }

    /// Toggle explain mode: when on, the policy fills
    /// [`PartitionPlan::notes`] and answers [`SchedPolicy::explain_steal`]
    /// with the specific rule that fired. Explain mode must never change
    /// any decision — the machine enables it together with its provenance
    /// log and the byte-identity tests pin the invariant. The default
    /// ignores the toggle (policies without provenance support).
    fn set_explain(&mut self, _on: bool) {}

    /// Name the rule that produced `choice` for this steal context. Called
    /// by the machine only when provenance recording is enabled, after
    /// [`SchedPolicy::steal`] returned. The default covers policies that
    /// don't decompose their choice.
    fn explain_steal(
        &self,
        _ctx: &StealContext<'_>,
        _choice: &Option<(PcpuId, VcpuId)>,
    ) -> &'static str {
        "policy-default"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_plan_none_is_empty() {
        assert!(PartitionPlan::none().assignments.is_empty());
    }

    #[test]
    fn default_trait_methods() {
        struct Noop;
        impl SchedPolicy for Noop {
            fn name(&self) -> &str {
                "noop"
            }
            fn on_sample(&mut self, _: AnalyzerView<'_>) -> PartitionPlan {
                PartitionPlan::none()
            }
            fn steal(&mut self, _: StealContext<'_>) -> Option<(PcpuId, VcpuId)> {
                None
            }
        }
        let p = Noop;
        assert!(p.uses_pmu());
        assert_eq!(p.decision_overhead_us(100), 0.0);
    }
}
