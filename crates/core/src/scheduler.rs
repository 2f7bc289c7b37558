//! The composed vProbe policy (and its single-mechanism variants).

use crate::analyzer::PmuDataAnalyzer;
use crate::balance::numa_aware_steal;
use crate::bounds::{Bounds, DynamicBounds};
use crate::degrade::{DegradeConfig, DegradeState};
use crate::partition::{partition_vcpus_explained, PartitionInput};
use numa_topo::{PcpuId, VcpuId};
use xen_sim::{
    AnalyzerView, DegradeReport, PageMigration, PartitionNote, PartitionPlan, PeriodFeedback,
    SchedPolicy, StealContext, VcpuAssignment,
};

/// vProbe: PMU data analyzer + VCPU periodical partitioning + NUMA-aware
/// load balance. Disabling one mechanism yields the paper's ablation
/// baselines VCPU-P and LB (see [`crate::variants`]).
pub struct VProbePolicy {
    analyzer: PmuDataAnalyzer,
    num_nodes: usize,
    partition_enabled: bool,
    numa_lb_enabled: bool,
    dynamic_bounds: Option<DynamicBounds>,
    /// §VI extension: per-period per-VCPU page-migration budget in bytes.
    page_migration_budget: Option<u64>,
    /// Graceful-degradation layer (confidence gating, Credit fallback,
    /// migration retries); `None` reproduces the paper's trusting vProbe.
    degrade: Option<DegradeState>,
    /// Explain mode: fill [`PartitionPlan::notes`] and answer
    /// [`SchedPolicy::explain_steal`]. Never alters any decision.
    explain: bool,
    name: String,
}

impl VProbePolicy {
    /// Full vProbe with static bounds.
    pub fn new(num_nodes: usize, bounds: Bounds) -> Self {
        assert!(num_nodes > 0, "need at least one node");
        VProbePolicy {
            analyzer: PmuDataAnalyzer::new(bounds),
            num_nodes,
            partition_enabled: true,
            numa_lb_enabled: true,
            dynamic_bounds: None,
            page_migration_budget: None,
            degrade: None,
            explain: false,
            name: "vprobe".into(),
        }
    }

    pub(crate) fn with_mechanisms(
        num_nodes: usize,
        bounds: Bounds,
        partition: bool,
        numa_lb: bool,
        name: &str,
    ) -> Self {
        let mut p = VProbePolicy::new(num_nodes, bounds);
        p.partition_enabled = partition;
        p.numa_lb_enabled = numa_lb;
        p.name = name.into();
        p
    }

    /// Enable the §VI future-work page-migration extension: at each
    /// period, up to `bytes_per_period` of a misplaced memory-intensive
    /// VCPU's working memory is migrated toward its assigned node, so
    /// VCPUs that *must* run away from their memory (for LLC balance)
    /// gradually become local anyway.
    pub fn with_page_migration(mut self, bytes_per_period: u64) -> Self {
        self.page_migration_budget = Some(bytes_per_period);
        self.name = format!("{}-pm", self.name);
        self
    }

    /// Enable the §VI future-work dynamic-bounds extension.
    pub fn with_dynamic_bounds(mut self) -> Self {
        self.dynamic_bounds = Some(DynamicBounds::new(self.analyzer.bounds()));
        self.name = format!("{}-dyn", self.name);
        self
    }

    /// Enable graceful degradation: confidence-gated partitioning, plain
    /// Credit fallback after consecutive dark periods, and bounded
    /// retry-with-backoff for failed migrations.
    pub fn with_degradation(mut self, cfg: DegradeConfig) -> Self {
        self.degrade = Some(DegradeState::new(cfg));
        self.name = format!("{}-gd", self.name);
        self
    }

    pub fn bounds(&self) -> Bounds {
        self.analyzer.bounds()
    }
}

impl SchedPolicy for VProbePolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_sample(&mut self, view: AnalyzerView<'_>) -> PartitionPlan {
        // Degradation gates: a dark PMU stream drops us to plain Credit,
        // and a low-confidence period is skipped rather than acted on —
        // partitioning on lost samples would scatter VCPUs at random.
        let mut report = DegradeReport::default();
        if let Some(d) = &self.degrade {
            if d.in_fallback() {
                report.fallback_active = true;
                report.fallback_entered = d.entered_this_period();
                return PartitionPlan {
                    report,
                    ..PartitionPlan::default()
                };
            }
            if d.period_invalid() {
                report.period_skipped = true;
                return PartitionPlan {
                    report,
                    ..PartitionPlan::default()
                };
            }
        }
        let metas = self.analyzer.analyze(view.samples);
        if let Some(dyn_bounds) = &mut self.dynamic_bounds {
            let pressures: Vec<f64> = metas.iter().map(|m| m.pressure).collect();
            let updated = dyn_bounds.observe(&pressures);
            self.analyzer.set_bounds(updated);
        }
        if !self.partition_enabled {
            return PartitionPlan::none();
        }
        // Memory-intensive VCPUs go through Algorithm 1; friendly ones are
        // left to the default balancer. Dampening: VCPUs whose sample this
        // period is invalid are left wherever they are, not partitioned on
        // the strength of bad data.
        let vcpu_valid =
            |i: usize| -> bool { self.degrade.as_ref().is_none_or(|d| d.vcpu_valid(i)) };
        let inputs: Vec<PartitionInput> = metas
            .iter()
            .enumerate()
            .filter(|(i, m)| m.vcpu_type.is_memory_intensive() && vcpu_valid(*i))
            .map(|(i, m)| PartitionInput {
                vcpu: VcpuId::new(i as u32),
                vcpu_type: m.vcpu_type,
                affinity: m.affinity,
            })
            .collect();
        let (placed, mut notes) = partition_vcpus_explained(&inputs, self.num_nodes, self.explain);
        // §VI extension: when a memory-intensive VCPU is assigned a node
        // other than its memory's, move its pages toward the assignment
        // instead of leaving it remote forever.
        let mut page_migrations = Vec::new();
        if let Some(budget) = self.page_migration_budget {
            for &(vcpu, node) in &placed {
                let affinity = metas[vcpu.index()].affinity;
                if affinity.is_some() && affinity != Some(node) {
                    page_migrations.push(PageMigration {
                        vcpu,
                        to_node: node,
                        max_bytes: budget,
                    });
                }
            }
        }
        let mut assignments: Vec<VcpuAssignment> = placed
            .into_iter()
            .map(|(vcpu, node)| VcpuAssignment { vcpu, node })
            .collect();
        // Re-request failed migrations whose backoff has elapsed, unless
        // this period's partitioning already re-placed the VCPU.
        if let Some(d) = &mut self.degrade {
            for (vcpu, node) in d.take_due_retries() {
                if !assignments.iter().any(|a| a.vcpu == vcpu) {
                    assignments.push(VcpuAssignment { vcpu, node });
                    if self.explain {
                        notes.push(PartitionNote {
                            vcpu,
                            node,
                            rule: "retry-after-backoff",
                            candidates: Vec::new(),
                        });
                    }
                }
                report.migration_retries += 1;
            }
        }
        // The paper's partitioning is a one-shot migration (soft): its
        // persistence across the period depends on the load-balance side
        // not dragging memory-intensive VCPUs back across nodes — exactly
        // the interplay the VCPU-P/LB ablation exposes.
        PartitionPlan {
            assignments,
            page_migrations,
            report,
            notes,
        }
    }

    fn steal(&mut self, ctx: StealContext<'_>) -> Option<(PcpuId, VcpuId)> {
        // In fallback the NUMA-aware policy is suspended too: its inputs
        // (per-VCPU pressures) come from the same dark PMU stream.
        let fallback = self.degrade.as_ref().is_some_and(DegradeState::in_fallback);
        if self.numa_lb_enabled && !fallback {
            numa_aware_steal(&ctx)
        } else {
            // Stock Credit behaviour: first candidate in PCPU id order.
            for (pcpu, _, candidates) in ctx.victims {
                if let Some(&vcpu) = candidates.first() {
                    return Some((*pcpu, vcpu));
                }
            }
            None
        }
    }

    fn on_period_feedback(&mut self, fb: &PeriodFeedback<'_>) {
        if let Some(d) = &mut self.degrade {
            d.on_feedback(fb);
        }
    }

    fn uses_pmu(&self) -> bool {
        true
    }

    fn set_explain(&mut self, on: bool) {
        self.explain = on;
    }

    fn explain_steal(
        &self,
        ctx: &StealContext<'_>,
        choice: &Option<(PcpuId, VcpuId)>,
    ) -> &'static str {
        let fallback = self.degrade.as_ref().is_some_and(DegradeState::in_fallback);
        if !self.numa_lb_enabled || fallback {
            // Stock Credit path: first candidate in PCPU id order won.
            return "credit-first-fit";
        }
        match choice {
            None => "no-candidates",
            Some((victim, _)) => {
                let thief_node = ctx.topo.node_of_pcpu(ctx.idle_pcpu);
                if ctx.topo.node_of_pcpu(*victim) == thief_node {
                    // Algorithm 2 stage 1: heaviest local queue, then the
                    // VCPU with the smallest LLC pressure.
                    "local-heaviest-min-pressure"
                } else {
                    // Stage 2: only reached when the PCPU would otherwise
                    // idle; nearest remote node by distance.
                    "remote-would-idle"
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topo::{presets, NodeId};
    use pmu::PmuSample;
    use xen_sim::VcpuView;

    fn sample(instr: u64, refs: u64, node_accesses: Vec<u64>) -> PmuSample {
        let local = node_accesses.first().copied().unwrap_or(0);
        let remote: u64 = node_accesses.iter().skip(1).sum();
        PmuSample {
            instructions: instr,
            llc_refs: refs,
            llc_misses: refs / 2,
            local_accesses: local,
            remote_accesses: remote,
            node_accesses,
        }
    }

    fn views(n: usize) -> Vec<VcpuView> {
        (0..n)
            .map(|i| VcpuView {
                id: VcpuId::new(i as u32),
                vm: numa_topo::VmId::new(0),
            })
            .collect()
    }

    #[test]
    fn partitioning_pins_memory_intensive_vcpus() {
        let topo = presets::xeon_e5620();
        let mut p = VProbePolicy::new(2, Bounds::default());
        // vcpu0: thrashing, affinity node1; vcpu1: friendly; vcpu2:
        // fitting, affinity node0.
        let samples = vec![
            sample(1_000_000, 25_000, vec![100, 900]),
            sample(1_000_000, 500, vec![10, 0]),
            sample(1_000_000, 15_000, vec![800, 200]),
        ];
        let vs = views(3);
        let plan = p.on_sample(AnalyzerView {
            topo: &topo,
            samples: &samples,
            vcpus: &vs,
        });
        let a: std::collections::HashMap<u32, NodeId> = plan
            .assignments
            .iter()
            .map(|x| (x.vcpu.raw(), x.node))
            .collect();
        assert_eq!(a[&0], NodeId::new(1), "thrasher to its affinity node");
        assert_eq!(a[&2], NodeId::new(0), "fitting vcpu to its affinity node");
        assert!(!a.contains_key(&1), "friendly vcpu untouched");
    }

    /// Admin pins outrank partitioning, so vProbe neither moves a pinned
    /// VCPU nor logs a partition decision for one.
    #[test]
    fn pinned_friendly_vm_gets_no_partition_record() {
        use mem_model::AllocPolicy;
        use sim_core::SimDuration;
        use workloads::speccpu;
        use xen_sim::provenance::Decision;
        use xen_sim::{MachineBuilder, VmConfig};
        const GB: u64 = 1 << 30;
        let mut pinned = VmConfig::new(
            "pinned",
            2,
            GB,
            AllocPolicy::OnNode(NodeId::new(1)),
            vec![speccpu::povray(); 2],
        );
        pinned.pin_node = Some(NodeId::new(1));
        let mut m = MachineBuilder::new(presets::xeon_e5620())
            .policy(Box::new(VProbePolicy::new(2, Bounds::default())))
            .add_vm(pinned)
            .add_vm(VmConfig::new(
                "busy",
                8,
                4 * GB,
                AllocPolicy::SplitEven,
                vec![speccpu::soplex(); 8],
            ))
            .build()
            .unwrap();
        m.enable_provenance(1_000_000);
        m.run(SimDuration::from_secs(5));
        m.check_invariants().unwrap();
        let partitioned: Vec<VcpuId> = m
            .provenance()
            .iter()
            .filter_map(|r| match r.decision {
                Decision::Partition { vcpu, .. } => Some(vcpu),
                _ => None,
            })
            .collect();
        assert!(!partitioned.is_empty(), "vProbe partitions the busy VM");
        assert!(
            partitioned.iter().all(|v| v.index() >= 2),
            "no partition record for the pinned VCPUs 0 and 1: {partitioned:?}"
        );
        // The pinned VCPUs ran, entirely on node 1, next to their memory.
        let vm0 = &m.metrics().per_vm[0];
        assert!(vm0.instructions > 0);
        assert_eq!(vm0.remote_accesses, 0, "pinned VCPUs stayed on node 1");
    }

    #[test]
    fn vcpu_p_variant_partitions_but_steals_like_credit() {
        let topo = presets::xeon_e5620();
        let mut p = crate::variants::vcpu_p(2, Bounds::default());
        assert_eq!(p.name(), "vcpu-p");
        // Steal picks the first candidate in PCPU order (Credit style),
        // ignoring pressure.
        let victims = vec![
            (PcpuId::new(1), 2, vec![VcpuId::new(5)]),
            (PcpuId::new(6), 9, vec![VcpuId::new(6)]),
        ];
        let mut pressure = vec![0.0; 8];
        pressure[5] = 100.0;
        let got = p.steal(StealContext {
            topo: &topo,
            idle_pcpu: PcpuId::new(7),
            victims: &victims,
            pressure: &pressure,
            would_idle: true,
        });
        assert_eq!(got, Some((PcpuId::new(1), VcpuId::new(5))));
    }

    #[test]
    fn lb_variant_never_partitions() {
        let topo = presets::xeon_e5620();
        let mut p = crate::variants::lb_only(2, Bounds::default());
        assert_eq!(p.name(), "lb");
        let samples = vec![sample(1_000_000, 25_000, vec![0, 100])];
        let vs = views(1);
        let plan = p.on_sample(AnalyzerView {
            topo: &topo,
            samples: &samples,
            vcpus: &vs,
        });
        assert!(plan.assignments.is_empty());
    }

    #[test]
    fn full_vprobe_steals_numa_aware() {
        let topo = presets::xeon_e5620();
        let mut p = crate::variants::vprobe(2, Bounds::default());
        assert_eq!(p.name(), "vprobe");
        // Local node (idle PCPU 0 = node0) candidate on PCPU 3 must win
        // over an earlier-id remote victim.
        let victims = vec![
            (PcpuId::new(5), 9, vec![VcpuId::new(1)]),
            (PcpuId::new(3), 2, vec![VcpuId::new(2)]),
        ];
        let pressure = vec![0.0; 8];
        let got = p.steal(StealContext {
            topo: &topo,
            idle_pcpu: PcpuId::new(0),
            victims: &victims,
            pressure: &pressure,
            would_idle: true,
        });
        assert_eq!(got, Some((PcpuId::new(3), VcpuId::new(2))));
    }

    #[test]
    fn dynamic_bounds_variant_adapts() {
        let topo = presets::xeon_e5620();
        let mut p = VProbePolicy::new(2, Bounds::default()).with_dynamic_bounds();
        assert_eq!(p.name(), "vprobe-dyn");
        let before = p.bounds();
        // Feed several periods of uniformly heavy pressure.
        for _ in 0..30 {
            let samples: Vec<PmuSample> = (0..6)
                .map(|_| sample(1_000_000, 30_000, vec![50, 50]))
                .collect();
            let vs = views(6);
            p.on_sample(AnalyzerView {
                topo: &topo,
                samples: &samples,
                vcpus: &vs,
            });
        }
        assert!(p.bounds().low > before.low);
    }

    #[test]
    fn uses_pmu_true_for_all_variants() {
        assert!(crate::variants::vprobe(2, Bounds::default()).uses_pmu());
        assert!(crate::variants::vcpu_p(2, Bounds::default()).uses_pmu());
        assert!(crate::variants::lb_only(2, Bounds::default()).uses_pmu());
        assert!(crate::variants::vprobe_gd(2, Bounds::default()).uses_pmu());
    }

    fn dark_feedback(p: &mut VProbePolicy, periods: usize) {
        for _ in 0..periods {
            p.on_period_feedback(&PeriodFeedback {
                sample_validity: &[0.0, 0.0],
                failed_migrations: &[],
            });
        }
    }

    #[test]
    fn single_dark_period_is_skipped_not_fallback() {
        let topo = presets::xeon_e5620();
        let mut p = crate::variants::vprobe_gd(2, Bounds::default());
        dark_feedback(&mut p, 1);
        let samples = vec![sample(1_000_000, 25_000, vec![100, 900])];
        let vs = views(1);
        let plan = p.on_sample(AnalyzerView {
            topo: &topo,
            samples: &samples,
            vcpus: &vs,
        });
        assert!(plan.assignments.is_empty());
        assert!(plan.report.period_skipped);
        assert!(!plan.report.fallback_active);
    }

    #[test]
    fn dark_streak_falls_back_to_credit_and_recovers() {
        let topo = presets::xeon_e5620();
        let mut p = crate::variants::vprobe_gd(2, Bounds::default());
        dark_feedback(&mut p, 3);
        let samples = vec![sample(1_000_000, 25_000, vec![100, 900])];
        let vs = views(1);
        let plan = p.on_sample(AnalyzerView {
            topo: &topo,
            samples: &samples,
            vcpus: &vs,
        });
        assert!(plan.assignments.is_empty());
        assert!(plan.report.fallback_active);
        assert!(plan.report.fallback_entered);
        // In fallback the steal path degrades to Credit's first-candidate
        // pick, ignoring NUMA locality.
        let victims = vec![
            (PcpuId::new(5), 9, vec![VcpuId::new(1)]),
            (PcpuId::new(3), 2, vec![VcpuId::new(2)]),
        ];
        let pressure = vec![0.0; 8];
        let got = p.steal(StealContext {
            topo: &topo,
            idle_pcpu: PcpuId::new(0),
            victims: &victims,
            pressure: &pressure,
            would_idle: true,
        });
        assert_eq!(got, Some((PcpuId::new(5), VcpuId::new(1))));
        // One healthy period exits fallback and partitioning resumes.
        p.on_period_feedback(&PeriodFeedback {
            sample_validity: &[1.0],
            failed_migrations: &[],
        });
        let plan = p.on_sample(AnalyzerView {
            topo: &topo,
            samples: &samples,
            vcpus: &vs,
        });
        assert!(!plan.report.fallback_active);
        assert_eq!(plan.assignments.len(), 1);
        assert_eq!(plan.assignments[0].node, NodeId::new(1));
    }

    #[test]
    fn invalid_vcpu_is_dampened_in_valid_period() {
        let topo = presets::xeon_e5620();
        let mut p = crate::variants::vprobe_gd(2, Bounds::default());
        // vcpu1's sample was lost; the period overall stays trusted.
        p.on_period_feedback(&PeriodFeedback {
            sample_validity: &[1.0, 0.0, 1.0],
            failed_migrations: &[],
        });
        // All three look thrashing, but vcpu1's data is known-bad.
        let samples = vec![
            sample(1_000_000, 25_000, vec![100, 900]),
            sample(1_000_000, 25_000, vec![900, 100]),
            sample(1_000_000, 25_000, vec![800, 200]),
        ];
        let vs = views(3);
        let plan = p.on_sample(AnalyzerView {
            topo: &topo,
            samples: &samples,
            vcpus: &vs,
        });
        assert!(!plan.report.period_skipped);
        assert!(plan.assignments.iter().any(|a| a.vcpu.raw() == 0));
        assert!(
            !plan.assignments.iter().any(|a| a.vcpu.raw() == 1),
            "vcpu with invalid sample must not be re-placed"
        );
        assert!(plan.assignments.iter().any(|a| a.vcpu.raw() == 2));
    }

    #[test]
    fn failed_migration_is_retried_after_backoff() {
        let topo = presets::xeon_e5620();
        let mut p = crate::variants::vprobe_gd(2, Bounds::default());
        let vcpu = VcpuId::new(0);
        let node = NodeId::new(1);
        p.on_period_feedback(&PeriodFeedback {
            sample_validity: &[1.0],
            failed_migrations: &[(vcpu, node)],
        });
        p.on_period_feedback(&PeriodFeedback {
            sample_validity: &[1.0],
            failed_migrations: &[],
        });
        // A friendly, unpinned VCPU: partitioning itself requests nothing,
        // so the only assignment is the retry.
        let samples = vec![sample(1_000_000, 500, vec![10, 0])];
        let vs = views(1);
        let plan = p.on_sample(AnalyzerView {
            topo: &topo,
            samples: &samples,
            vcpus: &vs,
        });
        assert_eq!(plan.report.migration_retries, 1);
        assert_eq!(plan.assignments.len(), 1);
        assert_eq!(plan.assignments[0].vcpu, vcpu);
        assert_eq!(plan.assignments[0].node, node);
    }
}
