//! BRM — Bias Random vCPU Migration (Rao et al., HPCA 2013), the related
//! NUMA-aware scheduler the paper compares against.
//!
//! BRM estimates a per-VCPU *uncore penalty* — a single scalar combining
//! remote-access and cache/contention symptoms, "all performance-degrading
//! factors treated equally" — and migrates VCPUs with a bias toward moves
//! that reduce the system-wide penalty. Crucially for the comparison, the
//! implementation serializes penalty updates behind one **system-wide
//! lock**; the vProbe paper attributes BRM's losses with more than 8
//! runnable VCPUs to contention on that lock, so the model charges each
//! balance decision a serialization cost that grows with the number of
//! runnable VCPUs.

use numa_topo::{PcpuId, VcpuId};
use pmu::PmuSample;
use sim_core::SimRng;
use xen_sim::{AnalyzerView, PartitionPlan, SchedPolicy, StealContext};

/// Tunables for the BRM model.
#[derive(Debug, Clone, Copy)]
pub struct BrmConfig {
    /// Probability of taking the penalty-minimizing candidate (vs a
    /// uniformly random one) — the "bias" in bias-random.
    pub bias: f64,
    /// Runnable-VCPU count at which lock contention starts to bite.
    pub lock_free_threshold: usize,
    /// Serialization cost per additional contender, microseconds.
    pub lock_cost_per_vcpu_us: f64,
}

impl Default for BrmConfig {
    fn default() -> Self {
        BrmConfig {
            bias: 0.75,
            lock_free_threshold: 8,
            lock_cost_per_vcpu_us: 32.0,
        }
    }
}

/// The BRM policy.
pub struct BrmPolicy {
    cfg: BrmConfig,
    rng: SimRng,
    /// Per-VCPU node-access fractions from the last period (the penalty
    /// estimator's inputs).
    node_frac: Vec<Vec<f64>>,
}

impl BrmPolicy {
    pub fn new(seed: u64) -> Self {
        BrmPolicy {
            cfg: BrmConfig::default(),
            rng: SimRng::seed_from(seed),
            node_frac: Vec::new(),
        }
    }

    pub fn with_config(mut self, cfg: BrmConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Fraction of a VCPU's accesses that would be *local* on `node` —
    /// the uncore-penalty reduction proxy for migrating it there.
    fn local_gain(&self, vcpu: VcpuId, node: usize) -> f64 {
        self.node_frac
            .get(vcpu.index())
            .and_then(|f| f.get(node))
            .copied()
            .unwrap_or(0.0)
    }

    fn update_penalties(&mut self, samples: &[PmuSample]) {
        self.node_frac = samples
            .iter()
            .map(|s| {
                let total: u64 = s.node_accesses.iter().sum();
                if total == 0 {
                    vec![0.0; s.node_accesses.len()]
                } else {
                    s.node_accesses
                        .iter()
                        .map(|&c| c as f64 / total as f64)
                        .collect()
                }
            })
            .collect();
    }
}

impl SchedPolicy for BrmPolicy {
    fn name(&self) -> &str {
        "brm"
    }

    fn on_sample(&mut self, view: AnalyzerView<'_>) -> PartitionPlan {
        self.update_penalties(view.samples);
        PartitionPlan::none()
    }

    fn steal(&mut self, ctx: StealContext<'_>) -> Option<(PcpuId, VcpuId)> {
        let thief_node = ctx.topo.node_of_pcpu(ctx.idle_pcpu).index();
        let all: Vec<(PcpuId, VcpuId)> = ctx
            .victims
            .iter()
            .flat_map(|(p, _, cands)| cands.iter().map(move |&v| (*p, v)))
            .collect();
        if all.is_empty() {
            return None;
        }
        if self.rng.chance(self.cfg.bias) {
            // Biased move: the candidate gaining the most locality here.
            all.iter().copied().max_by(|(_, a), (_, b)| {
                self.local_gain(*a, thief_node)
                    .total_cmp(&self.local_gain(*b, thief_node))
            })
        } else {
            // Random move keeps the estimator exploring.
            let idx = self.rng.index(all.len())?;
            Some(all[idx])
        }
    }

    fn uses_pmu(&self) -> bool {
        true
    }

    /// The system-wide lock: each balance decision serializes against
    /// every runnable VCPU's penalty updates.
    fn decision_overhead_us(&self, runnable_vcpus: usize) -> f64 {
        let over = runnable_vcpus.saturating_sub(self.cfg.lock_free_threshold);
        over as f64 * self.cfg.lock_cost_per_vcpu_us
    }

    /// Every 10 ms penalty update also takes the global lock and waits
    /// behind the other runnable VCPUs' updates.
    fn tick_overhead_us(&self, runnable_vcpus: usize) -> f64 {
        let over = runnable_vcpus.saturating_sub(self.cfg.lock_free_threshold);
        over as f64 * self.cfg.lock_cost_per_vcpu_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topo::presets;

    fn sample(node_accesses: Vec<u64>) -> PmuSample {
        let local = node_accesses.first().copied().unwrap_or(0);
        let remote: u64 = node_accesses.iter().skip(1).sum();
        PmuSample {
            instructions: 1_000_000,
            llc_refs: 10_000,
            llc_misses: 5_000,
            local_accesses: local,
            remote_accesses: remote,
            node_accesses,
        }
    }

    #[test]
    fn lock_cost_grows_past_threshold() {
        let p = BrmPolicy::new(1);
        assert_eq!(p.decision_overhead_us(4), 0.0);
        assert_eq!(p.decision_overhead_us(8), 0.0);
        assert!((p.decision_overhead_us(24) - 512.0).abs() < 1e-9);
    }

    #[test]
    fn biased_steal_prefers_locality_gain() {
        let topo = presets::xeon_e5620();
        let mut p = BrmPolicy::new(1).with_config(BrmConfig {
            bias: 1.0, // always take the best
            ..BrmConfig::default()
        });
        // vcpu0's memory is on node1, vcpu1's on node0.
        let samples = vec![sample(vec![0, 100]), sample(vec![100, 0])];
        let views: Vec<xen_sim::VcpuView> = (0..2)
            .map(|i| xen_sim::VcpuView {
                id: VcpuId::new(i),
                vm: numa_topo::VmId::new(0),
            })
            .collect();
        p.on_sample(AnalyzerView {
            topo: &topo,
            samples: &samples,
            vcpus: &views,
        });
        // A node1 thief (pcpu 5) should pick vcpu0.
        let victims = vec![(PcpuId::new(0), 2, vec![VcpuId::new(0), VcpuId::new(1)])];
        let got = p.steal(StealContext {
            topo: &topo,
            idle_pcpu: PcpuId::new(5),
            victims: &victims,
            pressure: &[0.0, 0.0],
            would_idle: true,
        });
        assert_eq!(got, Some((PcpuId::new(0), VcpuId::new(0))));
    }

    #[test]
    fn steal_with_no_candidates_is_none() {
        let topo = presets::xeon_e5620();
        let mut p = BrmPolicy::new(1);
        let victims = vec![(PcpuId::new(0), 0, vec![])];
        assert_eq!(
            p.steal(StealContext {
                topo: &topo,
                idle_pcpu: PcpuId::new(1),
                victims: &victims,
                pressure: &[],
                would_idle: true,
            }),
            None
        );
    }

    #[test]
    fn random_arm_still_returns_some_candidate() {
        let topo = presets::xeon_e5620();
        let mut p = BrmPolicy::new(7).with_config(BrmConfig {
            bias: 0.0, // always random
            ..BrmConfig::default()
        });
        let victims = vec![(PcpuId::new(0), 2, vec![VcpuId::new(0), VcpuId::new(1)])];
        for _ in 0..10 {
            let got = p.steal(StealContext {
                topo: &topo,
                idle_pcpu: PcpuId::new(5),
                victims: &victims,
                pressure: &[0.0, 0.0],
                would_idle: true,
            });
            assert!(got.is_some());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let topo = presets::xeon_e5620();
        let victims = vec![(PcpuId::new(0), 2, vec![VcpuId::new(0), VcpuId::new(1)])];
        let run = |seed| {
            let mut p = BrmPolicy::new(seed);
            (0..20)
                .map(|_| {
                    p.steal(StealContext {
                        topo: &topo,
                        idle_pcpu: PcpuId::new(5),
                        victims: &victims,
                        pressure: &[0.0, 0.0],
                        would_idle: true,
                    })
                    .map(|(_, v)| v.raw())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn never_partitions() {
        let topo = presets::xeon_e5620();
        let mut p = BrmPolicy::new(1);
        let plan = p.on_sample(AnalyzerView {
            topo: &topo,
            samples: &[sample(vec![5, 5])],
            vcpus: &[xen_sim::VcpuView {
                id: VcpuId::new(0),
                vm: numa_topo::VmId::new(0),
            }],
        });
        assert!(plan.assignments.is_empty());
    }
}
