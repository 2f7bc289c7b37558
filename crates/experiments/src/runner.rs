//! Shared experiment machinery: the paper's §V-A testbed and scheduler set.

use mem_model::{AllocPolicy, EngineSelect};
use numa_topo::presets;
use sim_core::{FaultConfig, SimDuration, SimError};
use vprobe::{variants, Bounds, BrmPolicy};
use workloads::{hungry, WorkloadSpec};
use xen_sim::{CreditPolicy, Machine, MachineBuilder, RunMetrics, SchedPolicy, VmConfig};

const GB: u64 = 1024 * 1024 * 1024;

/// The five evaluated schedulers (paper §V-A2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheduler {
    Credit,
    VProbe,
    /// VCPU periodical partitioning only.
    VcpuP,
    /// NUMA-aware load balance only.
    Lb,
    /// Bias Random vCPU Migration (Rao et al., HPCA 2013).
    Brm,
    /// vProbe with the graceful-degradation layer (robustness extension;
    /// not part of the paper's scheduler set, so not in
    /// [`ALL_SCHEDULERS`]).
    VProbeGd,
}

/// All five, in the paper's legend order.
pub const ALL_SCHEDULERS: [Scheduler; 5] = [
    Scheduler::Credit,
    Scheduler::VProbe,
    Scheduler::VcpuP,
    Scheduler::Lb,
    Scheduler::Brm,
];

impl Scheduler {
    pub fn name(self) -> &'static str {
        match self {
            Scheduler::Credit => "Credit",
            Scheduler::VProbe => "vProbe",
            Scheduler::VcpuP => "VCPU-P",
            Scheduler::Lb => "LB",
            Scheduler::Brm => "BRM",
            Scheduler::VProbeGd => "vProbe-GD",
        }
    }

    /// Instantiate the policy for a machine with `num_nodes` nodes.
    pub fn policy(self, num_nodes: usize, seed: u64) -> Box<dyn SchedPolicy> {
        match self {
            Scheduler::Credit => Box::new(CreditPolicy::new()),
            Scheduler::VProbe => Box::new(variants::vprobe(num_nodes, Bounds::default())),
            Scheduler::VcpuP => Box::new(variants::vcpu_p(num_nodes, Bounds::default())),
            Scheduler::Lb => Box::new(variants::lb_only(num_nodes, Bounds::default())),
            Scheduler::Brm => Box::new(BrmPolicy::new(seed)),
            Scheduler::VProbeGd => Box::new(variants::vprobe_gd(num_nodes, Bounds::default())),
        }
    }
}

/// Which VM arrangement to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetupKind {
    /// The paper's §V-A evaluation setup: VM1 (8 VCPU, 15 GB split across
    /// both nodes) runs the measured workload; VM2 (8 VCPU, 5 GB) runs the
    /// same workload as interference; VM3 (8 VCPU, 1 GB) runs eight hungry
    /// loops.
    PaperEval,
    /// The §II-B motivation setup: VM1/VM2 with 8 GB each, VM3 with 2 GB
    /// of hungry loops (used for Fig. 1).
    Motivation,
}

/// Options for one simulation run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub duration: SimDuration,
    pub sample_period: SimDuration,
    pub seed: u64,
    /// Guest-OS thread rebalance period for VM1/VM2 (None disables).
    pub shuffle: Option<SimDuration>,
    /// Warmup under the stock Credit scheduler before switching to the
    /// policy under test and opening the measurement window — the
    /// experimental protocol of measuring applications on a live system.
    pub warmup: SimDuration,
    /// Fault injection (default [`FaultConfig::none`]: clean run).
    pub faults: FaultConfig,
    /// Memory-engine implementation (default exact incremental;
    /// `--reference-engine` / `--approx-engine` on the binaries select the
    /// frozen pre-rewrite solver or the quantized fast path).
    pub engine: EngineSelect,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            duration: SimDuration::from_secs(30),
            sample_period: SimDuration::from_secs(1),
            seed: 42,
            shuffle: Some(SimDuration::from_secs(8)),
            warmup: SimDuration::from_secs(10),
            faults: FaultConfig::none(),
            engine: EngineSelect::Exact,
        }
    }
}

/// Measured outcome of one (scheduler, workload) run; VM1 is the measured
/// VM throughout the paper.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    pub scheduler: Scheduler,
    /// VM1 achieved instructions per second (performance ∝ this).
    pub instr_rate: f64,
    /// VM1 instructions retired in the window.
    pub instructions: u64,
    /// VM1 total memory accesses (Fig. 4/5/6/7 (b)).
    pub total_accesses: u64,
    /// VM1 remote memory accesses (Fig. 4/5/6/7 (c)).
    pub remote_accesses: u64,
    pub remote_ratio: f64,
    /// Table III metric.
    pub overhead_percent: f64,
    pub migrations: u64,
    pub cross_node_migrations: u64,
    pub partition_moves: u64,
    pub metrics: RunMetrics,
}

impl WorkloadRun {
    /// Execution time relative to `baseline` (1.0 = same speed; < 1.0 =
    /// faster). Time ∝ 1 / rate for a fixed instruction budget.
    pub fn normalized_time_vs(&self, baseline: &WorkloadRun) -> f64 {
        baseline.instr_rate / self.instr_rate
    }

    /// Memory accesses per instruction, i.e. accesses for equal work. The
    /// paper runs each program to completion (fixed work) and counts
    /// accesses; our fixed-duration windows must divide by the work done
    /// or a faster scheduler would appear to "access more".
    pub fn total_per_instr(&self) -> f64 {
        self.total_accesses as f64 / self.instructions.max(1) as f64
    }

    pub fn remote_per_instr(&self) -> f64 {
        self.remote_accesses as f64 / self.instructions.max(1) as f64
    }

    /// Fig. 4/5/6/7 (b): total memory accesses for equal work, relative to
    /// the baseline scheduler.
    pub fn normalized_total_vs(&self, baseline: &WorkloadRun) -> f64 {
        self.total_per_instr() / baseline.total_per_instr().max(f64::MIN_POSITIVE)
    }

    /// Fig. 4/5/6/7 (c): remote memory accesses for equal work, relative
    /// to the baseline scheduler.
    pub fn normalized_remote_vs(&self, baseline: &WorkloadRun) -> f64 {
        self.remote_per_instr() / baseline.remote_per_instr().max(f64::MIN_POSITIVE)
    }
}

/// Build the machine for a setup.
pub fn build_machine(
    scheduler: Scheduler,
    setup: SetupKind,
    vm1_workloads: Vec<WorkloadSpec>,
    vm2_workloads: Vec<WorkloadSpec>,
    opts: &RunOptions,
) -> Result<Machine, SimError> {
    let topo = presets::xeon_e5620();
    let num_nodes = topo.num_nodes();
    let (vm1_mem, vm1_alloc, vm2_mem, vm3_mem) = match setup {
        SetupKind::PaperEval => (15 * GB, AllocPolicy::SplitEven, 5 * GB, GB),
        SetupKind::Motivation => (8 * GB, AllocPolicy::MostFree, 8 * GB, 2 * GB),
    };
    let mut vm1 = VmConfig::new("vm1", 8, vm1_mem, vm1_alloc, vm1_workloads);
    vm1.shuffle_period = opts.shuffle;
    let mut vm2 = VmConfig::new("vm2", 8, vm2_mem, AllocPolicy::MostFree, vm2_workloads);
    vm2.shuffle_period = opts.shuffle;
    let vm3 = VmConfig::new(
        "vm3",
        8,
        vm3_mem,
        AllocPolicy::MostFree,
        vec![hungry::hungry_loop(); 8],
    );
    MachineBuilder::new(topo)
        .policy(scheduler.policy(num_nodes, opts.seed))
        .sample_period(opts.sample_period)
        .seed(opts.seed)
        .faults(opts.faults.clone())
        .engine(opts.engine)
        .add_vm(vm1)
        .add_vm(vm2)
        .add_vm(vm3)
        .build()
}

/// Run one (scheduler, workload) configuration and measure VM1.
pub fn run_workload(
    scheduler: Scheduler,
    setup: SetupKind,
    vm1_workloads: Vec<WorkloadSpec>,
    vm2_workloads: Vec<WorkloadSpec>,
    opts: &RunOptions,
) -> Result<WorkloadRun, SimError> {
    let mut machine = build_machine(Scheduler::Credit, setup, vm1_workloads, vm2_workloads, opts)?;
    if !opts.warmup.is_zero() {
        machine.run(opts.warmup);
    }
    machine.set_policy(scheduler.policy(machine.topology().num_nodes(), opts.seed));
    machine.reset_metrics();
    machine.run(opts.duration);
    let metrics = machine.metrics().clone();
    let vm1 = &metrics.per_vm[0];
    Ok(WorkloadRun {
        scheduler,
        instr_rate: vm1.instr_per_second(metrics.elapsed),
        instructions: vm1.instructions,
        total_accesses: vm1.total_accesses(),
        remote_accesses: vm1.remote_accesses,
        remote_ratio: vm1.remote_ratio(),
        overhead_percent: metrics.overhead_percent(),
        migrations: metrics.migrations,
        cross_node_migrations: metrics.cross_node_migrations,
        partition_moves: metrics.partition_moves,
        metrics,
    })
}

/// Run all five schedulers on one workload. The five runs are
/// independent and execute in parallel (see [`crate::parallel`]); the
/// result order always matches [`ALL_SCHEDULERS`].
pub fn run_all_schedulers(
    setup: SetupKind,
    vm1_workloads: Vec<WorkloadSpec>,
    vm2_workloads: Vec<WorkloadSpec>,
    opts: &RunOptions,
) -> Result<Vec<WorkloadRun>, SimError> {
    crate::parallel::parallel_try_map(ALL_SCHEDULERS.to_vec(), |s| {
        run_workload(
            s,
            setup,
            vm1_workloads.clone(),
            vm2_workloads.clone(),
            opts,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::speccpu;

    fn quick_opts() -> RunOptions {
        RunOptions {
            duration: SimDuration::from_secs(6),
            ..RunOptions::default()
        }
    }

    #[test]
    fn scheduler_names_and_policies() {
        for s in ALL_SCHEDULERS {
            let p = s.policy(2, 1);
            assert!(!p.name().is_empty());
        }
        assert_eq!(Scheduler::VProbe.name(), "vProbe");
    }

    #[test]
    fn paper_eval_setup_builds_and_runs() {
        let run = run_workload(
            Scheduler::Credit,
            SetupKind::PaperEval,
            vec![speccpu::soplex(); 4],
            vec![speccpu::soplex(); 4],
            &quick_opts(),
        )
        .unwrap();
        assert!(run.instr_rate > 0.0);
        assert!(run.total_accesses > 0);
    }

    #[test]
    fn vprobe_beats_credit_on_memory_intensive_workload() {
        let opts = RunOptions {
            duration: SimDuration::from_secs(12),
            ..RunOptions::default()
        };
        let credit = run_workload(
            Scheduler::Credit,
            SetupKind::PaperEval,
            vec![speccpu::soplex(); 4],
            vec![speccpu::soplex(); 4],
            &opts,
        )
        .unwrap();
        let vp = run_workload(
            Scheduler::VProbe,
            SetupKind::PaperEval,
            vec![speccpu::soplex(); 4],
            vec![speccpu::soplex(); 4],
            &opts,
        )
        .unwrap();
        assert!(
            vp.instr_rate > credit.instr_rate,
            "vProbe {} must beat Credit {}",
            vp.instr_rate,
            credit.instr_rate
        );
        assert!(
            vp.remote_ratio < credit.remote_ratio,
            "vProbe remote ratio {} must undercut Credit {}",
            vp.remote_ratio,
            credit.remote_ratio
        );
    }

    #[test]
    fn normalization_helpers() {
        let opts = quick_opts();
        let a = run_workload(
            Scheduler::Credit,
            SetupKind::PaperEval,
            vec![speccpu::milc(); 4],
            vec![speccpu::milc(); 4],
            &opts,
        )
        .unwrap();
        assert!((a.normalized_time_vs(&a) - 1.0).abs() < 1e-9);
        assert!((a.normalized_total_vs(&a) - 1.0).abs() < 1e-9);
        assert!((a.normalized_remote_vs(&a) - 1.0).abs() < 1e-9);
    }
}
