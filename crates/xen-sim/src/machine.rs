//! The simulated machine: topology + memory model + PMU + VMs + scheduler.
//!
//! [`Machine::run`] advances simulated time in fixed quanta. Each quantum:
//!
//! 1. credit ticks (10 ms) debit the running VCPUs and, for PMU-using
//!    policies, charge counter-collection overhead ("updated … every
//!    10 ms" in the paper's §IV-B);
//! 2. credit accounting (30 ms) redistributes credits and refreshes
//!    UNDER/OVER priorities;
//! 3. guest-OS thread shuffles fire on their per-VM period;
//! 4. every PCPU schedules: keep the current VCPU if its timeslice
//!    remains and nothing higher-priority waits, otherwise requeue it and
//!    pick again — stealing through the policy when the queue offers
//!    nothing better than OVER work (Xen's `csched_load_balance` trigger);
//! 5. the memory engine resolves execution and the virtual PMU records it;
//! 6. at sampling-period boundaries the policy's analyzer runs and its
//!    partitioning plan is applied.

use crate::metrics::RunMetrics;
use crate::pcpu::PcpuState;
use crate::policy::{AnalyzerView, PeriodFeedback, SchedPolicy, StealContext, VcpuView};
use crate::vcpu::{Priority, VcpuKind, VcpuState};
use crate::vm::{VmConfig, VmRuntime};
use mem_model::{AnyEngine, EngineSelect, NodeFree, QuantumUsage};
use numa_topo::{NodeId, PcpuId, Topology, VcpuId, VmId};
use pmu::{OverheadModel, OverheadTracker, PeriodSampler, PmuSample};
use sim_core::{
    Clock, FaultConfig, FaultInjector, MigrationFault, SimDuration, SimError, SimRng, SimTime,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use telemetry::{CounterId, GaugeId, HistogramId, Registry};

/// RPTI classification thresholds (the paper's Table 2 boundaries, matching
/// `vprobe::Bounds::default`), duplicated here because the simulator cannot
/// depend on the policy crate. Used only for telemetry classification
/// counters, never for scheduling decisions.
const RPTI_FRIENDLY_MAX: f64 = 3.0;
const RPTI_FITTING_MAX: f64 = 20.0;

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

/// Timing and cost parameters of the hypervisor simulation.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Stationary relative standard deviation of each worker's
    /// memory-intensity fluctuation (0 disables burstiness).
    pub intensity_noise_sd: f64,
    /// Correlation time of the fluctuation.
    pub intensity_noise_corr: SimDuration,
    /// Per-VCPU counter attribution error at a 1-quantum sampling window,
    /// as a relative sd; the error of a window of `n` quanta is
    /// `attribution_noise / sqrt(n)`. Perfctr-style counter save/restore
    /// around context switches leaks a little of each neighbour's counts
    /// into every VCPU's window, so short windows are noisy and long ones
    /// average out (0 disables).
    pub attribution_noise: f64,
    /// Simulation step (default 1 ms).
    pub quantum: SimDuration,
    /// Credit-scheduler timeslice (30 ms in Xen).
    pub timeslice: SimDuration,
    /// Credit debit tick (10 ms in Xen).
    pub credit_tick: SimDuration,
    /// Credit accounting period (30 ms in Xen).
    pub accounting: SimDuration,
    /// PMU sampling period (the paper settles on 1 s, Fig. 8).
    pub sample_period: SimDuration,
    /// Base quanta of elevated miss rate after a cross-node migration;
    /// scaled by the migrating workload's working-set size (refilling a
    /// W-megabyte LLC working set takes on the order of W milliseconds).
    pub cold_quanta: u32,
    /// Upper bound on the scaled cold window, quanta.
    pub cold_quanta_max: u32,
    /// Miss-rate multiplier while cold.
    pub cold_miss_boost: f64,
    /// Cost of any context switch-in, microseconds.
    pub context_switch_us: f64,
    /// Extra cost when the switch-in is a cross-PCPU migration.
    pub migration_extra_us: f64,
    /// Overhead model for PMU collection / partitioning (Table III).
    pub overhead: OverheadModel,
    /// Root seed for all randomness.
    pub seed: u64,
    /// Fault-injection configuration (default: no faults). Drawn from its
    /// own seeded streams, so the all-zero default leaves the simulation
    /// bit-identical to a build without fault injection.
    pub faults: FaultConfig,
    /// Which memory-engine implementation resolves execution (default the
    /// exact incremental engine; `Reference` pins the frozen pre-rewrite
    /// solver for byte-diffs, `Approx` trades bounded model error for
    /// speed on noisy per-quantum runs).
    pub engine: EngineSelect,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            intensity_noise_sd: 0.18,
            intensity_noise_corr: SimDuration::from_millis(250),
            attribution_noise: 1.5,
            quantum: SimDuration::from_millis(1),
            timeslice: SimDuration::from_millis(30),
            credit_tick: SimDuration::from_millis(10),
            accounting: SimDuration::from_millis(30),
            sample_period: SimDuration::from_secs(1),
            cold_quanta: 4,
            cold_quanta_max: 40,
            cold_miss_boost: 3.0,
            context_switch_us: 2.0,
            migration_extra_us: 6.0,
            overhead: OverheadModel::default(),
            seed: 42,
            faults: FaultConfig::none(),
            engine: EngineSelect::Exact,
        }
    }
}

/// Builder for [`Machine`].
pub struct MachineBuilder {
    topo: Topology,
    cfg: MachineConfig,
    policy: Option<Box<dyn SchedPolicy>>,
    vm_configs: Vec<VmConfig>,
}

impl MachineBuilder {
    pub fn new(topo: Topology) -> Self {
        MachineBuilder {
            topo,
            cfg: MachineConfig::default(),
            policy: None,
            vm_configs: Vec::new(),
        }
    }

    pub fn config(mut self, cfg: MachineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Override just the sampling period (common across experiments).
    pub fn sample_period(mut self, p: SimDuration) -> Self {
        self.cfg.sample_period = p;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Enable fault injection (validated at [`MachineBuilder::build`]).
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.cfg.faults = faults;
        self
    }

    /// Select the memory-engine implementation (default exact).
    pub fn engine(mut self, select: EngineSelect) -> Self {
        self.cfg.engine = select;
        self
    }

    pub fn policy(mut self, policy: Box<dyn SchedPolicy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// VMs are created in call order, which determines memory placement
    /// (earlier VMs grab the freest nodes) and initial VCPU placement.
    pub fn add_vm(mut self, cfg: VmConfig) -> Self {
        self.vm_configs.push(cfg);
        self
    }

    pub fn build(self) -> Result<Machine, SimError> {
        let policy = self
            .policy
            .ok_or_else(|| SimError::InvalidConfig("no scheduling policy set".into()))?;
        if self.vm_configs.is_empty() {
            return Err(SimError::InvalidConfig("no VMs configured".into()));
        }
        if self.cfg.quantum.is_zero() {
            return Err(SimError::InvalidConfig("zero quantum".into()));
        }
        if self.cfg.sample_period.is_zero() {
            return Err(SimError::InvalidConfig("zero sampling period".into()));
        }
        if self.topo.num_nodes() == 0 {
            return Err(SimError::InvalidConfig("topology has no nodes".into()));
        }
        // Wake placement and node-targeted enqueue both rely on every
        // node owning at least one PCPU.
        for n in 0..self.topo.num_nodes() {
            if self.topo.pcpus_of_node(NodeId::from_index(n)).is_empty() {
                return Err(SimError::InvalidConfig(format!(
                    "node {n} has no PCPUs"
                )));
            }
        }
        self.cfg.faults.validate()?;
        Machine::create(self.topo, self.cfg, policy, &self.vm_configs)
    }
}

/// The simulated machine.
pub struct Machine {
    topo: Topology,
    cfg: MachineConfig,
    policy: Box<dyn SchedPolicy>,
    engine: AnyEngine,
    sampler: PeriodSampler,
    overhead: OverheadTracker,
    clock: Clock,
    rng: SimRng,
    vms: Vec<VmRuntime>,
    vcpus: Vec<VcpuState>,
    pcpus: Vec<PcpuState>,
    /// Last sampled LLC access pressure per VCPU (Eq. 2 with α = 1000).
    pressure: Vec<f64>,
    metrics: RunMetrics,
    trace: crate::trace::TraceLog,
    timeslice_quanta: u32,
    /// Summed VM weight of all non-blocked VCPUs, maintained at the three
    /// blocked-flag transition sites so credit accounting need not rescan
    /// every VCPU each quantum.
    active_weight: u64,
    /// Pending guest-timer firings, keyed `(next_wake, vcpu)`: every
    /// blocked idler has exactly one entry, so each quantum's wake check
    /// is a heap peek instead of a full VCPU scan.
    idler_wakes: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// The one profile every timer-idler burst executes.
    idler_profile: mem_model::AccessProfile,
    /// Reusable per-quantum intensity-noise buffer (one factor per VCPU).
    noise_scratch: Vec<f64>,
    /// Fault schedule source (draws nothing when faults are disabled).
    injector: FaultInjector,
    /// Cached `cfg.faults.enabled()`: gates every per-quantum fault hook so
    /// the fault-free hot path stays branch-cheap and draw-free.
    faults_enabled: bool,
    /// Per-VCPU validity of the latest period's samples (1 clean, 0 lost),
    /// reported to the policy through [`PeriodFeedback`].
    sample_validity: Vec<f64>,
    /// Migrations that failed this period, reported at the next feedback.
    failed_migrations: Vec<(VcpuId, NodeId)>,
    /// Injected-delay migrations waiting for their due time.
    delayed_moves: Vec<(SimTime, VcpuId, NodeId)>,
    /// Reused buffer for landing due delayed migrations in arrival order.
    delayed_scratch: Vec<(SimTime, VcpuId, NodeId)>,
    /// Per-VM `(next_fire_us, stride_us)` shuffle schedule; stride 0 means
    /// the VM never shuffles. The per-quantum modulo test fires exactly at
    /// grid points that are multiples of the period, i.e. every
    /// lcm(period, quantum), so a compare-and-advance replaces it.
    shuffle_next: Vec<(u64, u64)>,
    /// Per-node throttle flags for the current sampling period.
    node_throttled: Vec<bool>,
    /// Deterministic metric registry, snapshotted at every sampling period
    /// and exported into [`RunMetrics::telemetry`] when enabled.
    telemetry: Registry,
    /// Ids of the metrics registered in [`Machine::register_telemetry`].
    tids: TelemetryIds,
    /// Whether the policy reported fallback mode active at the previous
    /// period, for edge-detecting degrade/recover transitions.
    was_fallback: bool,
    /// Decision-provenance log: candidate sets, score components, and the
    /// rule behind every placement/steal/partition/degrade decision.
    /// Disabled by default (one branch per site).
    provenance: crate::provenance::ProvenanceLog,
    /// Per-quantum step statistics. `None` (the default) costs one
    /// null-check per quantum and leaves every output byte unchanged; see
    /// [`crate::perf`].
    perf: Option<Box<crate::perf::MachinePerf>>,
}

/// Handles to the machine's registered telemetry metrics.
struct TelemetryIds {
    c_steals_local: CounterId,
    c_steals_remote: CounterId,
    c_partition_moves: CounterId,
    c_credit_boosts: CounterId,
    c_idler_wakes: CounterId,
    c_faults: CounterId,
    c_degrade_enter: CounterId,
    c_degrade_recover: CounterId,
    c_rpti_friendly: CounterId,
    c_rpti_fitting: CounterId,
    c_rpti_thrashing: CounterId,
    g_active_vcpus: GaugeId,
    h_steal_latency: HistogramId,
    h_migration_distance: HistogramId,
    h_runq_depth: HistogramId,
    h_rpti: HistogramId,
}

impl Machine {
    fn create(
        topo: Topology,
        cfg: MachineConfig,
        policy: Box<dyn SchedPolicy>,
        vm_configs: &[VmConfig],
    ) -> Result<Self, SimError> {
        topo.validate()?;
        let mut free = NodeFree::new(
            topo.nodes()
                .map(|n| topo.node_config(n).mem_bytes)
                .collect(),
        );
        let mut vms = Vec::with_capacity(vm_configs.len());
        let mut vcpus: Vec<VcpuState> = Vec::new();
        let mut pcpus: Vec<PcpuState> = topo
            .pcpus()
            .map(|p| PcpuState::new(p, topo.node_of_pcpu(p)))
            .collect();

        for (i, vm_cfg) in vm_configs.iter().enumerate() {
            let vm_id = VmId::new(i as u16);
            let vm = VmRuntime::create(vm_id, vm_cfg, &mut free, vcpus.len() as u32)?;
            let workers = vm.num_workers();
            for (vm_idx, &vid) in vm.vcpu_ids.iter().enumerate() {
                let kind = if vm_idx < workers {
                    VcpuKind::Worker
                } else {
                    VcpuKind::TimerIdler
                };
                let mut vcpu = VcpuState::new(vid, vm_id, vm_idx, kind);
                if let Some(node) = vm_cfg.pin_node {
                    vcpu.admin_pinned = true;
                    vcpu.assigned_node = Some(node);
                }
                match kind {
                    VcpuKind::Worker => {
                        // Initial placement: least-loaded allowed PCPU,
                        // ties to the lowest id — Xen's pick for a fresh
                        // VCPU, restricted by an administrative pin.
                        let target = pcpus
                            .iter()
                            .filter(|p| vcpu.allowed_on(topo.node_of_pcpu(p.id)))
                            .min_by_key(|p| (p.workload(), p.id.index()))
                            .ok_or_else(|| {
                                SimError::InvalidConfig(format!(
                                    "VM '{}' pins to a node with no PCPUs",
                                    vm_cfg.name
                                ))
                            })?
                            .id;
                        vcpu.queued_on = Some(target);
                        pcpus[target.index()].queue.push(vid);
                    }
                    VcpuKind::TimerIdler => {
                        // Idlers start blocked; stagger their guest timers
                        // so wakeups do not arrive in lockstep.
                        let period = vm.idler_period.expect("idlers imply a period");
                        vcpu.blocked = true;
                        vcpu.next_wake = SimTime::ZERO
                            + cfg.quantum * (vid.raw() as u64 % (period / cfg.quantum).max(1))
                            + cfg.quantum;
                        vcpus.push(vcpu);
                        continue;
                    }
                }
                vcpus.push(vcpu);
            }
            vms.push(vm);
        }

        let timeslice_quanta = (cfg.timeslice / cfg.quantum).max(1) as u32;
        let num_vcpus = vcpus.len();
        let num_nodes = topo.num_nodes();
        let metrics = RunMetrics::new(vms.len());
        let active_weight = vcpus
            .iter()
            .filter(|v| !v.blocked)
            .map(|v| vms[v.vm.index()].weight as u64)
            .sum();
        let idler_wakes = vcpus
            .iter()
            .filter(|v| v.blocked)
            .map(|v| Reverse((v.next_wake, v.id.raw())))
            .collect();
        let mut telemetry = Registry::new();
        let tids = Machine::register_telemetry(&mut telemetry);
        let q_us = cfg.quantum.as_micros();
        let shuffle_next = vms
            .iter()
            .map(|vm| match vm.shuffle_period {
                Some(p) => {
                    let stride = lcm(p.as_micros(), q_us);
                    (stride, stride)
                }
                None => (u64::MAX, 0),
            })
            .collect();
        Ok(Machine {
            shuffle_next,
            active_weight,
            idler_wakes,
            idler_profile: mem_model::AccessProfile::cpu_only(1.0, num_nodes),
            noise_scratch: Vec::with_capacity(num_vcpus),
            injector: FaultInjector::new(cfg.faults.clone())?,
            faults_enabled: cfg.faults.enabled(),
            sample_validity: vec![1.0; num_vcpus],
            failed_migrations: Vec::new(),
            delayed_moves: Vec::new(),
            delayed_scratch: Vec::new(),
            node_throttled: vec![false; num_nodes],
            telemetry,
            tids,
            was_fallback: false,
            provenance: crate::provenance::ProvenanceLog::disabled(),
            perf: None,
            engine: AnyEngine::new(&topo, cfg.engine),
            sampler: PeriodSampler::new(num_vcpus, num_nodes, cfg.sample_period),
            overhead: OverheadTracker::new(cfg.overhead),
            clock: Clock::new(cfg.quantum),
            rng: SimRng::seed_from(cfg.seed),
            pressure: vec![0.0; num_vcpus],
            metrics,
            trace: crate::trace::TraceLog::disabled(),
            timeslice_quanta,
            topo,
            cfg,
            policy,
            vms,
            vcpus,
            pcpus,
        })
    }

    /// Register the machine's metric set. Registration order is the export
    /// order, so changing it changes the `telemetry` JSON block.
    fn register_telemetry(reg: &mut Registry) -> TelemetryIds {
        TelemetryIds {
            c_steals_local: reg.counter("steals_local"),
            c_steals_remote: reg.counter("steals_remote"),
            c_partition_moves: reg.counter("partition_moves"),
            c_credit_boosts: reg.counter("credit_boosts"),
            c_idler_wakes: reg.counter("idler_wakes"),
            c_faults: reg.counter("faults_injected"),
            c_degrade_enter: reg.counter("degrade_enter"),
            c_degrade_recover: reg.counter("degrade_recover"),
            c_rpti_friendly: reg.counter("rpti_friendly"),
            c_rpti_fitting: reg.counter("rpti_fitting"),
            c_rpti_thrashing: reg.counter("rpti_thrashing"),
            g_active_vcpus: reg.gauge("active_vcpus"),
            h_steal_latency: reg.histogram("steal_latency", 0.0, 50.0, 10),
            h_migration_distance: reg.histogram("migration_distance", 0.0, 50.0, 10),
            h_runq_depth: reg.histogram("runqueue_depth", 0.0, 16.0, 16),
            h_rpti: reg.histogram("rpti", 0.0, 40.0, 20),
        }
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    pub fn num_vcpus(&self) -> usize {
        self.vcpus.len()
    }

    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Enable xentrace-style event tracing, keeping the most recent
    /// `capacity` events.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = crate::trace::TraceLog::with_capacity(capacity);
    }

    /// The trace log (empty unless [`Machine::enable_trace`] was called).
    pub fn trace(&self) -> &crate::trace::TraceLog {
        &self.trace
    }

    /// Enable the metric registry: counters/histograms start recording,
    /// period snapshots accumulate, and [`RunMetrics`] gains a `telemetry`
    /// JSON block at the next [`Machine::run`].
    pub fn enable_telemetry(&mut self) {
        self.telemetry.set_enabled(true);
    }

    /// The metric registry (inert unless [`Machine::enable_telemetry`] was
    /// called).
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// Human label for each VCPU (`"vm0/v2"` for workers, `"vm0/idler3"`
    /// for timer idlers), indexed by VCPU index; used by the trace
    /// exporters.
    pub fn vcpu_labels(&self) -> Vec<String> {
        self.vcpus
            .iter()
            .map(|v| {
                let vm = &self.vms[v.vm.index()];
                match v.kind {
                    VcpuKind::Worker => format!("{}/v{}", vm.name, v.vm_idx),
                    VcpuKind::TimerIdler => format!("{}/idler{}", vm.name, v.vm_idx),
                }
            })
            .collect()
    }

    /// Serialize the trace as JSON Lines (one event object per line).
    pub fn trace_jsonl(&self) -> String {
        crate::export::to_jsonl(&self.trace)
    }

    /// Serialize the trace as a Chrome Trace Event file with per-PCPU
    /// tracks, openable in Perfetto or `chrome://tracing`.
    pub fn trace_chrome(&self) -> String {
        let labels = self.vcpu_labels();
        crate::export::to_chrome(
            &self.trace,
            &crate::export::ChromeContext {
                num_pcpus: self.pcpus.len(),
                vcpu_labels: &labels,
                end_us: self.clock.now().as_micros(),
            },
        )
    }

    /// Enable decision-provenance recording, keeping the most recent
    /// `capacity` records, and switch the policy into explain mode so it
    /// decomposes its choices (rule names, partition notes). Neither side
    /// changes any decision: runs with provenance on are byte-identical in
    /// every metric, CSV, and trace output to runs with it off.
    pub fn enable_provenance(&mut self, capacity: usize) {
        self.provenance = crate::provenance::ProvenanceLog::with_capacity(capacity);
        self.policy.set_explain(true);
    }

    /// The provenance log (empty unless [`Machine::enable_provenance`] was
    /// called).
    pub fn provenance(&self) -> &crate::provenance::ProvenanceLog {
        &self.provenance
    }

    /// Serialize the provenance log as JSON Lines (one decision per line).
    pub fn provenance_jsonl(&self) -> String {
        crate::provenance::to_jsonl(&self.provenance)
    }

    /// Enable perf introspection: the engine's work-avoidance counters, exported into
    /// [`RunMetrics::perf`] at the end of [`Machine::run`]. Collection is
    /// observational only — enabling it changes no scheduling decision
    /// and no other output byte.
    pub fn enable_perf(&mut self) {
        if self.perf.is_none() {
            self.perf = Some(Box::default());
        }
    }

    /// Whether [`Machine::enable_perf`] was called.
    pub fn perf_enabled(&self) -> bool {
        self.perf.is_some()
    }

    /// Deterministic perf snapshot for this machine: the engine's
    /// work-avoidance counters (always maintained) plus the step
    /// statistics gathered since [`Machine::enable_perf`] (zeroed stats
    /// if perf was never enabled).
    pub fn perf_snapshot(&self) -> crate::perf::PerfSnapshot {
        crate::perf::PerfSnapshot {
            hosts: 1,
            engine: self.engine.perf(),
            machine: self.perf.as_deref().cloned().unwrap_or_default(),
        }
    }

    /// Replace the scheduling policy at runtime (used by experiments that
    /// warm the system up under the stock Credit scheduler before
    /// switching to the policy under test, as one would on a live host).
    pub fn set_policy(&mut self, policy: Box<dyn SchedPolicy>) {
        self.policy = policy;
        if self.provenance.is_enabled() {
            self.policy.set_explain(true);
        }
    }

    /// Zero all measurement state (but not scheduler/memory state): starts
    /// a fresh measurement window on a warm system.
    pub fn reset_metrics(&mut self) {
        self.metrics = RunMetrics::new(self.vms.len());
        self.overhead = OverheadTracker::new(self.cfg.overhead);
        self.telemetry.reset();
        for v in &mut self.vcpus {
            v.run_quanta = 0;
        }
        for i in 0..self.vcpus.len() {
            // Close the PMU windows so whole-run totals restart cleanly.
            let _ = self.sampler.totals(i);
        }
        let num_vcpus = self.vcpus.len();
        let num_nodes = self.topo.num_nodes();
        self.sampler = PeriodSampler::new(num_vcpus, num_nodes, self.cfg.sample_period);
    }

    pub fn vm_id_by_name(&self, name: &str) -> Option<VmId> {
        self.vms.iter().find(|v| v.name == name).map(|v| v.id)
    }

    /// Whole-run PMU totals for one VCPU.
    pub fn vcpu_totals(&self, vcpu: VcpuId) -> PmuSample {
        self.sampler.totals(vcpu.index())
    }

    /// Current node of a VCPU (running or queued).
    pub fn vcpu_node(&self, vcpu: VcpuId) -> Option<NodeId> {
        let v = &self.vcpus[vcpu.index()];
        v.running_on
            .or(v.queued_on)
            .map(|p| self.topo.node_of_pcpu(p))
    }

    /// Run for `duration` of simulated time.
    pub fn run(&mut self, duration: SimDuration) -> &RunMetrics {
        let quanta = duration / self.cfg.quantum;
        for _ in 0..quanta {
            self.step_quantum();
        }
        self.metrics.elapsed += self.cfg.quantum * quanta;
        self.metrics.overhead_us = self.overhead.overhead_us();
        self.metrics.busy_us = self.overhead.busy_us();
        self.metrics.telemetry = self.telemetry.export();
        if self.perf.is_some() {
            self.metrics.perf = Some(self.perf_snapshot().to_json());
        }
        &self.metrics
    }

    /// Advance one quantum: timer events, scheduling, one memory-engine
    /// solve, credit debit, then the sampling-period check.
    fn step_quantum(&mut self) {
        self.clock.step();
        let now = self.clock.now();

        if self.faults_enabled {
            self.fault_tick(now);
        }

        // Credit ticks (staggered per PCPU, as Xen offsets per-CPU timers
        // to avoid thundering herd) and per-VCPU staggered accounting.
        self.credit_ticks(now);
        self.credit_accounting(now);
        self.shuffle_tick(now);
        self.wake_idlers(now);
        self.schedule_all();

        if let Some(p) = self.perf.as_deref_mut() {
            p.plain_step();
        }
        self.execute_quantum(now);
        self.debit_running();

        if let Some(samples) = self.sampler.maybe_sample(now) {
            self.handle_sample(now, samples);
        }
    }

    /// Guest thread shuffles, via the precomputed per-VM fire times: the
    /// common quantum compares one integer per VM instead of taking a
    /// modulo per VM.
    fn shuffle_tick(&mut self, now: SimTime) {
        let now_us = now.as_micros();
        for (vm, slot) in self.vms.iter_mut().zip(self.shuffle_next.iter_mut()) {
            if now_us == slot.0 {
                vm.shuffle();
                slot.0 += slot.1;
            }
        }
    }

    /// Per-quantum fault bookkeeping (only called with faults enabled):
    /// advance transient PCPU stalls, draw new ones, and land injected-delay
    /// migrations whose due time has arrived.
    fn fault_tick(&mut self, now: SimTime) {
        for p in 0..self.pcpus.len() {
            if self.pcpus[p].stall_left > 0 {
                self.pcpus[p].stall_left -= 1;
                self.metrics.faults.stalled_quanta += 1;
            } else if let Some(quanta) = self.injector.pcpu_stall() {
                self.pcpus[p].stall_left = quanta;
                self.metrics.faults.pcpu_stalls += 1;
                self.telemetry.inc(self.tids.c_faults, 1);
                if self.trace.is_enabled() {
                    self.trace.record(
                        now,
                        crate::trace::Event::Fault(crate::trace::FaultEvent::PcpuStall {
                            pcpu: PcpuId::from_index(p),
                            quanta: u64::from(quanta),
                        }),
                    );
                }
            }
        }
        if !self.delayed_moves.is_empty() {
            // Split off the due entries in one linear pass (the index-based
            // `Vec::remove` scan this replaces was quadratic in the worst
            // case), landing them in arrival order exactly as the scan did
            // — the order matters because `apply_partition_move` draws from
            // the placement RNG.
            let mut due = std::mem::take(&mut self.delayed_scratch);
            due.clear();
            self.delayed_moves.retain(|&entry| {
                if entry.0 > now {
                    true
                } else {
                    due.push(entry);
                    false
                }
            });
            for &(_, vcpu, node) in &due {
                // The VCPU may have blocked or been pinned since the
                // request; a late migration of either would be wrong.
                let v = &self.vcpus[vcpu.index()];
                if !v.blocked && !v.admin_pinned {
                    self.apply_partition_move(vcpu, node, now);
                }
            }
            self.delayed_scratch = due;
        }
    }

    /// 10 ms credit ticks, offset per PCPU: PCPU `p`'s tick fires at
    /// `p * quantum` past each 10 ms boundary. For PMU-using policies each
    /// tick charges counter-collection cost (the paper updates a VCPU's
    /// runtime information every 10 ms); credit debiting itself is precise
    /// per-quantum (see `debit_running`).
    fn credit_ticks(&mut self, now: SimTime) {
        let tick = self.cfg.credit_tick.as_micros();
        let quantum = self.cfg.quantum.as_micros();
        let now_us = now.as_micros();
        let ticks_per = tick / quantum;
        // PCPU p's tick fires iff p ≡ now/quantum (mod tick/quantum), so
        // when the quantum divides the tick only every (tick/quantum)-th
        // PCPU needs visiting; the runnable count and per-tick lock cost
        // are needed only if one of those PCPUs is actually running
        // something. The scan below reproduces the wrapping-offset check
        // exactly for now ≥ tick; the first tick's worth of quanta keeps
        // the general form.
        if ticks_per >= 1
            && tick == ticks_per * quantum
            && now_us >= tick
            && now_us.is_multiple_of(quantum)
        {
            let slot = ((now_us / quantum) % ticks_per) as usize;
            let mut charge: Option<(bool, f64)> = None;
            let mut p = slot;
            while p < self.pcpus.len() {
                if self.pcpus[p].current.is_some() {
                    let (uses_pmu, lock_cost) = *charge.get_or_insert_with(|| {
                        let runnable: usize = self.pcpus.iter().map(|x| x.workload()).sum();
                        (self.policy.uses_pmu(), self.policy.tick_overhead_us(runnable))
                    });
                    if uses_pmu {
                        let cost = self.overhead.charge_sample();
                        self.pcpus[p].pending_overhead_us += cost;
                    }
                    // Policy-specific counter-update serialization (BRM's
                    // global lock). Not part of the Table III overhead
                    // budget: it is the comparison scheduler's own defect,
                    // not vProbe monitoring cost.
                    self.pcpus[p].pending_overhead_us += lock_cost;
                }
                p += ticks_per as usize;
            }
            return;
        }
        let uses_pmu = self.policy.uses_pmu();
        let runnable: usize = self.pcpus.iter().map(|p| p.workload()).sum();
        let lock_cost = self.policy.tick_overhead_us(runnable);
        for p in 0..self.pcpus.len() {
            let offset = (p as u64 * quantum) % tick;
            if !(now_us.wrapping_sub(offset)).is_multiple_of(tick) {
                continue;
            }
            if self.pcpus[p].current.is_some() {
                if uses_pmu {
                    let cost = self.overhead.charge_sample();
                    self.pcpus[p].pending_overhead_us += cost;
                }
                self.pcpus[p].pending_overhead_us += lock_cost;
            }
        }
    }

    /// Precise credit debiting: the running VCPU pays for every quantum it
    /// actually consumed (100 credits per 10 ms of runtime). Xen 4.0's
    /// tick-based debiting let VCPUs running short slices between ticks
    /// escape accounting entirely ("tick evasion"), which lets low-pressure
    /// VCPUs stay UNDER forever and distorts every steal policy that
    /// prefers them; Xen later fixed this the same way.
    fn debit_running(&mut self) {
        let per_quantum =
            (100 * self.cfg.quantum.as_micros() / self.cfg.credit_tick.as_micros()).max(1) as i32;
        for p in 0..self.pcpus.len() {
            // A stalled PCPU executed nothing this quantum, so its pinned
            // VCPU owes nothing.
            if self.pcpus[p].stall_left > 0 {
                continue;
            }
            if let Some(v) = self.pcpus[p].current {
                self.vcpus[v.index()].adjust_credits(-per_quantum);
            }
        }
    }

    /// 30 ms accounting: split the machine's credit grant evenly across
    /// active (non-blocked) VCPUs (all VMs share equal weight in the
    /// paper's setups).
    ///
    /// Each VCPU's grant lands at its own offset inside the accounting
    /// window rather than on one global edge: a fully synchronous grant
    /// makes every waiting VCPU cross the UNDER/OVER boundary in phase, so
    /// balance attempts (which fire when a queue has gone all-OVER) would
    /// always observe every other queue all-OVER too and never find steal
    /// candidates. Real systems get this phase diversity for free from
    /// wakeups and I/O; the simulation makes it explicit.
    ///
    /// Credits clamp at Xen's bounds: a VCPU waiting too long forfeits
    /// further entitlement (as in Xen, where capped VCPUs are demoted to
    /// inactive accounting), and a VCPU cannot dig an unbounded deficit.
    fn credit_accounting(&mut self, now: SimTime) {
        // `active_weight` is maintained at every blocked-flag transition;
        // weights are validated nonzero, so zero weight means zero active
        // VCPUs — the scan-and-sum the original code did every quantum.
        if self.active_weight == 0 {
            return;
        }
        let total = 300 * self.pcpus.len() as i32;
        // Grants are proportional to each VM's weight (Xen's knob; the
        // paper's setups use the default 256 everywhere, making this the
        // equal split).
        let total_weight = self.active_weight;
        let window = self.cfg.accounting.as_micros();
        let quantum = self.cfg.quantum.as_micros();
        let slots = (window / quantum).max(1);
        let now_us = now.as_micros();
        // VCPU i's grant lands iff i ≡ now/quantum (mod slots), so when
        // the quantum divides the window only every slots-th VCPU needs
        // visiting. Exact for now ≥ window (no wrapping offset); the first
        // window keeps the general form.
        if window == slots * quantum && now_us >= window && now_us.is_multiple_of(quantum) {
            let slot = ((now_us / quantum) % slots) as usize;
            let mut i = slot;
            while i < self.vcpus.len() {
                if !self.vcpus[i].blocked {
                    let w = self.vms[self.vcpus[i].vm.index()].weight as u64;
                    let grant = (total as i64 * w as i64 / total_weight.max(1) as i64) as i32;
                    self.vcpus[i].adjust_credits(grant);
                }
                i += slots as usize;
            }
            return;
        }
        for i in 0..self.vcpus.len() {
            if self.vcpus[i].blocked {
                continue;
            }
            let offset = (i as u64 % slots) * quantum;
            if (now_us.wrapping_sub(offset)).is_multiple_of(window) {
                let w = self.vms[self.vcpus[i].vm.index()].weight as u64;
                let grant = (total as i64 * w as i64 / total_weight.max(1) as i64) as i32;
                self.vcpus[i].adjust_credits(grant);
            }
        }
    }

    /// Wake any timer idlers whose guest timer has fired. Wake placement is
    /// Xen's NUMA-oblivious `csched_cpu_pick`: the first idle PCPU in id
    /// order, else the least-loaded one — which concentrates wakeups (and
    /// the preemption they cause) on low-numbered PCPUs.
    fn wake_idlers(&mut self, now: SimTime) {
        // Every blocked idler has exactly one `idler_wakes` entry, so the
        // common no-wakeup quantum is a single heap peek.
        let mut fired: Vec<usize> = Vec::new();
        while let Some(&Reverse((t, i))) = self.idler_wakes.peek() {
            if t > now {
                break;
            }
            self.idler_wakes.pop();
            fired.push(i as usize);
        }
        // Wake placement sees the queues earlier wakeups already touched,
        // so process in VCPU-index order exactly as the full scan did.
        fired.sort_unstable();
        for i in fired {
            debug_assert!(self.vcpus[i].blocked && self.vcpus[i].next_wake <= now);
            let target = self
                .pcpus
                .iter()
                .filter(|p| self.vcpus[i].allowed_on(p.node))
                .min_by_key(|p| (!p.is_idle(), p.workload(), p.id.index()))
                .map(|p| p.id)
                .expect("machine has PCPUs");
            let v = &mut self.vcpus[i];
            v.blocked = false;
            v.burst_left = 1;
            v.priority = v.wake_priority();
            v.queued_on = Some(target);
            let vid = v.id;
            let boosted = v.priority == Priority::Boost;
            self.active_weight += self.vms[v.vm.index()].weight as u64;
            self.pcpus[target.index()].queue.push(vid);
            self.telemetry.inc(self.tids.c_idler_wakes, 1);
            if boosted {
                self.telemetry.inc(self.tids.c_credit_boosts, 1);
            }
            if self.trace.is_enabled() {
                self.trace
                    .record(now, crate::trace::Event::IdlerWake { vcpu: vid, pcpu: target });
                if boosted {
                    self.trace
                        .record(now, crate::trace::Event::CreditBoost { vcpu: vid, pcpu: target });
                }
            }
            if self.provenance.is_enabled() {
                let num_candidates = self
                    .pcpus
                    .iter()
                    .filter(|p| self.vcpus[i].allowed_on(p.node))
                    .count();
                self.provenance.record(
                    now,
                    "first-idle-least-loaded",
                    crate::provenance::Decision::WakePlacement {
                        vcpu: vid,
                        chosen: target,
                        num_candidates,
                    },
                );
            }
        }
    }

    fn schedule_all(&mut self) {
        for p in 0..self.pcpus.len() {
            self.schedule_pcpu(PcpuId::from_index(p));
        }
        // Idle-with-queued-work signal for load-balance quality.
        let any_idle = self.pcpus.iter().any(|p| p.current.is_none());
        let any_queued = self.pcpus.iter().any(|p| !p.queue.is_empty());
        if any_idle && any_queued {
            self.metrics.idle_with_work_quanta += 1;
        }
    }

    fn schedule_pcpu(&mut self, pid: PcpuId) {
        // A transiently stalled PCPU (injected fault) makes no scheduling
        // decisions: whatever it holds stays pinned until the stall ends.
        if self.pcpus[pid.index()].stall_left > 0 {
            return;
        }
        let node = self.pcpus[pid.index()].node;
        // Decide whether the current VCPU keeps the PCPU.
        if let Some(cur) = self.pcpus[pid.index()].current {
            // A timer idler whose burst is spent blocks until its next
            // guest-timer firing.
            if self.vcpus[cur.index()].kind == VcpuKind::TimerIdler
                && self.vcpus[cur.index()].burst_left == 0
            {
                self.pcpus[pid.index()].current = None;
                let vm = &self.vms[self.vcpus[cur.index()].vm.index()];
                let period = vm.idler_period.expect("idler implies period");
                let weight = vm.weight as u64;
                let v = &mut self.vcpus[cur.index()];
                v.running_on = None;
                v.blocked = true;
                v.next_wake = self.clock.now() + period;
                self.active_weight -= weight;
                self.idler_wakes.push(Reverse((v.next_wake, cur.raw())));
                if self.trace.is_enabled() {
                    self.trace
                        .record(self.clock.now(), crate::trace::Event::SwitchOut { vcpu: cur, pcpu: pid });
                }
            } else {
                let vcpus = &self.vcpus;
                let v = &vcpus[cur.index()];
                let preempted = self.pcpus[pid.index()]
                    .queue
                    .head_priority(|x| vcpus[x.index()].priority)
                    .is_some_and(|h| h < v.priority);
                let keep = v.timeslice_left > 0 && v.allowed_on(node) && !preempted;
                if keep {
                    self.vcpus[cur.index()].timeslice_left -= 1;
                    return;
                }
                // Deschedule.
                self.pcpus[pid.index()].current = None;
                if self.trace.is_enabled() {
                    self.trace
                        .record(self.clock.now(), crate::trace::Event::SwitchOut { vcpu: cur, pcpu: pid });
                }
                let vstate = &mut self.vcpus[cur.index()];
                vstate.running_on = None;
                if vstate.allowed_on(node) {
                    vstate.queued_on = Some(pid);
                    self.pcpus[pid.index()].queue.push(cur);
                } else {
                    let target = vstate.assigned_node.expect("not allowed implies assignment");
                    self.enqueue_on_node(cur, target);
                }
            }
        }

        // Pick next: prefer own BOOST/UNDER work; steal when the best the
        // queue offers is OVER work or nothing (Xen's balance trigger).
        let head = {
            let vcpus = &self.vcpus;
            self.pcpus[pid.index()]
                .queue
                .head_priority(|x| vcpus[x.index()].priority)
        };
        if head.is_none() || head == Some(Priority::Over) {
            let min_prio = if head.is_some() {
                Priority::Under // have OVER work; only better work is worth a steal
            } else {
                Priority::Over // idle; take anything
            };
            let would_idle = head.is_none();
            if let Some((victim, vcpu)) = self.try_steal(pid, min_prio, would_idle) {
                // Injected fault: the balance operation loses the race for
                // the victim's queue lock and gives up (Xen retries at the
                // next balance trigger, and so do we).
                if self.faults_enabled && self.injector.steal_failed() {
                    self.metrics.faults.steals_failed += 1;
                    self.telemetry.inc(self.tids.c_faults, 1);
                    if self.trace.is_enabled() {
                        self.trace.record(
                            self.clock.now(),
                            crate::trace::Event::Fault(crate::trace::FaultEvent::StealFailed {
                                thief: pid,
                            }),
                        );
                    }
                } else {
                    self.perform_steal(pid, victim, vcpu, head.is_none());
                    return;
                }
            }
        }
        let popped = {
            let vcpus = &self.vcpus;
            self.pcpus[pid.index()]
                .queue
                .pop_best(|x| vcpus[x.index()].priority)
        };
        if let Some((vcpu, _prio)) = popped {
            self.vcpus[vcpu.index()].queued_on = None;
            self.switch_in(pid, vcpu);
        }
    }

    fn perform_steal(&mut self, pid: PcpuId, victim: PcpuId, vcpu: VcpuId, was_idle: bool) {
        let removed = self.pcpus[victim.index()].queue.remove(vcpu);
        debug_assert!(removed, "stolen vcpu must be queued on victim");
        self.vcpus[vcpu.index()].queued_on = None;
        self.metrics.steals += 1;
        self.metrics.steals_per_vm[self.vcpus[vcpu.index()].vm.index()] += 1;
        if was_idle {
            self.metrics.idle_steals += 1;
        }
        let victim_node = self.pcpus[victim.index()].node;
        let thief_node = self.pcpus[pid.index()].node;
        let cross = victim_node != thief_node;
        self.telemetry.inc(
            if cross {
                self.tids.c_steals_remote
            } else {
                self.tids.c_steals_local
            },
            1,
        );
        // "Steal latency" as NUMA distance victim → thief: the cost proxy
        // for how far the stolen VCPU's cache state has to travel.
        self.telemetry.observe(
            self.tids.h_steal_latency,
            self.topo.distance().get(victim_node, thief_node) as f64,
        );
        if self.trace.is_enabled() {
            self.trace.record(
                self.clock.now(),
                crate::trace::Event::Steal {
                    thief: pid,
                    victim,
                    vcpu,
                    cross_node: cross,
                },
            );
        }
        self.switch_in(pid, vcpu);
    }

    fn try_steal(
        &mut self,
        thief: PcpuId,
        min_prio: Priority,
        would_idle: bool,
    ) -> Option<(PcpuId, VcpuId)> {
        let thief_node = self.pcpus[thief.index()].node;
        let mut victims: Vec<(PcpuId, usize, Vec<VcpuId>)> =
            Vec::with_capacity(self.pcpus.len() - 1);
        let mut total_runnable = 0usize;
        for p in &self.pcpus {
            total_runnable += p.workload();
            if p.id == thief {
                continue;
            }
            // BOOST VCPUs are excluded: a boosted wakeup is about to be
            // run by its own (tickled) PCPU within microseconds on real
            // Xen; it is only observably queued here because of the 1 ms
            // quantum. Stealing one would waste the balance operation on a
            // VCPU that blocks again almost immediately.
            let candidates: Vec<VcpuId> = p
                .queue
                .iter_at_least(min_prio, |x| self.vcpus[x.index()].priority)
                .filter(|v| {
                    let st = &self.vcpus[v.index()];
                    st.priority != Priority::Boost && st.allowed_on(thief_node)
                })
                .collect();
            victims.push((p.id, p.workload(), candidates));
        }
        self.metrics.steal_attempts += 1;
        if victims.iter().all(|(_, _, c)| c.is_empty()) {
            self.metrics.steal_attempts_empty += 1;
        }
        // Serialization cost of the balance decision (BRM's global lock).
        let cost = self.policy.decision_overhead_us(total_runnable);
        if cost > 0.0 {
            self.pcpus[thief.index()].pending_overhead_us += cost;
        }
        let ctx = StealContext {
            topo: &self.topo,
            idle_pcpu: thief,
            victims: &victims,
            pressure: &self.pressure,
            would_idle,
        };
        if !self.provenance.is_enabled() {
            return self.policy.steal(ctx);
        }
        // Provenance path: identical call (the context is a cheap by-ref
        // copy), then flatten the candidate set with its score components
        // and ask the policy which rule fired. Records only decisions that
        // had at least one candidate; the all-empty case is already
        // counted by `steal_attempts_empty`.
        let choice = self.policy.steal(ctx.clone());
        let thief_node_of = |p: PcpuId| self.topo.node_of_pcpu(p);
        let mut candidates: Vec<crate::provenance::StealCandidate> = Vec::new();
        for (pid, workload, cands) in &victims {
            let node = thief_node_of(*pid);
            let dist = self.topo.distance().get(node, thief_node);
            for &v in cands {
                candidates.push(crate::provenance::StealCandidate {
                    pcpu: *pid,
                    vcpu: v,
                    node,
                    dist,
                    workload: *workload,
                    pressure: self.pressure[v.index()],
                    prio: self.vcpus[v.index()].priority,
                });
            }
        }
        if !candidates.is_empty() {
            let rule = self.policy.explain_steal(&ctx, &choice);
            self.provenance.record(
                self.clock.now(),
                rule,
                crate::provenance::Decision::Steal {
                    thief,
                    thief_node,
                    would_idle,
                    chosen: choice,
                    candidates,
                },
            );
        }
        choice
    }

    fn switch_in(&mut self, pid: PcpuId, vcpu: VcpuId) {
        let node = self.pcpus[pid.index()].node;
        let migrated = self.vcpus[vcpu.index()].last_pcpu != Some(pid);
        let cross_node = self.vcpus[vcpu.index()]
            .last_pcpu
            .is_some_and(|lp| self.topo.node_of_pcpu(lp) != node);
        // Timer-idler wake placements are wakeups, not load-balance
        // migrations: they carry no cache/memory state worth tracking, so
        // only workers count toward the migration metrics.
        let is_worker = self.vcpus[vcpu.index()].kind == VcpuKind::Worker;
        if migrated && is_worker && self.vcpus[vcpu.index()].last_pcpu.is_some() {
            self.metrics.migrations += 1;
            let from = self
                .topo
                .node_of_pcpu(self.vcpus[vcpu.index()].last_pcpu.expect("checked above"));
            self.telemetry.observe(
                self.tids.h_migration_distance,
                self.topo.distance().get(from, node) as f64,
            );
            if cross_node {
                self.metrics.cross_node_migrations += 1;
                // The whole LLC working set must be refetched on the new
                // node: the cold window scales with its size (~1 ms/MB).
                let v = &self.vcpus[vcpu.index()];
                let ws_mb = (self.vms[v.vm.index()]
                    .thread_for_slot(v.vm_idx)
                    .profile_at(self.clock.now())
                    .miss_curve
                    .ws_bytes
                    / (1024 * 1024)) as u32;
                self.vcpus[vcpu.index()].cold_quanta =
                    (self.cfg.cold_quanta + ws_mb).min(self.cfg.cold_quanta_max);
            }
        }
        let mut cost = self.cfg.context_switch_us;
        if migrated {
            cost += self.cfg.migration_extra_us;
        }
        self.pcpus[pid.index()].pending_overhead_us += cost;
        let v = &mut self.vcpus[vcpu.index()];
        v.running_on = Some(pid);
        v.last_pcpu = Some(pid);
        v.timeslice_left = self.timeslice_quanta;
        self.pcpus[pid.index()].current = Some(vcpu);
        if self.trace.is_enabled() {
            self.trace
                .record(self.clock.now(), crate::trace::Event::SwitchIn { vcpu, pcpu: pid });
        }
    }

    /// Queue a VCPU on a uniformly random PCPU of `node`.
    ///
    /// Deliberately *not* least-loaded: a periodic pass that always lands
    /// migrated VCPUs on the emptiest queue would hand them a systematic
    /// queue-jump over VCPUs the pass never touches, distorting CPU shares
    /// in favour of whatever the policy migrates most often. Random
    /// placement is share-neutral; intra-node imbalance is the stealing
    /// path's job.
    fn enqueue_on_node(&mut self, vcpu: VcpuId, node: NodeId) {
        let pcpus = self.topo.pcpus_of_node(node);
        let target = pcpus[self.rng.index(pcpus.len()).expect("every node has PCPUs")];
        if self.provenance.is_enabled() {
            self.provenance.record(
                self.clock.now(),
                "uniform-random",
                crate::provenance::Decision::Placement {
                    vcpu,
                    node,
                    chosen: target,
                    num_candidates: pcpus.len(),
                },
            );
        }
        self.vcpus[vcpu.index()].queued_on = Some(target);
        self.pcpus[target.index()].queue.push(vcpu);
    }

    fn execute_quantum(&mut self, now: SimTime) {
        self.update_intensity_noise();
        let noise = &self.noise_scratch;
        let mut usages: Vec<QuantumUsage> = Vec::with_capacity(self.pcpus.len());
        for p in &mut self.pcpus {
            // A stalled PCPU makes no forward progress this quantum.
            if p.stall_left > 0 {
                continue;
            }
            let Some(vid) = p.current else { continue };
            self.vcpus[vid.index()].run_quanta += 1;
            let v = &self.vcpus[vid.index()];
            let vm = &self.vms[v.vm.index()];
            // Workers borrow their thread's phase-cached profile with the
            // burstiness factor applied engine-side; rebuilding the profile
            // here (as the code once did) costs two allocations per running
            // VCPU per quantum.
            let (profile, rpti_scale) = match v.kind {
                VcpuKind::Worker => (
                    vm.thread_for_slot(v.vm_idx).profile_at(now),
                    noise[vid.index()],
                ),
                // A timer-idler burst is kernel housekeeping: brief,
                // CPU-only, no LLC footprint worth modeling.
                VcpuKind::TimerIdler => (&self.idler_profile, 1.0),
            };
            usages.push(QuantumUsage {
                key: vid.raw() as u64,
                node: p.node,
                // An injected node-throttle period slows every VCPU on the
                // node (all-false without faults, leaving the share at 1).
                runtime_share: if self.node_throttled[p.node.index()] {
                    self.cfg.faults.node_throttle_factor
                } else {
                    1.0
                },
                profile,
                rpti_scale,
                cold_miss_boost: if v.cold_quanta > 0 {
                    self.cfg.cold_miss_boost
                } else {
                    1.0
                },
                overhead_us: std::mem::take(&mut p.pending_overhead_us),
            });
        }
        self.engine.step_ref(self.cfg.quantum, &usages);
        let results = self.engine.take_results();
        for r in &results {
            let vid = VcpuId::new(r.key as u32);
            let v = &mut self.vcpus[vid.index()];
            if v.cold_quanta > 0 {
                v.cold_quanta -= 1;
            }
            if v.kind == VcpuKind::TimerIdler {
                // Idler bursts consume PCPU time but are guest-kernel
                // housekeeping, not application work: they count toward
                // machine busy time (Table III's denominator) only.
                if v.burst_left > 0 {
                    v.burst_left -= 1;
                }
                self.overhead.add_busy_time(self.cfg.quantum);
                continue;
            }
            self.sampler.record(
                vid.index(),
                r.instructions,
                r.llc_refs,
                r.llc_misses,
                r.local_accesses,
                r.remote_accesses,
                &r.node_accesses,
            );
            let m = &mut self.metrics.per_vm[v.vm.index()];
            m.instructions += r.instructions;
            m.llc_refs += r.llc_refs;
            m.llc_misses += r.llc_misses;
            m.local_accesses += r.local_accesses;
            m.remote_accesses += r.remote_accesses;
            m.busy_us += self.cfg.quantum.as_micros();
            self.overhead.add_busy_time(self.cfg.quantum);
        }
        self.engine.put_back_results(results);
    }

    /// Advance each worker's burstiness process one quantum (discrete
    /// Ornstein-Uhlenbeck reverting to 1.0), leaving the current factors in
    /// `noise_scratch` (reused across quanta instead of reallocated).
    fn update_intensity_noise(&mut self) {
        self.noise_scratch.clear();
        let sd = self.cfg.intensity_noise_sd;
        if sd <= 0.0 {
            self.noise_scratch.resize(self.vcpus.len(), 1.0);
            return;
        }
        let theta = (self.cfg.quantum.as_micros() as f64
            / self.cfg.intensity_noise_corr.as_micros().max(1) as f64)
            .min(1.0);
        // Stationary sd of x' = x + theta (1 - x) + step*eps is
        // step / sqrt(theta (2 - theta)).
        let step = sd * (theta * (2.0 - theta)).sqrt();
        for v in &mut self.vcpus {
            if v.kind == VcpuKind::Worker {
                let eps = self.rng.normal_clamped(0.0, 1.0, -3.0, 3.0);
                v.intensity_noise =
                    (v.intensity_noise + theta * (1.0 - v.intensity_noise) + step * eps)
                        .clamp(0.4, 1.8);
            }
            self.noise_scratch.push(v.intensity_noise);
        }
    }

    fn handle_sample(&mut self, now: SimTime, mut samples: Vec<PmuSample>) {
        // Counter attribution error: relative sd shrinks with the square
        // root of the window length.
        if self.cfg.attribution_noise > 0.0 {
            let window_quanta =
                (self.cfg.sample_period.as_micros() / self.cfg.quantum.as_micros()).max(1);
            let sd = self.cfg.attribution_noise / (window_quanta as f64).sqrt();
            for s in &mut samples {
                let f = self.rng.normal_clamped(1.0, sd, 0.2, 3.0);
                s.llc_refs = (s.llc_refs as f64 * f).round() as u64;
            }
        }
        // Injected PMU faults corrupt what the analyzer (and the series
        // below) sees; ground-truth per-VM metrics accumulate in
        // `execute_quantum` from engine results and are untouched.
        if self.faults_enabled {
            self.inject_sample_faults(now, &mut samples);
        }
        if self.trace.is_enabled() {
            self.trace.record(
                now,
                crate::trace::Event::SamplePeriod {
                    periods: self.sampler.periods_completed(),
                },
            );
        }
        // Refresh the machine-cached per-VCPU pressures (Eq. 2).
        for (v, s) in samples.iter().enumerate() {
            self.pressure[v] = s.llc_access_pressure(1_000.0);
        }
        // Per-VM remote-ratio and throughput series for this period.
        let period_s = self.cfg.sample_period.as_secs_f64();
        for vm in &self.vms {
            let (mut local, mut remote, mut instr) = (0u64, 0u64, 0u64);
            for &vid in &vm.vcpu_ids {
                local += samples[vid.index()].local_accesses;
                remote += samples[vid.index()].remote_accesses;
                instr += samples[vid.index()].instructions;
            }
            let ratio = if local + remote == 0 {
                0.0
            } else {
                remote as f64 / (local + remote) as f64
            };
            self.metrics.remote_ratio_series[vm.id.index()].push(now, ratio);
            self.metrics.throughput_series[vm.id.index()]
                .push(now, instr as f64 / period_s);
        }

        if self.policy.uses_pmu() {
            let cost = self.overhead.charge_analysis();
            self.pcpus[0].pending_overhead_us += cost;
        }

        let views: Vec<VcpuView> = self
            .vcpus
            .iter()
            .map(|v| VcpuView {
                id: v.id,
                vm: v.vm,
                assigned_node: v.assigned_node,
            })
            .collect();
        // Deliver period-health signals before the analysis pass. With
        // faults disabled this reports all-valid samples and no failures,
        // and the default implementation ignores it.
        let failed_last_period = std::mem::take(&mut self.failed_migrations);
        self.policy.on_period_feedback(&PeriodFeedback {
            sample_validity: &self.sample_validity,
            failed_migrations: &failed_last_period,
        });
        let plan = self.policy.on_sample(AnalyzerView {
            topo: &self.topo,
            samples: &samples,
            vcpus: &views,
        });
        // Degradation bookkeeping (all-default for the paper's policies).
        let report = plan.report;
        self.metrics.faults.periods_skipped += u64::from(report.period_skipped);
        self.metrics.faults.fallback_periods += u64::from(report.fallback_active);
        self.metrics.faults.fallbacks_triggered += u64::from(report.fallback_entered);
        self.metrics.faults.migration_retries += u64::from(report.migration_retries);
        // Edge-detect degrade-mode transitions for the trace and counters.
        if report.fallback_entered {
            self.telemetry.inc(self.tids.c_degrade_enter, 1);
            if self.trace.is_enabled() {
                self.trace
                    .record(now, crate::trace::Event::Degrade { fallback: true });
            }
            if self.provenance.is_enabled() {
                self.provenance.record(
                    now,
                    "confidence-dark-streak",
                    crate::provenance::Decision::Degrade { fallback: true },
                );
            }
        }
        if self.was_fallback && !report.fallback_active {
            self.telemetry.inc(self.tids.c_degrade_recover, 1);
            if self.trace.is_enabled() {
                self.trace
                    .record(now, crate::trace::Event::Degrade { fallback: false });
            }
            if self.provenance.is_enabled() {
                self.provenance.record(
                    now,
                    "confidence-recovered",
                    crate::provenance::Decision::Degrade { fallback: false },
                );
            }
        }
        self.was_fallback = report.fallback_active;

        // Partition provenance: the policy's per-assignment notes (explain
        // mode only) become decision records at the period instant. Notes
        // never affect application below.
        if self.provenance.is_enabled() {
            for note in &plan.notes {
                self.provenance
                    .record(now, note.rule, crate::provenance::decision_from_note(note));
            }
        }

        for a in plan.assignments {
            let idx = a.vcpu.index();
            // Administrative pins outrank any policy decision.
            if self.vcpus[idx].admin_pinned {
                continue;
            }
            // A *hard* plan pins the VCPU to the node until the next
            // period; the paper's partitioning is a one-shot migration
            // (soft) whose persistence relies on the NUMA-aware load
            // balance not dragging heavy VCPUs back across nodes.
            self.vcpus[idx].assigned_node = if plan.hard { a.node } else { None };
            let Some(target) = a.node else { continue };
            // A VCPU already running on the right node is left alone; the
            // fault draw below therefore only covers real migrations.
            if self.vcpu_on_node(self.vcpus[idx].running_on, target) {
                continue;
            }
            if self.faults_enabled {
                match self.injector.migration_fault() {
                    MigrationFault::Failed => {
                        self.metrics.faults.migrations_failed += 1;
                        self.failed_migrations.push((a.vcpu, target));
                        self.telemetry.inc(self.tids.c_faults, 1);
                        if self.trace.is_enabled() {
                            self.trace.record(
                                now,
                                crate::trace::Event::Fault(
                                    crate::trace::FaultEvent::MigrationFailed {
                                        vcpu: a.vcpu,
                                        node: target,
                                    },
                                ),
                            );
                        }
                        continue;
                    }
                    MigrationFault::Delayed(quanta) => {
                        self.metrics.faults.migrations_delayed += 1;
                        let due = now + self.cfg.quantum * u64::from(quanta);
                        self.delayed_moves.push((due, a.vcpu, target));
                        self.telemetry.inc(self.tids.c_faults, 1);
                        if self.trace.is_enabled() {
                            self.trace.record(
                                now,
                                crate::trace::Event::Fault(
                                    crate::trace::FaultEvent::MigrationDelayed {
                                        vcpu: a.vcpu,
                                        node: target,
                                        quanta: u64::from(quanta),
                                    },
                                ),
                            );
                        }
                        continue;
                    }
                    MigrationFault::None => {}
                }
            }
            self.apply_partition_move(a.vcpu, target, now);
        }

        self.apply_page_migrations(now, plan.page_migrations);

        // Close the telemetry period: record the period-end distributions
        // (runqueue depth per PCPU, worker RPTI and its Table 2 class) and
        // snapshot every metric's window into its series.
        if self.telemetry.is_enabled() {
            for p in 0..self.pcpus.len() {
                let depth = self.pcpus[p].queue.len() as f64;
                self.telemetry.observe(self.tids.h_runq_depth, depth);
            }
            let mut active = 0u64;
            for i in 0..self.vcpus.len() {
                if !self.vcpus[i].blocked {
                    active += 1;
                }
                if self.vcpus[i].kind != VcpuKind::Worker {
                    continue;
                }
                let rpti = self.pressure[i];
                self.telemetry.observe(self.tids.h_rpti, rpti);
                let class = if rpti < RPTI_FRIENDLY_MAX {
                    self.tids.c_rpti_friendly
                } else if rpti < RPTI_FITTING_MAX {
                    self.tids.c_rpti_fitting
                } else {
                    self.tids.c_rpti_thrashing
                };
                self.telemetry.inc(class, 1);
            }
            self.telemetry.set_gauge(self.tids.g_active_vcpus, active as f64);
            self.telemetry.snapshot(now);
        }
    }

    fn vcpu_on_node(&self, pcpu: Option<PcpuId>, node: NodeId) -> bool {
        pcpu.is_some_and(|pid| self.topo.node_of_pcpu(pid) == node)
    }

    /// Migrate one VCPU to `target` per Algorithm 1: a VCPU already
    /// running there is left alone, but a queued one is re-placed on the
    /// node (losing its queue position) — this per-pass disruption is what
    /// makes very short sampling periods expensive (Fig. 8's left arm).
    /// Shared by the sampling-period pass and the injected-delay path.
    fn apply_partition_move(&mut self, vcpu: VcpuId, target: NodeId, now: SimTime) {
        let idx = vcpu.index();
        if self.vcpu_on_node(self.vcpus[idx].running_on, target) {
            return;
        }
        let was_cross = !self.vcpu_on_node(self.vcpus[idx].queued_on, target)
            || self.vcpus[idx].running_on.is_some();
        if let Some(pid) = self.vcpus[idx].running_on {
            self.pcpus[pid.index()].current = None;
            self.vcpus[idx].running_on = None;
            if self.trace.is_enabled() {
                self.trace
                    .record(now, crate::trace::Event::SwitchOut { vcpu, pcpu: pid });
            }
        } else if let Some(pid) = self.vcpus[idx].queued_on {
            self.pcpus[pid.index()].queue.remove(vcpu);
            self.vcpus[idx].queued_on = None;
        }
        self.enqueue_on_node(vcpu, target);
        if was_cross {
            self.metrics.partition_moves += 1;
            self.telemetry.inc(self.tids.c_partition_moves, 1);
            if self.trace.is_enabled() {
                self.trace
                    .record(now, crate::trace::Event::PartitionMove { vcpu, node: target });
            }
        }
        if self.policy.uses_pmu() {
            let cost = self.overhead.charge_migration();
            self.pcpus[0].pending_overhead_us += cost;
        }
    }

    /// Corrupt the period's samples per the fault schedule (only called
    /// with faults enabled) and draw the coming period's node throttles.
    fn inject_sample_faults(&mut self, now: SimTime, samples: &mut [PmuSample]) {
        let num_nodes = self.topo.num_nodes();
        for (i, s) in samples.iter_mut().enumerate() {
            let vcpu = VcpuId::new(i as u32);
            if self.injector.sample_lost() {
                *s = PmuSample::zeroed(num_nodes);
                self.sample_validity[i] = 0.0;
                self.metrics.faults.samples_lost += 1;
                self.telemetry.inc(self.tids.c_faults, 1);
                if self.trace.is_enabled() {
                    self.trace.record(
                        now,
                        crate::trace::Event::Fault(crate::trace::FaultEvent::SampleLost { vcpu }),
                    );
                }
                continue;
            }
            self.sample_validity[i] = 1.0;
            if let Some(f) = self.injector.multiplex_factor() {
                s.scale_llc(f);
                self.metrics.faults.counters_noised += 1;
                self.telemetry.inc(self.tids.c_faults, 1);
                if self.trace.is_enabled() {
                    self.trace.record(
                        now,
                        crate::trace::Event::Fault(crate::trace::FaultEvent::CounterNoise { vcpu }),
                    );
                }
            }
            if self.injector.affinity_corrupted() {
                let k = self.injector.affinity_rotation(num_nodes);
                s.rotate_node_accesses(k);
                self.metrics.faults.affinity_corruptions += 1;
                self.telemetry.inc(self.tids.c_faults, 1);
                if self.trace.is_enabled() {
                    self.trace.record(
                        now,
                        crate::trace::Event::Fault(
                            crate::trace::FaultEvent::AffinityCorrupted { vcpu },
                        ),
                    );
                }
            }
        }
        for n in 0..num_nodes {
            let throttled = self.injector.node_throttled();
            self.node_throttled[n] = throttled;
            self.metrics.faults.node_throttled_periods += u64::from(throttled);
            if throttled {
                self.telemetry.inc(self.tids.c_faults, 1);
                if self.trace.is_enabled() {
                    self.trace.record(
                        now,
                        crate::trace::Event::Fault(crate::trace::FaultEvent::NodeThrottled {
                            node: NodeId::from_index(n),
                        }),
                    );
                }
            }
        }
    }

    fn apply_page_migrations(&mut self, now: SimTime, page_migrations: Vec<crate::policy::PageMigration>) {
        // §VI extension: page migrations requested by the policy. The copy
        // engine moves ~2 bytes/ns; its time is charged as overhead on the
        // PCPU where the migrated VCPU would run (the VM stalls on the
        // moving pages).
        for pm in page_migrations {
            let v = &self.vcpus[pm.vcpu.index()];
            if v.kind != VcpuKind::Worker {
                continue;
            }
            let (vm, vm_idx) = (v.vm, v.vm_idx);
            let charged_pcpu = v.running_on.or(v.queued_on).unwrap_or(PcpuId::new(0));
            let moved = self.vms[vm.index()].migrate_thread_pages(vm_idx, pm.to_node, pm.max_bytes);
            if moved > 0 {
                self.metrics.page_migrations += 1;
                self.metrics.page_migration_bytes += moved;
                self.pcpus[charged_pcpu.index()].pending_overhead_us += moved as f64 / 2_000.0;
                if self.trace.is_enabled() {
                    self.trace.record(
                        now,
                        crate::trace::Event::PageMigration {
                            vcpu: pm.vcpu,
                            node: pm.to_node,
                            bytes: moved,
                        },
                    );
                }
                if self.provenance.is_enabled() {
                    self.provenance.record(
                        now,
                        "budget-grant",
                        crate::provenance::Decision::PageMigration {
                            vcpu: pm.vcpu,
                            node: pm.to_node,
                            bytes: moved,
                        },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests_helpers {
    use super::*;
    use crate::credit::CreditPolicy;
    use mem_model::AllocPolicy;
    use numa_topo::presets;
    use workloads::{hungry, npb};

    const GB: u64 = 1024 * 1024 * 1024;

    pub fn quad_topo() -> numa_topo::Topology {
        numa_topo::TopologyBuilder::new(2_400)
            .add_nodes(numa_topo::NodeConfig::e5620_node(), 2, 2)
            .fully_connected_qpi()
            .build()
            .unwrap()
    }

    pub fn basic_machine_pub() -> Machine {
        MachineBuilder::new(presets::xeon_e5620())
            .policy(Box::new(CreditPolicy::new()))
            .add_vm(VmConfig::new("vm1", 8, 8 * GB, AllocPolicy::MostFree, vec![npb::lu()]))
            .add_vm(VmConfig::new("vm2", 8, 5 * GB, AllocPolicy::MostFree, vec![npb::lu()]))
            .add_vm(VmConfig::new("vm3", 8, GB, AllocPolicy::MostFree, vec![hungry::hungry_loop(); 8]))
            .build()
            .unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::credit::CreditPolicy;
    use mem_model::AllocPolicy;
    use numa_topo::presets;
    use workloads::{hungry, npb, speccpu};

    const GB: u64 = 1024 * 1024 * 1024;

    fn vm(name: &str, mem_gb: u64, workloads: Vec<workloads::WorkloadSpec>) -> VmConfig {
        VmConfig {
            name: name.into(),
            vcpus: 8,
            mem_bytes: mem_gb * GB,
            alloc: AllocPolicy::MostFree,
            workloads,
            shuffle_period: None,
            idler_period: Some(SimDuration::from_millis(30)),
            pin_node: None,
            phase_period: None,
            weight: 256,
        }
    }

    fn basic_machine() -> Machine {
        MachineBuilder::new(presets::xeon_e5620())
            .policy(Box::new(CreditPolicy::new()))
            .add_vm(vm("vm1", 8, vec![npb::lu()]))
            .add_vm(vm("vm2", 5, vec![npb::lu()]))
            .add_vm(VmConfig {
                name: "vm3".into(),
                vcpus: 8,
                mem_bytes: GB,
                alloc: AllocPolicy::MostFree,
                workloads: vec![hungry::hungry_loop(); 8],
                shuffle_period: None,
                idler_period: Some(SimDuration::from_millis(30)),
                pin_node: None,
                phase_period: None,
                weight: 256,
            })
            .build()
            .unwrap()
    }

    #[test]
    fn builder_requires_policy_and_vms() {
        let err = MachineBuilder::new(presets::xeon_e5620())
            .add_vm(vm("v", 1, vec![npb::lu()]))
            .build()
            .err()
            .expect("missing policy must fail");
        assert!(err.to_string().contains("policy"));
        let err = MachineBuilder::new(presets::xeon_e5620())
            .policy(Box::new(CreditPolicy::new()))
            .build()
            .err()
            .expect("missing VMs must fail");
        assert!(err.to_string().contains("VMs"));
    }

    #[test]
    fn machine_creates_vcpus_including_idlers() {
        let m = basic_machine();
        // 4 + 4 + 8 worker threads plus 4 + 4 + 0 timer idlers.
        assert_eq!(m.num_vcpus(), 24);
    }

    #[test]
    fn run_advances_time_and_executes() {
        let mut m = basic_machine();
        m.run(SimDuration::from_secs(2));
        assert_eq!(m.now().as_micros(), 2_000_000);
        let metrics = m.metrics();
        assert_eq!(metrics.elapsed, SimDuration::from_secs(2));
        for vm in &metrics.per_vm {
            assert!(vm.instructions > 0, "every VM should make progress");
        }
        // 16 runnable workers on 8 PCPUs: every PCPU busy every quantum
        // (busy time includes idler bursts, hence exact machine capacity).
        assert_eq!(metrics.busy_us, 8.0 * 2_000_000.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = basic_machine();
        let mut b = basic_machine();
        a.run(SimDuration::from_secs(1));
        b.run(SimDuration::from_secs(1));
        assert_eq!(
            a.metrics().per_vm[0].instructions,
            b.metrics().per_vm[0].instructions
        );
        assert_eq!(a.metrics().migrations, b.metrics().migrations);
    }

    #[test]
    fn credit_fairness_across_identical_vms() {
        // VM1 and VM2 run the same program; with fair share their busy
        // time converges once the initial placement transient (VM1 on
        // node0, VM2 on node1, scan-order stealing favouring low PCPUs)
        // washes out.
        let mut m = basic_machine();
        m.run(SimDuration::from_secs(12));
        let b1 = m.metrics().per_vm[0].busy_us as f64;
        let b2 = m.metrics().per_vm[1].busy_us as f64;
        let ratio = b1 / b2;
        assert!((0.72..1.4).contains(&ratio), "busy ratio {ratio}");
    }

    #[test]
    fn oversubscription_causes_migrations_under_credit() {
        let mut m = basic_machine();
        m.run(SimDuration::from_secs(5));
        assert!(
            m.metrics().migrations > 10,
            "credit churn expected, got {}",
            m.metrics().migrations
        );
        assert!(m.metrics().cross_node_migrations > 0);
    }

    #[test]
    fn remote_accesses_happen_under_credit() {
        let mut m = basic_machine();
        m.run(SimDuration::from_secs(5));
        let vm1 = &m.metrics().per_vm[0];
        assert!(vm1.remote_accesses > 0, "NUMA-oblivious credit must go remote");
        assert!(vm1.remote_ratio() > 0.2, "ratio={}", vm1.remote_ratio());
    }

    #[test]
    fn undersubscribed_machine_leaves_pcpus_idle_but_progresses() {
        let mut m = MachineBuilder::new(presets::xeon_e5620())
            .policy(Box::new(CreditPolicy::new()))
            .add_vm(vm("solo", 4, vec![speccpu::soplex()]))
            .build()
            .unwrap();
        m.run(SimDuration::from_secs(1));
        let vm0 = &m.metrics().per_vm[0];
        assert!(vm0.instructions > 0);
        // One busy VCPU: at most 1 PCPU-second of busy time.
        assert!(vm0.busy_us <= 1_000_000);
    }

    #[test]
    fn vm_lookup_by_name() {
        let m = basic_machine();
        assert_eq!(m.vm_id_by_name("vm2"), Some(VmId::new(1)));
        assert_eq!(m.vm_id_by_name("nope"), None);
    }

    #[test]
    fn pmu_totals_match_vm_metrics() {
        let mut m = basic_machine();
        m.run(SimDuration::from_secs(1));
        let vm1 = m.vm_id_by_name("vm1").unwrap();
        let sum: u64 = (0..4).map(|i| m.vcpu_totals(VcpuId::new(i)).instructions).sum();
        assert_eq!(sum, m.metrics().vm(vm1).instructions);
    }

    #[test]
    fn credit_policy_charges_no_overhead() {
        let mut m = basic_machine();
        m.run(SimDuration::from_secs(2));
        assert_eq!(m.metrics().overhead_us, 0.0);
        assert_eq!(m.metrics().overhead_percent(), 0.0);
    }

    #[test]
    fn remote_ratio_series_recorded_per_period() {
        let mut m = basic_machine();
        m.run(SimDuration::from_secs(3));
        let vm1 = m.vm_id_by_name("vm1").unwrap();
        let series = &m.metrics().remote_ratio_series[vm1.index()];
        assert_eq!(series.len(), 3, "one point per 1 s sampling period");
    }

    #[test]
    fn timeslice_limits_continuous_run() {
        // With 16 VCPUs on 8 PCPUs nobody should hold a PCPU beyond the
        // 30 ms timeslice, so each VM's busy share stays near fair.
        let mut m = basic_machine();
        m.run(SimDuration::from_secs(4));
        let total: u64 = m.metrics().per_vm.iter().map(|v| v.busy_us).sum();
        // Worker busy time fills the machine minus the idler-burst tax.
        assert!(total <= 8 * 4_000_000, "cannot exceed machine capacity");
        assert!(
            total as f64 >= 0.85 * (8 * 4_000_000) as f64,
            "workers should dominate machine time: {total}"
        );
        let vm3 = &m.metrics().per_vm[2];
        let share = vm3.busy_us as f64 / total as f64;
        assert!(
            (0.35..0.65).contains(&share),
            "8 of 16 worker VCPUs should get about half the machine: {share}"
        );
    }
}

#[cfg(test)]
mod debug_tests {
    use super::tests_helpers::*;

    #[test]
    #[ignore]
    fn inspect_dynamics() {
        let mut m = basic_machine_pub();
        m.run(sim_core::SimDuration::from_secs(10));
        let met = m.metrics();
        eprintln!("migrations={} cross={} steals={} partition={}",
            met.migrations, met.cross_node_migrations, met.steals, met.partition_moves);
        for (i, vm) in met.per_vm.iter().enumerate() {
            eprintln!("vm{i}: instr={} busy={}us remote_ratio={:.3} total_acc={}",
                vm.instructions, vm.busy_us, vm.remote_ratio(), vm.total_accesses());
        }
    }
}

impl Machine {
    /// Per-VCPU service received, in quanta (diagnostic).
    pub fn vcpu_run_quanta(&self) -> Vec<u64> {
        self.vcpus.iter().map(|v| v.run_quanta).collect()
    }

    /// Per-VCPU credits (diagnostic).
    pub fn vcpu_credits(&self) -> Vec<i32> {
        self.vcpus.iter().map(|v| v.credits).collect()
    }

    /// Validate the scheduler state machine; returns a description of the
    /// first violation found. Used by tests (and cheap enough to call in
    /// debug builds after every step).
    pub fn check_invariants(&self) -> Result<(), String> {
        for v in &self.vcpus {
            // A VCPU is in exactly one of: running, queued, blocked-idle.
            let states =
                u8::from(v.running_on.is_some()) + u8::from(v.queued_on.is_some()) + u8::from(v.blocked);
            if states != 1 {
                return Err(format!("{} is in {} states at once", v.id, states));
            }
            if let Some(p) = v.running_on {
                if self.pcpus[p.index()].current != Some(v.id) {
                    return Err(format!("{} claims to run on {p} which runs {:?}", v.id, self.pcpus[p.index()].current));
                }
                if !v.allowed_on(self.topo.node_of_pcpu(p)) {
                    return Err(format!("{} runs on {p} outside its pinned node", v.id));
                }
            }
            if let Some(p) = v.queued_on {
                if !self.pcpus[p.index()].queue.iter().any(|q| q == v.id) {
                    return Err(format!("{} claims queue {p} but is not in it", v.id));
                }
            }
            if v.blocked && v.kind != VcpuKind::TimerIdler {
                return Err(format!("worker {} is blocked", v.id));
            }
            if !(-900..=900).contains(&v.credits) {
                return Err(format!("{} credits {} out of clamp", v.id, v.credits));
            }
        }
        for p in &self.pcpus {
            if let Some(cur) = p.current {
                if self.vcpus[cur.index()].running_on != Some(p.id) {
                    return Err(format!("{} runs {} which disagrees", p.id, cur));
                }
            }
            for q in p.queue.iter() {
                if self.vcpus[q.index()].queued_on != Some(p.id) {
                    return Err(format!("{} queues {} which disagrees", p.id, q));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod feature_tests {
    use super::tests_helpers::basic_machine_pub;
    use super::*;
    use crate::credit::CreditPolicy;
    use mem_model::AllocPolicy;
    use numa_topo::presets;
    use workloads::{npb, speccpu};

    const GB: u64 = 1024 * 1024 * 1024;

    #[test]
    fn invariants_hold_throughout_a_run() {
        let mut m = basic_machine_pub();
        for _ in 0..40 {
            m.run(SimDuration::from_millis(100));
            m.check_invariants().expect("invariants");
        }
    }

    #[test]
    fn pinned_vm_never_leaves_its_node() {
        let mut cfg = VmConfig::new(
            "pinned",
            2,
            2 * GB,
            AllocPolicy::OnNode(NodeId::new(1)),
            vec![speccpu::soplex(); 2],
        );
        cfg.pin_node = Some(NodeId::new(1));
        let mut m = MachineBuilder::new(presets::xeon_e5620())
            .policy(Box::new(CreditPolicy::new()))
            .add_vm(cfg)
            .add_vm(VmConfig::new(
                "other",
                8,
                4 * GB,
                AllocPolicy::MostFree,
                vec![npb::lu()],
            ))
            .build()
            .unwrap();
        m.run(SimDuration::from_secs(5));
        m.check_invariants().unwrap();
        // Both pinned VCPUs ran, entirely on node 1 ⇒ all accesses local.
        let vm0 = &m.metrics().per_vm[0];
        assert!(vm0.instructions > 0);
        assert_eq!(vm0.remote_accesses, 0, "pinned next to its memory");
    }

    #[test]
    fn weights_shift_cpu_shares() {
        let build = |w1: u32, w2: u32| {
            let mut a = VmConfig::new("a", 4, 2 * GB, AllocPolicy::MostFree, vec![
                speccpu::povray(); 4
            ]);
            a.weight = w1;
            let mut b = VmConfig::new("b", 4, 2 * GB, AllocPolicy::MostFree, vec![
                speccpu::povray(); 4
            ]);
            b.weight = w2;
            // 8 CPU-bound VCPUs on 4 PCPUs so weights can bite.
            let topo = crate::machine::tests_helpers::quad_topo();
            let mut m = MachineBuilder::new(topo)
                .policy(Box::new(CreditPolicy::new()))
                .add_vm(a)
                .add_vm(b)
                .build()
                .unwrap();
            m.run(SimDuration::from_secs(10));
            let met = m.metrics();
            met.per_vm[0].busy_us as f64 / met.per_vm[1].busy_us.max(1) as f64
        };
        let equal = build(256, 256);
        assert!((0.8..1.25).contains(&equal), "equal weights ~equal: {equal}");
        let skewed = build(512, 256);
        assert!(
            skewed > equal * 1.2,
            "double weight should buy more CPU: {skewed} vs {equal}"
        );
    }

    #[test]
    fn page_migration_reduces_remote_accesses() {
        use vprobe_test_policy::pm_policy;
        // VM with memory on node0 but pinned... rather: a VM whose threads
        // run wherever but whose memory is all on node0. The pm-enabled
        // policy migrates pages toward each VCPU's assigned node.
        let run = |pm: bool| {
            let mut m = MachineBuilder::new(presets::xeon_e5620())
                .policy(pm_policy(pm))
                .add_vm(VmConfig::new(
                    "vm1",
                    8,
                    6 * GB,
                    AllocPolicy::OnNode(NodeId::new(0)),
                    vec![npb::sp()],
                ))
                .add_vm(VmConfig::new(
                    "vm2",
                    8,
                    6 * GB,
                    AllocPolicy::OnNode(NodeId::new(0)),
                    vec![npb::sp()],
                ))
                .build()
                .unwrap();
            m.run(SimDuration::from_secs(12));
            let met = m.metrics().clone();
            (met.per_vm[0].remote_ratio(), met.page_migration_bytes)
        };
        let (base_ratio, base_bytes) = run(false);
        let (pm_ratio, pm_bytes) = run(true);
        assert_eq!(base_bytes, 0);
        assert!(pm_bytes > 0, "pages should move");
        assert!(
            pm_ratio < base_ratio,
            "page migration should cut remote accesses: {pm_ratio} vs {base_ratio}"
        );
    }

    #[test]
    fn provenance_records_decisions_without_changing_the_run() {
        let mut plain = crate::machine::tests_helpers::basic_machine_pub();
        let mut probed = crate::machine::tests_helpers::basic_machine_pub();
        probed.enable_provenance(100_000);
        plain.run(SimDuration::from_secs(1));
        probed.run(SimDuration::from_secs(1));
        // Recording is pure observation: every metric matches the plain run.
        assert_eq!(plain.metrics().steals, probed.metrics().steals);
        assert_eq!(plain.metrics().migrations, probed.metrics().migrations);
        for (a, b) in plain.metrics().per_vm.iter().zip(&probed.metrics().per_vm) {
            assert_eq!(a.instructions, b.instructions);
            assert_eq!(a.remote_accesses, b.remote_accesses);
        }
        assert!(plain.provenance().is_empty(), "disabled log stays empty");
        assert!(!probed.provenance().is_empty(), "decisions recorded");
        let kinds: std::collections::HashSet<&str> = probed
            .provenance()
            .iter()
            .map(|r| r.decision.kind())
            .collect();
        assert!(
            kinds.contains("placement") || kinds.contains("wake_placement"),
            "placement decisions present: {kinds:?}"
        );
        assert!(kinds.contains("steal"), "steal decisions present: {kinds:?}");
        // Every JSONL line round-trips through the shared parser and
        // carries the common fields.
        let jsonl = probed.provenance_jsonl();
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            let doc = sim_core::Json::parse(line).expect("valid decision json");
            assert!(doc.get("t_us").is_some(), "t_us in {line}");
            assert!(doc.get("seq").is_some(), "seq in {line}");
            assert!(doc.get("kind").is_some(), "kind in {line}");
            assert!(doc.get("rule").is_some(), "rule in {line}");
        }
    }
}

#[cfg(test)]
mod vprobe_test_policy {
    //! A minimal stand-in for the vprobe crate's policy (xen-sim cannot
    //! depend on it): assigns every worker to both nodes round-robin and,
    //! when enabled, requests page migration toward the assignment.
    use super::*;
    use crate::policy::{PageMigration, PartitionPlan};

    struct RoundRobinPm {
        pm: bool,
    }

    impl SchedPolicy for RoundRobinPm {
        fn name(&self) -> &str {
            "test-rr-pm"
        }
        fn on_sample(&mut self, view: AnalyzerView<'_>) -> PartitionPlan {
            let mut assignments = Vec::new();
            let mut page_migrations = Vec::new();
            for (i, s) in view.samples.iter().enumerate() {
                if s.instructions == 0 {
                    continue;
                }
                let node = NodeId::new((i % 2) as u16);
                let vcpu = VcpuId::new(i as u32);
                assignments.push(crate::policy::VcpuAssignment {
                    vcpu,
                    node: Some(node),
                });
                if self.pm {
                    page_migrations.push(PageMigration {
                        vcpu,
                        to_node: node,
                        max_bytes: 256 * 1024 * 1024,
                    });
                }
            }
            PartitionPlan {
                assignments,
                hard: false,
                page_migrations,
                ..PartitionPlan::default()
            }
        }
        fn steal(&mut self, _ctx: StealContext<'_>) -> Option<(PcpuId, VcpuId)> {
            None
        }
    }

    pub fn pm_policy(pm: bool) -> Box<dyn SchedPolicy> {
        Box::new(RoundRobinPm { pm })
    }
}

#[cfg(test)]
mod trace_and_serde_tests {
    use super::tests_helpers::basic_machine_pub;
    use super::*;
    use crate::trace::Event;

    #[test]
    fn trace_records_scheduling_events() {
        let mut m = basic_machine_pub();
        m.enable_trace(100_000);
        m.run(SimDuration::from_secs(3));
        let trace = m.trace();
        assert!(!trace.is_empty());
        let switches = trace.count(|e| matches!(e, Event::SwitchIn { .. }));
        assert!(switches > 100, "expected plenty of context switches: {switches}");
        // Steal events in the trace agree with the metric counter (modulo
        // ring eviction, which the capacity above prevents).
        assert_eq!(trace.dropped(), 0);
        let steals = trace.count(|e| matches!(e, Event::Steal { .. }));
        assert_eq!(steals as u64, m.metrics().steals);
    }

    #[test]
    fn disabled_trace_costs_nothing_and_stays_empty() {
        let mut m = basic_machine_pub();
        m.run(SimDuration::from_secs(1));
        assert!(m.trace().is_empty());
        assert!(!m.trace().is_enabled());
    }

    #[test]
    fn metrics_serialize_round_trip() {
        let mut m = basic_machine_pub();
        m.run(SimDuration::from_secs(2));
        let json = m.metrics().to_json();
        let back = RunMetrics::from_json(&json).expect("deserialize");
        assert_eq!(back.migrations, m.metrics().migrations);
        assert_eq!(back.per_vm.len(), m.metrics().per_vm.len());
        assert_eq!(
            back.per_vm[0].instructions,
            m.metrics().per_vm[0].instructions
        );
        assert_eq!(
            back.remote_ratio_series[0].points(),
            m.metrics().remote_ratio_series[0].points()
        );
        // Re-serialization is byte-stable.
        assert_eq!(back.to_json(), json);
    }
}

#[cfg(test)]
mod golden_tests {
    use super::tests_helpers::basic_machine_pub;
    use super::*;

    /// Pins the exact numeric trajectory of a short fixed-seed run. Any
    /// hot-path "optimization" that changes floating-point evaluation
    /// order, RNG draw order, or scheduling decisions trips this before it
    /// can silently skew every experiment. Captured from the reference
    /// (pre-optimization) implementation.
    #[test]
    fn golden_run_metrics_are_bit_stable() {
        let mut m = basic_machine_pub();
        m.run(SimDuration::from_secs(2));
        let met = m.metrics();
        let per_vm: Vec<(u64, u64, u64, u64, u64)> = met
            .per_vm
            .iter()
            .map(|v| {
                (
                    v.instructions,
                    v.llc_refs,
                    v.llc_misses,
                    v.local_accesses,
                    v.remote_accesses,
                )
            })
            .collect();
        eprintln!(
            "GOLDEN per_vm={per_vm:?} migrations={} cross={} steals={} busy={}",
            met.migrations, met.cross_node_migrations, met.steals, met.busy_us
        );
        assert_eq!(
            per_vm,
            vec![
                (5_635_518_083, 85_486_483, 21_567_919, 7_514_993, 14_052_926),
                (5_852_257_190, 97_004_594, 23_064_358, 14_386_681, 8_677_677),
                (30_727_096_524, 1_562_572, 22_749, 10_945, 11_804),
            ]
        );
        assert_eq!(met.migrations, 185);
        assert_eq!(met.cross_node_migrations, 96);
        assert_eq!(met.steals, 198);
        assert_eq!(met.busy_us, 16_000_000.0);
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::tests_helpers::basic_machine_pub;
    use super::*;

    #[test]
    fn zero_duration_run_is_a_noop() {
        let mut m = basic_machine_pub();
        m.run(SimDuration::ZERO);
        assert_eq!(m.now(), sim_core::SimTime::ZERO);
        assert_eq!(m.metrics().per_vm[0].instructions, 0);
    }

    #[test]
    fn reset_metrics_clears_measurement_but_not_state() {
        let mut m = basic_machine_pub();
        m.run(SimDuration::from_secs(2));
        let t = m.now();
        assert!(m.metrics().per_vm[0].instructions > 0);
        m.reset_metrics();
        assert_eq!(m.metrics().per_vm[0].instructions, 0);
        assert_eq!(m.metrics().elapsed, SimDuration::ZERO);
        assert_eq!(m.now(), t, "simulated time keeps running");
        m.run(SimDuration::from_secs(1));
        assert!(m.metrics().per_vm[0].instructions > 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn throughput_series_tracks_periods() {
        let mut m = basic_machine_pub();
        m.run(SimDuration::from_secs(3));
        let series = &m.metrics().throughput_series[0];
        assert_eq!(series.len(), 3);
        assert!(series.values().all(|v| v > 0.0));
        let csv = m.metrics().series_csv();
        assert!(csv.lines().count() > 3, "header plus rows: {csv}");
        assert!(csv.starts_with("time_s,vm,remote_ratio,instr_per_s"));
    }

    #[test]
    fn set_policy_mid_run_changes_behaviour() {
        let mut m = basic_machine_pub();
        m.run(SimDuration::from_secs(2));
        assert_eq!(m.policy_name(), "credit");
        m.set_policy(Box::new(crate::credit::CreditPolicy::new()));
        m.run(SimDuration::from_secs(1));
        m.check_invariants().unwrap();
    }
}

#[cfg(test)]
mod fault_tests {
    use super::tests_helpers::basic_machine_pub;
    use super::*;
    use crate::credit::CreditPolicy;
    use mem_model::AllocPolicy;
    use numa_topo::presets;
    use workloads::npb;

    const GB: u64 = 1024 * 1024 * 1024;

    fn faulty_machine(rate: f64, fault_seed: u64) -> Machine {
        MachineBuilder::new(presets::xeon_e5620())
            .policy(super::vprobe_test_policy::pm_policy(false))
            .faults(FaultConfig::uniform(rate, fault_seed))
            .add_vm(VmConfig::new("vm1", 8, 8 * GB, AllocPolicy::MostFree, vec![npb::lu()]))
            .add_vm(VmConfig::new("vm2", 8, 5 * GB, AllocPolicy::MostFree, vec![npb::lu()]))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_invalid_fault_config() {
        let err = MachineBuilder::new(presets::xeon_e5620())
            .policy(Box::new(CreditPolicy::new()))
            .faults(FaultConfig {
                sample_loss: 2.0,
                ..FaultConfig::none()
            })
            .add_vm(VmConfig::new("vm1", 8, GB, AllocPolicy::MostFree, vec![npb::lu()]))
            .build();
        let Err(err) = err else {
            panic!("expected an invalid-fault-config error")
        };
        assert!(matches!(err, SimError::FaultConfig(_)), "{err}");
    }

    #[test]
    fn builder_rejects_zero_sample_period() {
        let err = MachineBuilder::new(presets::xeon_e5620())
            .policy(Box::new(CreditPolicy::new()))
            .sample_period(SimDuration::ZERO)
            .add_vm(VmConfig::new("vm1", 8, GB, AllocPolicy::MostFree, vec![npb::lu()]))
            .build();
        let Err(err) = err else {
            panic!("expected a zero-sample-period error")
        };
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn zero_fault_rate_leaves_metrics_clean() {
        let mut m = basic_machine_pub();
        m.run(SimDuration::from_secs(2));
        assert_eq!(m.metrics().faults, crate::metrics::FaultMetrics::default());
        assert!(!m.metrics().to_json().contains("\"faults\""));
    }

    #[test]
    fn faulty_run_is_deterministic_per_seed() {
        let run = |fault_seed: u64| {
            let mut m = faulty_machine(0.2, fault_seed);
            m.run(SimDuration::from_secs(4));
            m.check_invariants().unwrap();
            m.metrics().to_json()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "fault seed must matter");
    }

    #[test]
    fn uniform_faults_fire_and_are_counted() {
        let mut m = faulty_machine(0.3, 5);
        m.run(SimDuration::from_secs(6));
        m.check_invariants().unwrap();
        let f = m.metrics().faults;
        assert!(f.samples_lost > 0, "{f:?}");
        assert!(f.counters_noised > 0, "{f:?}");
        assert!(f.migrations_failed + f.migrations_delayed > 0, "{f:?}");
        assert!(f.injected() > 0);
        let json = m.metrics().to_json();
        assert!(json.contains("\"faults\""));
        let back = RunMetrics::from_json(&json).unwrap();
        assert_eq!(back.faults, f);
    }

    #[test]
    fn pcpu_stalls_cost_forward_progress() {
        let heavy_stalls = FaultConfig {
            pcpu_stall: 0.02,
            ..FaultConfig::none()
        };
        let run = |faults: FaultConfig| {
            let mut m = MachineBuilder::new(presets::xeon_e5620())
                .policy(Box::new(CreditPolicy::new()))
                .faults(faults)
                .add_vm(VmConfig::new("vm1", 8, GB, AllocPolicy::MostFree, vec![npb::lu()]))
                .build()
                .unwrap();
            m.run(SimDuration::from_secs(3));
            m.check_invariants().unwrap();
            (m.metrics().per_vm[0].instructions, m.metrics().faults)
        };
        let (clean_instr, clean_faults) = run(FaultConfig::none());
        let (stalled_instr, stall_faults) = run(heavy_stalls);
        assert_eq!(clean_faults.pcpu_stalls, 0);
        assert!(stall_faults.pcpu_stalls > 0);
        assert!(stall_faults.stalled_quanta >= stall_faults.pcpu_stalls);
        assert!(
            stalled_instr < clean_instr,
            "stalls must cost throughput: {stalled_instr} vs {clean_instr}"
        );
    }
}
