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
use crate::provenance::{decision_from_note, Decision};
use crate::trace::{Event, FaultEvent};
use crate::vcpu::{Priority, VcpuKind, VcpuState};
use crate::vm::{VmConfig, VmRuntime};
use mem_model::{MemoryEngine, NodeFree, QuantumUsage};
use numa_topo::{NodeId, PcpuId, Topology, VcpuId, VmId};
use pmu::{OverheadModel, OverheadTracker, PeriodSampler, PmuSample};
use sim_core::{
    ClampedNormal, Clock, FaultConfig, FaultInjector, MigrationFault, SimDuration, SimError,
    SimRng, SimTime,
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

/// The burstiness process's standard-normal shock, truncated at ±3σ.
const OU_SHOCK: ClampedNormal = ClampedNormal::new(0.0, 1.0, -3.0, 3.0);

/// An empty `Vec` with `v`'s allocation, retyped. No element is ever
/// moved: `v` is cleared first, and `collect` over its `IntoIter` reuses
/// the buffer in place when the two element types share a layout (as
/// `QuantumUsage`s of any two lifetimes do).
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter().filter_map(|_| None).collect()
}

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
        self.cfg.faults.validate()?;
        Machine::create(self.topo, self.cfg, policy, &self.vm_configs)
    }
}

/// The simulated machine, in four parts (DESIGN §16): the `World` every
/// simulated decision and result reads, whose clone is a fork
/// ([`Machine::fork`]); per-quantum `Scratch` buffers, rebuilt rather than
/// cloned; the `Observers` (metrics and sinks), which stepping code writes
/// but never reads back; and the scheduling policy.
pub struct Machine {
    world: World,
    scratch: Scratch,
    obs: Observers,
    policy: Box<dyn SchedPolicy>,
}

/// The simulated state: a fork of the machine is a clone of this.
#[derive(Clone)]
struct World {
    topo: Topology,
    cfg: MachineConfig,
    engine: MemoryEngine,
    sampler: PeriodSampler,
    overhead: OverheadTracker,
    clock: Clock,
    rng: SimRng,
    vms: Vec<VmRuntime>,
    vcpus: Vec<VcpuState>,
    pcpus: Vec<PcpuState>,
    /// Last sampled LLC access pressure per VCPU (Eq. 2 with α = 1000).
    pressure: Vec<f64>,
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
    /// The burstiness process's per-quantum reversion rate `theta` and
    /// shock scale `step` (see `update_intensity_noise`), fixed by the
    /// config.
    noise_theta: f64,
    noise_step: f64,
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
    /// Per-VM `(next_fire_us, stride_us)` shuffle schedule; stride 0 means
    /// the VM never shuffles. The per-quantum modulo test fires exactly at
    /// grid points that are multiples of the period, i.e. every
    /// lcm(period, quantum), so a compare-and-advance replaces it.
    shuffle_next: Vec<(u64, u64)>,
    /// Per-node throttle flags for the current sampling period.
    node_throttled: Vec<bool>,
    /// Whether the policy reported fallback mode active at the previous
    /// period, for edge-detecting degrade/recover transitions.
    was_fallback: bool,
}

/// Per-quantum buffers: their contents matter for one quantum, so a fork starts them empty.
#[derive(Default)]
struct Scratch {
    /// Per-quantum intensity-noise buffer (one factor per VCPU).
    noise_scratch: Vec<f64>,
    /// The per-quantum `usages` buffer, kept empty between quanta so its
    /// allocation is reused (see `recycle`).
    usage_buf: Vec<QuantumUsage<'static>>,
    /// Buffer for landing due delayed migrations in arrival order.
    delayed_scratch: Vec<(SimTime, VcpuId, NodeId)>,
}

/// What the run reports: stepping code writes these but never reads them back.
struct Observers {
    metrics: RunMetrics,
    trace: crate::trace::TraceLog,
    /// Deterministic metric registry, snapshotted at every sampling period
    /// and exported into [`RunMetrics::telemetry`] when enabled.
    telemetry: Registry,
    /// Ids of the metrics registered in [`Observers::new`].
    tids: TelemetryIds,
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

impl Observers {
    /// Fresh observers for `num_vms` VMs: zeroed metrics, every sink off.
    /// Registration order is the export order, so changing it changes the
    /// `telemetry` JSON block.
    fn new(num_vms: usize) -> Observers {
        let mut telemetry = Registry::new();
        Observers {
            metrics: RunMetrics::new(num_vms),
            trace: crate::trace::TraceLog::disabled(),
            tids: TelemetryIds {
                c_steals_local: telemetry.counter("steals_local"),
                c_steals_remote: telemetry.counter("steals_remote"),
                c_partition_moves: telemetry.counter("partition_moves"),
                c_credit_boosts: telemetry.counter("credit_boosts"),
                c_idler_wakes: telemetry.counter("idler_wakes"),
                c_faults: telemetry.counter("faults_injected"),
                c_degrade_enter: telemetry.counter("degrade_enter"),
                c_degrade_recover: telemetry.counter("degrade_recover"),
                c_rpti_friendly: telemetry.counter("rpti_friendly"),
                c_rpti_fitting: telemetry.counter("rpti_fitting"),
                c_rpti_thrashing: telemetry.counter("rpti_thrashing"),
                g_active_vcpus: telemetry.gauge("active_vcpus"),
                h_steal_latency: telemetry.histogram("steal_latency", 0.0, 50.0, 10),
                h_migration_distance: telemetry.histogram("migration_distance", 0.0, 50.0, 10),
                h_runq_depth: telemetry.histogram("runqueue_depth", 0.0, 16.0, 16),
                h_rpti: telemetry.histogram("rpti", 0.0, 40.0, 20),
            },
            telemetry,
            provenance: crate::provenance::ProvenanceLog::disabled(),
            perf: None,
        }
    }

    /// The sampling-period hook: close the telemetry period by recording
    /// the period-end distributions (runqueue depth per PCPU, worker RPTI
    /// and its Table 2 class) and snapshotting every metric's window into
    /// its series.
    fn close_period(&mut self, world: &World, now: SimTime) {
        if self.telemetry.is_enabled() {
            for p in 0..world.pcpus.len() {
                let depth = world.pcpus[p].queue.len() as f64;
                self.telemetry.observe(self.tids.h_runq_depth, depth);
            }
            let mut active = 0u64;
            for i in 0..world.vcpus.len() {
                if !world.vcpus[i].blocked {
                    active += 1;
                }
                if world.vcpus[i].kind != VcpuKind::Worker {
                    continue;
                }
                let rpti = world.pressure[i];
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
            self.telemetry
                .set_gauge(self.tids.g_active_vcpus, active as f64);
            self.telemetry.snapshot(now);
        }
    }
}

impl Machine {
    fn create(
        topo: Topology,
        cfg: MachineConfig,
        policy: Box<dyn SchedPolicy>,
        vm_configs: &[VmConfig],
    ) -> Result<Self, SimError> {
        // Among other things: every node owns at least one PCPU, which
        // wake placement and node-targeted enqueue rely on.
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
                    }
                }
                vcpus.push(vcpu);
            }
            vms.push(vm);
        }

        let timeslice_quanta = (cfg.timeslice / cfg.quantum).max(1) as u32;
        let num_vcpus = vcpus.len();
        let num_nodes = topo.num_nodes();
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
        let q_us = cfg.quantum.as_micros();
        let noise_theta =
            (q_us as f64 / cfg.intensity_noise_corr.as_micros().max(1) as f64).min(1.0);
        // Stationary sd of x' = x + theta (1 - x) + step*eps is
        // step / sqrt(theta (2 - theta)).
        let noise_step = cfg.intensity_noise_sd * (noise_theta * (2.0 - noise_theta)).sqrt();
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
        let world = World {
            shuffle_next,
            active_weight,
            idler_wakes,
            idler_profile: mem_model::AccessProfile::cpu_only(1.0, num_nodes),
            noise_theta,
            noise_step,
            injector: FaultInjector::new(cfg.faults.clone())?,
            faults_enabled: cfg.faults.enabled(),
            sample_validity: vec![1.0; num_vcpus],
            failed_migrations: Vec::new(),
            delayed_moves: Vec::new(),
            node_throttled: vec![false; num_nodes],
            was_fallback: false,
            engine: MemoryEngine::new(&topo),
            sampler: PeriodSampler::new(num_vcpus, num_nodes, cfg.sample_period),
            overhead: OverheadTracker::new(cfg.overhead),
            clock: Clock::new(cfg.quantum),
            rng: SimRng::seed_from(cfg.seed),
            pressure: vec![0.0; num_vcpus],
            timeslice_quanta,
            topo,
            cfg,
            vms,
            vcpus,
            pcpus,
        };
        Ok(Machine::assemble(world, policy))
    }

    /// A machine around `world` with empty scratch buffers and fresh,
    /// disabled observers.
    fn assemble(world: World, policy: Box<dyn SchedPolicy>) -> Machine {
        Machine {
            scratch: Scratch::default(),
            obs: Observers::new(world.vms.len()),
            world,
            policy,
        }
    }

    /// Fork the simulation: a machine with a clone of this one's simulated
    /// state, driven by `policy` from here on, with fresh, disabled
    /// observers; the two share nothing. When this machine's policy is
    /// stateless (Credit), the fork's simulation steps exactly as this
    /// machine's would after [`Machine::set_policy`] with the same policy.
    pub fn fork(&self, policy: Box<dyn SchedPolicy>) -> Machine {
        Machine::assemble(self.world.clone(), policy)
    }

    /// The machine's one recording path for scheduling events. Appends `e`
    /// to the trace, bumps the telemetry counter its kind maps to (both
    /// no-ops while their sink is off) and the run metric that counts it —
    /// steals (total and per VM), partition moves, and the matching
    /// [`FaultMetrics`](crate::metrics::FaultMetrics) field for an injected
    /// fault — always, since those are ground-truth run metrics.
    #[inline]
    fn emit(&mut self, t: SimTime, e: Event) {
        let counter = match &e {
            Event::Steal {
                vcpu, cross_node, ..
            } => {
                self.obs.metrics.steals += 1;
                self.obs.metrics.steals_per_vm[self.world.vcpus[vcpu.index()].vm.index()] += 1;
                Some(if *cross_node {
                    self.obs.tids.c_steals_remote
                } else {
                    self.obs.tids.c_steals_local
                })
            }
            Event::PartitionMove { .. } => {
                self.obs.metrics.partition_moves += 1;
                Some(self.obs.tids.c_partition_moves)
            }
            Event::IdlerWake { .. } => Some(self.obs.tids.c_idler_wakes),
            Event::CreditBoost { .. } => Some(self.obs.tids.c_credit_boosts),
            Event::Degrade { fallback: true } => Some(self.obs.tids.c_degrade_enter),
            Event::Degrade { fallback: false } => Some(self.obs.tids.c_degrade_recover),
            Event::Fault(f) => {
                let faults = &mut self.obs.metrics.faults;
                *match f {
                    FaultEvent::SampleLost { .. } => &mut faults.samples_lost,
                    FaultEvent::CounterNoise { .. } => &mut faults.counters_noised,
                    FaultEvent::AffinityCorrupted { .. } => &mut faults.affinity_corruptions,
                    FaultEvent::MigrationFailed { .. } => &mut faults.migrations_failed,
                    FaultEvent::MigrationDelayed { .. } => &mut faults.migrations_delayed,
                    FaultEvent::StealFailed { .. } => &mut faults.steals_failed,
                    FaultEvent::PcpuStall { .. } => &mut faults.pcpu_stalls,
                    FaultEvent::NodeThrottled { .. } => &mut faults.node_throttled_periods,
                } += 1;
                Some(self.obs.tids.c_faults)
            }
            Event::SwitchIn { .. }
            | Event::SwitchOut { .. }
            | Event::SamplePeriod { .. }
            | Event::PageMigration { .. } => None,
        };
        if let Some(id) = counter {
            self.obs.telemetry.inc(id, 1);
        }
        self.obs.trace.record(t, e);
    }

    pub fn topology(&self) -> &Topology {
        &self.world.topo
    }

    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    pub fn now(&self) -> SimTime {
        self.world.clock.now()
    }

    pub fn num_vcpus(&self) -> usize {
        self.world.vcpus.len()
    }

    pub fn metrics(&self) -> &RunMetrics {
        &self.obs.metrics
    }

    /// Enable xentrace-style event tracing, keeping the most recent
    /// `capacity` events.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.obs.trace = crate::trace::TraceLog::with_capacity(capacity);
    }

    /// The trace log (empty unless [`Machine::enable_trace`] was called).
    pub fn trace(&self) -> &crate::trace::TraceLog {
        &self.obs.trace
    }

    /// Enable the metric registry: counters/histograms start recording,
    /// period snapshots accumulate, and [`RunMetrics`] gains a `telemetry`
    /// JSON block at the next [`Machine::run`].
    pub fn enable_telemetry(&mut self) {
        self.obs.telemetry.set_enabled(true);
    }

    /// The metric registry (inert unless [`Machine::enable_telemetry`] was
    /// called).
    pub fn telemetry(&self) -> &Registry {
        &self.obs.telemetry
    }

    /// Human label for each VCPU (`"vm0/v2"` for workers, `"vm0/idler3"`
    /// for timer idlers), indexed by VCPU index; used by the trace
    /// exporters.
    pub fn vcpu_labels(&self) -> Vec<String> {
        self.world
            .vcpus
            .iter()
            .map(|v| {
                let vm = &self.world.vms[v.vm.index()];
                match v.kind {
                    VcpuKind::Worker => format!("{}/v{}", vm.name, v.vm_idx),
                    VcpuKind::TimerIdler => format!("{}/idler{}", vm.name, v.vm_idx),
                }
            })
            .collect()
    }

    /// Serialize the trace as JSON Lines (one event object per line).
    pub fn trace_jsonl(&self) -> String {
        crate::export::to_jsonl(&self.obs.trace)
    }

    /// Serialize the trace as a Chrome Trace Event file with per-PCPU
    /// tracks, openable in Perfetto or `chrome://tracing`.
    pub fn trace_chrome(&self) -> String {
        let labels = self.vcpu_labels();
        crate::export::to_chrome(
            &self.obs.trace,
            &crate::export::ChromeContext {
                num_pcpus: self.world.pcpus.len(),
                vcpu_labels: &labels,
                end_us: self.world.clock.now().as_micros(),
            },
        )
    }

    /// Enable decision-provenance recording, keeping the most recent
    /// `capacity` records, and switch the policy into explain mode so it
    /// decomposes its choices (rule names, partition notes). Neither side
    /// changes any decision: runs with provenance on are byte-identical in
    /// every metric, CSV, and trace output to runs with it off.
    pub fn enable_provenance(&mut self, capacity: usize) {
        self.obs.provenance = crate::provenance::ProvenanceLog::with_capacity(capacity);
        self.policy.set_explain(true);
    }

    /// The provenance log (empty unless [`Machine::enable_provenance`] was
    /// called).
    pub fn provenance(&self) -> &crate::provenance::ProvenanceLog {
        &self.obs.provenance
    }

    /// Serialize the provenance log as JSON Lines (one decision per line).
    pub fn provenance_jsonl(&self) -> String {
        crate::provenance::to_jsonl(&self.obs.provenance)
    }

    /// Enable perf introspection: the engine's work-avoidance counters, exported into
    /// [`RunMetrics::perf`] at the end of [`Machine::run`]. Collection is
    /// observational only — enabling it changes no scheduling decision
    /// and no other output byte.
    pub fn enable_perf(&mut self) {
        self.obs.perf.get_or_insert_with(Box::default);
    }

    /// Deterministic perf snapshot for this machine: the engine's
    /// work-avoidance counters (always maintained) plus the step
    /// statistics gathered since [`Machine::enable_perf`] (zeroed stats
    /// if perf was never enabled).
    pub fn perf_snapshot(&self) -> crate::perf::PerfSnapshot {
        crate::perf::PerfSnapshot {
            hosts: 1,
            engine: self.world.engine.perf(),
            machine: self.obs.perf.as_deref().cloned().unwrap_or_default(),
        }
    }

    /// Replace the scheduling policy at runtime (used by experiments that
    /// warm the system up under the stock Credit scheduler before
    /// switching to the policy under test, as one would on a live host).
    pub fn set_policy(&mut self, policy: Box<dyn SchedPolicy>) {
        self.policy = policy;
        if self.obs.provenance.is_enabled() {
            self.policy.set_explain(true);
        }
    }

    /// Zero all measurement state (but not scheduler/memory state): starts
    /// a fresh measurement window on a warm system.
    pub fn reset_metrics(&mut self) {
        self.obs.metrics = RunMetrics::new(self.world.vms.len());
        self.obs.telemetry.reset();
        let w = &mut self.world;
        w.overhead = OverheadTracker::new(w.cfg.overhead);
        // A fresh sampler restarts the PMU windows and whole-run totals.
        w.sampler = PeriodSampler::new(w.vcpus.len(), w.topo.num_nodes(), w.cfg.sample_period);
    }

    pub fn vm_id_by_name(&self, name: &str) -> Option<VmId> {
        self.world.vms.iter().find(|v| v.name == name).map(|v| v.id)
    }

    /// Whole-run PMU totals for one VCPU.
    pub fn vcpu_totals(&self, vcpu: VcpuId) -> PmuSample {
        self.world.sampler.totals(vcpu.index())
    }

    /// Run for `duration` of simulated time.
    pub fn run(&mut self, duration: SimDuration) -> &RunMetrics {
        let quanta = duration / self.world.cfg.quantum;
        for _ in 0..quanta {
            self.step_quantum();
        }
        self.obs.metrics.elapsed += self.world.cfg.quantum * quanta;
        self.obs.metrics.overhead_us = self.world.overhead.overhead_us();
        self.obs.metrics.busy_us = self.world.overhead.busy_us();
        self.obs.metrics.telemetry = self.obs.telemetry.export();
        if self.obs.perf.is_some() {
            self.obs.metrics.perf = Some(self.perf_snapshot().to_json());
        }
        &self.obs.metrics
    }

    /// Advance one quantum: timer events, scheduling, one memory-engine
    /// solve, credit debit, then the sampling-period check.
    fn step_quantum(&mut self) {
        self.world.clock.step();
        let now = self.world.clock.now();

        if self.world.faults_enabled {
            self.fault_tick(now);
        }

        // Credit ticks (staggered per PCPU, as Xen offsets per-CPU timers
        // to avoid thundering herd) and per-VCPU staggered accounting.
        self.credit_ticks(now);
        self.world.credit_accounting(now);
        self.world.shuffle_tick(now);
        self.wake_idlers(now);
        self.schedule_all();

        if let Some(p) = self.obs.perf.as_deref_mut() {
            p.plain_step();
        }
        self.execute_quantum(now);
        self.world.debit_running();

        if let Some(samples) = self.world.sampler.maybe_sample(now) {
            self.handle_sample(now, samples);
        }
    }

    /// Per-quantum fault bookkeeping (only called with faults enabled):
    /// advance transient PCPU stalls, draw new ones, and land injected-delay
    /// migrations whose due time has arrived.
    fn fault_tick(&mut self, now: SimTime) {
        for p in 0..self.world.pcpus.len() {
            if self.world.pcpus[p].stall_left > 0 {
                self.world.pcpus[p].stall_left -= 1;
                self.obs.metrics.faults.stalled_quanta += 1;
            } else if let Some(quanta) = self.world.injector.pcpu_stall() {
                self.world.pcpus[p].stall_left = quanta;
                self.emit(
                    now,
                    Event::Fault(FaultEvent::PcpuStall {
                        pcpu: PcpuId::from_index(p),
                        quanta: u64::from(quanta),
                    }),
                );
            }
        }
        if !self.world.delayed_moves.is_empty() {
            // Split off the due entries in one linear pass (the index-based
            // `Vec::remove` scan this replaces was quadratic in the worst
            // case), landing them in arrival order exactly as the scan did
            // — the order matters because `apply_partition_move` draws from
            // the placement RNG.
            let mut due = std::mem::take(&mut self.scratch.delayed_scratch);
            due.clear();
            self.world.delayed_moves.retain(|&entry| {
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
                let v = &self.world.vcpus[vcpu.index()];
                if !v.blocked && !v.admin_pinned {
                    self.apply_partition_move(vcpu, node, now);
                }
            }
            self.scratch.delayed_scratch = due;
        }
    }

    /// 10 ms credit ticks, offset per PCPU: PCPU `p`'s tick fires at
    /// `p * quantum` past each 10 ms boundary. For PMU-using policies each
    /// tick charges counter-collection cost (the paper updates a VCPU's
    /// runtime information every 10 ms); credit debiting itself is precise
    /// per-quantum (see `debit_running`).
    fn credit_ticks(&mut self, now: SimTime) {
        let tick = self.world.cfg.credit_tick.as_micros();
        let quantum = self.world.cfg.quantum.as_micros();
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
            while p < self.world.pcpus.len() {
                if self.world.pcpus[p].current.is_some() {
                    let (uses_pmu, lock_cost) = *charge.get_or_insert_with(|| {
                        let runnable: usize = self.world.pcpus.iter().map(|x| x.workload()).sum();
                        (
                            self.policy.uses_pmu(),
                            self.policy.tick_overhead_us(runnable),
                        )
                    });
                    if uses_pmu {
                        let cost = self.world.overhead.charge_sample();
                        self.world.pcpus[p].pending_overhead_us += cost;
                    }
                    // Policy-specific counter-update serialization (BRM's
                    // global lock). Not part of the Table III overhead
                    // budget: it is the comparison scheduler's own defect,
                    // not vProbe monitoring cost.
                    self.world.pcpus[p].pending_overhead_us += lock_cost;
                }
                p += ticks_per as usize;
            }
            return;
        }
        let uses_pmu = self.policy.uses_pmu();
        let runnable: usize = self.world.pcpus.iter().map(|p| p.workload()).sum();
        let lock_cost = self.policy.tick_overhead_us(runnable);
        for p in 0..self.world.pcpus.len() {
            let offset = (p as u64 * quantum) % tick;
            if !(now_us.wrapping_sub(offset)).is_multiple_of(tick) {
                continue;
            }
            if self.world.pcpus[p].current.is_some() {
                if uses_pmu {
                    let cost = self.world.overhead.charge_sample();
                    self.world.pcpus[p].pending_overhead_us += cost;
                }
                self.world.pcpus[p].pending_overhead_us += lock_cost;
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
        while let Some(&Reverse((t, i))) = self.world.idler_wakes.peek() {
            if t > now {
                break;
            }
            self.world.idler_wakes.pop();
            fired.push(i as usize);
        }
        // Wake placement sees the queues earlier wakeups already touched,
        // so process in VCPU-index order exactly as the full scan did.
        fired.sort_unstable();
        for i in fired {
            debug_assert!(self.world.vcpus[i].blocked && self.world.vcpus[i].next_wake <= now);
            let pcpu = self
                .world
                .pcpus
                .iter()
                .filter(|p| self.world.vcpus[i].allowed_on(p.node))
                .min_by_key(|p| (!p.is_idle(), p.workload(), p.id.index()))
                .map(|p| p.id)
                .expect("machine has PCPUs");
            let v = &mut self.world.vcpus[i];
            v.blocked = false;
            v.burst_left = 1;
            v.priority = v.wake_priority();
            v.queued_on = Some(pcpu);
            let vcpu = v.id;
            let boosted = v.priority == Priority::Boost;
            self.world.active_weight += self.world.vms[v.vm.index()].weight as u64;
            self.world.pcpus[pcpu.index()].queue.push(vcpu);
            self.emit(now, Event::IdlerWake { vcpu, pcpu });
            if boosted {
                self.emit(now, Event::CreditBoost { vcpu, pcpu });
            }
            if self.obs.provenance.is_enabled() {
                let num_candidates = self
                    .world
                    .pcpus
                    .iter()
                    .filter(|p| self.world.vcpus[i].allowed_on(p.node))
                    .count();
                self.obs.provenance.record(
                    now,
                    "first-idle-least-loaded",
                    Decision::WakePlacement {
                        vcpu,
                        chosen: pcpu,
                        num_candidates,
                    },
                );
            }
        }
    }

    fn schedule_all(&mut self) {
        for p in 0..self.world.pcpus.len() {
            self.schedule_pcpu(PcpuId::from_index(p));
        }
        // Idle-with-queued-work signal for load-balance quality.
        let any_idle = self.world.pcpus.iter().any(|p| p.current.is_none());
        let any_queued = self.world.pcpus.iter().any(|p| !p.queue.is_empty());
        if any_idle && any_queued {
            self.obs.metrics.idle_with_work_quanta += 1;
        }
    }

    fn schedule_pcpu(&mut self, pid: PcpuId) {
        // A transiently stalled PCPU (injected fault) makes no scheduling
        // decisions: whatever it holds stays pinned until the stall ends.
        if self.world.pcpus[pid.index()].stall_left > 0 {
            return;
        }
        let node = self.world.pcpus[pid.index()].node;
        // Decide whether the current VCPU keeps the PCPU.
        if let Some(cur) = self.world.pcpus[pid.index()].current {
            // A timer idler whose burst is spent blocks until its next
            // guest-timer firing.
            if self.world.vcpus[cur.index()].kind == VcpuKind::TimerIdler
                && self.world.vcpus[cur.index()].burst_left == 0
            {
                self.world.pcpus[pid.index()].current = None;
                let vm = &self.world.vms[self.world.vcpus[cur.index()].vm.index()];
                let period = vm.idler_period.expect("idler implies period");
                let weight = vm.weight as u64;
                let v = &mut self.world.vcpus[cur.index()];
                v.running_on = None;
                v.blocked = true;
                v.next_wake = self.world.clock.now() + period;
                self.world.active_weight -= weight;
                let wake = Reverse((v.next_wake, cur.raw()));
                self.world.idler_wakes.push(wake);
            } else {
                let vcpus = &self.world.vcpus;
                let v = &vcpus[cur.index()];
                let preempted = self.world.pcpus[pid.index()]
                    .queue
                    .head_priority(|x| vcpus[x.index()].priority)
                    .is_some_and(|h| h < v.priority);
                let keep = v.timeslice_left > 0 && v.allowed_on(node) && !preempted;
                if keep {
                    self.world.vcpus[cur.index()].timeslice_left -= 1;
                    return;
                }
                // Deschedule.
                self.world.pcpus[pid.index()].current = None;
                let vstate = &mut self.world.vcpus[cur.index()];
                vstate.running_on = None;
                if vstate.allowed_on(node) {
                    vstate.queued_on = Some(pid);
                    self.world.pcpus[pid.index()].queue.push(cur);
                } else {
                    let target = vstate
                        .assigned_node
                        .expect("not allowed implies assignment");
                    self.enqueue_on_node(cur, target);
                }
            }
            // Either way, `cur` has left the PCPU.
            self.emit(
                self.world.clock.now(),
                Event::SwitchOut {
                    vcpu: cur,
                    pcpu: pid,
                },
            );
        }

        // Pick next: prefer own BOOST/UNDER work; steal when the best the
        // queue offers is OVER work or nothing (Xen's balance trigger).
        let head = {
            let vcpus = &self.world.vcpus;
            self.world.pcpus[pid.index()]
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
                if self.world.faults_enabled && self.world.injector.steal_failed() {
                    self.emit(
                        self.world.clock.now(),
                        Event::Fault(FaultEvent::StealFailed { thief: pid }),
                    );
                } else {
                    self.perform_steal(pid, victim, vcpu, head.is_none());
                    return;
                }
            }
        }
        let popped = {
            let vcpus = &self.world.vcpus;
            self.world.pcpus[pid.index()]
                .queue
                .pop_best(|x| vcpus[x.index()].priority)
        };
        if let Some((vcpu, _prio)) = popped {
            self.world.vcpus[vcpu.index()].queued_on = None;
            self.switch_in(pid, vcpu);
        }
    }

    fn perform_steal(&mut self, pid: PcpuId, victim: PcpuId, vcpu: VcpuId, was_idle: bool) {
        let removed = self.world.pcpus[victim.index()].queue.remove(vcpu);
        debug_assert!(removed, "stolen vcpu must be queued on victim");
        self.world.vcpus[vcpu.index()].queued_on = None;
        if was_idle {
            self.obs.metrics.idle_steals += 1;
        }
        let victim_node = self.world.pcpus[victim.index()].node;
        let thief_node = self.world.pcpus[pid.index()].node;
        // "Steal latency" as NUMA distance victim → thief: the cost proxy
        // for how far the stolen VCPU's cache state has to travel.
        self.obs.telemetry.observe(
            self.obs.tids.h_steal_latency,
            self.world.topo.distance().get(victim_node, thief_node) as f64,
        );
        self.emit(
            self.world.clock.now(),
            Event::Steal {
                thief: pid,
                victim,
                vcpu,
                cross_node: victim_node != thief_node,
            },
        );
        self.switch_in(pid, vcpu);
    }

    fn try_steal(
        &mut self,
        thief: PcpuId,
        min_prio: Priority,
        would_idle: bool,
    ) -> Option<(PcpuId, VcpuId)> {
        let thief_node = self.world.pcpus[thief.index()].node;
        let mut victims: Vec<(PcpuId, usize, Vec<VcpuId>)> =
            Vec::with_capacity(self.world.pcpus.len() - 1);
        let mut total_runnable = 0usize;
        for p in &self.world.pcpus {
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
                .iter_at_least(min_prio, |x| self.world.vcpus[x.index()].priority)
                .filter(|v| {
                    let st = &self.world.vcpus[v.index()];
                    st.priority != Priority::Boost && st.allowed_on(thief_node)
                })
                .collect();
            victims.push((p.id, p.workload(), candidates));
        }
        self.obs.metrics.steal_attempts += 1;
        if victims.iter().all(|(_, _, c)| c.is_empty()) {
            self.obs.metrics.steal_attempts_empty += 1;
        }
        // Serialization cost of the balance decision (BRM's global lock).
        let cost = self.policy.decision_overhead_us(total_runnable);
        if cost > 0.0 {
            self.world.pcpus[thief.index()].pending_overhead_us += cost;
        }
        let ctx = StealContext {
            topo: &self.world.topo,
            idle_pcpu: thief,
            victims: &victims,
            pressure: &self.world.pressure,
            would_idle,
        };
        if !self.obs.provenance.is_enabled() {
            return self.policy.steal(ctx);
        }
        // Provenance path: identical call (the context is a cheap by-ref
        // copy), then flatten the candidate set with its score components
        // and ask the policy which rule fired. Records only decisions that
        // had at least one candidate; the all-empty case is already
        // counted by `steal_attempts_empty`.
        let choice = self.policy.steal(ctx.clone());
        let thief_node_of = |p: PcpuId| self.world.topo.node_of_pcpu(p);
        let mut candidates: Vec<crate::provenance::StealCandidate> = Vec::new();
        for (pid, workload, cands) in &victims {
            let node = thief_node_of(*pid);
            let dist = self.world.topo.distance().get(node, thief_node);
            for &v in cands {
                candidates.push(crate::provenance::StealCandidate {
                    pcpu: *pid,
                    vcpu: v,
                    node,
                    dist,
                    workload: *workload,
                    pressure: self.world.pressure[v.index()],
                    prio: self.world.vcpus[v.index()].priority,
                });
            }
        }
        if !candidates.is_empty() {
            let rule = self.policy.explain_steal(&ctx, &choice);
            self.obs.provenance.record(
                self.world.clock.now(),
                rule,
                Decision::Steal {
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
        let node = self.world.pcpus[pid.index()].node;
        let last_pcpu = self.world.vcpus[vcpu.index()].last_pcpu;
        let migrated = last_pcpu != Some(pid);
        let last_node = last_pcpu.map(|lp| self.world.topo.node_of_pcpu(lp));
        let cross_node = last_node.is_some_and(|n| n != node);
        // Timer-idler wake placements are wakeups, not load-balance
        // migrations: they carry no cache/memory state worth tracking, so
        // only workers count toward the migration metrics.
        let is_worker = self.world.vcpus[vcpu.index()].kind == VcpuKind::Worker;
        if let Some(from) = last_node.filter(|_| migrated && is_worker) {
            self.obs.metrics.migrations += 1;
            self.obs.telemetry.observe(
                self.obs.tids.h_migration_distance,
                self.world.topo.distance().get(from, node) as f64,
            );
            if cross_node {
                self.obs.metrics.cross_node_migrations += 1;
                // The whole LLC working set must be refetched on the new
                // node: the cold window scales with its size (~1 ms/MB).
                let v = &self.world.vcpus[vcpu.index()];
                let ws_mb = (self.world.vms[v.vm.index()]
                    .thread_for_slot(v.vm_idx)
                    .profile_at(self.world.clock.now())
                    .miss_curve
                    .ws_bytes
                    / (1024 * 1024)) as u32;
                self.world.vcpus[vcpu.index()].cold_quanta =
                    (self.world.cfg.cold_quanta + ws_mb).min(self.world.cfg.cold_quanta_max);
            }
        }
        let mut cost = self.world.cfg.context_switch_us;
        if migrated {
            cost += self.world.cfg.migration_extra_us;
        }
        self.world.pcpus[pid.index()].pending_overhead_us += cost;
        let v = &mut self.world.vcpus[vcpu.index()];
        v.running_on = Some(pid);
        v.last_pcpu = Some(pid);
        v.timeslice_left = self.world.timeslice_quanta;
        self.world.pcpus[pid.index()].current = Some(vcpu);
        self.emit(self.world.clock.now(), Event::SwitchIn { vcpu, pcpu: pid });
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
        let pcpus = self.world.topo.pcpus_of_node(node);
        let pick = self.world.rng.index(pcpus.len());
        let target = pcpus[pick.expect("every node has PCPUs")];
        self.obs.provenance.record(
            self.world.clock.now(),
            "uniform-random",
            Decision::Placement {
                vcpu,
                node,
                chosen: target,
                num_candidates: pcpus.len(),
            },
        );
        self.world.vcpus[vcpu.index()].queued_on = Some(target);
        self.world.pcpus[target.index()].queue.push(vcpu);
    }

    fn execute_quantum(&mut self, now: SimTime) {
        self.world
            .update_intensity_noise(&mut self.scratch.noise_scratch);
        let noise = &self.scratch.noise_scratch;
        let mut usages: Vec<QuantumUsage> = recycle(std::mem::take(&mut self.scratch.usage_buf));
        for p in &mut self.world.pcpus {
            // A stalled PCPU makes no forward progress this quantum.
            if p.stall_left > 0 {
                continue;
            }
            let Some(vid) = p.current else { continue };
            let v = &self.world.vcpus[vid.index()];
            let vm = &self.world.vms[v.vm.index()];
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
                VcpuKind::TimerIdler => (&self.world.idler_profile, 1.0),
            };
            usages.push(QuantumUsage {
                key: vid.raw() as u64,
                node: p.node,
                // An injected node-throttle period slows every VCPU on the
                // node (all-false without faults, leaving the share at 1).
                runtime_share: if self.world.node_throttled[p.node.index()] {
                    self.world.cfg.faults.node_throttle_factor
                } else {
                    1.0
                },
                profile,
                rpti_scale,
                cold_miss_boost: if v.cold_quanta > 0 {
                    self.world.cfg.cold_miss_boost
                } else {
                    1.0
                },
                overhead_us: std::mem::take(&mut p.pending_overhead_us),
            });
        }
        // The results borrow only the engine; the loop below writes other
        // `World` fields and the metrics.
        let results = self.world.engine.step_ref(self.world.cfg.quantum, &usages);
        self.scratch.usage_buf = recycle(usages);
        for r in results {
            let vid = VcpuId::new(r.key as u32);
            let v = &mut self.world.vcpus[vid.index()];
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
                self.world.overhead.add_busy_time(self.world.cfg.quantum);
                continue;
            }
            self.world.sampler.record(
                vid.index(),
                r.instructions,
                r.llc_refs,
                r.llc_misses,
                r.local_accesses,
                r.remote_accesses,
                &r.node_accesses,
            );
            let m = &mut self.obs.metrics.per_vm[v.vm.index()];
            m.instructions += r.instructions;
            m.llc_refs += r.llc_refs;
            m.llc_misses += r.llc_misses;
            m.local_accesses += r.local_accesses;
            m.remote_accesses += r.remote_accesses;
            m.busy_us += self.world.cfg.quantum.as_micros();
            self.world.overhead.add_busy_time(self.world.cfg.quantum);
        }
    }

    fn handle_sample(&mut self, now: SimTime, mut samples: Vec<PmuSample>) {
        // Counter attribution error: relative sd shrinks with the square
        // root of the window length.
        let cfg = &self.world.cfg;
        if cfg.attribution_noise > 0.0 {
            let window_quanta = (cfg.sample_period.as_micros() / cfg.quantum.as_micros()).max(1);
            let sd = cfg.attribution_noise / (window_quanta as f64).sqrt();
            for s in &mut samples {
                let f = self.world.rng.normal_clamped(1.0, sd, 0.2, 3.0);
                s.llc_refs = (s.llc_refs as f64 * f).round() as u64;
            }
        }
        // Injected PMU faults corrupt what the analyzer (and the series
        // below) sees; ground-truth per-VM metrics accumulate in
        // `execute_quantum` from engine results and are untouched.
        if self.world.faults_enabled {
            self.inject_sample_faults(now, &mut samples);
        }
        self.emit(
            now,
            Event::SamplePeriod {
                periods: self.world.sampler.periods_completed(),
            },
        );
        // Refresh the machine-cached per-VCPU pressures (Eq. 2).
        for (v, s) in samples.iter().enumerate() {
            self.world.pressure[v] = s.llc_access_pressure(1_000.0);
        }
        // Per-VM remote-ratio and throughput series for this period.
        let period_s = self.world.cfg.sample_period.as_secs_f64();
        for vm in &self.world.vms {
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
            self.obs.metrics.remote_ratio_series[vm.id.index()].push(now, ratio);
            self.obs.metrics.throughput_series[vm.id.index()].push(now, instr as f64 / period_s);
        }

        if self.policy.uses_pmu() {
            let cost = self.world.overhead.charge_analysis();
            self.world.pcpus[0].pending_overhead_us += cost;
        }

        let views: Vec<VcpuView> = self
            .world
            .vcpus
            .iter()
            .map(|v| VcpuView { id: v.id, vm: v.vm })
            .collect();
        // Deliver period-health signals before the analysis pass. With
        // faults disabled this reports all-valid samples and no failures,
        // and the default implementation ignores it.
        let failed_last_period = std::mem::take(&mut self.world.failed_migrations);
        self.policy.on_period_feedback(&PeriodFeedback {
            sample_validity: &self.world.sample_validity,
            failed_migrations: &failed_last_period,
        });
        let plan = self.policy.on_sample(AnalyzerView {
            topo: &self.world.topo,
            samples: &samples,
            vcpus: &views,
        });
        // Degradation bookkeeping (all-default for the paper's policies).
        let report = plan.report;
        self.obs.metrics.faults.periods_skipped += u64::from(report.period_skipped);
        self.obs.metrics.faults.fallback_periods += u64::from(report.fallback_active);
        self.obs.metrics.faults.fallbacks_triggered += u64::from(report.fallback_entered);
        self.obs.metrics.faults.migration_retries += u64::from(report.migration_retries);
        // Edge-detect degrade-mode transitions for the trace and counters.
        if report.fallback_entered {
            self.emit(now, Event::Degrade { fallback: true });
            self.obs.provenance.record(
                now,
                "confidence-dark-streak",
                Decision::Degrade { fallback: true },
            );
        }
        if self.world.was_fallback && !report.fallback_active {
            self.emit(now, Event::Degrade { fallback: false });
            self.obs.provenance.record(
                now,
                "confidence-recovered",
                Decision::Degrade { fallback: false },
            );
        }
        self.world.was_fallback = report.fallback_active;

        // Partition provenance: the policy's per-assignment notes (explain
        // mode only) become decision records at the period instant. Notes
        // never affect application below.
        for note in &plan.notes {
            self.obs
                .provenance
                .record(now, note.rule, decision_from_note(note));
        }

        for a in plan.assignments {
            let idx = a.vcpu.index();
            // Administrative pins outrank any policy decision.
            if self.world.vcpus[idx].admin_pinned {
                continue;
            }
            // A policy assignment is a one-shot migration (the paper's
            // soft partitioning) and never pins: its persistence relies on
            // the NUMA-aware load balance not dragging heavy VCPUs back
            // across nodes.
            let target = a.node;
            // A VCPU already running on the right node is left alone; the
            // fault draw below therefore only covers real migrations.
            let running_on = self.world.vcpus[idx].running_on;
            if self.world.vcpu_on_node(running_on, target) {
                continue;
            }
            if self.world.faults_enabled {
                match self.world.injector.migration_fault() {
                    MigrationFault::Failed => {
                        self.world.failed_migrations.push((a.vcpu, target));
                        self.emit(
                            now,
                            Event::Fault(FaultEvent::MigrationFailed {
                                vcpu: a.vcpu,
                                node: target,
                            }),
                        );
                        continue;
                    }
                    MigrationFault::Delayed(quanta) => {
                        let due = now + self.world.cfg.quantum * u64::from(quanta);
                        self.world.delayed_moves.push((due, a.vcpu, target));
                        self.emit(
                            now,
                            Event::Fault(FaultEvent::MigrationDelayed {
                                vcpu: a.vcpu,
                                node: target,
                                quanta: u64::from(quanta),
                            }),
                        );
                        continue;
                    }
                    MigrationFault::None => {}
                }
            }
            self.apply_partition_move(a.vcpu, target, now);
        }

        self.apply_page_migrations(now, plan.page_migrations);

        self.obs.close_period(&self.world, now);
    }

    /// Migrate one VCPU to `target` per Algorithm 1: a VCPU already
    /// running there is left alone, but a queued one is re-placed on the
    /// node (losing its queue position) — this per-pass disruption is what
    /// makes very short sampling periods expensive (Fig. 8's left arm).
    /// Shared by the sampling-period pass and the injected-delay path.
    fn apply_partition_move(&mut self, vcpu: VcpuId, target: NodeId, now: SimTime) {
        let idx = vcpu.index();
        let v = &self.world.vcpus[idx];
        if self.world.vcpu_on_node(v.running_on, target) {
            return;
        }
        let was_cross = !self.world.vcpu_on_node(v.queued_on, target) || v.running_on.is_some();
        if let Some(pid) = self.world.vcpus[idx].running_on {
            self.world.pcpus[pid.index()].current = None;
            self.world.vcpus[idx].running_on = None;
            self.emit(now, Event::SwitchOut { vcpu, pcpu: pid });
        } else if let Some(pid) = self.world.vcpus[idx].queued_on {
            self.world.pcpus[pid.index()].queue.remove(vcpu);
            self.world.vcpus[idx].queued_on = None;
        }
        self.enqueue_on_node(vcpu, target);
        if was_cross {
            self.emit(now, Event::PartitionMove { vcpu, node: target });
        }
        if self.policy.uses_pmu() {
            let cost = self.world.overhead.charge_migration();
            self.world.pcpus[0].pending_overhead_us += cost;
        }
    }

    /// Corrupt the period's samples per the fault schedule (only called
    /// with faults enabled) and draw the coming period's node throttles.
    fn inject_sample_faults(&mut self, now: SimTime, samples: &mut [PmuSample]) {
        let num_nodes = self.world.topo.num_nodes();
        for (i, s) in samples.iter_mut().enumerate() {
            let vcpu = VcpuId::new(i as u32);
            if self.world.injector.sample_lost() {
                *s = PmuSample::zeroed(num_nodes);
                self.world.sample_validity[i] = 0.0;
                self.emit(now, Event::Fault(FaultEvent::SampleLost { vcpu }));
                continue;
            }
            self.world.sample_validity[i] = 1.0;
            if let Some(f) = self.world.injector.multiplex_factor() {
                s.scale_llc(f);
                self.emit(now, Event::Fault(FaultEvent::CounterNoise { vcpu }));
            }
            if self.world.injector.affinity_corrupted() {
                let k = self.world.injector.affinity_rotation(num_nodes);
                s.rotate_node_accesses(k);
                self.emit(now, Event::Fault(FaultEvent::AffinityCorrupted { vcpu }));
            }
        }
        for n in 0..num_nodes {
            let throttled = self.world.injector.node_throttled();
            self.world.node_throttled[n] = throttled;
            if throttled {
                self.emit(
                    now,
                    Event::Fault(FaultEvent::NodeThrottled {
                        node: NodeId::from_index(n),
                    }),
                );
            }
        }
    }

    fn apply_page_migrations(
        &mut self,
        now: SimTime,
        page_migrations: Vec<crate::policy::PageMigration>,
    ) {
        // §VI extension: page migrations requested by the policy. The copy
        // engine moves ~2 bytes/ns; its time is charged as overhead on the
        // PCPU where the migrated VCPU would run (the VM stalls on the
        // moving pages).
        for pm in page_migrations {
            let v = &self.world.vcpus[pm.vcpu.index()];
            if v.kind != VcpuKind::Worker {
                continue;
            }
            let (vm, vm_idx) = (v.vm, v.vm_idx);
            let charged_pcpu = v.running_on.or(v.queued_on).unwrap_or(PcpuId::new(0));
            let moved =
                self.world.vms[vm.index()].migrate_thread_pages(vm_idx, pm.to_node, pm.max_bytes);
            if moved > 0 {
                self.obs.metrics.page_migrations += 1;
                self.obs.metrics.page_migration_bytes += moved;
                self.world.pcpus[charged_pcpu.index()].pending_overhead_us +=
                    moved as f64 / 2_000.0;
                self.emit(
                    now,
                    Event::PageMigration {
                        vcpu: pm.vcpu,
                        node: pm.to_node,
                        bytes: moved,
                    },
                );
                self.obs.provenance.record(
                    now,
                    "budget-grant",
                    Decision::PageMigration {
                        vcpu: pm.vcpu,
                        node: pm.to_node,
                        bytes: moved,
                    },
                );
            }
        }
    }
}

impl World {
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

    fn vcpu_on_node(&self, pcpu: Option<PcpuId>, node: NodeId) -> bool {
        pcpu.is_some_and(|pid| self.topo.node_of_pcpu(pid) == node)
    }

    /// Advance each worker's burstiness process one quantum (discrete
    /// Ornstein-Uhlenbeck reverting to 1.0), leaving the current factors in
    /// `noise` (reused across quanta instead of reallocated).
    fn update_intensity_noise(&mut self, noise: &mut Vec<f64>) {
        noise.clear();
        if self.cfg.intensity_noise_sd <= 0.0 {
            noise.resize(self.vcpus.len(), 1.0);
            return;
        }
        let (theta, step) = (self.noise_theta, self.noise_step);
        for v in &mut self.vcpus {
            if v.kind == VcpuKind::Worker {
                let eps = OU_SHOCK.sample(&mut self.rng);
                v.intensity_noise =
                    (v.intensity_noise + theta * (1.0 - v.intensity_noise) + step * eps)
                        .clamp(0.4, 1.8);
            }
            noise.push(v.intensity_noise);
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
            .add_vm(VmConfig::new(
                "vm1",
                8,
                8 * GB,
                AllocPolicy::MostFree,
                vec![npb::lu()],
            ))
            .add_vm(VmConfig::new(
                "vm2",
                8,
                5 * GB,
                AllocPolicy::MostFree,
                vec![npb::lu()],
            ))
            .add_vm(VmConfig::new(
                "vm3",
                8,
                GB,
                AllocPolicy::MostFree,
                vec![hungry::hungry_loop(); 8],
            ))
            .build()
            .unwrap()
    }

    /// Two LU VMs under the round-robin partitioning test policy, with
    /// uniform fault injection at `rate`.
    pub fn faulty_machine(rate: f64, fault_seed: u64) -> Machine {
        MachineBuilder::new(presets::xeon_e5620())
            .policy(super::vprobe_test_policy::pm_policy(false))
            .faults(FaultConfig::uniform(rate, fault_seed))
            .add_vm(VmConfig::new(
                "vm1",
                8,
                8 * GB,
                AllocPolicy::MostFree,
                vec![npb::lu()],
            ))
            .add_vm(VmConfig::new(
                "vm2",
                8,
                5 * GB,
                AllocPolicy::MostFree,
                vec![npb::lu()],
            ))
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

    #[test]
    fn recycle_keeps_the_allocation() {
        let text = String::from("borrowed");
        let mut v: Vec<(u64, &str)> = Vec::with_capacity(16);
        v.push((1, &text));
        let ptr = v.as_ptr() as usize;
        let w: Vec<(u64, &'static str)> = recycle(v);
        assert!(w.is_empty());
        assert_eq!(w.capacity(), 16);
        assert_eq!(w.as_ptr() as usize, ptr);
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
        assert!(
            vm1.remote_accesses > 0,
            "NUMA-oblivious credit must go remote"
        );
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
        let sum: u64 = (0..4)
            .map(|i| m.vcpu_totals(VcpuId::new(i)).instructions)
            .sum();
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
        eprintln!(
            "migrations={} cross={} steals={} partition={}",
            met.migrations, met.cross_node_migrations, met.steals, met.partition_moves
        );
        for (i, vm) in met.per_vm.iter().enumerate() {
            eprintln!(
                "vm{i}: instr={} busy={}us remote_ratio={:.3} total_acc={}",
                vm.instructions,
                vm.busy_us,
                vm.remote_ratio(),
                vm.total_accesses()
            );
        }
    }
}

impl Machine {
    /// Validate the scheduler state machine; returns a description of the
    /// first violation found. Used by tests (and cheap enough to call in
    /// debug builds after every step).
    pub fn check_invariants(&self) -> Result<(), String> {
        for v in &self.world.vcpus {
            // A VCPU is in exactly one of: running, queued, blocked-idle.
            let states = u8::from(v.running_on.is_some())
                + u8::from(v.queued_on.is_some())
                + u8::from(v.blocked);
            if states != 1 {
                return Err(format!("{} is in {} states at once", v.id, states));
            }
            if let Some(p) = v.running_on {
                if self.world.pcpus[p.index()].current != Some(v.id) {
                    return Err(format!(
                        "{} claims to run on {p} which runs {:?}",
                        v.id,
                        self.world.pcpus[p.index()].current
                    ));
                }
                if !v.allowed_on(self.world.topo.node_of_pcpu(p)) {
                    return Err(format!("{} runs on {p} outside its pinned node", v.id));
                }
            }
            if let Some(p) = v.queued_on {
                if !self.world.pcpus[p.index()].queue.iter().any(|q| q == v.id) {
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
        for p in &self.world.pcpus {
            if let Some(cur) = p.current {
                if self.world.vcpus[cur.index()].running_on != Some(p.id) {
                    return Err(format!("{} runs {} which disagrees", p.id, cur));
                }
            }
            for q in p.queue.iter() {
                if self.world.vcpus[q.index()].queued_on != Some(p.id) {
                    return Err(format!("{} queues {} which disagrees", p.id, q));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod feature_tests {
    use super::tests_helpers::{basic_machine_pub, faulty_machine};
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
            let mut a = VmConfig::new(
                "a",
                4,
                2 * GB,
                AllocPolicy::MostFree,
                vec![speccpu::povray(); 4],
            );
            a.weight = w1;
            let mut b = VmConfig::new(
                "b",
                4,
                2 * GB,
                AllocPolicy::MostFree,
                vec![speccpu::povray(); 4],
            );
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
        assert!(
            (0.8..1.25).contains(&equal),
            "equal weights ~equal: {equal}"
        );
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
        assert!(
            kinds.contains("steal"),
            "steal decisions present: {kinds:?}"
        );
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
        // Every sink at once, on a faulty partitioning run: trace,
        // telemetry, provenance and perf together leave every other
        // `RunMetrics` byte — the fault counts included — unchanged.
        let mut quiet = faulty_machine(0.1, 7);
        let mut loud = faulty_machine(0.1, 7);
        loud.enable_trace(1_000_000);
        loud.enable_telemetry();
        loud.enable_provenance(1_000_000);
        loud.enable_perf();
        let mut quiet_metrics = quiet.run(SimDuration::from_secs(2)).clone();
        let mut loud_metrics = loud.run(SimDuration::from_secs(2)).clone();
        assert!(loud_metrics.faults.injected() > 0, "faults fire");
        assert!(!loud.trace().is_empty() && !loud.provenance().is_empty());
        assert!(loud_metrics.telemetry.is_some() && loud_metrics.perf.is_some());
        for m in [&mut quiet_metrics, &mut loud_metrics] {
            m.telemetry = None;
            m.perf = None;
        }
        assert_eq!(quiet_metrics.to_json(), loud_metrics.to_json());
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
                assignments.push(crate::policy::VcpuAssignment { vcpu, node });
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

    #[test]
    fn trace_records_scheduling_events() {
        let mut m = basic_machine_pub();
        m.enable_trace(100_000);
        m.run(SimDuration::from_secs(3));
        let trace = m.trace();
        assert!(!trace.is_empty());
        let switches = trace.count(|e| matches!(e, Event::SwitchIn { .. }));
        assert!(
            switches > 100,
            "expected plenty of context switches: {switches}"
        );
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
    use super::tests_helpers::{basic_machine_pub, faulty_machine};
    use super::*;
    use crate::credit::CreditPolicy;
    use mem_model::AllocPolicy;
    use numa_topo::presets;
    use workloads::npb;

    const GB: u64 = 1024 * 1024 * 1024;

    #[test]
    fn builder_rejects_invalid_fault_config() {
        let err = MachineBuilder::new(presets::xeon_e5620())
            .policy(Box::new(CreditPolicy::new()))
            .faults(FaultConfig {
                sample_loss: 2.0,
                ..FaultConfig::none()
            })
            .add_vm(VmConfig::new(
                "vm1",
                8,
                GB,
                AllocPolicy::MostFree,
                vec![npb::lu()],
            ))
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
            .add_vm(VmConfig::new(
                "vm1",
                8,
                GB,
                AllocPolicy::MostFree,
                vec![npb::lu()],
            ))
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
                .add_vm(VmConfig::new(
                    "vm1",
                    8,
                    GB,
                    AllocPolicy::MostFree,
                    vec![npb::lu()],
                ))
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

#[cfg(test)]
mod fork_tests {
    use super::*;
    use crate::credit::CreditPolicy;
    use mem_model::AllocPolicy;
    use numa_topo::presets;
    use workloads::{hungry, npb, speccpu};

    const GB: u64 = 1024 * 1024 * 1024;

    fn machine(seed: u64, faults: FaultConfig) -> Machine {
        let mut vm1 = VmConfig::new("vm1", 8, 8 * GB, AllocPolicy::MostFree, vec![npb::lu()]);
        vm1.shuffle_period = Some(SimDuration::from_millis(700));
        MachineBuilder::new(presets::xeon_e5620())
            .policy(Box::new(CreditPolicy::new()))
            .seed(seed)
            .faults(faults)
            .add_vm(vm1)
            .add_vm(VmConfig::new(
                "vm2",
                8,
                5 * GB,
                AllocPolicy::MostFree,
                vec![speccpu::soplex(); 4],
            ))
            .add_vm(VmConfig::new(
                "vm3",
                8,
                GB,
                AllocPolicy::MostFree,
                vec![hungry::hungry_loop(); 8],
            ))
            .build()
            .unwrap()
    }

    /// Every field a simulated decision or result reads lives in `World`:
    /// a Credit fork taken mid-period (and mid-fault-schedule) steps
    /// exactly as the machine it was forked from. A field left out of the
    /// clone shows up as a diff here.
    #[test]
    fn a_credit_fork_steps_exactly_like_its_source() {
        for seed in [1, 42, 2026] {
            for faults in [FaultConfig::none(), FaultConfig::uniform(0.05, seed)] {
                let mut source = machine(seed, faults.clone());
                source.run(SimDuration::from_millis(1_537));
                let mut fork = source.fork(Box::new(CreditPolicy::new()));
                assert!(fork.metrics().per_vm.iter().all(|v| v.instructions == 0));
                assert!(!fork.trace().is_enabled() && !fork.provenance().is_enabled());
                // The source steps first: a state shared with the fork
                // would make the second run diverge.
                for m in [&mut source, &mut fork] {
                    m.reset_metrics();
                    m.run(SimDuration::from_secs(1));
                    m.check_invariants().unwrap();
                }
                let json = source.metrics().to_json();
                assert_eq!(json, fork.metrics().to_json(), "seed {seed}, {faults:?}");
                if faults.enabled() {
                    assert!(source.metrics().faults.injected() > 0, "faults fire");
                }
            }
        }
    }
}
