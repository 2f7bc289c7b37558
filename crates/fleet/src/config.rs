//! Fleet configuration: host presets, VM flavors, churn/failure/admission
//! knobs, and the scheduler choice replicated on every host.

use mem_model::EngineSelect;
use numa_topo::{presets, Topology};
use sim_core::{SimDuration, SimError};
use workloads::{hungry, npb, speccpu, WorkloadSpec};
use xen_sim::{CreditPolicy, SchedPolicy, VmConfig};

const GB: u64 = 1024 * 1024 * 1024;

/// The scheduler replicated on every host of the fleet. A subset of the
/// experiment crate's scheduler list: the fleet sweep compares the paper's
/// baseline, vProbe, and the degradation-hardened vProbe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FleetScheduler {
    Credit,
    VProbe,
    /// vProbe with the graceful-degradation layer (PR 2) — the variant
    /// meant to survive fleet-scale fault injection.
    VProbeGd,
}

impl FleetScheduler {
    pub fn name(self) -> &'static str {
        match self {
            FleetScheduler::Credit => "Credit",
            FleetScheduler::VProbe => "vProbe",
            FleetScheduler::VProbeGd => "vProbe-GD",
        }
    }

    /// Instantiate the per-host policy (same construction as the
    /// experiments runner uses for the single-machine figures).
    pub fn policy(self, num_nodes: usize, _seed: u64) -> Box<dyn SchedPolicy> {
        match self {
            FleetScheduler::Credit => Box::new(CreditPolicy::new()),
            FleetScheduler::VProbe => {
                Box::new(vprobe::variants::vprobe(num_nodes, vprobe::Bounds::default()))
            }
            FleetScheduler::VProbeGd => {
                Box::new(vprobe::variants::vprobe_gd(num_nodes, vprobe::Bounds::default()))
            }
        }
    }

    pub fn parse(s: &str) -> Result<Self, SimError> {
        match s.to_ascii_lowercase().as_str() {
            "credit" => Ok(FleetScheduler::Credit),
            "vprobe" => Ok(FleetScheduler::VProbe),
            "vprobe-gd" | "vprobegd" | "gd" => Ok(FleetScheduler::VProbeGd),
            _ => Err(SimError::UnknownName(format!(
                "scheduler '{s}' (known: credit, vprobe, vprobe-gd)"
            ))),
        }
    }
}

/// Hardware generations a fleet can mix. Each maps to a `numa-topo` preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostPreset {
    /// The paper's testbed: 2 nodes × 4 cores, 12 GB per node.
    XeonE5620,
    /// A larger box: 4 nodes × 8 cores.
    FourSocket32,
    /// A single-node (UMA) quad-core.
    UmaQuad,
}

impl HostPreset {
    pub fn name(self) -> &'static str {
        match self {
            HostPreset::XeonE5620 => "xeon-e5620",
            HostPreset::FourSocket32 => "4s32c",
            HostPreset::UmaQuad => "uma-quad",
        }
    }

    pub fn topology(self) -> Topology {
        match self {
            HostPreset::XeonE5620 => presets::xeon_e5620(),
            HostPreset::FourSocket32 => presets::four_socket_32core(),
            HostPreset::UmaQuad => presets::uma_quad(),
        }
    }

    pub fn parse(s: &str) -> Result<Self, SimError> {
        match s.to_ascii_lowercase().as_str() {
            "xeon-e5620" | "xeon" => Ok(HostPreset::XeonE5620),
            "4s32c" | "four-socket" => Ok(HostPreset::FourSocket32),
            "uma-quad" | "uma" => Ok(HostPreset::UmaQuad),
            _ => Err(SimError::UnknownName(format!(
                "host preset '{s}' (known: xeon-e5620, 4s32c, uma-quad)"
            ))),
        }
    }
}

/// A VM shape the fleet can admit: sizing plus the guest workload.
#[derive(Debug, Clone)]
pub struct VmFlavor {
    pub name: &'static str,
    pub vcpus: usize,
    pub mem_bytes: u64,
    pub workloads: Vec<WorkloadSpec>,
    pub weight: u32,
}

impl VmFlavor {
    /// The default catalog: a memory-hungry database shape, a mid-size
    /// batch-compute shape, and a small web shape. Sized so several fit on
    /// the paper's 24 GB testbed host.
    pub fn catalog() -> Vec<VmFlavor> {
        vec![
            VmFlavor {
                name: "db",
                vcpus: 4,
                mem_bytes: 6 * GB,
                workloads: vec![speccpu::soplex(); 2],
                weight: 256,
            },
            VmFlavor {
                name: "batch",
                vcpus: 4,
                mem_bytes: 4 * GB,
                workloads: vec![npb::lu()],
                weight: 256,
            },
            VmFlavor {
                name: "web",
                vcpus: 2,
                mem_bytes: 2 * GB,
                workloads: vec![hungry::hungry_loop()],
                weight: 256,
            },
        ]
    }

    /// Build the `xen-sim` VM description for fleet VM `id` of this flavor.
    /// Names encode the fleet-wide id so per-VM metrics stay attributable
    /// after migrations.
    pub fn vm_config(&self, id: u64) -> VmConfig {
        let mut cfg = VmConfig::new(
            format!("{}-{id}", self.name),
            self.vcpus,
            self.mem_bytes,
            mem_model::AllocPolicy::MostFree,
            self.workloads.clone(),
        );
        cfg.weight = self.weight;
        cfg
    }
}

/// VM arrival/departure churn, in fleet-wide units per epoch.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Poisson rate of new-VM arrivals per epoch across the whole fleet.
    pub arrivals_per_epoch: f64,
    /// Per-VM probability of departing at each epoch boundary.
    pub departure_rate: f64,
}

impl ChurnConfig {
    pub fn none() -> Self {
        ChurnConfig {
            arrivals_per_epoch: 0.0,
            departure_rate: 0.0,
        }
    }
}

/// Host/rack failure model and inter-host migration faults.
#[derive(Debug, Clone, Copy)]
pub struct FailureConfig {
    /// Per-host, per-epoch crash probability (independent failures).
    pub host_crash_rate: f64,
    /// Per-rack, per-epoch probability that the whole rack goes down
    /// together (correlated failure domain: power feed, ToR switch).
    pub rack_crash_rate: f64,
    /// Hosts per rack (the correlated failure domain size).
    pub rack_size: usize,
    /// Mean epochs a crashed host stays down (exponential, minimum 1).
    pub recovery_epochs_mean: f64,
    /// Probability that an accepted inter-host live migration fails after
    /// the copy started (the VM returns to the queue and retries).
    pub migration_fail_rate: f64,
    /// Probability that a migration's copy phase runs at half bandwidth
    /// (doubling its copy epochs).
    pub migration_delay_rate: f64,
    /// Live-migration copy bandwidth per epoch; a VM occupies the wire for
    /// `ceil(mem_bytes / this)` epochs before it lands. Zero means the
    /// copy is instantaneous.
    pub copy_bandwidth_bytes_per_epoch: u64,
}

impl FailureConfig {
    pub fn none() -> Self {
        FailureConfig {
            host_crash_rate: 0.0,
            rack_crash_rate: 0.0,
            rack_size: 8,
            recovery_epochs_mean: 5.0,
            migration_fail_rate: 0.0,
            migration_delay_rate: 0.0,
            copy_bandwidth_bytes_per_epoch: 8 * GB,
        }
    }
}

/// Placement/admission controller knobs.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Placement retries before a queued VM is shed.
    pub max_retries: u32,
    /// Base retry backoff in epochs; doubles per retry.
    pub backoff_epochs: u64,
    /// Queue residency limit: a VM still unplaced after this many epochs is
    /// shed (recorded, never silently dropped).
    pub queue_timeout_epochs: u64,
    /// VCPU overcommit factor for admission (the paper's own setups run
    /// 3 × 8 VCPUs on 8 PCPUs, i.e. 3×).
    pub cpu_overcommit: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_retries: 3,
            backoff_epochs: 1,
            queue_timeout_epochs: 20,
            cpu_overcommit: 3.0,
        }
    }
}

/// Full description of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    pub num_hosts: usize,
    /// Hardware mix: host `i` uses `presets[i % presets.len()]`.
    pub presets: Vec<HostPreset>,
    pub scheduler: FleetScheduler,
    pub seed: u64,
    /// Epochs to simulate; fleet wall time = `epochs × epoch_len`.
    pub epochs: u64,
    /// One epoch = one sampling period on every host.
    pub epoch_len: SimDuration,
    /// VMs pre-placed on each host before epoch 0 (flavors cycle through
    /// the catalog in fleet-wide VM-id order).
    pub initial_vms_per_host: usize,
    pub flavors: Vec<VmFlavor>,
    pub churn: ChurnConfig,
    pub failures: FailureConfig,
    pub admission: AdmissionConfig,
    /// Per-host PMU/migration fault injection rate
    /// ([`sim_core::FaultConfig::uniform`]); 0 = clean hosts.
    pub host_fault_rate: f64,
    /// Seed for per-host fault streams (host `i` uses `fault_seed + i`).
    pub fault_seed: u64,
    /// Memory-engine implementation on every host (default the exact
    /// incremental engine; `Approx` trades bounded model error for speed,
    /// `Reference` pins the frozen pre-rewrite solver).
    pub engine: EngineSelect,
    /// Perf introspection on every host machine (work-avoidance counters,
    /// see `xen_sim::perf`). Observation only —
    /// the report and every other output stay byte-identical.
    pub perf: bool,
    /// SLO budget for evacuation latency, in seconds: the burn-rate series
    /// in the provenance rollup reports each landed evacuation's latency
    /// as a fraction of this budget. Purely observational — never gates a
    /// placement decision.
    pub slo_evac_budget_s: f64,
}

impl FleetConfig {
    /// A quiet fleet: no churn, no failures, no fault injection.
    pub fn new(num_hosts: usize, scheduler: FleetScheduler) -> Self {
        FleetConfig {
            num_hosts,
            presets: vec![HostPreset::XeonE5620],
            scheduler,
            seed: 42,
            epochs: 10,
            epoch_len: SimDuration::from_secs(1),
            initial_vms_per_host: 2,
            flavors: VmFlavor::catalog(),
            churn: ChurnConfig::none(),
            failures: FailureConfig::none(),
            admission: AdmissionConfig::default(),
            host_fault_rate: 0.0,
            fault_seed: 1,
            engine: EngineSelect::default(),
            perf: false,
            slo_evac_budget_s: 60.0,
        }
    }

    /// The preset for host `index`.
    pub fn preset_for(&self, index: usize) -> HostPreset {
        self.presets[index % self.presets.len()]
    }

    /// The rack (failure domain) of host `index`.
    pub fn rack_of(&self, index: usize) -> usize {
        index / self.failures.rack_size.max(1)
    }

    pub fn num_racks(&self) -> usize {
        if self.num_hosts == 0 {
            0
        } else {
            self.rack_of(self.num_hosts - 1) + 1
        }
    }

    pub fn validate(&self) -> Result<(), SimError> {
        if self.num_hosts == 0 {
            return Err(SimError::InvalidConfig("fleet has no hosts".into()));
        }
        if self.presets.is_empty() {
            return Err(SimError::InvalidConfig("fleet has no host presets".into()));
        }
        if self.flavors.is_empty() {
            return Err(SimError::InvalidConfig("fleet has no VM flavors".into()));
        }
        if self.epochs == 0 {
            return Err(SimError::InvalidConfig("fleet runs zero epochs".into()));
        }
        if self.epoch_len.is_zero() {
            return Err(SimError::InvalidConfig("zero epoch length".into()));
        }
        if self.failures.rack_size == 0 {
            return Err(SimError::InvalidConfig("zero rack size".into()));
        }
        if self.failures.recovery_epochs_mean <= 0.0 {
            return Err(SimError::InvalidConfig(
                "recovery_epochs_mean must be positive".into(),
            ));
        }
        for rate in [
            self.churn.departure_rate,
            self.failures.host_crash_rate,
            self.failures.rack_crash_rate,
            self.failures.migration_fail_rate,
            self.failures.migration_delay_rate,
            self.host_fault_rate,
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(SimError::InvalidConfig(format!(
                    "probability {rate} outside [0, 1]"
                )));
            }
        }
        if self.churn.arrivals_per_epoch < 0.0 {
            return Err(SimError::InvalidConfig(
                "arrivals_per_epoch must be non-negative".into(),
            ));
        }
        if self.admission.cpu_overcommit <= 0.0 {
            return Err(SimError::InvalidConfig(
                "cpu_overcommit must be positive".into(),
            ));
        }
        if self.slo_evac_budget_s <= 0.0 || !self.slo_evac_budget_s.is_finite() {
            return Err(SimError::InvalidConfig(
                "slo_evac_budget_s must be positive".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        FleetConfig::new(4, FleetScheduler::VProbe).validate().unwrap();
    }

    #[test]
    fn bad_rates_rejected() {
        let mut cfg = FleetConfig::new(4, FleetScheduler::Credit);
        cfg.failures.host_crash_rate = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = FleetConfig::new(4, FleetScheduler::Credit);
        cfg.churn.arrivals_per_epoch = -1.0;
        assert!(cfg.validate().is_err());
        assert!(FleetConfig::new(0, FleetScheduler::Credit).validate().is_err());
    }

    #[test]
    fn racks_partition_hosts() {
        let mut cfg = FleetConfig::new(20, FleetScheduler::Credit);
        cfg.failures.rack_size = 8;
        assert_eq!(cfg.rack_of(0), 0);
        assert_eq!(cfg.rack_of(7), 0);
        assert_eq!(cfg.rack_of(8), 1);
        assert_eq!(cfg.num_racks(), 3);
    }

    #[test]
    fn presets_cycle() {
        let mut cfg = FleetConfig::new(5, FleetScheduler::Credit);
        cfg.presets = vec![HostPreset::XeonE5620, HostPreset::FourSocket32];
        assert_eq!(cfg.preset_for(0), HostPreset::XeonE5620);
        assert_eq!(cfg.preset_for(1), HostPreset::FourSocket32);
        assert_eq!(cfg.preset_for(4), HostPreset::XeonE5620);
    }

    #[test]
    fn scheduler_and_preset_parse() {
        assert_eq!(FleetScheduler::parse("vprobe-gd").unwrap(), FleetScheduler::VProbeGd);
        assert_eq!(FleetScheduler::parse("Credit").unwrap(), FleetScheduler::Credit);
        assert!(FleetScheduler::parse("brm").is_err());
        assert_eq!(HostPreset::parse("uma").unwrap(), HostPreset::UmaQuad);
        assert!(HostPreset::parse("pdp11").is_err());
    }

    #[test]
    fn flavors_build_valid_vm_configs() {
        for (i, f) in VmFlavor::catalog().iter().enumerate() {
            let cfg = f.vm_config(i as u64);
            cfg.validate().unwrap();
            assert!(cfg.name.contains(&i.to_string()));
        }
    }

    #[test]
    fn policies_instantiate() {
        for s in [FleetScheduler::Credit, FleetScheduler::VProbe, FleetScheduler::VProbeGd] {
            assert!(!s.policy(2, 1).name().is_empty());
        }
    }
}
