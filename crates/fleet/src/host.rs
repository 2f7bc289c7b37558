//! One fleet host: a NUMA box that is either Up (possibly running a
//! [`Machine`]) or Down (crashed, waiting out its recovery timer).
//!
//! `xen_sim::Machine` fixes its VM set at build time (VCPU vectors, the
//! PMU sampler, and the memory engine are all sized in `build()`), so the
//! fleet models VM arrival/departure by *rebuilding* the host's machine
//! whenever its membership changes. A host whose membership never changes
//! is never rebuilt, and chunked epoch stepping is byte-identical to one
//! long `run()` — which is exactly why a quiet 1-host fleet reproduces the
//! single-machine path bit for bit. Work done by retired machine
//! generations is folded into per-host accumulators so throughput
//! accounting survives rebuilds and crashes.

use crate::config::{AdmissionConfig, FleetConfig, HostPreset, VmFlavor};
use crate::placement::HostCapacity;
use sim_core::{FaultConfig, SimError};
use xen_sim::{Machine, MachineBuilder};

/// Golden-ratio mix constant used to decorrelate per-generation seeds.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// One VM as the fleet controller sees it.
#[derive(Debug, Clone)]
pub struct FleetVm {
    /// Fleet-wide unique id, assigned at arrival and stable across
    /// migrations.
    pub id: u64,
    /// Index into the flavor catalog (for reporting).
    pub flavor_idx: usize,
    pub flavor: VmFlavor,
    pub arrived_epoch: u64,
}

/// Host availability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostState {
    Up,
    /// Crashed; comes back at the start of `until_epoch`.
    Down {
        until_epoch: u64,
    },
}

/// A VM accepted onto a host whose live-migration copy is still in flight.
#[derive(Debug, Clone)]
pub struct IncomingVm {
    pub vm: FleetVm,
    /// Epoch at which the VM becomes resident (copy finished).
    pub lands_epoch: u64,
    /// Set when this VM was displaced by a crash (drives the evacuation
    /// latency histogram when it lands).
    pub displaced_epoch: Option<u64>,
    /// Provenance span id tracking this VM's placement journey; 0 when
    /// provenance is disabled.
    pub span: u64,
}

/// One host of the fleet.
pub struct Host {
    pub index: usize,
    pub preset: HostPreset,
    /// Failure domain (rack) id.
    pub rack: usize,
    pub state: HostState,
    /// Resident VMs, in admission order.
    pub vms: Vec<FleetVm>,
    /// Accepted VMs whose migration copy has not finished yet. They
    /// reserve capacity but do not run.
    pub incoming: Vec<IncomingVm>,
    /// The running simulation; `None` while down or empty.
    pub machine: Option<Machine>,
    /// Machine rebuilds so far (0 = the initial build, so a never-rebuilt
    /// host seeds its machine exactly like the single-machine path).
    pub generation: u64,
    /// Membership changed since the machine was last (re)built.
    pub dirty: bool,
    /// Cached hardware totals (avoids re-deriving the topology per epoch).
    num_pcpus: usize,
    total_mem_bytes: u64,
    /// Instructions retired by machine generations that were torn down.
    pub retired_instructions: u64,
    /// Busy microseconds from torn-down generations.
    pub retired_busy_us: f64,
    /// Perf counters folded in from torn-down generations.
    retired_perf: xen_sim::PerfSnapshot,
    /// Epochs this host spent Up / Down.
    pub up_epochs: u64,
    pub down_epochs: u64,
    /// Crashes suffered.
    pub crashes: u64,
}

impl Host {
    pub fn new(index: usize, preset: HostPreset, rack: usize) -> Self {
        let topo = preset.topology();
        Host {
            index,
            preset,
            rack,
            state: HostState::Up,
            vms: Vec::new(),
            incoming: Vec::new(),
            machine: None,
            generation: 0,
            dirty: false,
            num_pcpus: topo.num_pcpus(),
            total_mem_bytes: topo.total_mem_bytes(),
            retired_instructions: 0,
            retired_busy_us: 0.0,
            retired_perf: xen_sim::PerfSnapshot::default(),
            up_epochs: 0,
            down_epochs: 0,
            crashes: 0,
        }
    }

    pub fn is_up(&self) -> bool {
        self.state == HostState::Up
    }

    pub fn num_pcpus(&self) -> usize {
        self.num_pcpus
    }

    /// Free resources for admission: hardware totals minus everything
    /// resident *and* in flight (an accepted copy reserves its room).
    pub fn capacity(&self, adm: &AdmissionConfig) -> HostCapacity {
        let committed_vcpus: usize = self
            .vms
            .iter()
            .map(|v| v.flavor.vcpus)
            .chain(self.incoming.iter().map(|i| i.vm.flavor.vcpus))
            .sum();
        let committed_mem: u64 = self
            .vms
            .iter()
            .map(|v| v.flavor.mem_bytes)
            .chain(self.incoming.iter().map(|i| i.vm.flavor.mem_bytes))
            .sum();
        HostCapacity {
            free_vcpus: self.num_pcpus as f64 * adm.cpu_overcommit - committed_vcpus as f64,
            free_mem_bytes: self.total_mem_bytes.saturating_sub(committed_mem),
        }
    }

    /// Place a VM directly into the resident set (initial placement and
    /// copy completion). Marks the machine for rebuild.
    pub fn admit_resident(&mut self, vm: FleetVm) {
        self.vms.push(vm);
        self.dirty = true;
    }

    /// Remove a resident VM by id (departure churn). Returns it if found.
    pub fn remove_vm(&mut self, id: u64) -> Option<FleetVm> {
        let pos = self.vms.iter().position(|v| v.id == id)?;
        self.dirty = true;
        Some(self.vms.remove(pos))
    }

    /// Crash the host: fold the dying machine's work into the
    /// accumulators and hand every resident and in-flight VM back to the
    /// controller for evacuation.
    pub fn crash(&mut self, until_epoch: u64) -> (Vec<FleetVm>, Vec<IncomingVm>) {
        self.fold_machine();
        self.state = HostState::Down { until_epoch };
        self.crashes += 1;
        self.dirty = false;
        (
            std::mem::take(&mut self.vms),
            std::mem::take(&mut self.incoming),
        )
    }

    /// Bring a recovered host back, empty.
    pub fn recover(&mut self) {
        debug_assert!(self.vms.is_empty() && self.machine.is_none());
        self.state = HostState::Up;
    }

    /// Fold the current machine's metrics into the retired accumulators
    /// and drop it.
    fn fold_machine(&mut self) {
        if let Some(m) = self.machine.take() {
            let metrics = m.metrics();
            self.retired_instructions +=
                metrics.per_vm.iter().map(|vm| vm.instructions).sum::<u64>();
            self.retired_busy_us += metrics.busy_us;
            self.retired_perf.merge(&m.perf_snapshot());
        }
    }

    /// The machine seed for the current generation. Generation 0 (never
    /// rebuilt) uses `fleet seed + host index` unmixed, so host 0 of a
    /// quiet fleet seeds exactly like a directly-built machine with the
    /// fleet seed.
    pub fn machine_seed(&self, cfg: &FleetConfig) -> u64 {
        cfg.seed.wrapping_add(self.index as u64) ^ self.generation.wrapping_mul(PHI)
    }

    /// Rebuild the machine to match the current resident set. Called by
    /// the controller inside the barrier, only for dirty Up hosts.
    pub fn rebuild(&mut self, cfg: &FleetConfig) -> Result<(), SimError> {
        debug_assert!(self.is_up());
        if self.machine.is_some() {
            self.fold_machine();
            self.generation += 1;
        }
        self.dirty = false;
        if self.vms.is_empty() {
            return Ok(());
        }
        let topo = self.preset.topology();
        let num_nodes = topo.num_nodes();
        let seed = self.machine_seed(cfg);
        let faults = if cfg.host_fault_rate > 0.0 {
            FaultConfig::uniform(
                cfg.host_fault_rate,
                cfg.fault_seed.wrapping_add(self.index as u64),
            )
        } else {
            FaultConfig::none()
        };
        let mut builder = MachineBuilder::new(topo)
            .policy(cfg.scheduler.policy(num_nodes, seed))
            .sample_period(cfg.epoch_len)
            .seed(seed)
            .faults(faults);
        for vm in &self.vms {
            builder = builder.add_vm(vm.flavor.vm_config(vm.id));
        }
        let mut machine = builder.build()?;
        if cfg.perf {
            machine.enable_perf();
        }
        self.machine = Some(machine);
        Ok(())
    }

    /// Instructions retired across every generation, including the live
    /// machine.
    pub fn total_instructions(&self) -> u64 {
        self.retired_instructions
            + self
                .machine
                .as_ref()
                .map(|m| m.metrics().per_vm.iter().map(|vm| vm.instructions).sum())
                .unwrap_or(0)
    }

    /// Busy PCPU microseconds across every generation.
    pub fn total_busy_us(&self) -> f64 {
        self.retired_busy_us
            + self
                .machine
                .as_ref()
                .map(|m| m.metrics().busy_us)
                .unwrap_or(0.0)
    }

    /// Perf counters across every generation of this host, including the
    /// live machine. Reported as one host (`hosts == 1`) regardless of
    /// how many machine generations contributed.
    pub fn perf_snapshot(&self) -> xen_sim::PerfSnapshot {
        let mut snap = self.retired_perf.clone();
        if let Some(m) = &self.machine {
            snap.merge(&m.perf_snapshot());
        }
        snap.hosts = 1;
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FleetScheduler, VmFlavor};

    fn test_vm(id: u64) -> FleetVm {
        let flavors = VmFlavor::catalog();
        let flavor_idx = id as usize % flavors.len();
        FleetVm {
            id,
            flavor_idx,
            flavor: flavors[flavor_idx].clone(),
            arrived_epoch: 0,
        }
    }

    #[test]
    fn rebuild_builds_machine_for_resident_vms() {
        let cfg = FleetConfig::new(1, FleetScheduler::Credit);
        let mut h = Host::new(0, HostPreset::XeonE5620, 0);
        h.admit_resident(test_vm(0));
        h.admit_resident(test_vm(1));
        h.rebuild(&cfg).unwrap();
        assert!(h.machine.is_some());
        assert_eq!(h.generation, 0, "first build is generation 0");
        assert!(!h.dirty);
    }

    #[test]
    fn empty_host_has_no_machine() {
        let cfg = FleetConfig::new(1, FleetScheduler::Credit);
        let mut h = Host::new(0, HostPreset::XeonE5620, 0);
        h.rebuild(&cfg).unwrap();
        assert!(h.machine.is_none());
    }

    #[test]
    fn crash_hands_back_all_vms_and_folds_work() {
        let cfg = FleetConfig::new(1, FleetScheduler::Credit);
        let mut h = Host::new(0, HostPreset::XeonE5620, 0);
        h.admit_resident(test_vm(0));
        h.rebuild(&cfg).unwrap();
        h.machine
            .as_mut()
            .unwrap()
            .run(sim_core::SimDuration::from_secs(1));
        let before = h.total_instructions();
        assert!(before > 0);
        let (vms, incoming) = h.crash(5);
        assert_eq!(vms.len(), 1);
        assert!(incoming.is_empty());
        assert!(h.machine.is_none());
        assert_eq!(h.total_instructions(), before, "work done is not lost");
        assert_eq!(h.state, HostState::Down { until_epoch: 5 });
        h.recover();
        assert!(h.is_up());
    }

    #[test]
    fn generation_seed_changes_only_after_rebuild() {
        let cfg = FleetConfig::new(2, FleetScheduler::Credit);
        let mut h = Host::new(1, HostPreset::XeonE5620, 0);
        let g0 = h.machine_seed(&cfg);
        assert_eq!(g0, cfg.seed.wrapping_add(1));
        h.admit_resident(test_vm(0));
        h.rebuild(&cfg).unwrap();
        assert_eq!(h.machine_seed(&cfg), g0, "first build keeps the base seed");
        h.admit_resident(test_vm(1));
        h.rebuild(&cfg).unwrap();
        assert_ne!(h.machine_seed(&cfg), g0, "rebuilds decorrelate");
    }

    #[test]
    fn capacity_counts_incoming_reservations() {
        let adm = AdmissionConfig::default();
        let mut h = Host::new(0, HostPreset::XeonE5620, 0);
        let base = h.capacity(&adm);
        h.incoming.push(IncomingVm {
            vm: test_vm(0),
            lands_epoch: 3,
            displaced_epoch: None,
            span: 0,
        });
        let reserved = h.capacity(&adm);
        assert!(reserved.free_vcpus < base.free_vcpus);
        assert!(reserved.free_mem_bytes < base.free_mem_bytes);
    }
}
