//! Virtual machines and their guest threads.

use mem_model::{AllocPolicy, NodeFree, VmMemoryLayout};
use numa_topo::{VcpuId, VmId};
use sim_core::{SimDuration, SimError, SimTime};
use std::cell::Cell;
use workloads::phases::{PhaseSpan, PhasedWorkload};
use workloads::WorkloadSpec;

/// Static description of one VM.
#[derive(Debug, Clone)]
pub struct VmConfig {
    pub name: String,
    /// VCPUs the domain is configured with. Guest threads occupy the first
    /// `total_threads()` of them; the rest are timer idlers (see
    /// `idler_period`), matching the paper's setups (8-VCPU VMs running
    /// 4-thread NPB programs).
    pub vcpus: usize,
    pub mem_bytes: u64,
    pub alloc: AllocPolicy,
    /// The applications to run: each spec contributes `spec.threads`
    /// guest threads (four identical SPEC instances = the same spec four
    /// times; a 4-thread NPB program = one spec with `threads == 4`).
    pub workloads: Vec<WorkloadSpec>,
    /// If set, the guest OS rebalances threads across VCPUs with this
    /// period (rotating the thread→VCPU mapping), which gradually
    /// invalidates per-VCPU PMU history — the effect behind the paper's
    /// Fig. 8 observation that over-long sampling periods hurt.
    pub shuffle_period: Option<SimDuration>,
    /// Guest-kernel timer period for the VM's surplus VCPUs: each idler
    /// wakes briefly (at BOOST priority) this often. `None` models a guest
    /// with tickless idle — surplus VCPUs never run.
    pub idler_period: Option<SimDuration>,
    /// Hard-pin every VCPU of this VM to one node (`xl vcpu-pin`); the
    /// Fig. 3 protocol pins its single VCPU to the local node.
    pub pin_node: Option<numa_topo::NodeId>,
    /// Run each workload through alternating memory-heavy/compute-heavy
    /// phases of this period instead of steady behaviour (see
    /// `workloads::phases`): stresses how quickly a policy re-adapts.
    pub phase_period: Option<SimDuration>,
    /// Credit-scheduler weight (Xen default 256): CPU time is shared in
    /// proportion to weight among competing VMs.
    pub weight: u32,
}

impl VmConfig {
    /// Convenience constructor with the common defaults: 10 ms guest timer
    /// on surplus VCPUs, no thread shuffling.
    pub fn new(
        name: impl Into<String>,
        vcpus: usize,
        mem_bytes: u64,
        alloc: AllocPolicy,
        workloads: Vec<WorkloadSpec>,
    ) -> Self {
        VmConfig {
            name: name.into(),
            vcpus,
            mem_bytes,
            alloc,
            workloads,
            shuffle_period: None,
            idler_period: Some(SimDuration::from_millis(30)),
            pin_node: None,
            phase_period: None,
            weight: 256,
        }
    }

    /// Total guest worker threads this VM will run.
    pub fn total_threads(&self) -> usize {
        self.workloads.iter().map(|w| w.threads).sum()
    }

    /// Surplus VCPUs that act as timer idlers.
    pub fn total_idlers(&self) -> usize {
        if self.idler_period.is_some() {
            self.vcpus - self.total_threads()
        } else {
            0
        }
    }

    pub fn validate(&self) -> Result<(), SimError> {
        if self.vcpus == 0 {
            return Err(SimError::InvalidConfig(format!(
                "{}: zero VCPUs",
                self.name
            )));
        }
        if self.mem_bytes == 0 {
            return Err(SimError::InvalidConfig(format!(
                "{}: zero memory",
                self.name
            )));
        }
        let threads = self.total_threads();
        if threads == 0 {
            return Err(SimError::InvalidConfig(format!(
                "{}: no guest threads",
                self.name
            )));
        }
        if threads > self.vcpus {
            return Err(SimError::InvalidConfig(format!(
                "{}: {threads} threads exceed {} VCPUs",
                self.name, self.vcpus
            )));
        }
        if let Some(p) = self.idler_period {
            if p.is_zero() {
                return Err(SimError::InvalidConfig(format!(
                    "{}: zero idler period",
                    self.name
                )));
            }
        }
        if self.weight == 0 {
            return Err(SimError::InvalidConfig(format!(
                "{}: zero weight",
                self.name
            )));
        }
        Ok(())
    }
}

/// One guest thread: a (possibly phased) workload plus the node
/// distribution of the memory it touches.
#[derive(Debug, Clone)]
pub struct GuestThread {
    workload: PhasedWorkload,
    /// Fraction of this thread's accesses landing on each node; fixed at
    /// VM creation because machine pages are fixed at domain creation
    /// (page migration is the one exception — it goes through
    /// [`VmRuntime::migrate_thread_pages`], which refreshes the cache).
    pub access_dist: Vec<f64>,
    /// One ready-made access profile per workload phase, so the per-quantum
    /// execution path borrows a profile instead of rebuilding spec + node
    /// distribution every time a VCPU runs.
    profiles: Vec<mem_model::AccessProfile>,
    /// The span of the phase [`GuestThread::profile_at`] last answered.
    /// Simulated time only moves forward, so nearly every query lands in
    /// it and skips [`PhasedWorkload::phase_span_at`]'s modulo and scan;
    /// any other query recomputes it.
    phase: Cell<PhaseSpan>,
}

impl GuestThread {
    fn new(workload: PhasedWorkload, access_dist: Vec<f64>) -> Self {
        let mut t = GuestThread {
            phase: Cell::new(workload.phase_span_at(SimTime::ZERO)),
            workload,
            access_dist,
            profiles: Vec::new(),
        };
        t.rebuild_profiles();
        t
    }

    fn rebuild_profiles(&mut self) {
        self.profiles = (0..self.workload.num_phases())
            .map(|i| {
                self.workload
                    .spec_for_phase(i)
                    .access_profile(self.access_dist.clone())
            })
            .collect();
    }

    /// The workload spec in effect at time `t`.
    pub fn spec_at(&self, t: SimTime) -> WorkloadSpec {
        self.workload.spec_at(t)
    }

    /// The cached access profile in effect at time `t` — identical to
    /// `spec_at(t).access_profile(access_dist.clone())` without the
    /// allocations.
    pub fn profile_at(&self, t: SimTime) -> &mem_model::AccessProfile {
        let mut span = self.phase.get();
        if !span.contains(t) {
            span = self.workload.phase_span_at(t);
            self.phase.set(span);
        }
        &self.profiles[span.index]
    }
}

/// Runtime state of one VM.
#[derive(Debug, Clone)]
pub struct VmRuntime {
    pub id: VmId,
    pub name: String,
    pub layout: VmMemoryLayout,
    pub threads: Vec<GuestThread>,
    /// Ids of this VM's VCPUs: workers first (one per guest thread), then
    /// timer idlers.
    pub vcpu_ids: Vec<VcpuId>,
    pub shuffle_period: Option<SimDuration>,
    pub idler_period: Option<SimDuration>,
    pub pin_node: Option<numa_topo::NodeId>,
    pub weight: u32,
    /// Thread hosted by each worker slot (permuted by shuffles).
    slot_thread: Vec<usize>,
    /// Next swap position for the incremental shuffle.
    shuffle_cursor: usize,
}

impl VmRuntime {
    /// Instantiate a VM: place its memory and derive each thread's access
    /// distribution.
    pub fn create(
        id: VmId,
        cfg: &VmConfig,
        free: &mut NodeFree,
        first_vcpu: u32,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        let layout = VmMemoryLayout::allocate(cfg.mem_bytes, cfg.alloc, free)?;
        let total = cfg.total_threads();
        let mut threads = Vec::with_capacity(total);
        let mut idx = 0;
        for spec in &cfg.workloads {
            for _ in 0..spec.threads {
                let dist = layout.thread_access_distribution(idx, total, spec.shared_frac);
                let workload = match cfg.phase_period {
                    Some(period) => PhasedWorkload::alternating(spec.clone(), period),
                    None => PhasedWorkload::steady(spec.clone()),
                };
                threads.push(GuestThread::new(workload, dist));
                idx += 1;
            }
        }
        let num_vcpus = total + cfg.total_idlers();
        let vcpu_ids = (0..num_vcpus as u32)
            .map(|i| VcpuId::new(first_vcpu + i))
            .collect();
        let slot_thread = (0..total).collect();
        Ok(VmRuntime {
            id,
            name: cfg.name.clone(),
            layout,
            threads,
            vcpu_ids,
            shuffle_period: cfg.shuffle_period,
            idler_period: cfg.idler_period,
            pin_node: cfg.pin_node,
            weight: cfg.weight,
            slot_thread,
            shuffle_cursor: 0,
        })
    }

    pub fn num_workers(&self) -> usize {
        self.threads.len()
    }

    /// The guest thread currently mapped onto worker slot `vm_idx`.
    /// Panics for idler slots.
    pub fn thread_for_slot(&self, vm_idx: usize) -> &GuestThread {
        let n = self.threads.len();
        assert!(vm_idx < n, "slot {vm_idx} is not a worker slot");
        &self.threads[self.slot_thread[vm_idx]]
    }

    /// Guest-OS rebalance: swap one adjacent pair of thread slots. Real
    /// guest schedulers occasionally bounce a single thread between VCPUs
    /// rather than rotating the whole set; each swap slowly invalidates
    /// the hypervisor's per-VCPU PMU history.
    pub fn shuffle(&mut self) {
        let n = self.threads.len();
        if n > 1 {
            let a = self.shuffle_cursor % n;
            let b = (self.shuffle_cursor + 1) % n;
            self.slot_thread.swap(a, b);
            self.shuffle_cursor = (self.shuffle_cursor + 1) % n;
        }
    }

    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Migrate up to `max_bytes` of the pages behind worker slot
    /// `vm_idx`'s current thread to `to_node`; returns bytes moved.
    /// Refreshes every thread's access distribution (extents changed for
    /// the whole VM).
    pub fn migrate_thread_pages(
        &mut self,
        vm_idx: usize,
        to_node: numa_topo::NodeId,
        max_bytes: u64,
    ) -> u64 {
        let n = self.threads.len();
        assert!(vm_idx < n, "slot {vm_idx} is not a worker slot");
        let thread = self.slot_thread[vm_idx];
        let (start, end) = self.layout.thread_range(thread, n);
        let gen_before = self.layout.generation();
        let moved = self.layout.migrate_range(start, end, to_node, max_bytes);
        // Refresh distributions only when the page map actually changed;
        // a no-op migration must not perturb the cached profiles (the
        // engine's dirty tracking would otherwise see false changes).
        if self.layout.generation() != gen_before {
            for (i, t) in self.threads.iter_mut().enumerate() {
                let shared = t.workload.base().shared_frac;
                t.access_dist = self.layout.thread_access_distribution(i, n, shared);
                t.rebuild_profiles();
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{npb, speccpu};

    const GB: u64 = 1024 * 1024 * 1024;

    fn free() -> NodeFree {
        NodeFree::new(vec![12 * GB, 12 * GB])
    }

    fn npb_vm() -> VmConfig {
        VmConfig {
            name: "vm1".into(),
            vcpus: 8,
            mem_bytes: 8 * GB,
            alloc: AllocPolicy::SplitEven,
            workloads: vec![npb::lu()],
            shuffle_period: None,
            idler_period: Some(SimDuration::from_millis(30)),
            pin_node: None,
            phase_period: None,
            weight: 256,
        }
    }

    #[test]
    fn npb_vm_has_four_workers_and_four_idlers() {
        let cfg = npb_vm();
        assert_eq!(cfg.total_threads(), 4);
        assert_eq!(cfg.total_idlers(), 4);
        cfg.validate().unwrap();
        let vm = VmRuntime::create(VmId::new(0), &cfg, &mut free(), 0).unwrap();
        assert_eq!(vm.num_workers(), 4);
        assert_eq!(vm.vcpu_ids.len(), 8);
    }

    #[test]
    fn tickless_guest_has_no_idlers() {
        let mut cfg = npb_vm();
        cfg.idler_period = None;
        assert_eq!(cfg.total_idlers(), 0);
        let vm = VmRuntime::create(VmId::new(0), &cfg, &mut free(), 0).unwrap();
        assert_eq!(vm.vcpu_ids.len(), 4);
    }

    #[test]
    fn four_spec_instances_are_four_threads() {
        let cfg = VmConfig::new(
            "vm1",
            8,
            8 * GB,
            AllocPolicy::MostFree,
            vec![speccpu::soplex(); 4],
        );
        assert_eq!(cfg.total_threads(), 4);
        let vm = VmRuntime::create(VmId::new(0), &cfg, &mut free(), 0).unwrap();
        assert_eq!(vm.num_threads(), 4);
    }

    #[test]
    fn threads_cannot_exceed_vcpus() {
        let mut cfg = npb_vm();
        cfg.vcpus = 2;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn split_vm_threads_have_distinct_affinities() {
        let vm = VmRuntime::create(VmId::new(0), &npb_vm(), &mut free(), 0).unwrap();
        let d0 = &vm.threads[0].access_dist;
        let d3 = &vm.threads[3].access_dist;
        assert!(d0[0] > d0[1], "thread 0 leans node0: {d0:?}");
        assert!(d3[1] > d3[0], "thread 3 leans node1: {d3:?}");
    }

    #[test]
    fn shuffle_swaps_one_pair_at_a_time() {
        let mut vm = VmRuntime::create(VmId::new(0), &npb_vm(), &mut free(), 0).unwrap();
        let t2_before = vm.thread_for_slot(2).access_dist.clone();
        let t3_before = vm.thread_for_slot(3).access_dist.clone();
        // First swap touches slots 0 and 1 only.
        vm.shuffle();
        assert_eq!(t2_before, vm.thread_for_slot(2).access_dist);
        assert_eq!(t3_before, vm.thread_for_slot(3).access_dist);
        // Slots 0/1 exchanged threads.
        // (Their slices share a node, so compare slot→thread indices via a
        // cross-node pair instead: swap cursor now at 1, next swap moves
        // slot 1's thread to slot 2 — a cross-node change.)
        vm.shuffle();
        let t2_after = vm.thread_for_slot(2).access_dist.clone();
        assert_ne!(t2_before, t2_after, "slot 2 should now host a node0 thread");
    }

    #[test]
    fn single_thread_shuffle_is_noop() {
        let cfg = VmConfig::new("vm", 1, GB, AllocPolicy::MostFree, vec![speccpu::povray()]);
        let mut vm = VmRuntime::create(VmId::new(0), &cfg, &mut free(), 0).unwrap();
        let before = vm.thread_for_slot(0).access_dist.clone();
        vm.shuffle();
        assert_eq!(before, vm.thread_for_slot(0).access_dist);
    }

    #[test]
    #[should_panic(expected = "not a worker slot")]
    fn idler_slot_has_no_thread() {
        let vm = VmRuntime::create(VmId::new(0), &npb_vm(), &mut free(), 0).unwrap();
        vm.thread_for_slot(5);
    }

    #[test]
    fn vcpu_ids_are_globally_offset() {
        let vm = VmRuntime::create(VmId::new(1), &npb_vm(), &mut free(), 10).unwrap();
        assert_eq!(vm.vcpu_ids[0], VcpuId::new(10));
        assert_eq!(vm.vcpu_ids[7], VcpuId::new(17));
    }
}

#[cfg(test)]
mod phase_tests {
    use super::*;
    use mem_model::AllocPolicy;
    use workloads::npb;

    const GB: u64 = 1024 * 1024 * 1024;

    #[test]
    fn phase_period_makes_behaviour_time_varying() {
        let mut cfg = VmConfig::new("phased", 4, 4 * GB, AllocPolicy::MostFree, vec![npb::lu()]);
        cfg.phase_period = Some(SimDuration::from_secs(2));
        let mut free = NodeFree::new(vec![12 * GB, 12 * GB]);
        let vm = VmRuntime::create(VmId::new(0), &cfg, &mut free, 0).unwrap();
        let t0 = SimTime::ZERO + SimDuration::from_millis(500);
        let t1 = SimTime::ZERO + SimDuration::from_millis(1_500);
        let heavy = vm.threads[0].spec_at(t0);
        let light = vm.threads[0].spec_at(t1);
        assert!(
            heavy.rpti > light.rpti * 2.0,
            "{} vs {}",
            heavy.rpti,
            light.rpti
        );
    }

    #[test]
    fn steady_default_is_time_invariant() {
        let cfg = VmConfig::new("steady", 4, 4 * GB, AllocPolicy::MostFree, vec![npb::lu()]);
        let mut free = NodeFree::new(vec![12 * GB, 12 * GB]);
        let vm = VmRuntime::create(VmId::new(0), &cfg, &mut free, 0).unwrap();
        let a = vm.threads[0].spec_at(SimTime::ZERO);
        let b = vm.threads[0].spec_at(SimTime::ZERO + SimDuration::from_secs(100));
        assert_eq!(a.rpti, b.rpti);
    }

    #[test]
    fn phase_cursor_matches_the_modulo_form_forwards_and_backwards() {
        let mut cfg = VmConfig::new("phased", 4, 4 * GB, AllocPolicy::MostFree, vec![npb::lu()]);
        cfg.phase_period = Some(SimDuration::from_millis(10));
        let mut free = NodeFree::new(vec![12 * GB, 12 * GB]);
        let vm = VmRuntime::create(VmId::new(0), &cfg, &mut free, 0).unwrap();
        let thread = &vm.threads[0];
        assert!(thread.workload.num_phases() > 1);
        let check = |us: u64| {
            let t = SimTime::from_micros(us);
            let want = &thread.profiles[thread.workload.phase_index_at(t)];
            assert!(std::ptr::eq(thread.profile_at(t), want), "t = {us} us");
        };
        // Forward one quantum at a time over several cycles, crossing
        // every phase boundary.
        for us in (0..35_000).step_by(1_000) {
            check(us);
        }
        // Backwards within a cycle, across cycles, and back to the start.
        for us in [34_999, 30_000, 4_999, 5_000, 0, 12_345, 7, 100_000_000_000] {
            check(us);
        }
    }
}
