//! Domain (VM) memory placement and per-thread access distributions.
//!
//! In Xen the machine pages backing a domain are fixed when the domain is
//! created; the guest's physical address space is a fixed mapping onto NUMA
//! nodes from then on. Xen 4.0.1 — the base of the paper's prototype — is
//! NUMA-oblivious and simply satisfies each allocation from the node(s)
//! with free memory, which is why the paper's motivation experiment
//! (Fig. 1) sees >80 % remote accesses once the Credit scheduler drags
//! VCPUs away from their memory.
//!
//! We model a VM's memory as a linear guest address space mapped onto nodes
//! in allocation order, and each guest *thread* as owning a contiguous
//! private slice of that space plus a share of the VM-wide common region.
//! A thread's per-node access distribution is then fully determined by
//! where its slice landed — exactly the quantity the paper's *memory node
//! affinity* (Eq. 1) estimates from PMU data.

use numa_topo::NodeId;
use sim_core::SimError;

/// Free memory per node, consumed as VMs are placed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeFree {
    free: Vec<u64>,
}

impl NodeFree {
    pub fn new(per_node: Vec<u64>) -> Self {
        NodeFree { free: per_node }
    }

    pub fn num_nodes(&self) -> usize {
        self.free.len()
    }

    pub fn free_on(&self, node: NodeId) -> u64 {
        self.free[node.index()]
    }

    pub fn total_free(&self) -> u64 {
        self.free.iter().sum()
    }

    fn take(&mut self, node: NodeId, bytes: u64) {
        debug_assert!(self.free[node.index()] >= bytes);
        self.free[node.index()] -= bytes;
    }
}

/// How a VM's memory is placed across nodes at creation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AllocPolicy {
    /// Xen 4.0.1 behaviour: allocate greedily from the node with the most
    /// free memory, spilling to the next-freest when one runs out.
    MostFree,
    /// Pin the whole allocation to one node (spills to others only if full).
    OnNode(NodeId),
    /// Interleave in `chunk_bytes` chunks round-robin over nodes with space.
    Striped { chunk_bytes: u64 },
    /// Split evenly across all nodes (the paper gives VM1 "15GB memory,
    /// which is split into two nodes").
    SplitEven,
}

/// The placement of one VM's memory: how many bytes of the linear guest
/// address space live on each node, in allocation order.
#[derive(Debug, Clone, PartialEq)]
pub struct VmMemoryLayout {
    /// Consecutive extents of the guest address space: `(node, bytes)`.
    extents: Vec<(NodeId, u64)>,
    total_bytes: u64,
    num_nodes: usize,
    /// Bumped every time the page map actually changes (a migration that
    /// moves at least one byte). Lets consumers — thread-distribution
    /// caches, the incremental engine's dirty tracking — detect "pages
    /// moved" with one integer compare instead of diffing extents.
    generation: u64,
}

impl VmMemoryLayout {
    /// Place `bytes` of VM memory according to `policy`, consuming from
    /// `free`. Fails if the machine lacks space.
    pub fn allocate(
        bytes: u64,
        policy: AllocPolicy,
        free: &mut NodeFree,
    ) -> Result<Self, SimError> {
        if bytes == 0 {
            return Err(SimError::InvalidConfig("VM memory must be nonzero".into()));
        }
        if free.total_free() < bytes {
            return Err(SimError::ResourceExhausted(format!(
                "need {bytes} bytes, only {} free",
                free.total_free()
            )));
        }
        let n = free.num_nodes();
        if n == 0 {
            return Err(SimError::InvalidConfig(
                "topology has no memory nodes".into(),
            ));
        }
        let mut extents: Vec<(NodeId, u64)> = Vec::new();
        let push = |extents: &mut Vec<(NodeId, u64)>, node: NodeId, amount: u64| {
            if amount == 0 {
                return;
            }
            if let Some(last) = extents.last_mut() {
                if last.0 == node {
                    last.1 += amount;
                    return;
                }
            }
            extents.push((node, amount));
        };
        match policy {
            AllocPolicy::MostFree => {
                let mut remaining = bytes;
                while remaining > 0 {
                    let node = (0..n)
                        .map(NodeId::from_index)
                        .max_by_key(|&nd| (free.free_on(nd), std::cmp::Reverse(nd.index())))
                        .ok_or_else(|| {
                            SimError::InvalidConfig("topology has no memory nodes".into())
                        })?;
                    let take = remaining.min(free.free_on(node));
                    if take == 0 {
                        return Err(SimError::ResourceExhausted(
                            "no node has free memory left".into(),
                        ));
                    }
                    free.take(node, take);
                    push(&mut extents, node, take);
                    remaining -= take;
                }
            }
            AllocPolicy::OnNode(preferred) => {
                if preferred.index() >= n {
                    return Err(SimError::InvalidConfig(format!(
                        "node {preferred} does not exist"
                    )));
                }
                let mut remaining = bytes;
                let take = remaining.min(free.free_on(preferred));
                free.take(preferred, take);
                push(&mut extents, preferred, take);
                remaining -= take;
                // Spill in node order.
                for i in 0..n {
                    if remaining == 0 {
                        break;
                    }
                    let node = NodeId::from_index(i);
                    if node == preferred {
                        continue;
                    }
                    let take = remaining.min(free.free_on(node));
                    free.take(node, take);
                    push(&mut extents, node, take);
                    remaining -= take;
                }
            }
            AllocPolicy::Striped { chunk_bytes } => {
                if chunk_bytes == 0 {
                    return Err(SimError::InvalidConfig(
                        "stripe chunk must be nonzero".into(),
                    ));
                }
                let mut remaining = bytes;
                let mut i = 0usize;
                let mut stuck = 0usize;
                while remaining > 0 {
                    let node = NodeId::from_index(i % n);
                    i += 1;
                    let take = remaining.min(chunk_bytes).min(free.free_on(node));
                    if take == 0 {
                        stuck += 1;
                        if stuck >= n {
                            return Err(SimError::ResourceExhausted(
                                "no node has free memory left".into(),
                            ));
                        }
                        continue;
                    }
                    stuck = 0;
                    free.take(node, take);
                    push(&mut extents, node, take);
                    remaining -= take;
                }
            }
            AllocPolicy::SplitEven => {
                let per = bytes / n as u64;
                let mut remaining = bytes;
                for i in 0..n {
                    let node = NodeId::from_index(i);
                    let want = if i == n - 1 { remaining } else { per };
                    let take = want.min(free.free_on(node));
                    free.take(node, take);
                    push(&mut extents, node, take);
                    remaining -= take;
                }
                // Spill any shortfall wherever space remains.
                for i in 0..n {
                    if remaining == 0 {
                        break;
                    }
                    let node = NodeId::from_index(i);
                    let take = remaining.min(free.free_on(node));
                    free.take(node, take);
                    push(&mut extents, node, take);
                    remaining -= take;
                }
                if remaining > 0 {
                    return Err(SimError::ResourceExhausted(
                        "no node has free memory left".into(),
                    ));
                }
            }
        }
        debug_assert_eq!(extents.iter().map(|&(_, b)| b).sum::<u64>(), bytes);
        Ok(VmMemoryLayout {
            extents,
            total_bytes: bytes,
            num_nodes: n,
            generation: 0,
        })
    }

    /// Monotone page-map version: unchanged by no-op migrations, bumped
    /// whenever bytes actually move.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Bytes of this VM's memory on each node.
    pub fn node_bytes(&self) -> Vec<u64> {
        let mut v = vec![0u64; self.num_nodes];
        for &(node, bytes) in &self.extents {
            v[node.index()] += bytes;
        }
        v
    }

    /// Fraction of this VM's memory on each node.
    pub fn node_fractions(&self) -> Vec<f64> {
        self.node_bytes()
            .iter()
            .map(|&b| b as f64 / self.total_bytes as f64)
            .collect()
    }

    /// Per-node distribution of the guest-address range `[start, end)`.
    ///
    /// Used to compute where a thread's private slice landed.
    pub fn range_distribution(&self, start: u64, end: u64) -> Vec<f64> {
        assert!(
            start <= end && end <= self.total_bytes,
            "range out of bounds"
        );
        let mut v = vec![0.0f64; self.num_nodes];
        if start == end {
            return v;
        }
        let len = (end - start) as f64;
        let mut offset = 0u64;
        for &(node, bytes) in &self.extents {
            let ext_start = offset;
            let ext_end = offset + bytes;
            let lo = start.max(ext_start);
            let hi = end.min(ext_end);
            if hi > lo {
                v[node.index()] += (hi - lo) as f64 / len;
            }
            offset = ext_end;
        }
        v
    }

    /// Migrate up to `max_bytes` of the guest-address range
    /// `[start, end)` to `to_node`, splitting extents as needed. Returns
    /// the number of bytes actually moved (bytes already on `to_node` are
    /// skipped and do not count against the budget).
    ///
    /// This models the hypervisor-level page migration the paper's §VI
    /// names as future work: the guest address space is untouched; only
    /// the machine frames behind it move.
    pub fn migrate_range(&mut self, start: u64, end: u64, to_node: NodeId, max_bytes: u64) -> u64 {
        assert!(
            start <= end && end <= self.total_bytes,
            "range out of bounds"
        );
        assert!(to_node.index() < self.num_nodes, "target node out of range");
        if start == end || max_bytes == 0 {
            return 0;
        }
        let mut moved = 0u64;
        let mut out: Vec<(NodeId, u64)> = Vec::with_capacity(self.extents.len() + 2);
        let mut offset = 0u64;
        for &(node, bytes) in &self.extents {
            let ext_start = offset;
            let ext_end = offset + bytes;
            offset = ext_end;
            if node == to_node || ext_end <= start || ext_start >= end || moved >= max_bytes {
                out.push((node, bytes));
                continue;
            }
            // Overlap with the requested range, clipped by budget.
            let lo = start.max(ext_start);
            let hi = end.min(ext_end).min(lo.saturating_add(max_bytes - moved));
            moved += hi - lo;
            // Left remainder, migrated middle, right remainder.
            if lo > ext_start {
                out.push((node, lo - ext_start));
            }
            out.push((to_node, hi - lo));
            if ext_end > hi {
                out.push((node, ext_end - hi));
            }
        }
        // Re-coalesce adjacent same-node extents.
        let mut coalesced: Vec<(NodeId, u64)> = Vec::with_capacity(out.len());
        for (node, bytes) in out {
            if bytes == 0 {
                continue;
            }
            match coalesced.last_mut() {
                Some(last) if last.0 == node => last.1 += bytes,
                _ => coalesced.push((node, bytes)),
            }
        }
        self.extents = coalesced;
        if moved > 0 {
            self.generation += 1;
        }
        debug_assert_eq!(
            self.extents.iter().map(|&(_, b)| b).sum::<u64>(),
            self.total_bytes,
            "migration must conserve total memory"
        );
        moved
    }

    /// The private address range of thread `t` of `threads` (the slice
    /// [`VmMemoryLayout::thread_access_distribution`] derives its private
    /// part from) — the natural migration target for that thread.
    pub fn thread_range(&self, thread: usize, threads: usize) -> (u64, u64) {
        assert!(threads > 0 && thread < threads, "bad thread index");
        let slice = self.total_bytes / threads as u64;
        let start = slice * thread as u64;
        let end = if thread == threads - 1 {
            self.total_bytes
        } else {
            start + slice
        };
        (start, end)
    }

    /// Access distribution of thread `t` of `threads`, where each thread
    /// works a private equal slice of the address space and `shared_frac`
    /// of its accesses go to the VM-wide shared region (distributed like
    /// the whole VM's memory).
    ///
    /// This is the per-VCPU quantity vProbe's Eq. 1 estimates with PMU page
    /// counts.
    pub fn thread_access_distribution(
        &self,
        thread: usize,
        threads: usize,
        shared_frac: f64,
    ) -> Vec<f64> {
        assert!(threads > 0 && thread < threads, "bad thread index");
        let shared_frac = shared_frac.clamp(0.0, 1.0);
        let slice = self.total_bytes / threads as u64;
        let start = slice * thread as u64;
        let end = if thread == threads - 1 {
            self.total_bytes
        } else {
            start + slice
        };
        let private = self.range_distribution(start, end);
        let whole = self.node_fractions();
        private
            .iter()
            .zip(whole.iter())
            .map(|(&p, &w)| (1.0 - shared_frac) * p + shared_frac * w)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1024 * 1024 * 1024;

    fn two_nodes_12gb() -> NodeFree {
        NodeFree::new(vec![12 * GB, 12 * GB])
    }

    #[test]
    fn most_free_fills_first_node_first() {
        let mut free = two_nodes_12gb();
        let vm1 = VmMemoryLayout::allocate(8 * GB, AllocPolicy::MostFree, &mut free).unwrap();
        // node0 and node1 tie at 12 GB; tie-break prefers node0.
        assert_eq!(vm1.node_bytes(), vec![8 * GB, 0]);
        let vm2 = VmMemoryLayout::allocate(8 * GB, AllocPolicy::MostFree, &mut free).unwrap();
        // node1 now has more free (12 vs 4).
        assert_eq!(vm2.node_bytes(), vec![0, 8 * GB]);
        assert_eq!(free.free_on(NodeId::new(0)), 4 * GB);
        assert_eq!(free.free_on(NodeId::new(1)), 4 * GB);
    }

    #[test]
    fn most_free_spills_when_node_fills() {
        let mut free = NodeFree::new(vec![4 * GB, 2 * GB]);
        let vm = VmMemoryLayout::allocate(5 * GB, AllocPolicy::MostFree, &mut free).unwrap();
        let nb = vm.node_bytes();
        assert_eq!(nb.iter().sum::<u64>(), 5 * GB);
        assert!(nb[0] >= 3 * GB, "most memory should be on the freest node");
    }

    #[test]
    fn split_even_halves() {
        let mut free = two_nodes_12gb();
        let vm = VmMemoryLayout::allocate(15 * GB, AllocPolicy::SplitEven, &mut free).unwrap();
        let nb = vm.node_bytes();
        assert_eq!(nb[0] + nb[1], 15 * GB);
        let frac = vm.node_fractions();
        assert!((frac[0] - 0.5).abs() < 0.01, "fractions: {frac:?}");
    }

    #[test]
    fn on_node_prefers_then_spills() {
        let mut free = NodeFree::new(vec![2 * GB, 12 * GB]);
        let vm = VmMemoryLayout::allocate(4 * GB, AllocPolicy::OnNode(NodeId::new(0)), &mut free)
            .unwrap();
        assert_eq!(vm.node_bytes(), vec![2 * GB, 2 * GB]);
    }

    #[test]
    fn striped_interleaves() {
        let mut free = two_nodes_12gb();
        let vm =
            VmMemoryLayout::allocate(4 * GB, AllocPolicy::Striped { chunk_bytes: GB }, &mut free)
                .unwrap();
        assert_eq!(vm.node_bytes(), vec![2 * GB, 2 * GB]);
    }

    #[test]
    fn allocation_fails_when_machine_full() {
        let mut free = NodeFree::new(vec![GB, GB]);
        let err = VmMemoryLayout::allocate(3 * GB, AllocPolicy::MostFree, &mut free).unwrap_err();
        assert!(matches!(err, SimError::ResourceExhausted(_)));
    }

    #[test]
    fn zero_size_rejected() {
        let mut free = two_nodes_12gb();
        assert!(VmMemoryLayout::allocate(0, AllocPolicy::MostFree, &mut free).is_err());
    }

    #[test]
    fn range_distribution_tracks_extents() {
        let mut free = two_nodes_12gb();
        let vm = VmMemoryLayout::allocate(8 * GB, AllocPolicy::SplitEven, &mut free).unwrap();
        // First half on node0, second half on node1.
        let first = vm.range_distribution(0, 4 * GB);
        assert!((first[0] - 1.0).abs() < 1e-12);
        let second = vm.range_distribution(4 * GB, 8 * GB);
        assert!((second[1] - 1.0).abs() < 1e-12);
        let straddle = vm.range_distribution(2 * GB, 6 * GB);
        assert!((straddle[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn thread_distributions_are_heterogeneous_on_split_vm() {
        let mut free = two_nodes_12gb();
        let vm = VmMemoryLayout::allocate(8 * GB, AllocPolicy::SplitEven, &mut free).unwrap();
        let t0 = vm.thread_access_distribution(0, 4, 0.0);
        let t3 = vm.thread_access_distribution(3, 4, 0.0);
        assert!(
            (t0[0] - 1.0).abs() < 1e-9,
            "thread 0 local to node0: {t0:?}"
        );
        assert!(
            (t3[1] - 1.0).abs() < 1e-9,
            "thread 3 local to node1: {t3:?}"
        );
    }

    #[test]
    fn shared_fraction_blends_toward_vm_distribution() {
        let mut free = two_nodes_12gb();
        let vm = VmMemoryLayout::allocate(8 * GB, AllocPolicy::SplitEven, &mut free).unwrap();
        let t0 = vm.thread_access_distribution(0, 4, 1.0);
        let whole = vm.node_fractions();
        assert!((t0[0] - whole[0]).abs() < 1e-12);
        let half = vm.thread_access_distribution(0, 4, 0.5);
        assert!(half[0] > whole[0] && half[0] < 1.0);
    }

    #[test]
    fn distributions_sum_to_one() {
        let mut free = two_nodes_12gb();
        let vm = VmMemoryLayout::allocate(7 * GB, AllocPolicy::MostFree, &mut free).unwrap();
        for t in 0..5 {
            let d = vm.thread_access_distribution(t, 5, 0.3);
            let sum: f64 = d.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "dist {d:?}");
        }
    }
    #[test]
    fn migrate_range_moves_and_conserves() {
        let mut free = two_nodes_12gb();
        let mut vm = VmMemoryLayout::allocate(8 * GB, AllocPolicy::SplitEven, &mut free).unwrap();
        // First half on node0; move 1 GB of it to node1.
        let moved = vm.migrate_range(0, 4 * GB, NodeId::new(1), GB);
        assert_eq!(moved, GB);
        let nb = vm.node_bytes();
        assert_eq!(nb[0], 3 * GB);
        assert_eq!(nb[1], 5 * GB);
        assert_eq!(nb.iter().sum::<u64>(), 8 * GB);
    }

    #[test]
    fn migrate_range_skips_already_local_bytes() {
        let mut free = two_nodes_12gb();
        let mut vm = VmMemoryLayout::allocate(8 * GB, AllocPolicy::SplitEven, &mut free).unwrap();
        // Second half is already on node1: nothing to move.
        let moved = vm.migrate_range(4 * GB, 8 * GB, NodeId::new(1), GB);
        assert_eq!(moved, 0);
        assert_eq!(vm.node_bytes(), vec![4 * GB, 4 * GB]);
    }

    #[test]
    fn generation_tracks_real_moves_only() {
        let mut free = two_nodes_12gb();
        let mut vm = VmMemoryLayout::allocate(8 * GB, AllocPolicy::SplitEven, &mut free).unwrap();
        assert_eq!(vm.generation(), 0);
        // No-op migration (bytes already local): generation unchanged.
        vm.migrate_range(4 * GB, 8 * GB, NodeId::new(1), GB);
        assert_eq!(vm.generation(), 0);
        // Real move bumps it once per call.
        vm.migrate_range(0, 4 * GB, NodeId::new(1), GB);
        assert_eq!(vm.generation(), 1);
        vm.migrate_range(0, 4 * GB, NodeId::new(1), GB);
        assert_eq!(vm.generation(), 2);
        // Zero-budget call is a no-op.
        vm.migrate_range(0, 4 * GB, NodeId::new(1), 0);
        assert_eq!(vm.generation(), 2);
    }

    #[test]
    fn migrate_range_respects_budget() {
        let mut free = two_nodes_12gb();
        let mut vm = VmMemoryLayout::allocate(8 * GB, AllocPolicy::SplitEven, &mut free).unwrap();
        let moved = vm.migrate_range(0, 4 * GB, NodeId::new(1), 512 * 1024 * 1024);
        assert_eq!(moved, 512 * 1024 * 1024);
    }

    #[test]
    fn migration_changes_thread_distribution() {
        let mut free = two_nodes_12gb();
        let mut vm = VmMemoryLayout::allocate(8 * GB, AllocPolicy::SplitEven, &mut free).unwrap();
        let before = vm.thread_access_distribution(0, 4, 0.0);
        assert!((before[0] - 1.0).abs() < 1e-9);
        let (start, end) = vm.thread_range(0, 4);
        vm.migrate_range(start, end, NodeId::new(1), u64::MAX);
        let after = vm.thread_access_distribution(0, 4, 0.0);
        assert!(
            (after[1] - 1.0).abs() < 1e-9,
            "thread 0 now node1-local: {after:?}"
        );
    }

    #[test]
    fn thread_range_partitions_address_space() {
        let mut free = two_nodes_12gb();
        let vm = VmMemoryLayout::allocate(7 * GB, AllocPolicy::MostFree, &mut free).unwrap();
        let mut covered = 0;
        for t in 0..3 {
            let (s, e) = vm.thread_range(t, 3);
            assert_eq!(s, covered);
            covered = e;
        }
        assert_eq!(covered, 7 * GB);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const MB: u64 = 1024 * 1024;

    fn arb_layout() -> impl Strategy<Value = VmMemoryLayout> {
        (
            1u64..64,
            prop_oneof![
                Just(AllocPolicy::MostFree),
                Just(AllocPolicy::SplitEven),
                Just(AllocPolicy::Striped {
                    chunk_bytes: 64 * MB
                }),
            ],
        )
            .prop_map(|(size_mb, policy)| {
                let mut free = NodeFree::new(vec![512 * MB, 512 * MB]);
                VmMemoryLayout::allocate(size_mb * 16 * MB, policy, &mut free).unwrap()
            })
    }

    proptest! {
        #[test]
        fn allocation_conserves_bytes(layout in arb_layout()) {
            prop_assert_eq!(
                layout.node_bytes().iter().sum::<u64>(),
                layout.total_bytes()
            );
        }

        #[test]
        fn migration_conserves_bytes(
            layout in arb_layout(),
            a in 0.0f64..1.0,
            b in 0.0f64..1.0,
            budget_mb in 0u64..128,
            node in 0u16..2,
        ) {
            let mut layout = layout;
            let total = layout.total_bytes();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let start = (lo * total as f64) as u64;
            let end = (hi * total as f64) as u64;
            let before = layout.node_bytes();
            let moved = layout.migrate_range(start, end, NodeId::new(node), budget_mb * MB);
            let after = layout.node_bytes();
            prop_assert_eq!(after.iter().sum::<u64>(), total, "conservation");
            prop_assert!(moved <= budget_mb * MB, "budget respected");
            prop_assert!(moved <= end - start, "cannot move more than the range");
            // The target node never shrinks; others never grow.
            prop_assert!(after[node as usize] >= before[node as usize]);
            prop_assert_eq!(after[node as usize] - before[node as usize], moved);
        }

        #[test]
        fn migration_to_same_layout_is_idempotent(layout in arb_layout()) {
            let mut layout = layout;
            let total = layout.total_bytes();
            // Move everything to node 1, twice: second pass is a no-op.
            let first = layout.migrate_range(0, total, NodeId::new(1), u64::MAX);
            let second = layout.migrate_range(0, total, NodeId::new(1), u64::MAX);
            prop_assert!(first <= total);
            prop_assert_eq!(second, 0);
            prop_assert_eq!(layout.node_bytes()[1], total);
        }

        #[test]
        fn thread_distributions_always_sum_to_one(
            layout in arb_layout(),
            threads in 1usize..9,
            shared in 0.0f64..1.0,
        ) {
            for t in 0..threads {
                let d = layout.thread_access_distribution(t, threads, shared);
                let sum: f64 = d.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-9, "thread {t}: {d:?}");
            }
        }
    }
}
