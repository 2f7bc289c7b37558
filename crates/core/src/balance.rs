//! NUMA-aware load balance (paper §III-D, Algorithm 2).
//!
//! When a PCPU looks for work to steal it should disturb the LLC balance
//! as little as possible and avoid creating remote accesses:
//!
//! 1. check PCPUs of the **local node first**, then remote nodes in
//!    distance order (`nextNode()`);
//! 2. within a node, check the PCPU with the **heaviest workload** first
//!    (fewer context switches, keeps load even);
//! 3. from that run queue take the runnable VCPU with the **smallest LLC
//!    access pressure** — the one whose move perturbs LLC contention the
//!    least.

use numa_topo::{NodeId, PcpuId, VcpuId};
use xen_sim::StealContext;

/// Algorithm 2's selection: returns `(victim PCPU, VCPU)` or `None`.
///
/// `ctx.victims` already contains only stealable candidates; `ctx.pressure`
/// holds the last sampled LLC access pressure per VCPU.
pub fn numa_aware_steal(ctx: &StealContext<'_>) -> Option<(PcpuId, VcpuId)> {
    let local = ctx.topo.node_of_pcpu(ctx.idle_pcpu);
    let mut node_order: Vec<NodeId> = vec![local];
    // Remote nodes are only consulted when the PCPU would otherwise idle:
    // dragging a memory-intensive VCPU across the interconnect to serve a
    // mere priority upgrade is exactly the Credit behaviour vProbe exists
    // to avoid ("if there are no runnable VCPUs on the local node, it
    // steals ... to utilize available CPU resources").
    if ctx.would_idle {
        node_order.extend(ctx.topo.remote_nodes_by_distance(local));
    }

    for node in node_order {
        // PCPUs of this node, heaviest workload first (the paper's
        // loadList), ties to the lowest id for determinism.
        let mut members: Vec<&(PcpuId, usize, Vec<VcpuId>)> = ctx
            .victims
            .iter()
            .filter(|(p, _, _)| ctx.topo.node_of_pcpu(*p) == node)
            .collect();
        members.sort_by_key(|(p, workload, _)| (std::cmp::Reverse(*workload), p.index()));
        for (pcpu, _, candidates) in members {
            // Smallest LLC access pressure; queue order breaks ties.
            let best = candidates
                .iter()
                .copied()
                .enumerate()
                .min_by(|(i, a), (j, b)| {
                    ctx.pressure[a.index()]
                        .total_cmp(&ctx.pressure[b.index()])
                        .then(i.cmp(j))
                })
                .map(|(_, v)| v);
            if let Some(v) = best {
                return Some((*pcpu, v));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topo::presets;

    fn ctx<'a>(
        topo: &'a numa_topo::Topology,
        idle: u16,
        victims: &'a [(PcpuId, usize, Vec<VcpuId>)],
        pressure: &'a [f64],
    ) -> StealContext<'a> {
        StealContext {
            topo,
            idle_pcpu: PcpuId::new(idle),
            victims,
            pressure,
            would_idle: true,
        }
    }

    fn v(i: u32) -> VcpuId {
        VcpuId::new(i)
    }

    #[test]
    fn prefers_local_node_even_with_heavier_remote_queues() {
        let topo = presets::xeon_e5620();
        // Idle PCPU 0 (node0). PCPU 6 (node1) is much heavier, but PCPU 2
        // (node0) has a candidate — local wins.
        let victims = vec![
            (PcpuId::new(2), 2, vec![v(1)]),
            (PcpuId::new(6), 9, vec![v(2)]),
        ];
        let pressure = vec![0.0; 8];
        let got = numa_aware_steal(&ctx(&topo, 0, &victims, &pressure));
        assert_eq!(got, Some((PcpuId::new(2), v(1))));
    }

    #[test]
    fn heaviest_local_pcpu_checked_first() {
        let topo = presets::xeon_e5620();
        let victims = vec![
            (PcpuId::new(1), 2, vec![v(1)]),
            (PcpuId::new(2), 5, vec![v(2)]),
            (PcpuId::new(3), 3, vec![v(3)]),
        ];
        let pressure = vec![0.0; 8];
        let got = numa_aware_steal(&ctx(&topo, 0, &victims, &pressure));
        assert_eq!(got, Some((PcpuId::new(2), v(2))));
    }

    #[test]
    fn smallest_pressure_vcpu_stolen() {
        let topo = presets::xeon_e5620();
        let victims = vec![(PcpuId::new(1), 3, vec![v(0), v(1), v(2)])];
        let mut pressure = vec![0.0; 8];
        pressure[0] = 22.0;
        pressure[1] = 3.0;
        pressure[2] = 15.0;
        let got = numa_aware_steal(&ctx(&topo, 0, &victims, &pressure));
        assert_eq!(got, Some((PcpuId::new(1), v(1))));
    }

    #[test]
    fn falls_back_to_remote_node_when_local_empty() {
        let topo = presets::xeon_e5620();
        let victims = vec![(PcpuId::new(1), 4, vec![]), (PcpuId::new(5), 2, vec![v(9)])];
        let pressure = vec![0.0; 16];
        let got = numa_aware_steal(&ctx(&topo, 0, &victims, &pressure));
        assert_eq!(got, Some((PcpuId::new(5), v(9))));
    }

    #[test]
    fn nothing_to_steal_returns_none() {
        let topo = presets::xeon_e5620();
        let victims = vec![(PcpuId::new(1), 0, vec![]), (PcpuId::new(5), 0, vec![])];
        let got = numa_aware_steal(&ctx(&topo, 0, &victims, &[]));
        assert_eq!(got, None);
    }

    #[test]
    fn upgrade_steals_never_cross_nodes() {
        // A PCPU that still holds OVER work (would_idle = false) must not
        // steal from a remote node even if that is the only candidate.
        let topo = presets::xeon_e5620();
        let victims = vec![(PcpuId::new(5), 2, vec![v(9)])];
        let pressure = vec![0.0; 16];
        let mut c = ctx(&topo, 0, &victims, &pressure);
        c.would_idle = false;
        assert_eq!(numa_aware_steal(&c), None);
        c.would_idle = true;
        assert_eq!(numa_aware_steal(&c), Some((PcpuId::new(5), v(9))));
    }

    #[test]
    fn remote_steal_also_picks_smallest_pressure() {
        let topo = presets::xeon_e5620();
        let victims = vec![(PcpuId::new(6), 3, vec![v(3), v(4)])];
        let mut pressure = vec![0.0; 8];
        pressure[3] = 25.0;
        pressure[4] = 1.0;
        // Idle PCPU 1 is node0; only node1 offers work.
        let got = numa_aware_steal(&ctx(&topo, 1, &victims, &pressure));
        assert_eq!(got, Some((PcpuId::new(6), v(4))));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use numa_topo::presets;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn choice_is_always_a_listed_candidate(
            candidate_sets in prop::collection::vec(
                (0u16..8, prop::collection::vec(0u32..64, 0..4)),
                0..8,
            ),
            idle in 0u16..8,
            would_idle in any::<bool>(),
        ) {
            let topo = presets::xeon_e5620();
            // One victim entry per PCPU, as the machine guarantees.
            let mut seen = std::collections::HashSet::new();
            let victims: Vec<(PcpuId, usize, Vec<VcpuId>)> = candidate_sets
                .iter()
                .filter(|(p, _)| seen.insert(*p))
                .map(|(p, cs)| {
                    (
                        PcpuId::new(*p),
                        cs.len(),
                        cs.iter().map(|&c| VcpuId::new(c)).collect(),
                    )
                })
                .collect();
            let pressure = vec![1.0; 64];
            let ctx = StealContext {
                topo: &topo,
                idle_pcpu: PcpuId::new(idle),
                victims: &victims,
                pressure: &pressure,
                would_idle,
            };
            if let Some((victim, vcpu)) = numa_aware_steal(&ctx) {
                let set = victims.iter().find(|(p, _, _)| *p == victim);
                prop_assert!(set.is_some(), "victim must be listed");
                prop_assert!(set.unwrap().2.contains(&vcpu), "vcpu must be a candidate");
                // Upgrade steals never leave the local node.
                if !would_idle {
                    prop_assert_eq!(
                        topo.node_of_pcpu(victim),
                        topo.node_of_pcpu(PcpuId::new(idle))
                    );
                }
            } else if would_idle {
                // None only when every candidate list is empty.
                prop_assert!(victims.iter().all(|(_, _, c)| c.is_empty()));
            }
        }

        #[test]
        fn local_minimum_pressure_is_selected(
            pressures in prop::collection::vec(0.0f64..40.0, 4),
        ) {
            let topo = presets::xeon_e5620();
            let cands: Vec<VcpuId> = (0..4).map(VcpuId::new).collect();
            let victims = vec![(PcpuId::new(1), 4, cands)];
            let ctx = StealContext {
                topo: &topo,
                idle_pcpu: PcpuId::new(0),
                victims: &victims,
                pressure: &pressures,
                would_idle: false,
            };
            let (_, chosen) = numa_aware_steal(&ctx).expect("candidates exist");
            let min = pressures
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min);
            prop_assert!((pressures[chosen.index()] - min).abs() < 1e-12);
        }
    }
}
