//! VCPU periodical partitioning (paper §III-C, Algorithm 1).
//!
//! At the end of each sampling period, every memory-intensive VCPU
//! (LLC-thrashing or LLC-fitting) is reassigned to a node:
//!
//! 1. repeatedly pick **MIN-NODE**, the node with the fewest VCPUs
//!    reassigned so far (balancing LLC contention);
//! 2. prefer an unassigned **LLC-T** VCPU while any remain, then LLC-FI
//!    (the heaviest cache users get spread first);
//! 3. prefer a VCPU whose **memory node affinity is MIN-NODE** (avoiding
//!    remote accesses); if none, take from the *largest* remaining
//!    affinity group, which minimizes the size differences of the groups
//!    and so maximizes the chance later VCPUs land on their local node.
//!
//! LLC-friendly VCPUs are left to the default load balancer.

use crate::analyzer::VcpuType;
use numa_topo::{NodeId, VcpuId};
use std::collections::VecDeque;
use xen_sim::PartitionNote;

/// One memory-intensive VCPU to place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionInput {
    pub vcpu: VcpuId,
    pub vcpu_type: VcpuType,
    /// Eq. 1 affinity. `None` (no accesses this period) is treated as
    /// node 0, which only occurs for freshly-woken VCPUs.
    pub affinity: Option<NodeId>,
}

/// Algorithm 1. Returns `(vcpu, node)` in assignment order.
///
/// With `num_nodes == 0` there is nowhere to place anything, so the
/// result is empty. LLC-friendly inputs are ignored (callers normally
/// pre-filter, but robustness matters more than strictness here).
pub fn partition_vcpus(inputs: &[PartitionInput], num_nodes: usize) -> Vec<(VcpuId, NodeId)> {
    partition_vcpus_explained(inputs, num_nodes, false).0
}

/// Algorithm 1 with optional provenance: when `explain` is true, each
/// assignment also yields a [`PartitionNote`] naming the rule that placed
/// the VCPU ("min-load-local-group" when MIN-NODE still had a local
/// candidate of the preferred type, "min-load-displaced-max-group" when
/// the largest remaining affinity group was drained instead) and the
/// per-node load snapshot at decision time. The assignment sequence is
/// identical either way — notes are observation, not input.
pub fn partition_vcpus_explained(
    inputs: &[PartitionInput],
    num_nodes: usize,
    explain: bool,
) -> (Vec<(VcpuId, NodeId)>, Vec<PartitionNote>) {
    if num_nodes == 0 || inputs.is_empty() {
        return (Vec::new(), Vec::new());
    }
    // groupOfVc(c, p): FIFO per (type, affinity-node).
    let mut groups: Vec<Vec<VecDeque<VcpuId>>> = vec![vec![VecDeque::new(); num_nodes]; 2];
    let type_index = |t: VcpuType| match t {
        VcpuType::Thrashing => Some(0),
        VcpuType::Fitting => Some(1),
        VcpuType::Friendly => None,
    };
    let mut remaining = [0usize; 2];
    for inp in inputs {
        let Some(ti) = type_index(inp.vcpu_type) else {
            continue;
        };
        let node = inp
            .affinity
            .map(|n| n.index())
            .unwrap_or(0)
            .min(num_nodes - 1);
        groups[ti][node].push_back(inp.vcpu);
        remaining[ti] += 1;
    }

    let mut load = vec![0usize; num_nodes];
    let mut out = Vec::with_capacity(remaining[0] + remaining[1]);
    let mut notes = Vec::new();
    while remaining[0] + remaining[1] > 0 {
        // Prefer LLC-T while any remain.
        let ti = if remaining[0] > 0 { 0 } else { 1 };
        // MIN-NODE: fewest reassigned VCPUs. The paper leaves the
        // tie-break unspecified; breaking ties toward a node that still
        // has *local* candidates of the current type serves the stated
        // goal ("preferentially allocating them to their local nodes")
        // without ever violating the balance property. Final tie: lowest
        // node id, for determinism.
        let min_node = (0..num_nodes)
            .min_by_key(|&n| (load[n], groups[ti][n].is_empty(), n))
            .expect("num_nodes > 0");
        // Prefer the group local to MIN-NODE; else the largest group.
        let source = if !groups[ti][min_node].is_empty() {
            min_node
        } else {
            (0..num_nodes)
                .max_by_key(|&n| (groups[ti][n].len(), std::cmp::Reverse(n)))
                .expect("num_nodes > 0")
        };
        let vcpu = groups[ti][source]
            .pop_front()
            .expect("chosen group is non-empty");
        if explain {
            notes.push(PartitionNote {
                vcpu,
                node: NodeId::from_index(min_node),
                rule: if source == min_node {
                    "min-load-local-group"
                } else {
                    "min-load-displaced-max-group"
                },
                candidates: (0..num_nodes).map(|n| (n, load[n] as u64)).collect(),
            });
        }
        remaining[ti] -= 1;
        load[min_node] += 1;
        out.push((vcpu, NodeId::from_index(min_node)));
    }
    (out, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inp(id: u32, t: VcpuType, node: Option<u16>) -> PartitionInput {
        PartitionInput {
            vcpu: VcpuId::new(id),
            vcpu_type: t,
            affinity: node.map(NodeId::new),
        }
    }

    fn loads(assignments: &[(VcpuId, NodeId)], n: usize) -> Vec<usize> {
        let mut v = vec![0; n];
        for &(_, node) in assignments {
            v[node.index()] += 1;
        }
        v
    }

    #[test]
    fn zero_nodes_places_nothing() {
        let inputs = vec![inp(0, VcpuType::Thrashing, Some(0))];
        assert!(partition_vcpus(&inputs, 0).is_empty());
        assert!(partition_vcpus(&[], 2).is_empty());
    }

    #[test]
    fn every_vcpu_assigned_exactly_once() {
        let inputs: Vec<_> = (0..7)
            .map(|i| inp(i, VcpuType::Thrashing, Some((i % 2) as u16)))
            .collect();
        let got = partition_vcpus(&inputs, 2);
        assert_eq!(got.len(), 7);
        let mut ids: Vec<u32> = got.iter().map(|(v, _)| v.raw()).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn loads_are_balanced_within_one() {
        let inputs: Vec<_> = (0..9).map(|i| inp(i, VcpuType::Fitting, Some(0))).collect();
        let got = partition_vcpus(&inputs, 2);
        let l = loads(&got, 2);
        assert_eq!(l.iter().sum::<usize>(), 9);
        assert!(
            l.iter().max().unwrap() - l.iter().min().unwrap() <= 1,
            "{l:?}"
        );
    }

    #[test]
    fn affinity_honored_when_balanced() {
        // Two VCPUs per node, affinities split: everyone should land local.
        let inputs = vec![
            inp(0, VcpuType::Thrashing, Some(0)),
            inp(1, VcpuType::Thrashing, Some(1)),
            inp(2, VcpuType::Fitting, Some(0)),
            inp(3, VcpuType::Fitting, Some(1)),
        ];
        let got = partition_vcpus(&inputs, 2);
        for (v, n) in got {
            let want = v.raw() % 2;
            assert_eq!(n.index() as u32, want, "vcpu {v} should be local");
        }
    }

    #[test]
    fn thrashing_assigned_before_fitting() {
        let inputs = vec![
            inp(0, VcpuType::Fitting, Some(0)),
            inp(1, VcpuType::Thrashing, Some(0)),
            inp(2, VcpuType::Fitting, Some(0)),
            inp(3, VcpuType::Thrashing, Some(0)),
        ];
        let got = partition_vcpus(&inputs, 2);
        let order: Vec<u32> = got.iter().map(|(v, _)| v.raw()).collect();
        // The two thrashers (1, 3) come first in assignment order.
        assert_eq!(&order[..2], &[1, 3]);
    }

    #[test]
    fn thrashers_spread_across_nodes_even_with_common_affinity() {
        // Four thrashers all local to node 0: balance forces two to node 1
        // (LLC balance beats locality, as in the paper).
        let inputs: Vec<_> = (0..4)
            .map(|i| inp(i, VcpuType::Thrashing, Some(0)))
            .collect();
        let got = partition_vcpus(&inputs, 2);
        assert_eq!(loads(&got, 2), vec![2, 2]);
    }

    #[test]
    fn friendly_vcpus_ignored() {
        let inputs = vec![
            inp(0, VcpuType::Friendly, Some(0)),
            inp(1, VcpuType::Thrashing, Some(1)),
        ];
        let got = partition_vcpus(&inputs, 2);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, VcpuId::new(1));
    }

    #[test]
    fn missing_affinity_defaults_to_node_zero_group() {
        let got = partition_vcpus(&[inp(0, VcpuType::Fitting, None)], 2);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, NodeId::new(0));
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert!(partition_vcpus(&[], 2).is_empty());
    }

    #[test]
    fn single_node_machine_pins_everything_there() {
        let inputs: Vec<_> = (0..3)
            .map(|i| inp(i, VcpuType::Thrashing, Some(0)))
            .collect();
        let got = partition_vcpus(&inputs, 1);
        assert!(got.iter().all(|&(_, n)| n == NodeId::new(0)));
    }

    #[test]
    fn explained_matches_plain_and_names_rules() {
        // Same scenario as max_group_source_when_min_node_group_empty:
        // assignments must be identical with explain on, and the displaced
        // VCPU gets the displaced rule.
        let inputs = vec![
            inp(0, VcpuType::Thrashing, Some(1)),
            inp(1, VcpuType::Thrashing, Some(1)),
            inp(2, VcpuType::Thrashing, Some(1)),
        ];
        let plain = partition_vcpus(&inputs, 2);
        let (explained, notes) = partition_vcpus_explained(&inputs, 2, true);
        assert_eq!(plain, explained);
        assert_eq!(notes.len(), 3);
        assert_eq!(notes[0].rule, "min-load-local-group");
        assert_eq!(notes[1].rule, "min-load-displaced-max-group");
        assert_eq!(notes[2].rule, "min-load-local-group");
        // Candidate loads snapshot decision time: second pick sees node 1
        // already holding one VCPU.
        assert_eq!(notes[1].candidates, vec![(0, 0), (1, 1)]);
        // Explain off yields no notes.
        let (_, none) = partition_vcpus_explained(&inputs, 2, false);
        assert!(none.is_empty());
    }

    #[test]
    fn max_group_source_when_min_node_group_empty() {
        // Three thrashers, all local to node 1. The tie-break sends
        // MIN-NODE to node 1 first (it has local candidates), then balance
        // forces one VCPU across to node 0.
        let inputs = vec![
            inp(0, VcpuType::Thrashing, Some(1)),
            inp(1, VcpuType::Thrashing, Some(1)),
            inp(2, VcpuType::Thrashing, Some(1)),
        ];
        let got = partition_vcpus(&inputs, 2);
        // First: MIN-NODE = node 1 (tie broken toward local candidates),
        // FIFO gives vcpu 0, kept local.
        assert_eq!(got[0], (VcpuId::new(0), NodeId::new(1)));
        // Second: MIN-NODE = node 0 (load 0 < 1); its group is empty, so
        // the max group (node 1's) is drained: vcpu 1 is displaced.
        assert_eq!(got[1], (VcpuId::new(1), NodeId::new(0)));
        // Third: tie at load 1 each; node 1 still has a local candidate.
        assert_eq!(got[2], (VcpuId::new(2), NodeId::new(1)));
        assert_eq!(loads(&got, 2), vec![1, 2]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_inputs() -> impl Strategy<Value = (Vec<PartitionInput>, usize)> {
        (1usize..5).prop_flat_map(|nodes| {
            let inputs = prop::collection::vec(
                (0u32..64, 0u8..2, 0u16..nodes as u16).prop_map(|(id, t, n)| PartitionInput {
                    vcpu: VcpuId::new(id),
                    vcpu_type: if t == 0 {
                        VcpuType::Thrashing
                    } else {
                        VcpuType::Fitting
                    },
                    affinity: Some(NodeId::new(n)),
                }),
                0..32,
            );
            (inputs, Just(nodes))
        })
    }

    proptest! {
        #[test]
        fn all_assigned_and_balanced((inputs, nodes) in arb_inputs()) {
            let got = partition_vcpus(&inputs, nodes);
            prop_assert_eq!(got.len(), inputs.len());
            let mut loads = vec![0usize; nodes];
            for &(_, n) in &got {
                prop_assert!(n.index() < nodes);
                loads[n.index()] += 1;
            }
            if !got.is_empty() {
                let max = *loads.iter().max().unwrap();
                let min = *loads.iter().min().unwrap();
                prop_assert!(max - min <= 1, "unbalanced: {:?}", loads);
            }
        }

        #[test]
        fn local_assignment_when_affinities_already_balanced(nodes in 1usize..4, per_node in 1usize..4) {
            // k VCPUs with affinity n for every node n: Algorithm 1 must
            // keep each one local.
            let mut inputs = Vec::new();
            let mut id = 0u32;
            for n in 0..nodes {
                for _ in 0..per_node {
                    inputs.push(PartitionInput {
                        vcpu: VcpuId::new(id),
                        vcpu_type: VcpuType::Thrashing,
                        affinity: Some(NodeId::new(n as u16)),
                    });
                    id += 1;
                }
            }
            let got = partition_vcpus(&inputs, nodes);
            for (v, assigned) in got {
                let want = (v.raw() as usize) / per_node;
                prop_assert_eq!(assigned.index(), want, "vcpu {} displaced", v);
            }
        }
    }
}
