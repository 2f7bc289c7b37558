//! NUMA hardware topology description.
//!
//! A [`Topology`] is the static hardware picture the rest of the simulator
//! works against: NUMA nodes with their memory and integrated memory
//! controller, physical CPUs (PCPUs) grouped by node, a shared last-level
//! cache per node/socket, and the interconnect links (QPI in the paper's
//! testbed) joining nodes.
//!
//! The paper's machine (Table I: two quad-core Intel Xeon E5620 sockets,
//! 12 MB shared L3 per socket, 12 GB per node, 25.6 GB/s IMC, two 5.86 GT/s
//! QPI links) is available as [`presets::xeon_e5620`]; arbitrary machines
//! can be described through [`TopologyBuilder`].

pub mod builder;
pub mod cache;
pub mod distance;
pub mod ids;
pub mod interconnect;
pub mod node;
pub mod presets;

pub use builder::TopologyBuilder;
pub use cache::CacheConfig;
pub use distance::DistanceMatrix;
pub use ids::{NodeId, PcpuId, VcpuId, VmId};
pub use interconnect::InterconnectLink;
pub use node::NodeConfig;

use sim_core::SimError;

/// A complete, validated machine description.
///
/// Construct via [`TopologyBuilder`] (which validates) or a preset.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<NodeConfig>,
    /// `pcpu_node[p]` = NUMA node of PCPU `p`. PCPU ids are dense `0..n`.
    pcpu_node: Vec<NodeId>,
    links: Vec<InterconnectLink>,
    distance: DistanceMatrix,
    /// Per-core clock frequency in MHz (uniform across the machine).
    freq_mhz: u32,
}

impl Topology {
    pub(crate) fn from_parts(
        nodes: Vec<NodeConfig>,
        pcpu_node: Vec<NodeId>,
        links: Vec<InterconnectLink>,
        distance: DistanceMatrix,
        freq_mhz: u32,
    ) -> Self {
        Topology {
            nodes,
            pcpu_node,
            links,
            distance,
            freq_mhz,
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn num_pcpus(&self) -> usize {
        self.pcpu_node.len()
    }

    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(|i| NodeId::new(i as u16))
    }

    pub fn pcpus(&self) -> impl Iterator<Item = PcpuId> + '_ {
        (0..self.pcpu_node.len()).map(|i| PcpuId::new(i as u16))
    }

    pub fn node_config(&self, node: NodeId) -> &NodeConfig {
        &self.nodes[node.index()]
    }

    /// The NUMA node a PCPU belongs to (the paper's `pcpu_to_node`).
    pub fn node_of_pcpu(&self, pcpu: PcpuId) -> NodeId {
        self.pcpu_node[pcpu.index()]
    }

    /// All PCPUs of `node`, in id order.
    pub fn pcpus_of_node(&self, node: NodeId) -> Vec<PcpuId> {
        self.pcpus()
            .filter(|&p| self.node_of_pcpu(p) == node)
            .collect()
    }

    /// Nodes other than `node`, ordered by increasing distance then id —
    /// the order `nextNode()` walks in the paper's Algorithm 2.
    pub fn remote_nodes_by_distance(&self, node: NodeId) -> Vec<NodeId> {
        let mut others: Vec<NodeId> = self.nodes().filter(|&n| n != node).collect();
        others.sort_by_key(|&n| (self.distance.get(node, n), n.index()));
        others
    }

    pub fn links(&self) -> &[InterconnectLink] {
        &self.links
    }

    /// The link connecting two distinct nodes, if any.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<&InterconnectLink> {
        self.links.iter().find(|l| l.connects(a, b))
    }

    pub fn distance(&self) -> &DistanceMatrix {
        &self.distance
    }

    pub fn freq_mhz(&self) -> u32 {
        self.freq_mhz
    }

    /// Total machine memory in bytes.
    pub fn total_mem_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.mem_bytes).sum()
    }

    /// Validate internal consistency; used by the builder and by tests that
    /// construct exotic machines.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.nodes.is_empty() {
            return Err(SimError::InvalidTopology(
                "machine has no NUMA nodes".into(),
            ));
        }
        if self.pcpu_node.is_empty() {
            return Err(SimError::InvalidTopology("machine has no PCPUs".into()));
        }
        if self.freq_mhz == 0 {
            return Err(SimError::InvalidTopology("clock frequency is zero".into()));
        }
        for (p, &n) in self.pcpu_node.iter().enumerate() {
            if n.index() >= self.nodes.len() {
                return Err(SimError::InvalidTopology(format!(
                    "pcpu {p} maps to nonexistent node {n}"
                )));
            }
        }
        for node in self.nodes() {
            if self.pcpus_of_node(node).is_empty() {
                return Err(SimError::InvalidTopology(format!(
                    "node {node} has no PCPUs"
                )));
            }
            let cfg = self.node_config(node);
            if cfg.mem_bytes == 0 {
                return Err(SimError::InvalidTopology(format!(
                    "node {node} has no memory"
                )));
            }
            if cfg.llc.size_bytes == 0 {
                return Err(SimError::InvalidTopology(format!("node {node} has no LLC")));
            }
            if cfg.imc_bandwidth_bytes_per_s == 0 {
                return Err(SimError::InvalidTopology(format!(
                    "node {node} IMC bandwidth is zero"
                )));
            }
        }
        if self.distance.size() != self.nodes.len() {
            return Err(SimError::InvalidTopology(
                "distance matrix size mismatch".into(),
            ));
        }
        for l in &self.links {
            if l.a == l.b {
                return Err(SimError::InvalidTopology(format!(
                    "link {} connects node {} to itself",
                    l.name, l.a
                )));
            }
            if l.a.index() >= self.nodes.len() || l.b.index() >= self.nodes.len() {
                return Err(SimError::InvalidTopology(format!(
                    "link {} references nonexistent node",
                    l.name
                )));
            }
        }
        // Multi-node machines must be connected so remote accesses have a path.
        if self.nodes.len() > 1 {
            for a in self.nodes() {
                for b in self.nodes() {
                    if a != b && self.link_between(a, b).is_none() {
                        return Err(SimError::InvalidTopology(format!(
                            "no interconnect link between nodes {a} and {b}"
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_validates_and_matches_table1() {
        let t = presets::xeon_e5620();
        t.validate().unwrap();
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.num_pcpus(), 8);
        assert_eq!(t.freq_mhz(), 2400);
        for n in t.nodes() {
            let cfg = t.node_config(n);
            assert_eq!(cfg.llc.size_bytes, 12 * 1024 * 1024);
            assert_eq!(cfg.mem_bytes, 12 * 1024 * 1024 * 1024);
            assert_eq!(t.pcpus_of_node(n).len(), 4);
        }
        assert_eq!(t.links().len(), 2);
    }

    #[test]
    fn node_of_pcpu_partitions_cores() {
        let t = presets::xeon_e5620();
        for p in t.pcpus() {
            let expected = if p.index() < 4 { 0 } else { 1 };
            assert_eq!(t.node_of_pcpu(p).index(), expected);
        }
    }

    #[test]
    fn remote_nodes_excludes_self() {
        let t = presets::xeon_e5620();
        let n0 = NodeId::new(0);
        let remote = t.remote_nodes_by_distance(n0);
        assert_eq!(remote, vec![NodeId::new(1)]);
    }

    #[test]
    fn link_between_is_symmetric() {
        let t = presets::xeon_e5620();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        assert!(t.link_between(a, b).is_some());
        assert!(t.link_between(b, a).is_some());
        assert!(t.link_between(a, a).is_none());
    }

    #[test]
    fn total_memory_sums_nodes() {
        let t = presets::xeon_e5620();
        assert_eq!(t.total_mem_bytes(), 24 * 1024 * 1024 * 1024);
    }
}
