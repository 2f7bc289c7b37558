//! Fluent construction of validated topologies.

use crate::distance::DistanceMatrix;
use crate::ids::NodeId;
use crate::interconnect::InterconnectLink;
use crate::node::NodeConfig;
use crate::Topology;
use sim_core::SimError;

/// Builder for [`Topology`]. Nodes are added in id order; PCPU ids are
/// assigned densely in the order nodes are added.
///
/// ```
/// use numa_topo::{TopologyBuilder, NodeConfig};
///
/// let topo = TopologyBuilder::new(2_400)
///     .add_node(NodeConfig::e5620_node(), 4)
///     .add_node(NodeConfig::e5620_node(), 4)
///     .fully_connected_qpi()
///     .build()
///     .unwrap();
/// assert_eq!(topo.num_pcpus(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    freq_mhz: u32,
    nodes: Vec<(NodeConfig, u16)>,
    links: Vec<InterconnectLink>,
    distance: Option<DistanceMatrix>,
}

impl TopologyBuilder {
    pub fn new(freq_mhz: u32) -> Self {
        TopologyBuilder {
            freq_mhz,
            nodes: Vec::new(),
            links: Vec::new(),
            distance: None,
        }
    }

    /// Add a node with `cores` PCPUs.
    pub fn add_node(mut self, cfg: NodeConfig, cores: u16) -> Self {
        self.nodes.push((cfg, cores));
        self
    }

    /// Add `n` identical nodes.
    pub fn add_nodes(mut self, cfg: NodeConfig, cores: u16, n: usize) -> Self {
        for _ in 0..n {
            self.nodes.push((cfg.clone(), cores));
        }
        self
    }

    /// Add an explicit interconnect link.
    pub fn add_link(mut self, link: InterconnectLink) -> Self {
        self.links.push(link);
        self
    }

    /// Connect every node pair with a Table I-class QPI link.
    pub fn fully_connected_qpi(mut self) -> Self {
        let n = self.nodes.len();
        for a in 0..n {
            for b in (a + 1)..n {
                self.links.push(InterconnectLink::qpi_5_86(
                    format!("qpi{a}-{b}"),
                    NodeId::from_index(a),
                    NodeId::from_index(b),
                ));
            }
        }
        self
    }

    /// Override the default uniform(10, 21) distance matrix.
    pub fn distance(mut self, d: DistanceMatrix) -> Self {
        self.distance = Some(d);
        self
    }

    /// Finish and validate.
    pub fn build(self) -> Result<Topology, SimError> {
        if self.nodes.is_empty() {
            return Err(SimError::InvalidTopology("no nodes added".into()));
        }
        let mut pcpu_node = Vec::new();
        for (i, &(_, cores)) in self.nodes.iter().enumerate() {
            if cores == 0 {
                return Err(SimError::InvalidTopology(format!(
                    "node {i} has zero cores"
                )));
            }
            for _ in 0..cores {
                pcpu_node.push(NodeId::from_index(i));
            }
        }
        let n = self.nodes.len();
        let distance = self
            .distance
            .unwrap_or_else(|| DistanceMatrix::uniform(n, 10, 21));
        let topo = Topology::from_parts(
            self.nodes.into_iter().map(|(c, _)| c).collect(),
            pcpu_node,
            self.links,
            distance,
            self.freq_mhz,
        );
        topo.validate()?;
        Ok(topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_two_socket_machine() {
        let t = TopologyBuilder::new(2_400)
            .add_nodes(NodeConfig::e5620_node(), 4, 2)
            .fully_connected_qpi()
            .build()
            .unwrap();
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.num_pcpus(), 8);
        assert_eq!(t.links().len(), 1);
    }

    #[test]
    fn builds_four_socket_machine() {
        let t = TopologyBuilder::new(2_000)
            .add_nodes(NodeConfig::e5620_node(), 6, 4)
            .fully_connected_qpi()
            .build()
            .unwrap();
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.num_pcpus(), 24);
        // 4 choose 2 links.
        assert_eq!(t.links().len(), 6);
        // Every pair reachable.
        for a in t.nodes() {
            for b in t.nodes() {
                if a != b {
                    assert!(t.link_between(a, b).is_some());
                }
            }
        }
    }

    #[test]
    fn rejects_empty_machine() {
        assert!(TopologyBuilder::new(2_400).build().is_err());
    }

    #[test]
    fn rejects_zero_core_node() {
        let err = TopologyBuilder::new(2_400)
            .add_node(NodeConfig::e5620_node(), 0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("zero cores"));
    }

    #[test]
    fn rejects_disconnected_multinode() {
        let err = TopologyBuilder::new(2_400)
            .add_nodes(NodeConfig::e5620_node(), 4, 2)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("interconnect"));
    }

    #[test]
    fn rejects_zero_frequency() {
        let err = TopologyBuilder::new(0)
            .add_node(NodeConfig::e5620_node(), 4)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("frequency"));
    }

    #[test]
    fn single_node_needs_no_links() {
        let t = TopologyBuilder::new(2_400)
            .add_node(NodeConfig::e5620_node(), 4)
            .build()
            .unwrap();
        assert_eq!(t.num_nodes(), 1);
        assert!(t.remote_nodes_by_distance(NodeId::new(0)).is_empty());
    }

    #[test]
    fn custom_distance_matrix_is_used() {
        let d = DistanceMatrix::from_rows(2, vec![10, 31, 31, 10]);
        let t = TopologyBuilder::new(2_400)
            .add_nodes(NodeConfig::e5620_node(), 4, 2)
            .fully_connected_qpi()
            .distance(d)
            .build()
            .unwrap();
        assert_eq!(t.distance().get(NodeId::new(0), NodeId::new(1)), 31);
    }
}
