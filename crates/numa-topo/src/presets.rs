//! Ready-made machine descriptions.

use crate::builder::TopologyBuilder;
use crate::node::NodeConfig;
use crate::Topology;

/// The paper's evaluation machine (Table I):
///
/// * 2 sockets × 4 cores Intel Xeon E5620 @ 2.40 GHz
/// * 32 KB L1I + 32 KB L1D, 256 KB L2 per core
/// * 12 MB L3 shared by the 4 cores of a socket
/// * one IMC per socket, 25.6 GB/s, 12 GB of DRAM per node
/// * 2 QPI links at 5.86 GT/s
pub fn xeon_e5620() -> Topology {
    let base = TopologyBuilder::new(2_400).add_nodes(NodeConfig::e5620_node(), 4, 2);
    // Table I lists two QPI links; model both so link contention is split
    // across them as on the real part (one link also carries I/O traffic,
    // which we fold into the same capacity).
    let n0 = crate::NodeId::new(0);
    let n1 = crate::NodeId::new(1);
    base.add_link(crate::InterconnectLink::qpi_5_86("qpi0", n0, n1))
        .add_link(crate::InterconnectLink::qpi_5_86("qpi1", n0, n1))
        .build()
        .expect("Table I preset must be valid")
}

/// A larger hypothetical machine used by scaling tests and ablations:
/// 4 sockets × 8 cores, 16 GB per node, fully connected.
pub fn four_socket_32core() -> Topology {
    let node = NodeConfig {
        mem_bytes: 16 * 1024 * 1024 * 1024,
        imc_bandwidth_bytes_per_s: 40_000_000_000,
        llc: crate::CacheConfig {
            level: 3,
            size_bytes: 20 * 1024 * 1024,
            line_bytes: 64,
            shared_by: 8,
        },
        local_latency_ns: 70.0,
    };
    TopologyBuilder::new(2_600)
        .add_nodes(node, 8, 4)
        .fully_connected_qpi()
        .build()
        .expect("four-socket preset must be valid")
}

/// A single-node UMA box, used as a degenerate control in tests: NUMA-aware
/// policies must not crash or change behaviour on it.
pub fn uma_quad() -> Topology {
    TopologyBuilder::new(2_400)
        .add_node(NodeConfig::e5620_node(), 4)
        .build()
        .expect("UMA preset must be valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        xeon_e5620().validate().unwrap();
        four_socket_32core().validate().unwrap();
        uma_quad().validate().unwrap();
    }

    #[test]
    fn four_socket_shape() {
        let t = four_socket_32core();
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.num_pcpus(), 32);
    }

    #[test]
    fn uma_shape() {
        let t = uma_quad();
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.num_pcpus(), 4);
    }
}
