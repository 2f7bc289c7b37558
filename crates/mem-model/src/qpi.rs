//! Interconnect (QPI) link contention.
//!
//! Remote LLC misses cross the socket interconnect. Traffic between a node
//! pair is spread across the parallel links joining them (Table I's machine
//! has two), and each link inflates its hop latency with utilization the
//! same way the IMC model does. Heavy remote-access traffic therefore
//! penalizes *all* cross-node accesses — the "interconnect link contention"
//! factor the paper lists, and the reason Fig. 1's 80 %-remote workloads
//! hurt twice.

/// Queueing model of one direction of one interconnect link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QpiModel {
    /// Usable bandwidth per direction, bytes/second.
    pub bandwidth_bytes_per_s: u64,
    /// Parallel links between the node pair sharing this traffic.
    pub parallel_links: u32,
    /// Utilization cap for the latency multiplier.
    pub utilization_cap: f64,
}

impl QpiModel {
    pub fn new(bandwidth_bytes_per_s: u64, parallel_links: u32) -> Self {
        assert!(bandwidth_bytes_per_s > 0, "link bandwidth must be nonzero");
        assert!(parallel_links > 0, "need at least one link");
        QpiModel {
            bandwidth_bytes_per_s,
            parallel_links,
            utilization_cap: 0.95,
        }
    }

    /// Aggregate bandwidth across the parallel links.
    #[inline]
    pub fn total_bandwidth(&self) -> f64 {
        self.bandwidth_bytes_per_s as f64 * self.parallel_links as f64
    }

    #[inline]
    pub fn utilization(&self, traffic_bytes_per_s: f64) -> f64 {
        (traffic_bytes_per_s / self.total_bandwidth()).max(0.0)
    }

    /// Hop-latency multiplier under the given cross-node traffic.
    /// Inlined: evaluated once per node pair per fixed-point round.
    #[inline]
    pub fn latency_multiplier(&self, traffic_bytes_per_s: f64) -> f64 {
        let u = self
            .utilization(traffic_bytes_per_s)
            .min(self.utilization_cap);
        1.0 / (1.0 - u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_links_share_traffic() {
        let one = QpiModel::new(11_720_000_000, 1);
        let two = QpiModel::new(11_720_000_000, 2);
        let t = 11_720_000_000.0;
        assert!(two.latency_multiplier(t) < one.latency_multiplier(t));
        assert!((two.utilization(t) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn idle_link_unit_multiplier() {
        let q = QpiModel::new(1_000, 2);
        assert_eq!(q.latency_multiplier(0.0), 1.0);
    }

    #[test]
    fn saturates_at_cap() {
        let q = QpiModel::new(1_000, 1);
        assert_eq!(q.latency_multiplier(1e12), 1.0 / (1.0 - 0.95));
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn rejects_zero_links() {
        QpiModel::new(1_000, 0);
    }
}
