//! Integrated memory controller (IMC) contention.
//!
//! Each node's memory controller is modeled as a queueing server: as the
//! aggregate demand on a controller approaches its bandwidth, per-access
//! latency inflates like an M/M/1 queue, `1 / (1 - u)`, with utilization
//! capped so the multiplier stays finite. Demand above the cap additionally
//! throttles throughput (accesses simply take longer than the quantum
//! allows), which the engine realizes through the inflated latency.

/// Queueing model of one node's memory controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImcModel {
    /// Peak sustainable bandwidth, bytes/second.
    pub bandwidth_bytes_per_s: u64,
    /// Utilization cap; the latency multiplier saturates at
    /// `1 / (1 - cap)`.
    pub utilization_cap: f64,
}

impl ImcModel {
    pub fn new(bandwidth_bytes_per_s: u64) -> Self {
        assert!(bandwidth_bytes_per_s > 0, "IMC bandwidth must be nonzero");
        ImcModel {
            bandwidth_bytes_per_s,
            utilization_cap: 0.95,
        }
    }

    /// Utilization of the controller given `demand` bytes/second.
    #[inline]
    pub fn utilization(&self, demand_bytes_per_s: f64) -> f64 {
        (demand_bytes_per_s / self.bandwidth_bytes_per_s as f64).max(0.0)
    }

    /// Latency multiplier at the given demand: 1.0 when idle, rising
    /// hyperbolically toward `1/(1-cap)` ≈ 20× at saturation.
    /// Inlined: the engine evaluates this once per node per fixed-point
    /// round, inside the hottest loop of the simulator.
    #[inline]
    pub fn latency_multiplier(&self, demand_bytes_per_s: f64) -> f64 {
        let u = self
            .utilization(demand_bytes_per_s)
            .min(self.utilization_cap);
        1.0 / (1.0 - u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_controller_has_unit_multiplier() {
        let imc = ImcModel::new(25_600_000_000);
        assert_eq!(imc.latency_multiplier(0.0), 1.0);
    }

    #[test]
    fn multiplier_grows_with_demand() {
        let imc = ImcModel::new(25_600_000_000);
        let half = imc.latency_multiplier(12_800_000_000.0);
        assert!((half - 2.0).abs() < 1e-9);
        let m90 = imc.latency_multiplier(0.9 * 25_600_000_000.0);
        assert!((m90 - 10.0).abs() < 1e-6);
    }

    #[test]
    fn multiplier_saturates_at_cap() {
        let imc = ImcModel::new(1_000_000_000);
        let at_cap = imc.latency_multiplier(0.95e9);
        let over = imc.latency_multiplier(10e9);
        assert!((at_cap - 20.0).abs() < 1e-6);
        assert_eq!(at_cap, over);
    }

    #[test]
    fn utilization_is_linear() {
        let imc = ImcModel::new(10);
        assert!((imc.utilization(5.0) - 0.5).abs() < 1e-12);
        assert!((imc.utilization(20.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn monotone_multiplier() {
        let imc = ImcModel::new(1_000_000);
        let mut prev = 0.0;
        for i in 0..20 {
            let m = imc.latency_multiplier(i as f64 * 100_000.0);
            assert!(m >= prev);
            prev = m;
        }
    }
}
