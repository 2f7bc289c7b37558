//! Latency composition parameters.
//!
//! Converts the hardware description (local DRAM latency, interconnect hop
//! latency) plus the dynamic contention multipliers into the cycle cost of
//! one LLC miss, the quantity the execution engine charges per miss.

/// Static latency parameters for composing access costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyParams {
    /// Cycles for an LLC hit (beyond the core pipeline), Nehalem-class ~40.
    pub llc_hit_cycles: f64,
    /// Core clock frequency in MHz, to convert ns to cycles.
    pub freq_mhz: u32,
}

impl LatencyParams {
    pub fn new(freq_mhz: u32) -> Self {
        assert!(freq_mhz > 0, "frequency must be nonzero");
        LatencyParams {
            llc_hit_cycles: 40.0,
            freq_mhz,
        }
    }

    /// Convert nanoseconds to core cycles.
    pub fn ns_to_cycles(&self, ns: f64) -> f64 {
        ns * self.freq_mhz as f64 / 1_000.0
    }

    /// Cycle cost of one LLC miss that lands on DRAM `local_ns` away, with
    /// the IMC of the home node inflated by `imc_mult`, plus — for remote
    /// accesses — an interconnect hop of `hop_ns` inflated by `qpi_mult`.
    pub fn miss_cycles(
        &self,
        local_ns: f64,
        imc_mult: f64,
        remote_hop_ns: Option<f64>,
        qpi_mult: f64,
    ) -> f64 {
        let dram = self.ns_to_cycles(local_ns) * imc_mult;
        match remote_hop_ns {
            Some(hop) => dram + self.ns_to_cycles(hop) * qpi_mult,
            None => dram,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_to_cycles_at_2400mhz() {
        let p = LatencyParams::new(2_400);
        assert!((p.ns_to_cycles(65.0) - 156.0).abs() < 1e-9);
    }

    #[test]
    fn remote_miss_costs_more_than_local() {
        let p = LatencyParams::new(2_400);
        let local = p.miss_cycles(65.0, 1.0, None, 1.0);
        let remote = p.miss_cycles(65.0, 1.0, Some(40.0), 1.0);
        assert!(remote > local);
        assert!((remote - local - p.ns_to_cycles(40.0)).abs() < 1e-9);
    }

    #[test]
    fn contention_scales_components_independently() {
        let p = LatencyParams::new(2_400);
        let base = p.miss_cycles(65.0, 1.0, Some(40.0), 1.0);
        let imc_loaded = p.miss_cycles(65.0, 2.0, Some(40.0), 1.0);
        let qpi_loaded = p.miss_cycles(65.0, 1.0, Some(40.0), 2.0);
        assert!(imc_loaded > base && qpi_loaded > base);
        assert!((imc_loaded - base - p.ns_to_cycles(65.0)).abs() < 1e-9);
        assert!((qpi_loaded - base - p.ns_to_cycles(40.0)).abs() < 1e-9);
    }
}
