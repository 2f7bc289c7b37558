//! Fleet-level SLO accounting.
//!
//! Counters follow the workspace's no-silent-loss discipline: every VM
//! displaced by a crash must end the run as evacuated, shed, or still
//! visibly queued/in-flight — [`FleetMetrics::vms_lost`] computes the
//! remainder and anything nonzero is a controller bug, pinned to zero by
//! tests and the CI smoke.

use sim_core::stats::RunningStats;

/// Aggregated fleet counters for one run. Event counters count *events*:
/// a VM displaced, re-placed, and displaced again by a later crash
/// contributes two displacements (and, once re-placed both times, two
/// evacuations).
#[derive(Debug, Clone, Default)]
pub struct FleetMetrics {
    /// Hosts crashed (individual + rack-correlated).
    pub crashes: u64,
    /// Whole-rack correlated failures.
    pub rack_crashes: u64,
    pub recoveries: u64,
    /// Displacement events: VMs that a host crash turned into evacuations
    /// (residents plus in-flight admissions at crash time). An in-flight
    /// evacuation whose target crashes re-queues without counting again.
    pub displaced: u64,
    /// Displaced VMs successfully re-placed and landed.
    pub evacuated: u64,
    /// Displaced VMs given up on (retry budget or queue timeout).
    pub shed_evacuation: u64,
    /// Arriving VMs given up on (no capacity within the queue timeout).
    pub shed_admission: u64,
    pub arrivals: u64,
    pub departures: u64,
    /// Arriving VMs that landed on a host.
    pub admitted: u64,
    pub placement_attempts: u64,
    /// Attempts that found no feasible host.
    pub placement_failures: u64,
    /// Accepted live migrations that failed mid-copy and re-queued.
    pub migration_failures: u64,
    /// Migrations whose copy ran degraded (doubled copy time).
    pub migrations_delayed: u64,
    /// Σ over epochs of displaced-but-not-yet-restored VMs (the SLO
    /// "degraded" integral; multiply by the epoch length for VM-minutes).
    pub degraded_vm_epochs: u64,
    /// Σ over epochs of hosts sitting Down.
    pub host_down_epochs: u64,
    /// Evacuation latency samples, in seconds (displacement → landing).
    pub evac_latency_s: RunningStats,
}

impl FleetMetrics {
    /// Displaced VMs not accounted for as evacuated, shed, queued, or
    /// in-flight. Must be zero at all times.
    pub fn vms_lost(&self, pending_evac: u64, in_flight_evac: u64) -> i64 {
        self.displaced as i64
            - self.evacuated as i64
            - self.shed_evacuation as i64
            - pending_evac as i64
            - in_flight_evac as i64
    }

    /// Total VMs shed (evacuation + admission).
    pub fn shed_total(&self) -> u64 {
        self.shed_evacuation + self.shed_admission
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lost_accounting_balances() {
        let m = FleetMetrics {
            displaced: 10,
            evacuated: 6,
            shed_evacuation: 2,
            ..FleetMetrics::default()
        };
        assert_eq!(m.vms_lost(1, 1), 0);
        assert_eq!(m.vms_lost(0, 0), 2, "unaccounted VMs are visible");
        assert_eq!(m.shed_total(), 2);
    }
}
