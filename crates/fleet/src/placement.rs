//! Available-space admission scoring (after Gudkov et al., "Efficient
//! calculation of available space for multi-NUMA virtual machines").
//!
//! For every candidate host the controller computes how many *more*
//! instances of the flavor being placed the host could hold — its
//! available-space count — and places the VM on the feasible host whose
//! count is smallest (best fit). Tightest-fit consolidation keeps empty
//! hosts empty, which is what makes the count a meaningful fleet-capacity
//! signal; ties break on the lowest host index so placement is a pure
//! function of fleet state.
//!
//! The simulator's page allocator (`AllocPolicy::MostFree`) spills an
//! allocation across nodes whenever the freest node runs out, so a VM fits
//! iff the *total* free memory covers it; the per-node vector therefore
//! collapses into aggregate free memory here, and the CPU dimension uses
//! the admission overcommit factor. The scan is a single pass over hosts —
//! O(N) per placement, the "near-linear assignment" regime Durbhakula's
//! work argues for at fleet scale.

use crate::config::{AdmissionConfig, VmFlavor};
use crate::host::Host;

/// A host's free resources as seen by the admission controller.
#[derive(Debug, Clone, PartialEq)]
pub struct HostCapacity {
    /// VCPU slots still grantable: `pcpus × overcommit − committed vcpus`
    /// (committed = resident + in-flight incoming VMs).
    pub free_vcpus: f64,
    /// Total unreserved memory across all NUMA nodes.
    pub free_mem_bytes: u64,
}

/// How many additional instances of `flavor` fit into `cap`. This is the
/// available-space count the controller scores hosts by.
pub fn instances_fit(cap: &HostCapacity, flavor: &VmFlavor) -> u64 {
    if flavor.vcpus == 0 {
        return 0;
    }
    let by_cpu = (cap.free_vcpus / flavor.vcpus as f64).floor();
    if by_cpu < 1.0 {
        return 0;
    }
    let by_mem = cap.free_mem_bytes / flavor.mem_bytes.max(1);
    (by_cpu as u64).min(by_mem)
}

/// Pick the host for one VM of `flavor`: the feasible Up host with the
/// smallest available-space count (best fit), ties broken by index.
/// Returns `None` when no host can take the VM.
pub fn choose_host(hosts: &[Host], flavor: &VmFlavor, adm: &AdmissionConfig) -> Option<usize> {
    let mut best: Option<(u64, usize)> = None;
    for host in hosts {
        if !host.is_up() {
            continue;
        }
        let fit = instances_fit(&host.capacity(adm), flavor);
        if fit == 0 {
            continue;
        }
        match best {
            Some((b, _)) if b <= fit => {}
            _ => best = Some((fit, host.index)),
        }
    }
    best.map(|(_, i)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FleetConfig, FleetScheduler, HostPreset};

    fn flavor(vcpus: usize, gb: u64) -> VmFlavor {
        VmFlavor {
            name: "t",
            vcpus,
            mem_bytes: gb * 1024 * 1024 * 1024,
            workloads: vec![workloads::hungry::hungry_loop()],
            weight: 256,
        }
    }

    #[test]
    fn fit_is_min_of_cpu_and_mem() {
        let cap = HostCapacity {
            free_vcpus: 24.0,
            free_mem_bytes: 10 * 1024 * 1024 * 1024,
        };
        // 4-vcpu, 4 GB: cpu allows 6, mem allows 2.
        assert_eq!(instances_fit(&cap, &flavor(4, 4)), 2);
        // 2-vcpu, 1 GB: cpu allows 12, mem allows 10.
        assert_eq!(instances_fit(&cap, &flavor(2, 1)), 10);
        // Too big on either axis → 0.
        assert_eq!(instances_fit(&cap, &flavor(32, 1)), 0);
        assert_eq!(instances_fit(&cap, &flavor(1, 11)), 0);
    }

    #[test]
    fn best_fit_prefers_tightest_host() {
        let cfg = FleetConfig::new(3, FleetScheduler::Credit);
        let mut hosts: Vec<Host> = (0..3)
            .map(|i| Host::new(i, HostPreset::XeonE5620, cfg.rack_of(i)))
            .collect();
        // Load host 1 so it has the least remaining room but still fits one.
        let f = flavor(4, 6);
        for id in 0..2 {
            hosts[1].admit_resident(crate::host::FleetVm {
                id,
                flavor_idx: 0,
                flavor: f.clone(),
                arrived_epoch: 0,
            });
        }
        let adm = AdmissionConfig::default();
        assert_eq!(choose_host(&hosts, &f, &adm), Some(1));
        // A host that is down is never chosen.
        hosts[1].state = crate::host::HostState::Down { until_epoch: 9 };
        let chosen = choose_host(&hosts, &f, &adm).unwrap();
        assert_ne!(chosen, 1);
        assert_eq!(chosen, 0, "ties break on lowest index");
    }

    #[test]
    fn no_feasible_host_returns_none() {
        let cfg = FleetConfig::new(1, FleetScheduler::Credit);
        let hosts = vec![Host::new(0, HostPreset::UmaQuad, cfg.rack_of(0))];
        // uma_quad has 4 cores; even 3× overcommit cannot take 16 vcpus.
        assert_eq!(
            choose_host(&hosts, &flavor(16, 1), &AdmissionConfig::default()),
            None
        );
    }
}
