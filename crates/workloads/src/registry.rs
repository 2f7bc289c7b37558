//! Name-based lookup across all modeled workloads.

use crate::spec::WorkloadSpec;
use crate::{hungry, kv, npb, speccpu};
use sim_core::SimError;

/// Every statically named workload (server workloads are parameterized and
/// addressed via [`crate::kv`] directly, but the paper's default levels are
/// included here for convenience).
pub fn all_specs() -> Vec<WorkloadSpec> {
    vec![
        speccpu::povray(),
        speccpu::soplex(),
        speccpu::libquantum(),
        speccpu::mcf(),
        speccpu::milc(),
        speccpu::lbm(),
        speccpu::gcc(),
        speccpu::omnetpp(),
        speccpu::gobmk(),
        npb::bt(),
        npb::cg(),
        npb::ep(),
        npb::lu(),
        npb::mg(),
        npb::sp(),
        npb::ft(),
        npb::is(),
        hungry::hungry_loop(),
        kv::memcached(80),
        kv::redis(2_000),
    ]
}

/// Look a workload up by name ("soplex", "lu", "hungry", …).
pub fn by_name(name: &str) -> Result<WorkloadSpec, SimError> {
    all_specs()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| SimError::UnknownName(format!("workload '{name}'")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique() {
        let names: Vec<String> = all_specs().into_iter().map(|w| w.name).collect();
        let set: HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len(), "duplicate workload names");
    }

    #[test]
    fn lookup_finds_paper_workloads() {
        for name in [
            "soplex",
            "libquantum",
            "mcf",
            "milc",
            "bt",
            "cg",
            "lu",
            "mg",
            "sp",
            "hungry",
        ] {
            assert!(by_name(name).is_ok(), "missing {name}");
        }
    }

    #[test]
    fn lookup_rejects_unknown() {
        assert!(by_name("fortnite").is_err());
    }

    #[test]
    fn every_spec_has_positive_parameters() {
        for w in all_specs() {
            assert!(w.rpti >= 0.0, "{}", w.name);
            assert!(w.base_cpi > 0.0, "{}", w.name);
            assert!(w.footprint_bytes > 0, "{}", w.name);
            assert!(w.threads > 0, "{}", w.name);
            assert!((0.0..=1.0).contains(&w.shared_frac), "{}", w.name);
        }
    }
}
