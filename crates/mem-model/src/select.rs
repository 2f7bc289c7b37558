//! Engine selection: which solve implementation a machine runs.
//!
//! Two implementations share one public behaviour, byte for byte:
//!
//! * [`EngineSelect::Exact`] — the data-oriented incremental
//!   [`MemoryEngine`](crate::MemoryEngine) (the default);
//! * [`EngineSelect::Reference`] — the frozen pre-rewrite
//!   [`ReferenceEngine`](crate::reference::ReferenceEngine), kept for CI
//!   byte-diffs, bisection, and the equivalence test matrix.
//!
//! [`AnyEngine`] is the enum the hypervisor simulator holds; dispatch is a
//! single predictable branch per call, negligible next to a solve.

use crate::engine::{EnginePerf, MemoryEngine, QuantumUsage, VcpuQuantumResult};
use crate::reference::ReferenceEngine;
use numa_topo::Topology;
use sim_core::SimDuration;

/// Which engine implementation to run (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineSelect {
    /// Incremental SoA engine, byte-identical output (the default).
    #[default]
    Exact,
    /// The frozen pre-rewrite engine.
    Reference,
}

impl EngineSelect {
    /// Parse the CLI/scenario spelling (`exact` | `reference`).
    pub fn parse(s: &str) -> Option<EngineSelect> {
        match s {
            "exact" => Some(EngineSelect::Exact),
            "reference" => Some(EngineSelect::Reference),
            _ => None,
        }
    }

    /// The CLI/scenario spelling.
    pub fn name(self) -> &'static str {
        match self {
            EngineSelect::Exact => "exact",
            EngineSelect::Reference => "reference",
        }
    }
}

/// A memory engine of either implementation, with the shared call surface
/// the hypervisor simulator uses.
// One engine lives per machine for a whole run and is never moved after
// construction, so the variant size gap costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum AnyEngine {
    Soa(MemoryEngine),
    Reference(ReferenceEngine),
}

impl AnyEngine {
    /// Build the selected engine for a topology with default calibration.
    pub fn new(topo: &Topology, select: EngineSelect) -> Self {
        match select {
            EngineSelect::Exact => AnyEngine::Soa(MemoryEngine::new(topo)),
            EngineSelect::Reference => AnyEngine::Reference(ReferenceEngine::new(topo)),
        }
    }

    /// See [`MemoryEngine::step_ref`].
    pub fn step_ref(
        &mut self,
        quantum: SimDuration,
        usages: &[QuantumUsage],
    ) -> &[VcpuQuantumResult] {
        match self {
            AnyEngine::Soa(e) => e.step_ref(quantum, usages),
            AnyEngine::Reference(e) => e.step_ref(quantum, usages),
        }
    }

    /// Work-avoidance counters (see [`MemoryEngine::perf`]). The frozen
    /// reference engine predates the avoidance machinery and reports
    /// all-zero counters.
    pub fn perf(&self) -> EnginePerf {
        match self {
            AnyEngine::Soa(e) => e.perf(),
            AnyEngine::Reference(_) => EnginePerf::default(),
        }
    }

    /// See [`MemoryEngine::take_results`].
    pub fn take_results(&mut self) -> Vec<VcpuQuantumResult> {
        match self {
            AnyEngine::Soa(e) => e.take_results(),
            AnyEngine::Reference(e) => e.take_results(),
        }
    }

    /// See [`MemoryEngine::put_back_results`].
    pub fn put_back_results(&mut self, results: Vec<VcpuQuantumResult>) {
        match self {
            AnyEngine::Soa(e) => e.put_back_results(results),
            AnyEngine::Reference(e) => e.put_back_results(results),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for s in [EngineSelect::Exact, EngineSelect::Reference] {
            assert_eq!(EngineSelect::parse(s.name()), Some(s));
        }
        assert_eq!(EngineSelect::parse("turbo"), None);
    }

    #[test]
    fn default_is_exact() {
        assert_eq!(EngineSelect::default(), EngineSelect::Exact);
    }
}
