//! Machine-level perf introspection: the memory engine's deterministic
//! work-avoidance counters ([`EnginePerf`]) for one machine or a merge of
//! many hosts.
//!
//! Everything in this module is a pure function of the simulated
//! execution, so two runs at the same seed export byte-identical JSON
//! regardless of wall-clock, `--jobs`, or host. That is what lets the
//! perf report be pinned by golden files and digests the same way CSVs
//! are.
//!
//! Collection is off by default. [`crate::Machine`] holds an
//! `Option<Box<MachinePerf>>`; until `enable_perf` is called the hot
//! path pays one pointer null-check per quantum and the run's outputs
//! are byte-for-byte those of a perf-unaware build.

use mem_model::EnginePerf;
use sim_core::Json;
use telemetry::BatchHistogram;

/// Per-machine step statistics. The machine steps one quantum at a time,
/// so these carry no information: `batches` records length 1 for every
/// quantum and `horizon_consults` stays 0. Both fields remain only until
/// the benchmark drops its `xen-sim.macro_batch_mean` and
/// `xen-sim.horizon_consults` rows, which read them; they are not part of
/// [`PerfSnapshot::to_json`].
#[derive(Debug, Clone, Default)]
pub struct MachinePerf {
    /// Quanta stepped, each recorded as a batch of length 1.
    pub batches: BatchHistogram,
    /// Always 0 (nothing consults an event horizon any more).
    pub horizon_consults: u64,
}

impl MachinePerf {
    /// Record one stepped quantum.
    pub fn plain_step(&mut self) {
        self.batches.observe(1);
    }
}

/// A point-in-time perf snapshot for one machine (or a merge of many
/// hosts): engine work-avoidance counters plus the step statistics.
///
/// `to_json` is byte-stable: fixed key order, integers only.
#[derive(Debug, Clone, Default)]
pub struct PerfSnapshot {
    /// Machines merged into this snapshot (1 for a single machine).
    pub hosts: u64,
    /// Memory-engine work-avoidance counters (summed across hosts).
    pub engine: EnginePerf,
    /// Step statistics (summed across hosts).
    pub machine: MachinePerf,
}

impl PerfSnapshot {
    /// Fold another snapshot into this one (host-index order at the call
    /// site keeps the merge deterministic).
    pub fn merge(&mut self, other: &PerfSnapshot) {
        self.hosts += other.hosts;
        self.engine.accumulate(other.engine);
        self.machine.batches.merge(&other.machine.batches);
        self.machine.horizon_consults += other.machine.horizon_consults;
    }

    /// Deterministic JSON export (see the type docs).
    pub fn to_json(&self) -> Json {
        let e = &self.engine;
        let engine = Json::Obj(vec![
            ("steps".into(), Json::from(e.steps)),
            ("whole_step_skips".into(), Json::from(e.whole_step_skips)),
            ("node_solves".into(), Json::from(e.node_solves)),
            ("node_clean_skips".into(), Json::from(e.node_clean_skips)),
            ("memo_hits".into(), Json::from(e.memo_hits)),
            ("memo_misses".into(), Json::from(e.memo_misses)),
            ("memo_disables".into(), Json::from(e.memo_disables)),
            ("replay_fires".into(), Json::from(e.replay_fires)),
            ("fp_rounds".into(), Json::from(e.fp_rounds)),
            ("tolerance_exits".into(), Json::from(e.tolerance_exits)),
            ("snap_backs".into(), Json::from(e.snap_backs)),
        ]);
        Json::Obj(vec![
            ("hosts".into(), Json::from(self.hosts)),
            ("engine".into(), engine),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_merge_sums_everything() {
        let mut a = PerfSnapshot {
            hosts: 1,
            ..Default::default()
        };
        a.engine.steps = 10;
        a.machine.plain_step();

        let mut b = PerfSnapshot {
            hosts: 1,
            ..Default::default()
        };
        b.engine.steps = 5;
        b.machine.plain_step();
        b.machine.plain_step();

        a.merge(&b);
        assert_eq!(a.hosts, 2);
        assert_eq!(a.engine.steps, 15);
        assert_eq!(a.machine.batches.count(), 3);
        assert_eq!(a.machine.batches.mean(), 1.0);
        assert_eq!(a.machine.horizon_consults, 0);
    }

    #[test]
    fn snapshot_json_is_stable_and_carries_only_engine_counters() {
        let mut s = PerfSnapshot {
            hosts: 1,
            ..Default::default()
        };
        s.machine.plain_step();
        let json = s.to_json().to_string();
        assert_eq!(json, s.to_json().to_string());
        assert!(json.starts_with("{\"hosts\":1,\"engine\":{\"steps\":0"), "{json}");
        assert!(!json.contains("batches"), "{json}");
        assert!(!json.contains("horizon"), "{json}");
    }
}
