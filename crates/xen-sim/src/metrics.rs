//! Run measurement.

use numa_topo::VmId;
use sim_core::{Json, SimDuration, SimTime, TimeSeries};

/// Aggregates for one VM over a run.
#[derive(Debug, Clone, Default)]
pub struct VmMetrics {
    pub instructions: u64,
    pub llc_refs: u64,
    pub llc_misses: u64,
    pub local_accesses: u64,
    pub remote_accesses: u64,
    /// Microseconds of PCPU time its VCPUs consumed.
    pub busy_us: u64,
}

impl VmMetrics {
    /// Total memory accesses (the paper's Fig. 4/5/6/7 (b) metric).
    pub fn total_accesses(&self) -> u64 {
        self.local_accesses + self.remote_accesses
    }

    /// Remote-access ratio (the Fig. 1 metric); 0 when idle.
    pub fn remote_ratio(&self) -> f64 {
        let t = self.total_accesses();
        if t == 0 {
            0.0
        } else {
            self.remote_accesses as f64 / t as f64
        }
    }

    /// Achieved instruction rate per second of *wall* time `elapsed`.
    pub fn instr_per_second(&self, elapsed: SimDuration) -> f64 {
        let s = elapsed.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.instructions as f64 / s
        }
    }

    fn to_value(&self) -> Json {
        Json::Obj(vec![
            ("instructions".into(), Json::from(self.instructions)),
            ("llc_refs".into(), Json::from(self.llc_refs)),
            ("llc_misses".into(), Json::from(self.llc_misses)),
            ("local_accesses".into(), Json::from(self.local_accesses)),
            ("remote_accesses".into(), Json::from(self.remote_accesses)),
            ("busy_us".into(), Json::from(self.busy_us)),
        ])
    }

    fn from_value(v: &Json) -> Result<VmMetrics, String> {
        let u = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing/invalid vm metric '{key}'"))
        };
        Ok(VmMetrics {
            instructions: u("instructions")?,
            llc_refs: u("llc_refs")?,
            llc_misses: u("llc_misses")?,
            local_accesses: u("local_accesses")?,
            remote_accesses: u("remote_accesses")?,
            busy_us: u("busy_us")?,
        })
    }
}

/// Fault-injection and graceful-degradation counters for one run. All
/// zero (the `Default`) when fault injection is disabled, in which case
/// the block is omitted from the JSON serialization so fault-free output
/// stays byte-identical to pre-fault-model builds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultMetrics {
    /// PMU samples zeroed by injected sample loss.
    pub samples_lost: u64,
    /// Samples perturbed by counter-multiplexing noise.
    pub counters_noised: u64,
    /// Samples whose node-affinity histogram was corrupted.
    pub affinity_corruptions: u64,
    /// Partitioning migrations that failed outright.
    pub migrations_failed: u64,
    /// Partitioning migrations applied late.
    pub migrations_delayed: u64,
    /// Steal operations that failed after the policy chose a victim.
    pub steals_failed: u64,
    /// Transient PCPU stalls injected.
    pub pcpu_stalls: u64,
    /// Total quanta lost to PCPU stalls.
    pub stalled_quanta: u64,
    /// Node-period combinations that ran throttled.
    pub node_throttled_periods: u64,
    /// Periods the policy skipped for low sample validity.
    pub periods_skipped: u64,
    /// Periods spent in plain-Credit fallback mode.
    pub fallback_periods: u64,
    /// Transitions into fallback mode.
    pub fallbacks_triggered: u64,
    /// Failed migrations re-requested after backoff.
    pub migration_retries: u64,
}

impl FaultMetrics {
    /// Total faults injected into the run (degradation reactions not
    /// included).
    pub fn injected(&self) -> u64 {
        self.samples_lost
            + self.counters_noised
            + self.affinity_corruptions
            + self.migrations_failed
            + self.migrations_delayed
            + self.steals_failed
            + self.pcpu_stalls
            + self.node_throttled_periods
    }

    fn to_value(self) -> Json {
        Json::Obj(vec![
            ("samples_lost".into(), Json::from(self.samples_lost)),
            ("counters_noised".into(), Json::from(self.counters_noised)),
            (
                "affinity_corruptions".into(),
                Json::from(self.affinity_corruptions),
            ),
            (
                "migrations_failed".into(),
                Json::from(self.migrations_failed),
            ),
            (
                "migrations_delayed".into(),
                Json::from(self.migrations_delayed),
            ),
            ("steals_failed".into(), Json::from(self.steals_failed)),
            ("pcpu_stalls".into(), Json::from(self.pcpu_stalls)),
            ("stalled_quanta".into(), Json::from(self.stalled_quanta)),
            (
                "node_throttled_periods".into(),
                Json::from(self.node_throttled_periods),
            ),
            ("periods_skipped".into(), Json::from(self.periods_skipped)),
            ("fallback_periods".into(), Json::from(self.fallback_periods)),
            (
                "fallbacks_triggered".into(),
                Json::from(self.fallbacks_triggered),
            ),
            (
                "migration_retries".into(),
                Json::from(self.migration_retries),
            ),
        ])
    }

    fn from_value(v: &Json) -> Result<FaultMetrics, String> {
        let u = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing/invalid fault metric '{key}'"))
        };
        Ok(FaultMetrics {
            samples_lost: u("samples_lost")?,
            counters_noised: u("counters_noised")?,
            affinity_corruptions: u("affinity_corruptions")?,
            migrations_failed: u("migrations_failed")?,
            migrations_delayed: u("migrations_delayed")?,
            steals_failed: u("steals_failed")?,
            pcpu_stalls: u("pcpu_stalls")?,
            stalled_quanta: u("stalled_quanta")?,
            node_throttled_periods: u("node_throttled_periods")?,
            periods_skipped: u("periods_skipped")?,
            fallback_periods: u("fallback_periods")?,
            fallbacks_triggered: u("fallbacks_triggered")?,
            migration_retries: u("migration_retries")?,
        })
    }
}

/// Whole-run measurement.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    pub elapsed: SimDuration,
    pub per_vm: Vec<VmMetrics>,
    /// Total VCPU migrations between PCPUs.
    pub migrations: u64,
    /// Migrations that crossed NUMA nodes.
    pub cross_node_migrations: u64,
    /// Steal operations performed.
    pub steals: u64,
    /// Steal attempts (balance invocations).
    pub steal_attempts: u64,
    /// Attempts that found no candidates at all.
    pub steal_attempts_empty: u64,
    /// Steals broken down by the stolen VCPU's VM.
    pub steals_per_vm: Vec<u64>,
    /// Steals performed with an empty thief queue (true idleness) vs an
    /// OVER-only queue (upgrade steals).
    pub idle_steals: u64,
    /// Partitioning-pass reassignments applied.
    pub partition_moves: u64,
    /// Page-migration operations applied (§VI extension).
    pub page_migrations: u64,
    /// Bytes moved by page migration.
    pub page_migration_bytes: u64,
    /// Quanta during which at least one PCPU idled while work was queued
    /// elsewhere (a load-balance quality signal).
    pub idle_with_work_quanta: u64,
    /// "Overhead time" (PMU collection + partitioning) in microseconds.
    pub overhead_us: f64,
    /// Total busy PCPU time in microseconds.
    pub busy_us: f64,
    /// Per-VM remote-access ratio per sampling period.
    pub remote_ratio_series: Vec<TimeSeries>,
    /// Per-VM instruction throughput (instructions/s) per sampling period.
    pub throughput_series: Vec<TimeSeries>,
    /// Fault-injection and degradation counters; all zero without faults.
    pub faults: FaultMetrics,
    /// Telemetry-registry export (counters, gauges, histograms with their
    /// per-period series); `None` unless `Machine::enable_telemetry` was
    /// called, in which case the block is omitted from the JSON so
    /// telemetry-off runs stay byte-identical to pre-telemetry builds.
    pub telemetry: Option<Json>,
    /// Perf-introspection snapshot (the memory engine's work-avoidance
    /// counters); `None` unless
    /// `Machine::enable_perf` was called, in which case the block is
    /// omitted so perf-off runs stay byte-identical.
    pub perf: Option<Json>,
}

impl RunMetrics {
    pub fn new(num_vms: usize) -> Self {
        RunMetrics {
            per_vm: vec![VmMetrics::default(); num_vms],
            remote_ratio_series: vec![TimeSeries::new(); num_vms],
            throughput_series: vec![TimeSeries::new(); num_vms],
            steals_per_vm: vec![0; num_vms],
            ..Default::default()
        }
    }

    pub fn vm(&self, vm: VmId) -> &VmMetrics {
        &self.per_vm[vm.index()]
    }

    /// Render every per-VM time series as CSV
    /// (`time_s,vm,remote_ratio,instr_per_s` rows) for plotting.
    pub fn series_csv(&self) -> String {
        let mut out = String::from("time_s,vm,remote_ratio,instr_per_s\n");
        for (vm, (rr, tp)) in self
            .remote_ratio_series
            .iter()
            .zip(&self.throughput_series)
            .enumerate()
        {
            for (&(t, r), &(_, ips)) in rr.points().iter().zip(tp.points()) {
                out.push_str(&format!(
                    "{:.3},{},{:.4},{:.4e}\n",
                    t.as_secs_f64(),
                    vm,
                    r,
                    ips
                ));
            }
        }
        out
    }

    /// Table III's metric: overhead time as a percentage of execution time.
    pub fn overhead_percent(&self) -> f64 {
        if self.busy_us <= 0.0 {
            0.0
        } else {
            self.overhead_us / self.busy_us * 100.0
        }
    }

    /// Serialize to JSON for external tooling; [`RunMetrics::from_json`]
    /// inverts it exactly (including the per-period series).
    pub fn to_json(&self) -> String {
        let series = |s: &[TimeSeries]| {
            Json::Arr(
                s.iter()
                    .map(|ts| {
                        Json::Arr(
                            ts.points()
                                .iter()
                                .map(|&(t, v)| {
                                    Json::Arr(vec![Json::from(t.as_micros()), Json::Num(v)])
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            )
        };
        let mut doc = Json::Obj(vec![
            ("elapsed_us".into(), Json::from(self.elapsed.as_micros())),
            (
                "per_vm".into(),
                Json::Arr(self.per_vm.iter().map(VmMetrics::to_value).collect()),
            ),
            ("migrations".into(), Json::from(self.migrations)),
            (
                "cross_node_migrations".into(),
                Json::from(self.cross_node_migrations),
            ),
            ("steals".into(), Json::from(self.steals)),
            ("steal_attempts".into(), Json::from(self.steal_attempts)),
            (
                "steal_attempts_empty".into(),
                Json::from(self.steal_attempts_empty),
            ),
            (
                "steals_per_vm".into(),
                Json::from(self.steals_per_vm.clone()),
            ),
            ("idle_steals".into(), Json::from(self.idle_steals)),
            ("partition_moves".into(), Json::from(self.partition_moves)),
            ("page_migrations".into(), Json::from(self.page_migrations)),
            (
                "page_migration_bytes".into(),
                Json::from(self.page_migration_bytes),
            ),
            (
                "idle_with_work_quanta".into(),
                Json::from(self.idle_with_work_quanta),
            ),
            ("overhead_us".into(), Json::Num(self.overhead_us)),
            ("busy_us".into(), Json::Num(self.busy_us)),
            (
                "remote_ratio_series".into(),
                series(&self.remote_ratio_series),
            ),
            ("throughput_series".into(), series(&self.throughput_series)),
        ]);
        // Emit the fault block only when something fired, so fault-free
        // runs serialize byte-identically to builds without fault support.
        let Json::Obj(fields) = &mut doc else {
            unreachable!("doc is an object")
        };
        if self.faults != FaultMetrics::default() {
            fields.push(("faults".into(), self.faults.to_value()));
        }
        // Likewise the telemetry block exists only when the registry was
        // enabled for the run.
        if let Some(t) = &self.telemetry {
            fields.push(("telemetry".into(), t.clone()));
        }
        // And the perf block only when introspection was enabled.
        if let Some(p) = &self.perf {
            fields.push(("perf".into(), p.clone()));
        }
        doc.to_string()
    }

    /// Parse the [`RunMetrics::to_json`] format.
    pub fn from_json(text: &str) -> Result<RunMetrics, String> {
        let doc = Json::parse(text)?;
        let u = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing/invalid '{key}'"))
        };
        let f = |key: &str| -> Result<f64, String> {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing/invalid '{key}'"))
        };
        let series = |key: &str| -> Result<Vec<TimeSeries>, String> {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("missing/invalid '{key}'"))?
                .iter()
                .map(|ts| {
                    let mut out = TimeSeries::new();
                    for pt in ts.as_array().ok_or("series must be an array")? {
                        let pair = pt.as_array().ok_or("series point must be a pair")?;
                        let (t, v) = match pair {
                            [t, v] => (
                                t.as_u64().ok_or("bad series time")?,
                                v.as_f64().ok_or("bad series value")?,
                            ),
                            _ => return Err("series point must be a pair".into()),
                        };
                        out.push(SimTime::from_micros(t), v);
                    }
                    Ok(out)
                })
                .collect()
        };
        let per_vm = doc
            .get("per_vm")
            .and_then(Json::as_array)
            .ok_or("missing/invalid 'per_vm'")?
            .iter()
            .map(VmMetrics::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        let steals_per_vm = doc
            .get("steals_per_vm")
            .and_then(Json::as_array)
            .ok_or("missing/invalid 'steals_per_vm'")?
            .iter()
            .map(|v| v.as_u64().ok_or_else(|| "bad steal count".to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RunMetrics {
            elapsed: SimDuration::from_micros(u("elapsed_us")?),
            per_vm,
            migrations: u("migrations")?,
            cross_node_migrations: u("cross_node_migrations")?,
            steals: u("steals")?,
            steal_attempts: u("steal_attempts")?,
            steal_attempts_empty: u("steal_attempts_empty")?,
            steals_per_vm,
            idle_steals: u("idle_steals")?,
            partition_moves: u("partition_moves")?,
            page_migrations: u("page_migrations")?,
            page_migration_bytes: u("page_migration_bytes")?,
            idle_with_work_quanta: u("idle_with_work_quanta")?,
            overhead_us: f("overhead_us")?,
            busy_us: f("busy_us")?,
            remote_ratio_series: series("remote_ratio_series")?,
            throughput_series: series("throughput_series")?,
            faults: match doc.get("faults") {
                Some(v) => FaultMetrics::from_value(v)?,
                None => FaultMetrics::default(),
            },
            telemetry: doc.get("telemetry").cloned(),
            perf: doc.get("perf").cloned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_metric_derivations() {
        let m = VmMetrics {
            instructions: 1_000,
            llc_refs: 100,
            llc_misses: 50,
            local_accesses: 10,
            remote_accesses: 40,
            busy_us: 1_000,
        };
        assert_eq!(m.total_accesses(), 50);
        assert!((m.remote_ratio() - 0.8).abs() < 1e-12);
        assert!((m.instr_per_second(SimDuration::from_secs(2)) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn empty_vm_is_zero() {
        let m = VmMetrics::default();
        assert_eq!(m.remote_ratio(), 0.0);
        assert_eq!(m.instr_per_second(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn fault_block_omitted_when_clean() {
        let r = RunMetrics::new(1);
        let json = r.to_json();
        assert!(!json.contains("faults"));
        let back = RunMetrics::from_json(&json).unwrap();
        assert_eq!(back.faults, FaultMetrics::default());
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn fault_block_round_trips_when_present() {
        let mut r = RunMetrics::new(1);
        r.faults.samples_lost = 3;
        r.faults.migrations_failed = 2;
        r.faults.fallbacks_triggered = 1;
        r.faults.migration_retries = 4;
        let json = r.to_json();
        assert!(json.contains("\"faults\""));
        let back = RunMetrics::from_json(&json).unwrap();
        assert_eq!(back.faults, r.faults);
        assert_eq!(back.to_json(), json);
        assert_eq!(r.faults.injected(), 5);
    }

    #[test]
    fn telemetry_block_omitted_when_none_and_round_trips_when_some() {
        let clean = RunMetrics::new(1);
        assert!(!clean.to_json().contains("telemetry"));

        let mut r = RunMetrics::new(1);
        r.telemetry = Some(Json::Obj(vec![(
            "counters".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("name".into(), Json::from("steals_local")),
                ("total".into(), Json::from(7u64)),
            ])]),
        )]));
        let json = r.to_json();
        assert!(json.contains("\"telemetry\""));
        let back = RunMetrics::from_json(&json).unwrap();
        assert_eq!(back.telemetry, r.telemetry);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn overhead_percent() {
        let mut r = RunMetrics::new(1);
        r.overhead_us = 10.0;
        r.busy_us = 100_000.0;
        assert!((r.overhead_percent() - 0.01).abs() < 1e-9);
        assert_eq!(RunMetrics::new(0).overhead_percent(), 0.0);
    }
}
