//! Trace analysis: turn a finished machine's trace and telemetry into the
//! text report the `trace` binary prints.
//!
//! The report answers the questions the paper's evaluation keeps asking of
//! a schedule: how much stealing stayed NUMA-local (Alg. 2's preference),
//! how much partition-move churn each sampling pass caused (Fig. 8's
//! left-arm cost), and how each period's workers classified against the
//! RPTI bounds (the Table 2 view of Eq. 3). All numbers come from the
//! telemetry registry, so the report is deterministic.

use crate::report::Table;
use xen_sim::Machine;

/// Render the post-run analysis. Requires telemetry to have been enabled
/// for the run; sections whose metrics never fired say so instead of
/// vanishing, so reports are comparable across scenarios.
pub fn analysis_report(m: &Machine) -> String {
    let reg = m.telemetry();
    let met = m.metrics();
    let mut out = String::new();
    let total = |name: &str| reg.counter_total_by_name(name).unwrap_or(0);

    out.push_str(&format!(
        "policy: {}   simulated: {:.1}s   trace: {} events kept, {} dropped\n",
        m.policy_name(),
        met.elapsed.as_secs_f64(),
        m.trace().len(),
        m.trace().dropped(),
    ));

    // Steal locality: Alg. 2 prefers same-node victims; the local/remote
    // split is the one-line verdict on how well that worked out.
    let local = total("steals_local");
    let remote = total("steals_remote");
    let steals = local + remote;
    if steals == 0 {
        out.push_str("steals: none\n");
    } else {
        out.push_str(&format!(
            "steals: {} total, {} local / {} remote ({:.1}% local)\n",
            steals,
            local,
            remote,
            local as f64 / steals as f64 * 100.0,
        ));
    }

    // Partition-move churn: how hard the sampling pass shuffled VCPUs.
    let moves = total("partition_moves");
    if let Some(series) = reg.counter_series("partition_moves") {
        let per_period: Vec<f64> = series.values().collect();
        let peak = per_period.iter().cloned().fold(0.0_f64, f64::max);
        let periods = per_period.len().max(1);
        out.push_str(&format!(
            "partition moves: {} over {} periods ({:.2}/period mean, {:.0} peak)\n",
            moves,
            per_period.len(),
            moves as f64 / periods as f64,
            peak,
        ));
    }

    let faults = total("faults_injected");
    if faults > 0 {
        out.push_str(&format!(
            "faults: {} injected   degrade: {} enter / {} recover\n",
            faults,
            total("degrade_enter"),
            total("degrade_recover"),
        ));
    }

    out.push('\n');
    out.push_str(&classification_table(m).to_text());
    out
}

/// Per-period worker classification against the RPTI bounds — the Table 2
/// view of each sampling period, from the `rpti_*` counter series.
fn classification_table(m: &Machine) -> Table {
    let reg = m.telemetry();
    let mut t = Table::new(
        "per-period RPTI classification (workers)",
        &["period", "t_s", "friendly", "fitting", "thrashing"],
    );
    let (Some(friendly), Some(fitting), Some(thrashing)) = (
        reg.counter_series("rpti_friendly"),
        reg.counter_series("rpti_fitting"),
        reg.counter_series("rpti_thrashing"),
    ) else {
        return t;
    };
    for (i, &(time, fr)) in friendly.points().iter().enumerate() {
        let fi = fitting.points().get(i).map_or(0.0, |p| p.1);
        let th = thrashing.points().get(i).map_or(0.0, |p| p.1);
        t.push_row(vec![
            format!("{}", i + 1),
            format!("{:.1}", time.as_secs_f64()),
            format!("{fr:.0}"),
            format!("{fi:.0}"),
            format!("{th:.0}"),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use sim_core::SimDuration;
    use xen_sim::Event;

    fn quick_scenario(scheduler: &str, fault_rate: f64) -> Machine {
        quick_scenario_secs(scheduler, fault_rate, 3)
    }

    fn quick_scenario_secs(scheduler: &str, fault_rate: f64, duration_s: u64) -> Machine {
        let json = format!(
            r#"{{
              "topology": "xeon_e5620",
              "scheduler": "{scheduler}",
              "duration_s": {duration_s},
              "seed": 7,
              "fault_rate": {fault_rate},
              "fault_seed": 11,
              "vms": [
                {{ "name": "a", "vcpus": 8, "mem_gb": 2, "workloads": ["soplex","soplex","soplex","soplex","soplex","soplex"] }},
                {{ "name": "b", "vcpus": 4, "mem_gb": 2, "workloads": ["mcf","mcf","mcf","mcf"] }}
              ]
            }}"#
        );
        let scenario = Scenario::from_json(&json).unwrap();
        let mut m = scenario.build().unwrap();
        m.enable_trace(1_000_000);
        m.enable_telemetry();
        m.run(SimDuration::from_secs(scenario.duration_s));
        m
    }

    #[test]
    fn report_covers_steals_and_classification() {
        let m = quick_scenario("vprobe", 0.0);
        let report = analysis_report(&m);
        assert!(report.contains("policy: vprobe"), "{report}");
        assert!(report.contains("steals:"), "{report}");
        assert!(report.contains("partition moves:"), "{report}");
        assert!(
            report.contains("per-period RPTI classification"),
            "{report}"
        );
        // 3 simulated seconds at the default 1 s period ⇒ 3 table rows.
        assert!(report.matches('\n').count() > 6, "{report}");
        // Deterministic: same scenario, same report.
        let again = analysis_report(&quick_scenario("vprobe", 0.0));
        assert_eq!(report, again);
    }

    /// The audit contract of a traced, fault-injected run: the trace
    /// holds one event per injected fault, and each fault kind and event
    /// counter agrees with the trace and with `RunMetrics`. Returns the
    /// traced count of each fault kind and counter.
    fn assert_auditable(m: &Machine) -> Vec<(&'static str, u64)> {
        let (met, trace) = (m.metrics(), m.trace());
        let counter = |name: &str| m.telemetry().counter_total_by_name(name).unwrap();
        assert_eq!(trace.dropped(), 0, "capacity must hold the full run");
        let injected = met.faults.injected();
        assert!(injected > 0, "the fault rate must inject");
        assert_eq!(counter("faults_injected"), injected);
        let faults = trace.count(|e| matches!(e, Event::Fault(_)));
        assert_eq!(faults as u64, injected);
        let mut traced = Vec::new();
        // Each fault kind's traced count is its FaultMetrics field.
        let f = &met.faults;
        for (kind, field) in [
            ("sample_lost", f.samples_lost),
            ("counter_noise", f.counters_noised),
            ("affinity_corrupted", f.affinity_corruptions),
            ("migration_failed", f.migrations_failed),
            ("migration_delayed", f.migrations_delayed),
            ("steal_failed", f.steals_failed),
            ("pcpu_stall", f.pcpu_stalls),
            ("node_throttled", f.node_throttled_periods),
        ] {
            let n = trace.count(|e| matches!(e, Event::Fault(fe) if fe.kind() == kind)) as u64;
            assert_eq!(n, field, "{kind}");
            traced.push((kind, n));
        }
        // Each event counter agrees with the trace, and with RunMetrics.
        let kind_of = |e: &Event| match e {
            Event::Steal { cross_node, .. } if *cross_node => "steals_remote",
            Event::PartitionMove { .. } => "partition_moves",
            Event::IdlerWake { .. } => "idler_wakes",
            Event::CreditBoost { .. } => "credit_boosts",
            _ => "",
        };
        for name in [
            "steals_remote",
            "partition_moves",
            "idler_wakes",
            "credit_boosts",
        ] {
            let n = trace.count(|e| kind_of(e) == name) as u64;
            assert_eq!(counter(name), n, "{name}");
            traced.push((name, n));
        }
        let steals = counter("steals_local") + counter("steals_remote");
        assert_eq!(steals, met.steals);
        assert_eq!(counter("partition_moves"), met.partition_moves);
        // Every steal contributes one latency observation.
        let latency = m.telemetry().histogram_by_name("steal_latency").unwrap();
        assert_eq!(latency.count(), met.steals);
        let report = analysis_report(m);
        assert!(report.contains("faults:"), "{report}");
        traced
    }

    #[test]
    fn faulty_vprobe_gd_run_is_auditable() {
        let m = quick_scenario("vprobe-gd", 0.2);
        // The run reaches every fault kind and every event counter.
        for (name, n) in assert_auditable(&m) {
            assert!(n > 0, "{name}");
        }
    }

    /// The same contract under Credit, which neither samples nor
    /// partitions.
    #[test]
    fn faulty_credit_run_is_auditable() {
        let m = quick_scenario("credit", 0.2);
        assert_auditable(&m);
        assert!(m.metrics().steals > 0, "the run must steal");
    }

    /// A heavy sample-loss run must push vprobe-gd through its Credit
    /// fallback, and every transition must land in both the trace and
    /// the degrade counters.
    #[test]
    fn degrade_transitions_reach_trace_and_counters() {
        let m = quick_scenario_secs("vprobe-gd", 0.7, 6);
        let enter = m
            .telemetry()
            .counter_total_by_name("degrade_enter")
            .unwrap();
        let recover = m
            .telemetry()
            .counter_total_by_name("degrade_recover")
            .unwrap();
        assert!(enter >= 1, "70% fault rate must force fallback");
        assert_eq!(enter, m.metrics().faults.fallbacks_triggered);
        let traced_enter = m
            .trace()
            .count(|e| matches!(e, xen_sim::Event::Degrade { fallback: true }));
        let traced_recover = m
            .trace()
            .count(|e| matches!(e, xen_sim::Event::Degrade { fallback: false }));
        assert_eq!(traced_enter as u64, enter);
        assert_eq!(traced_recover as u64, recover);
        let report = analysis_report(&m);
        assert!(report.contains("degrade:"), "{report}");
    }
}
