//! Metric computation and the printed report.

use crate::workload::{simulating_s, Segment, Workload};
use crate::Measurement;
use std::fmt::Write as _;

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Linear-interpolated quantile, as `statistics.quantiles(method="inclusive")`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Simulated machine-seconds per host second of a cycle made of `segs`.
fn sim_rate(segs: &[Segment]) -> f64 {
    let sim: f64 = segs.iter().map(|s| s.sim_s).sum();
    ratio(sim, segs.iter().map(|s| s.host_s).sum())
}

/// Host ms per simulated machine-second of each simulating segment: one
/// sampling period for a `Machine::run` call, one host-epoch on average
/// for a fleet run.
fn period_ms(segs: &[Segment]) -> Vec<f64> {
    segs.iter()
        .filter(|s| s.sim_s > 0.0)
        .map(|s| s.host_s * 1e3 / s.sim_s)
        .collect()
}

/// The end-to-end metrics, all from untraced cycles, each segment timed
/// by its fastest repeat.
pub fn end_to_end(m: &Measurement) -> Vec<Metric> {
    vec![
        metric("setup_s", quantile(&m.setup_s, 0.5), "s"),
        metric("sim_s_per_s", sim_rate(&m.untraced_best), "sim_s/s"),
        metric(
            "period_ms_p50",
            quantile(&period_ms(&m.untraced_best), 0.5),
            "ms",
        ),
        metric("peak_rss_mb", crate::peak_rss_mb().unwrap_or(0.0), "MB"),
    ]
}

/// Span names whose self time the traced run reports.
pub const SPAN_NAMES: [&str; 12] = [
    "cycle",
    "run",
    "setup",
    "warmup",
    "measure",
    "period",
    "on_sample",
    "steal",
    "metrics_json",
    "export",
    "sinks_off",
    "fleet",
];

/// The per-layer metrics, from traced cycles. A layer the workload does
/// not exercise reports 0. The `fleet` layer is reported on `fleet-churn`
/// only, the one workload that runs it, which `BENCHMARK.json` does not
/// list (see `README.md`).
pub fn per_layer(m: &Measurement) -> Vec<Metric> {
    let t = &m.traced;
    let e = &t.perf.engine;
    let totals = m.tracer.totals();
    let span = |name: &str| totals.get(name).copied().unwrap_or_default();
    let period = span("period");
    let solving = e.steps.saturating_sub(e.whole_step_skips) as f64;
    let sim_s: f64 = t.segments.iter().map(|s| s.sim_s).sum();
    let traced_rate = sim_rate(&m.traced_best);
    let untraced_rate = sim_rate(&m.untraced_best);
    // Sinks-on `Machine::run` time (untraced cycles hold only that run)
    // against the sinks-off twin's (traced cycles), fastest of each.
    let sinks_on = m
        .untraced
        .segments
        .chunks(m.untraced_best.len().max(1))
        .map(simulating_s)
        .fold(f64::INFINITY, f64::min);
    let sinks_off = t.sinks_off_s.iter().copied().fold(f64::INFINITY, f64::min);
    let mut out = vec![
        metric(
            "xen-sim.self_ms_per_sim_s",
            ratio(period.self_time.as_secs_f64() * 1e3, period.count as f64),
            "ms/sim_s",
        ),
        metric(
            "xen-sim.macro_batch_mean",
            t.perf.machine.batches.mean(),
            "quanta",
        ),
        metric(
            "xen-sim.horizon_consults",
            t.perf.machine.horizon_consults as f64,
            "count",
        ),
        metric(
            "mem-model.solves_per_sim_s",
            ratio(solving, sim_s),
            "1/sim_s",
        ),
        metric(
            "mem-model.fp_rounds_per_solve",
            ratio(e.fp_rounds as f64, solving),
            "count",
        ),
        metric(
            "mem-model.skip_ratio",
            ratio(e.whole_step_skips as f64, e.steps as f64),
            "ratio",
        ),
        metric(
            "mem-model.clean_skip_ratio",
            ratio(
                e.node_clean_skips as f64,
                (e.node_clean_skips + e.node_solves) as f64,
            ),
            "ratio",
        ),
        metric("mem-model.memo_hit_ratio", e.memo_hit_rate(), "ratio"),
        metric("mem-model.replay_fires", e.replay_fires as f64, "count"),
        metric("vprobe.steal_calls", t.steal_calls as f64, "count"),
        metric("vprobe.steal_us", t.steal_ns as f64 / 1e3, "us"),
        metric(
            "vprobe.steal_hit_ratio",
            ratio(t.steal_hits as f64, t.steal_calls as f64),
            "ratio",
        ),
        metric("vprobe.on_sample_calls", t.on_sample_calls as f64, "count"),
        metric("vprobe.on_sample_us", t.on_sample_ns as f64 / 1e3, "us"),
        metric("obs.export_s", t.export_s, "s"),
        metric("obs.export_bytes", t.export_bytes as f64, "bytes"),
        metric("obs.trace_events", t.trace_events as f64, "count"),
        metric(
            "obs.provenance_records",
            t.provenance_records as f64,
            "count",
        ),
        metric(
            "obs.sink_overhead_ratio",
            if sinks_off.is_finite() {
                ratio(sinks_on, sinks_off)
            } else {
                0.0
            },
            "ratio",
        ),
        metric("experiments.runs", t.run_s.len() as f64, "count"),
        metric("experiments.run_s_p50", quantile(&t.run_s, 0.5), "s"),
        metric("trace.sim_s_per_s", traced_rate, "sim_s/s"),
        metric(
            "trace.overhead_ratio",
            ratio(untraced_rate, traced_rate),
            "ratio",
        ),
    ];
    let fleet = m.workload == Workload::FleetChurn;
    if fleet {
        out.extend([
            metric("fleet.run_s", t.fleet_run_s, "s"),
            metric("fleet.machine_builds", t.machine_builds as f64, "count"),
            metric("fleet.host_epochs", t.host_epochs as f64, "count"),
        ]);
    }
    for name in SPAN_NAMES.into_iter().filter(|&n| fleet || n != "fleet") {
        out.push(metric(
            format!("span.{name}.self_s"),
            span(name).self_time.as_secs_f64(),
            "s",
        ));
    }
    out
}

/// The human-readable report printed before the JSON line.
pub fn human(m: &Measurement, trace: bool) -> String {
    let mut s = String::new();
    let u = &m.untraced;
    let raw_sim: f64 = u.segments.iter().map(|s| s.sim_s).sum();
    let raw_host: f64 = u.segments.iter().map(|s| s.host_s).sum();
    let attempted = m.attempted;
    let failed = m.failures.len();
    let _ = writeln!(
        s,
        "simbench {} seed {}: {} untraced + {} traced cycles, {attempted} operations",
        m.workload.name(),
        m.seed,
        m.untraced_cycles,
        m.traced_cycles,
    );
    let _ = writeln!(
        s,
        "host time = time this process took; simulated = time inside the model"
    );
    let _ = writeln!(
        s,
        "{:<28} {:>14}  {:<8} note",
        "end-to-end metric", "value", "unit"
    );
    for x in end_to_end(m) {
        let note = match x.name.as_str() {
            "setup_s" => format!("host, median of {} set-ups", m.setup_s.len()),
            "sim_s_per_s" => format!(
                "simulated machine-s per host-s of a cycle's fastest repeats \
                 (all repeats: {:.1} sim-s in {:.2} host-s)",
                raw_sim, raw_host
            ),
            "period_ms_p50" => format!(
                "host, n = {} periods, fastest of {} repeats each",
                period_ms(&m.untraced_best).len(),
                m.untraced_cycles
            ),
            _ => "host, peak resident set".into(),
        };
        let _ = writeln!(s, "{:<28} {:>14.6}  {:<8} {note}", x.name, x.value, x.unit);
    }
    // Report only: on a shared host its run-to-run spread exceeds any
    // bound a regression gate could use.
    let _ = writeln!(
        s,
        "{:<28} {:>14.6}  {:<8} host, same periods (not in the JSON)",
        "period_ms_p90",
        quantile(&period_ms(&m.untraced_best), 0.9),
        "ms"
    );
    let _ = writeln!(
        s,
        "{:<28} {:>14.6}  {:<8} {failed} of {attempted} operations failed",
        "fail_ratio",
        ratio(failed as f64, attempted as f64),
        "ratio"
    );
    if !u.gains.is_empty() {
        // Every cycle repeats the same mixes; report the first cycle's.
        let n = u.gains[1..]
            .iter()
            .position(|g| g.0 == u.gains[0].0)
            .map_or(u.gains.len(), |p| p + 1);
        let first = &u.gains[..n];
        let mean = first.iter().map(|g| g.1).sum::<f64>() / n as f64;
        let _ = writeln!(
            s,
            "vprobe_gain_pct (simulated VM1 instruction rate, vProbe over Credit; model not validated against hardware):"
        );
        for (mix, g) in first {
            let paper = if mix == "soplex" {
                "  paper 32.5 %"
            } else {
                ""
            };
            let _ = writeln!(s, "  {mix:<12} {g:>8.3} %{paper}");
        }
        let _ = writeln!(s, "  {:<12} {mean:>8.3} %", "mean");
    }
    // Every cycle repeats the same work, so a failure usually repeats too.
    let mut distinct: Vec<(&str, usize)> = Vec::new();
    for f in &m.failures {
        match distinct.iter_mut().find(|(g, _)| g == f) {
            Some((_, n)) => *n += 1,
            None => distinct.push((f, 1)),
        }
    }
    for (f, n) in distinct {
        let _ = writeln!(s, "FAILED {n}x {f}");
    }
    let _ = writeln!(
        s,
        "fingerprint {} ({})",
        m.fingerprint(),
        if m.pinned {
            "checked against fingerprints.txt"
        } else {
            "seed not pinned: seed-independent checks only"
        }
    );
    for op in &m.first_ops {
        let d = op.digest.as_deref().unwrap_or("-");
        let _ = writeln!(
            s,
            "fp {}",
            crate::pins::pin_line(m.seed, m.workload.name(), &op.key, d)
        );
    }
    if trace {
        let totals = m.tracer.totals();
        let all = totals.get("cycle").map_or(0.0, |t| t.total.as_secs_f64());
        let _ = writeln!(s, "traced spans (host time)");
        let _ = writeln!(
            s,
            "{:<14} {:>9} {:>11} {:>11} {:>7}",
            "span", "count", "total_s", "self_s", "self%"
        );
        for name in SPAN_NAMES {
            if let Some(t) = totals.get(name) {
                let _ = writeln!(
                    s,
                    "{name:<14} {:>9} {:>11.4} {:>11.4} {:>6.2}%",
                    t.count,
                    t.total.as_secs_f64(),
                    t.self_time.as_secs_f64(),
                    ratio(t.self_time.as_secs_f64() * 100.0, all)
                );
            }
        }
        let _ = writeln!(s, "{:<36} {:>14}  unit", "per-layer metric", "value");
        for x in per_layer(m) {
            let _ = writeln!(s, "{:<36} {:>14.6}  {}", x.name, x.value, x.unit);
        }
    }
    s
}

/// The last line of standard output.
pub fn json_line(m: &Measurement, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.failures.is_empty(),
        m.attempted,
        m.failures.len(),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
