//! The benchmark's own tests. Each `measure` call with `seconds = 0` runs
//! exactly one cycle (two in trace mode: one untraced, one traced).

use experiments::fig4_spec;
use experiments::runner::{self, RunOptions, Scheduler, SetupKind};
use numa_topo::{presets, NodeId, PcpuId, VcpuId};
use sim_core::FaultConfig;
use simbench::pins::{self, Pins};
use simbench::probe::{self, Probed};
use simbench::workload::{fingerprint_json, simulating_s, Workload, FAULT_RATE};
use simbench::{measure, measure_with, DEFAULT_SEED, HELD_OUT_SEED};
use std::sync::{Arc, Mutex};
use xen_sim::policy::{AnalyzerView, PartitionPlan, PeriodFeedback, StealContext};
use xen_sim::SchedPolicy;

#[test]
fn every_workload_passes_and_tracing_changes_no_output() {
    for w in Workload::ALL {
        let plain = measure(w, DEFAULT_SEED, 0.0, false).unwrap();
        assert!(plain.pinned, "{} has no pinned fingerprints", w.name());
        assert!(
            plain.failures.is_empty(),
            "{}: {:?}",
            w.name(),
            plain.failures
        );
        assert_eq!(plain.untraced_cycles, 1);

        // The traced cycle is checked against the untraced one inside
        // `measure`; a second in-process run must also repeat the first.
        let traced = measure(w, DEFAULT_SEED, 0.0, true).unwrap();
        assert_eq!(traced.traced_cycles, 1);
        assert!(
            traced.failures.is_empty(),
            "{}: {:?}",
            w.name(),
            traced.failures
        );
        assert_eq!(plain.fingerprint(), traced.fingerprint(), "{}", w.name());
        assert!(simulating_s(&traced.traced.segments) > 0.0);
    }
}

#[test]
fn held_out_seed_matches_its_pins() {
    for w in Workload::ALL {
        let m = measure(w, HELD_OUT_SEED, 0.0, false).unwrap();
        assert!(m.pinned, "{} has no held-out pins", w.name());
        assert!(m.failures.is_empty(), "{}: {:?}", w.name(), m.failures);
    }
}

#[test]
fn unpinned_seed_runs_seed_independent_checks_only() {
    let m = measure(Workload::QuietPhased, 7, 0.0, false).unwrap();
    assert!(!m.pinned);
    assert!(m.failures.is_empty(), "{:?}", m.failures);
    assert!(m.first_ops.iter().all(|o| o.digest.is_some()));
}

#[test]
fn one_changed_byte_of_a_pin_fails_the_run() {
    let text = std::fs::read_to_string(pins::PIN_FILE).unwrap();
    let prefix = format!("{DEFAULT_SEED} quiet-phased ");
    let line = text.lines().find(|l| l.starts_with(&prefix)).unwrap();
    let last = line.chars().last().unwrap();
    let flipped = if last == '0' { '1' } else { '0' };
    let bad_line = format!("{}{flipped}", &line[..line.len() - 1]);
    let bad = text.replace(line, &bad_line);
    let m = measure_with(Workload::QuietPhased, DEFAULT_SEED, 0.0, false, || {
        Pins::parse(&bad)
    })
    .unwrap();
    assert_eq!(m.failures.len(), 1, "{:?}", m.failures);
    assert!(m.failures[0].contains("pinned"), "{}", m.failures[0]);
}

#[test]
fn fleet_fingerprint_is_identical_at_one_and_two_jobs() {
    sim_core::parallel::set_jobs(1);
    let one = measure(Workload::FleetChurn, DEFAULT_SEED, 0.0, false).unwrap();
    sim_core::parallel::set_jobs(2);
    let two = measure(Workload::FleetChurn, DEFAULT_SEED, 0.0, false).unwrap();
    sim_core::parallel::set_jobs(0);
    assert!(one.failures.is_empty() && two.failures.is_empty());
    assert_eq!(one.fingerprint(), two.fingerprint());
}

/// The benchmark runs one sampling period per `Machine::run` call; the
/// pinned fingerprints must equal those of the same run made in one call
/// per window, as the experiment runner makes it.
#[test]
fn period_chunking_matches_whole_window_runs() {
    let opts = RunOptions {
        seed: DEFAULT_SEED,
        faults: FaultConfig::uniform(FAULT_RATE, DEFAULT_SEED),
        ..RunOptions::default()
    };
    let (_, vm1, vm2) = fig4_spec::workload_set().swap_remove(0);
    let mut m =
        runner::build_machine(Scheduler::Credit, SetupKind::PaperEval, vm1, vm2, &opts).unwrap();
    m.enable_trace(2_000_000);
    m.enable_telemetry();
    m.enable_provenance(2_000_000);
    m.run(opts.warmup);
    m.set_policy(Scheduler::VProbeGd.policy(2, DEFAULT_SEED));
    m.reset_metrics();
    m.run(opts.duration);

    let table = Pins::load().unwrap();
    let pin = |op: &str| {
        table
            .get(DEFAULT_SEED, "observed-faults", op)
            .unwrap()
            .to_string()
    };
    assert_eq!(
        pins::digest(&fingerprint_json(m.metrics())),
        pin("soplex/vProbe-GD")
    );
    assert_eq!(
        pins::digest(&m.trace_jsonl()),
        pin("soplex/vProbe-GD/trace.jsonl")
    );
    assert_eq!(
        pins::digest(&m.provenance_jsonl()),
        pin("soplex/vProbe-GD/decisions.jsonl")
    );
}

/// A policy whose every hook is observable, to prove [`Probed`] forwards
/// each one instead of falling back to the trait defaults.
#[derive(Default)]
struct Stub {
    log: Arc<Mutex<Vec<&'static str>>>,
}

impl SchedPolicy for Stub {
    fn name(&self) -> &str {
        "stub"
    }
    fn on_sample(&mut self, _: AnalyzerView<'_>) -> PartitionPlan {
        self.log.lock().unwrap().push("on_sample");
        PartitionPlan::none()
    }
    fn steal(&mut self, ctx: StealContext<'_>) -> Option<(PcpuId, VcpuId)> {
        Some((ctx.idle_pcpu, VcpuId::new(3)))
    }
    fn on_period_feedback(&mut self, _: &PeriodFeedback<'_>) {
        self.log.lock().unwrap().push("feedback");
    }
    fn uses_pmu(&self) -> bool {
        false
    }
    fn decision_overhead_us(&self, n: usize) -> f64 {
        n as f64 * 7.0
    }
    fn tick_overhead_us(&self, n: usize) -> f64 {
        n as f64 * 3.0
    }
    fn set_explain(&mut self, on: bool) {
        self.log
            .lock()
            .unwrap()
            .push(if on { "explain-on" } else { "explain-off" });
    }
    fn explain_steal(&self, _: &StealContext<'_>, _: &Option<(PcpuId, VcpuId)>) -> &'static str {
        "stub-rule"
    }
}

#[test]
fn probe_forwards_every_policy_hook() {
    let stub = Stub::default();
    let log = stub.log.clone();
    let shared = probe::SharedProbe::default();
    let mut p = Probed::wrap(Box::new(stub), shared.clone());
    let topo = presets::xeon_e5620();
    let ctx = || StealContext {
        topo: &topo,
        idle_pcpu: PcpuId::new(1),
        victims: &[],
        pressure: &[],
        would_idle: true,
    };

    assert_eq!(p.name(), "stub");
    assert!(!p.uses_pmu());
    assert_eq!(p.decision_overhead_us(2), 14.0);
    assert_eq!(p.tick_overhead_us(2), 6.0);
    let choice = p.steal(ctx());
    assert_eq!(choice, Some((PcpuId::new(1), VcpuId::new(3))));
    assert_eq!(p.explain_steal(&ctx(), &choice), "stub-rule");
    p.set_explain(true);
    let failed: [(VcpuId, NodeId); 0] = [];
    p.on_period_feedback(&PeriodFeedback {
        sample_validity: &[],
        failed_migrations: &failed,
    });
    p.on_sample(AnalyzerView {
        topo: &topo,
        samples: &[],
        vcpus: &[],
    });
    assert_eq!(
        *log.lock().unwrap(),
        ["explain-on", "feedback", "on_sample"]
    );

    let seen = probe::drain(&shared);
    assert_eq!((seen.steal_calls, seen.steal_hits), (1, 1));
    assert_eq!(seen.on_sample.len(), 1);
    assert_eq!(probe::drain(&shared).steal_calls, 0);
}
