//! Trace-export and telemetry contracts at the `Machine` level.
//!
//! Two pins: (1) trace files and telemetry are deterministic — same seed,
//! byte-identical output; (2) trace timestamps never go backwards, even on
//! a stationary run where the engine skips every solve. That fault-injected
//! runs are auditable (every injected fault traced, every event counter
//! equal to the trace and to `RunMetrics`) is checked on Credit and
//! vProbe-GD runs by `experiments::tracetool`'s tests.

use mem_model::AllocPolicy;
use numa_topo::presets;
use sim_core::{FaultConfig, Json, SimDuration};
use workloads::hungry;
use xen_sim::{CreditPolicy, Machine, MachineBuilder, MachineConfig, VmConfig};

const GB: u64 = 1024 * 1024 * 1024;
const TRACE_CAP: usize = 1_000_000;

fn build(seed: u64, faults: FaultConfig, noise_sd: f64) -> Machine {
    let cfg = MachineConfig {
        seed,
        faults,
        intensity_noise_sd: noise_sd,
        ..MachineConfig::default()
    };
    let mut m = MachineBuilder::new(presets::xeon_e5620())
        .config(cfg)
        .policy(Box::new(CreditPolicy::new()))
        .add_vm(VmConfig::new(
            "vm0",
            8,
            2 * GB,
            AllocPolicy::MostFree,
            vec![hungry::hungry_loop(); 6],
        ))
        .add_vm(VmConfig::new(
            "vm1",
            4,
            2 * GB,
            AllocPolicy::MostFree,
            vec![hungry::hungry_loop(); 4],
        ))
        .build()
        .unwrap();
    m.enable_trace(TRACE_CAP);
    m.enable_telemetry();
    m
}

/// A saturated, noise-free machine (one worker per PCPU, no idlers) — the
/// shape where the memory engine goes stationary and skips whole steps.
fn build_quiescent(seed: u64) -> Machine {
    let cfg = MachineConfig {
        seed,
        intensity_noise_sd: 0.0,
        ..MachineConfig::default()
    };
    let mut m = MachineBuilder::new(presets::xeon_e5620())
        .config(cfg)
        .policy(Box::new(CreditPolicy::new()))
        .add_vm(VmConfig::new(
            "vm0",
            8,
            2 * GB,
            AllocPolicy::MostFree,
            vec![hungry::hungry_loop(); 8],
        ))
        .build()
        .unwrap();
    m.enable_trace(TRACE_CAP);
    m.enable_telemetry();
    m
}

#[test]
fn same_seed_gives_byte_identical_trace_files() {
    let run = || {
        let mut m = build(7, FaultConfig::none(), 0.0);
        m.run(SimDuration::from_secs(2));
        (m.trace_jsonl(), m.trace_chrome(), m.metrics().to_json())
    };
    let (j1, c1, m1) = run();
    let (j2, c2, m2) = run();
    assert_eq!(j1, j2, "JSONL must be deterministic");
    assert_eq!(c1, c2, "Chrome trace must be deterministic");
    assert_eq!(m1, m2, "RunMetrics JSON must be deterministic");
}

#[test]
fn trace_times_are_non_decreasing_on_a_stationary_run() {
    let mut m = build_quiescent(42);
    m.run(SimDuration::from_secs(2));
    let times: Vec<_> = m.trace().iter().map(|(t, _)| *t).collect();
    assert!(!times.is_empty());
    assert!(
        times.windows(2).all(|w| w[0] <= w[1]),
        "trace must stay time-ordered"
    );
    assert_eq!(m.trace().dropped(), 0, "capacity must hold the full run");
    assert_eq!(m.trace().recorded(), m.trace().len() as u64);
}

#[test]
fn jsonl_lines_parse_and_chrome_is_valid_json() {
    let mut m = build(7, FaultConfig::uniform(0.05, 9), 0.0);
    m.run(SimDuration::from_secs(2));
    let jsonl = m.trace_jsonl();
    assert_eq!(jsonl.lines().count(), m.trace().len());
    for line in jsonl.lines() {
        let doc = Json::parse(line).expect("every JSONL line parses");
        assert!(doc.get("t_us").is_some());
        assert!(doc.get("kind").is_some());
    }
    let chrome = Json::parse(&m.trace_chrome()).expect("chrome trace parses");
    let events = chrome
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    // Track metadata (one per PCPU + the events track) plus real events.
    assert!(events.len() > m.topology().num_pcpus() + 1);
}

#[test]
fn telemetry_block_appears_only_when_enabled() {
    let run = |telemetry: bool| {
        let cfg = MachineConfig {
            seed: 5,
            intensity_noise_sd: 0.0,
            ..MachineConfig::default()
        };
        let mut m = MachineBuilder::new(presets::xeon_e5620())
            .config(cfg)
            .policy(Box::new(CreditPolicy::new()))
            .add_vm(VmConfig::new(
                "vm0",
                8,
                2 * GB,
                AllocPolicy::MostFree,
                vec![hungry::hungry_loop(); 8],
            ))
            .build()
            .unwrap();
        if telemetry {
            m.enable_telemetry();
        }
        m.run(SimDuration::from_secs(2));
        m.metrics().to_json()
    };
    let without = run(false);
    let with = run(true);
    assert!(!without.contains("telemetry"));
    assert!(with.contains("\"telemetry\""));
    // Stripping the telemetry block must leave the metrics identical:
    // telemetry observes the run, never steers it.
    let mut doc = xen_sim::RunMetrics::from_json(&with).unwrap();
    doc.telemetry = None;
    assert_eq!(doc.to_json(), without);
}
