//! Trace-export and telemetry contracts at the `Machine` level.
//!
//! Three pins: (1) trace files and telemetry are deterministic — same
//! seed, byte-identical output; (2) trace timestamps never go backwards,
//! even on a stationary run where the engine skips every solve; (3) a
//! capped trace or decision log exports the tail of an uncapped one. That
//! fault-injected
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

/// The last `n` lines of `text`, newline-terminated like an export.
fn tail_lines(text: &str, n: usize) -> String {
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len() - n..]
        .iter()
        .flat_map(|l| [*l, "\n"])
        .collect()
}

/// A log capped mid-chunk exports exactly the tail of an uncapped log fed
/// the same records: eviction keeps order, sequence numbers and bytes.
#[test]
fn capped_logs_export_the_tail_of_uncapped_ones() {
    use numa_topo::{NodeId, PcpuId, VcpuId};
    use sim_core::ring::CHUNK;
    use sim_core::SimTime;
    use xen_sim::provenance;
    use xen_sim::{Decision, Event, FaultEvent, Priority, ProvenanceLog, StealCandidate, TraceLog};

    let n = 3 * CHUNK + 123;
    // Keeps the oldest record halfway into the second chunk.
    let cap = CHUNK + CHUNK / 2 + 7;
    let (mut trace_all, mut trace_cap) = (TraceLog::with_capacity(n), TraceLog::with_capacity(cap));
    let (mut prov_all, mut prov_cap) = (
        ProvenanceLog::with_capacity(n),
        ProvenanceLog::with_capacity(cap),
    );
    for i in 0..n {
        let t = SimTime::from_micros(i as u64 / 3);
        let vcpu = VcpuId::new((i % 13) as u32);
        let pcpu = PcpuId::new((i % 8) as u16);
        let node = NodeId::new((i % 2) as u16);
        let event = match i % 5 {
            0 => Event::SwitchIn { vcpu, pcpu },
            1 => Event::Steal {
                thief: pcpu,
                victim: PcpuId::new(0),
                vcpu,
                cross_node: i % 2 == 0,
            },
            2 => Event::PageMigration {
                vcpu,
                node,
                bytes: i as u64 * 4096,
            },
            3 => Event::Fault(FaultEvent::MigrationDelayed {
                vcpu,
                node,
                quanta: i as u64,
            }),
            _ => Event::SamplePeriod { periods: i as u64 },
        };
        trace_all.record(t, event.clone());
        trace_cap.record(t, event);
        let decision = if i % 2 == 0 {
            Decision::Steal {
                thief: pcpu,
                thief_node: node,
                would_idle: i % 3 == 0,
                chosen: Some((PcpuId::new(1), vcpu)),
                candidates: (0..i % 4)
                    .map(|k| StealCandidate {
                        pcpu: PcpuId::new(k as u16),
                        vcpu,
                        node,
                        dist: 20,
                        workload: k,
                        pressure: i as f64 / 7.0,
                        prio: Priority::Under,
                    })
                    .collect(),
            }
        } else {
            Decision::Partition {
                vcpu,
                node,
                candidates: vec![(0, i as u64), (1, 3)],
            }
        };
        prov_all.record(t, "rule", decision.clone());
        prov_cap.record(t, "rule", decision);
    }
    assert_eq!(
        (trace_cap.len(), trace_cap.dropped()),
        (cap, (n - cap) as u64)
    );
    assert_eq!(
        (prov_cap.len(), prov_cap.dropped()),
        (cap, (n - cap) as u64)
    );
    assert_eq!(trace_all.dropped() + prov_all.dropped(), 0);
    assert_eq!(
        xen_sim::to_jsonl(&trace_cap),
        tail_lines(&xen_sim::to_jsonl(&trace_all), cap)
    );
    assert_eq!(
        provenance::to_jsonl(&prov_cap),
        tail_lines(&provenance::to_jsonl(&prov_all), cap)
    );
}
