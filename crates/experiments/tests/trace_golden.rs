//! Golden-file pin for the trace export schema.
//!
//! The JSONL and Chrome Trace Event exports are consumed outside this
//! repo (jq pipelines, Perfetto), so their byte layout is a public
//! contract: field order, number formatting, event naming. This test
//! replays a small fault-enabled vprobe-gd scenario and compares both
//! exports byte-for-byte against files committed under `tests/golden/`.
//!
//! If you change the schema *deliberately*, regenerate with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p experiments --test trace_golden
//! ```
//!
//! and commit the diff — the review of that diff is the schema review.

use experiments::scenario::Scenario;
use sim_core::{Json, SimDuration};
use xen_sim::Machine;

/// Small on purpose: 2 s, six VCPUs on eight PCPUs, faults on, so the
/// golden covers switch/steal/idler/boost/sample/move/fault events while
/// staying reviewable in a diff.
const SCENARIO: &str = r#"{
  "topology": "xeon_e5620",
  "scheduler": "vprobe-gd",
  "duration_s": 2,
  "seed": 7,
  "fault_rate": 0.05,
  "fault_seed": 11,
  "vms": [
    { "name": "spec", "vcpus": 4, "mem_gb": 2, "workloads": ["soplex", "mcf", "milc"] },
    { "name": "batch", "vcpus": 2, "mem_gb": 2, "workloads": ["soplex", "soplex"] }
  ]
}"#;

fn golden_run() -> Machine {
    let scenario = Scenario::from_json(SCENARIO).unwrap();
    let mut m = scenario.build().unwrap();
    m.enable_trace(1_000_000);
    m.enable_telemetry();
    m.run(SimDuration::from_secs(scenario.duration_s));
    m
}

fn check_golden(file: &str, actual: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        eprintln!("updated {path}");
        return;
    }
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read golden {path}: {e}"));
    assert!(
        actual == expected,
        "{file} diverged from its golden copy.\n\
         If the schema change is intentional, regenerate with\n\
         UPDATE_GOLDEN=1 cargo test -p experiments --test trace_golden\n\
         and commit the diff."
    );
}

#[test]
fn jsonl_export_matches_golden() {
    let m = golden_run();
    let jsonl = m.trace_jsonl();
    assert!(m.trace().dropped() == 0, "golden run must not drop events");
    // Schema sanity independent of the golden bytes: every line is an
    // object leading with t_us then kind, and fault lines carry `fault`.
    for line in jsonl.lines() {
        let doc = Json::parse(line).expect("line parses");
        assert!(line.starts_with("{\"t_us\":"), "t_us leads: {line}");
        let kind = doc.get("kind").and_then(Json::as_str).expect("kind field");
        if kind == "fault" {
            assert!(doc.get("fault").is_some(), "fault lines name the fault");
        }
    }
    check_golden("trace.jsonl", &jsonl);
}

#[test]
fn chrome_export_matches_golden() {
    let m = golden_run();
    let chrome = m.trace_chrome();
    let doc = Json::parse(&chrome).expect("chrome trace parses");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    // One thread_name per PCPU plus the events track, before any event.
    let meta = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .count();
    assert_eq!(meta, m.topology().num_pcpus() + 1);
    check_golden("trace.chrome.json", &chrome);
}
