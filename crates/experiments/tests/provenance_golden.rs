//! Golden-file pin for the decision-provenance export, the
//! provenance-off byte-diff, and `explain` determinism.
//!
//! `decisions.jsonl` is a public contract like the trace exports: jq
//! pipelines and the `explain` binary consume it. This test replays the
//! same small fault-enabled vprobe-gd scenario as `trace_golden` and
//! pins the export byte-for-byte against
//! `tests/golden/decisions.jsonl`. Regenerate a deliberate schema
//! change with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p experiments --test provenance_golden
//! ```
//!
//! The byte-diff test is the tentpole invariant: enabling provenance
//! must not change a single byte of the trace, Chrome, or metrics
//! exports — recording observes decisions, it never participates in
//! them.

use experiments::explain;
use experiments::scenario::Scenario;
use sim_core::parallel;
use sim_core::{Json, SimDuration};
use xen_sim::Machine;

/// Same scenario as `trace_golden`, so the two goldens describe one run.
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

fn golden_run(provenance: bool) -> Machine {
    let scenario = Scenario::from_json(SCENARIO).unwrap();
    let mut m = scenario.build().unwrap();
    m.enable_trace(1_000_000);
    m.enable_telemetry();
    if provenance {
        m.enable_provenance(1_000_000);
    }
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
         UPDATE_GOLDEN=1 cargo test -p experiments --test provenance_golden\n\
         and commit the diff."
    );
}

#[test]
fn decisions_jsonl_matches_golden() {
    let m = golden_run(true);
    let jsonl = m.provenance_jsonl();
    assert!(
        m.provenance().dropped() == 0,
        "golden run must not drop decisions"
    );
    // Schema sanity independent of the golden bytes: every line is an
    // object leading with t_us, then seq/kind/rule; seq strictly
    // increases so decision order is reconstructible.
    let mut prev_seq = None;
    for line in jsonl.lines() {
        let doc = Json::parse(line).expect("line parses");
        assert!(line.starts_with("{\"t_us\":"), "t_us leads: {line}");
        let seq = doc.get("seq").and_then(Json::as_u64).expect("seq field");
        assert!(prev_seq < Some(seq), "seq strictly increases: {line}");
        prev_seq = Some(seq);
        doc.get("kind").and_then(Json::as_str).expect("kind field");
        doc.get("rule").and_then(Json::as_str).expect("rule field");
    }
    check_golden("decisions.jsonl", &jsonl);
}

#[test]
fn provenance_does_not_change_any_export_byte() {
    let plain = golden_run(false);
    let prov = golden_run(true);
    assert!(prov.provenance().recorded() > 0, "provenance recorded");
    assert_eq!(plain.trace_jsonl(), prov.trace_jsonl());
    assert_eq!(plain.trace_chrome(), prov.trace_chrome());
    assert_eq!(plain.metrics().to_json(), prov.metrics().to_json());
    assert!(
        plain.provenance_jsonl().is_empty(),
        "disabled log exports nothing"
    );
}

#[test]
fn explain_answers_are_byte_identical_across_jobs() {
    let decisions = golden_run(true).provenance_jsonl();
    let answer = |jobs: usize| {
        parallel::set_jobs(jobs);
        let out = (
            explain::explain_vm(&decisions, 0, Some(1_500_000))
                .unwrap()
                .to_string_pretty(),
            explain::explain_steal(&decisions, Some(0))
                .unwrap()
                .to_string_pretty(),
        );
        parallel::set_jobs(0);
        out
    };
    let (vm1, steal1) = answer(1);
    let (vm4, steal4) = answer(4);
    assert_eq!(vm1, vm4);
    assert_eq!(steal1, steal4);

    // And the answers are substantive: the run records decisions for
    // VCPU 0 and steals on node 0.
    let vm = Json::parse(&vm1).unwrap();
    assert!(vm.get("matched").and_then(Json::as_u64).unwrap() > 0);
    assert_ne!(vm.get("decision"), Some(&Json::Null));
    let steal = Json::parse(&steal1).unwrap();
    assert!(steal.get("decisions").and_then(Json::as_u64).unwrap() > 0);
}
