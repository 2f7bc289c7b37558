//! Golden-file pin for the perf counter export, and the
//! work-avoidance acceptance contract on the quick regime.
//!
//! The deterministic counter export is a public contract like the trace
//! and provenance exports: this test byte-compares it against
//! `tests/golden/perf_report_quick.json`, and CI runs it on a release
//! build as well. A diff means the simulator's *work-avoidance behavior*
//! changed — a cache stopped hitting, a skip stopped firing — which is
//! exactly the class of silent regression the perf layer exists to catch.
//! Regenerate a deliberate change with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p experiments --test perf_report_golden
//! ```

use experiments::perfreport;

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
        "{file} diverged from its golden copy — the work-avoidance \
         machinery behaves differently.\n\
         If the change is intentional, regenerate with\n\
         UPDATE_GOLDEN=1 cargo test -p experiments --test perf_report_golden\n\
         and commit the diff."
    );
}

#[test]
fn quick_regime_counters_match_golden_and_contract() {
    let points = perfreport::run().unwrap();
    let scenarios: Vec<_> = points.iter().map(|p| p.scenario).collect();
    assert_eq!(scenarios, ["noisy", "phased", "quiescent", "fleet"]);

    // The work-avoidance contract on the 10 s sims. The noisy run's
    // per-quantum noise dirties every node every step, so it shows the
    // solver grinding; the phased run is where the node dirty bits must
    // fire as clean-node skips.
    let find = |scenario: &str| &points.iter().find(|p| p.scenario == scenario).unwrap().snap;
    let noisy = find("noisy");
    assert!(noisy.engine.node_solves > 0);
    assert!(noisy.engine.fp_rounds > 0);
    let phased = find("phased");
    assert!(
        phased.engine.node_clean_skips > 0,
        "clean-node skips: {:?}",
        phased.engine
    );

    // The quiescent sim exercises the other half: once stationary,
    // nearly every quantum is a whole-step skip.
    let quiet = find("quiescent");
    assert!(quiet.engine.whole_step_skips * 2 > quiet.engine.steps);

    // The fleet run aggregates every one of its 8 hosts.
    assert_eq!(find("fleet").hosts, 8);

    // And the export those counters produce is pinned byte-for-byte.
    check_golden("perf_report_quick.json", &perfreport::to_json(&points));
}
