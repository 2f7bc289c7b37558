//! Golden-file pin for the perf-report counter export, and the
//! work-avoidance acceptance contract on the quick regime.
//!
//! The deterministic counter export is a public contract like the trace
//! and provenance exports: `BENCH_history.jsonl` records its digest per
//! commit and CI byte-compares it against
//! `tests/golden/perf_report_quick.json`. A diff means the simulator's
//! *work-avoidance behavior* changed — a cache stopped hitting, a skip
//! stopped firing — which is exactly the class of
//! silent regression the perf layer exists to catch. Regenerate a
//! deliberate change with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p experiments --test perf_report_golden
//! ```

use experiments::perfreport::{self, ReportOptions};
use mem_model::EngineSelect;
use telemetry::PhaseTimers;

fn check_golden(file: &str, actual: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        eprintln!("updated {path}");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden {path}: {e}"));
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
    let mut timers = PhaseTimers::new();
    let points = perfreport::run(&ReportOptions::quick(), &mut timers).unwrap();

    // The work-avoidance contract on the 10 s sims. The noisy run's
    // per-quantum noise dirties every node every step, so it shows the
    // solver grinding; the phased run is where the exact engine's reuse
    // caches must fire (clean-node skips stand in for memo hits, which
    // exact mode structurally never consults) along with demand replay;
    // the noisy approx run must exit through the tolerance test.
    let find = |scenario: &str, engine: EngineSelect| {
        &points
            .iter()
            .find(|p| p.scenario == scenario && p.engine == engine)
            .unwrap()
            .snap
    };
    let noisy_exact = find("noisy", EngineSelect::Exact);
    assert!(noisy_exact.engine.node_solves > 0);
    assert!(noisy_exact.engine.fp_rounds > 0);
    assert_eq!(noisy_exact.engine.memo_hits, 0, "exact never consults memo");
    let noisy_approx = find("noisy", EngineSelect::Approx);
    assert!(
        noisy_approx.engine.tolerance_exits > 0,
        "approx tolerance exits: {:?}",
        noisy_approx.engine
    );
    let phased_exact = find("phased", EngineSelect::Exact);
    assert!(
        phased_exact.engine.node_clean_skips > 0,
        "exact cache hits (clean-node skips): {:?}",
        phased_exact.engine
    );
    assert!(
        phased_exact.engine.replay_fires > 0,
        "demand replay fires: {:?}",
        phased_exact.engine
    );

    // The quiescent sim exercises the other half: once stationary,
    // nearly every quantum is a whole-step skip.
    let quiet = find("quiescent", EngineSelect::Exact);
    assert!(quiet.engine.whole_step_skips * 2 > quiet.engine.steps);

    // And the export those counters produce is pinned byte-for-byte,
    // with its digest alongside for the CI gate to compare against the
    // `counter digest:` line of the binary's output.
    check_golden("perf_report_quick.json", &perfreport::to_json(&points));
    check_golden(
        "perf_report_quick.digest",
        &format!("{}\n", perfreport::digest(&points)),
    );
}
