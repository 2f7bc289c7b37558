//! Perf-introspection contracts at the `Machine` level.
//!
//! Four pins: (1) enabling perf changes no other output byte — the
//! RunMetrics JSON of a perf-on run is the perf-off JSON plus the
//! appended `perf` block; (2) the snapshot is deterministic — same seed,
//! byte-identical perf JSON; (3) it does not depend on how a run is cut
//! into `Machine::run` calls; (4) the counters actually measure the
//! work-avoidance machinery — a quiescent run is mostly whole-step skips,
//! a noisy run shows the engine solving per quantum.

use mem_model::AllocPolicy;
use numa_topo::presets;
use sim_core::SimDuration;
use workloads::hungry;
use xen_sim::{CreditPolicy, Machine, MachineBuilder, MachineConfig, VmConfig};

const GB: u64 = 1024 * 1024 * 1024;

fn build(seed: u64, noise_sd: f64) -> Machine {
    let cfg = MachineConfig {
        seed,
        intensity_noise_sd: noise_sd,
        ..MachineConfig::default()
    };
    MachineBuilder::new(presets::xeon_e5620())
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
        .unwrap()
}

#[test]
fn enabling_perf_changes_no_other_output_byte() {
    let mut plain = build(42, 0.18);
    let mut probed = build(42, 0.18);
    probed.enable_perf();
    plain.run(SimDuration::from_secs(2));
    probed.run(SimDuration::from_secs(2));

    let off = plain.metrics().to_json();
    let on = probed.metrics().to_json();
    assert!(!off.contains("\"perf\""), "perf block absent when disabled");
    assert!(on.contains("\"perf\""), "perf block present when enabled");
    // The perf block is appended last: everything before it is identical.
    let prefix = &off[..off.len() - 1]; // strip the closing brace
    assert!(
        on.starts_with(prefix),
        "perf-on JSON must extend the perf-off JSON byte-for-byte"
    );
    assert_eq!(&on[prefix.len()..prefix.len() + 8], ",\"perf\":");
}

#[test]
fn perf_snapshot_is_deterministic() {
    let run = || {
        let mut m = build(7, 0.18);
        m.enable_perf();
        m.run(SimDuration::from_secs(2));
        m.perf_snapshot().to_json().to_string()
    };
    assert_eq!(run(), run());
}

/// The machine steps one quantum at a time whatever the `run` call
/// boundaries, so a run cut into pieces that do not align with the 1 s
/// sampling period must match one long run byte for byte — the perf
/// counters included.
#[test]
fn run_chunking_changes_no_output_byte() {
    let mut whole = build(42, 0.0);
    whole.enable_perf();
    whole.run(SimDuration::from_secs(2));

    let mut pieces = build(42, 0.0);
    pieces.enable_perf();
    for ms in [333, 777, 1, 889] {
        pieces.run(SimDuration::from_millis(ms));
    }

    assert_eq!(whole.now(), pieces.now());
    assert_eq!(
        whole.perf_snapshot().to_json().to_string(),
        pieces.perf_snapshot().to_json().to_string()
    );
    assert_eq!(whole.metrics().to_json(), pieces.metrics().to_json());
}

#[test]
fn quiescent_run_is_mostly_whole_step_skips() {
    let mut m = build(42, 0.0);
    m.enable_perf();
    m.run(SimDuration::from_secs(2));
    let e = m.perf_snapshot().engine;
    // One engine step per quantum; once the saturated machine reaches its
    // fixed point nothing changes between steps, so whole-step skips
    // dominate.
    assert_eq!(e.steps, 2000);
    assert!(
        e.whole_step_skips * 2 > e.steps,
        "quiescent run skips whole steps: {e:?}"
    );
}

#[test]
fn noisy_run_counts_solving_work() {
    let mut m = build(42, 0.18);
    m.enable_perf();
    m.run(SimDuration::from_secs(2));
    let snap = m.perf_snapshot();
    // Noise dirties inputs every quantum: real solves, no whole-step skips.
    assert_eq!(snap.engine.steps, 2000);
    assert_eq!(snap.engine.whole_step_skips, 0, "{:?}", snap.engine);
    assert!(snap.engine.node_solves > 0, "{:?}", snap.engine);
    assert!(snap.engine.fp_rounds > 0, "{:?}", snap.engine);
}
