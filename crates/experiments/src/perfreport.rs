//! Work-avoidance perf report: what the optimization machinery saved.
//!
//! The simulator's performance work — the incremental memory engine's
//! whole-step skip and dirty-node tracking, fleet host sharding — is
//! deliberately invisible in the artifacts it is forbidden to change.
//! This module makes it visible: it runs a small matrix of representative
//! workloads with perf introspection enabled and reports the
//! deterministic work-avoidance counters ([`xen_sim::PerfSnapshot`]).
//!
//! Four scenarios bracket the machinery's operating envelope:
//!
//! * **noisy** — the paper's §V-A eval setup (3 VMs, soplex + hungry
//!   interference) under vProbe at the default intensity noise. The
//!   per-quantum noise dirties every populated node every step, so this
//!   measures the *worst-case solving* path: per-node re-solves and
//!   fixed-point rounds, with the reuse caches structurally cold.
//! * **phased** — SPEC workloads with the noise off: inputs change only
//!   at workload phase boundaries, so this measures the *incremental
//!   reuse* path — clean-node skips and whole-step skips — on a run that
//!   still does real scheduling work.
//! * **quiescent** — saturated hungry loops with the noise disabled.
//!   The sim reaches a fixed point and this measures the *skipping*
//!   path: whole-step skips replay the stationary solve each quantum.
//! * **fleet** — the smoke-scale churn/failure fleet sweep config on one
//!   scheduler, counters summed over every host and generation.
//!
//! Each scenario runs under the incremental engine (the frozen reference
//! engine has no counters). The export, [`to_json`], derives from the
//! deterministic counters alone: it is byte-identical across `--jobs`,
//! repeated runs, and machines, and `tests/golden/perf_report_quick.json`
//! pins it. simbench's traced table reports the same engine counters
//! with wall-clock beside them.

use crate::runner::{RunOptions, Scheduler, SetupKind};
use fleet::{Fleet, FleetScheduler};
use mem_model::AllocPolicy;
use numa_topo::presets;
use sim_core::{Json, SimDuration, SimError};
use workloads::{hungry, speccpu};
use xen_sim::{CreditPolicy, MachineBuilder, MachineConfig, PerfSnapshot, VmConfig};

const GB: u64 = 1024 * 1024 * 1024;

/// The seed every scenario runs at.
const SEED: u64 = 42;
/// Simulated seconds of each single-machine scenario.
const WINDOW_S: u64 = 10;
/// Hosts and epochs of the fleet scenario.
const FLEET_HOSTS: usize = 8;
const FLEET_EPOCHS: u64 = 4;

/// One scenario of the report.
#[derive(Debug, Clone)]
pub struct PerfPoint {
    pub scenario: &'static str,
    pub snap: PerfSnapshot,
}

/// Run every scenario, in the order noisy, phased, quiescent, fleet.
pub fn run() -> Result<Vec<PerfPoint>, SimError> {
    let point = |scenario, snap| PerfPoint { scenario, snap };
    Ok(vec![
        point("noisy", noisy_snapshot()?),
        point("phased", phased_snapshot()?),
        point("quiescent", quiescent_snapshot()?),
        point("fleet", fleet_snapshot()?),
    ])
}

/// The paper's eval setup under vProbe at default noise: every quantum
/// dirties inputs, so the engine actually solves.
fn noisy_snapshot() -> Result<PerfSnapshot, SimError> {
    let ropts = RunOptions {
        seed: SEED,
        ..RunOptions::default()
    };
    let mut m = crate::runner::build_machine(
        Scheduler::VProbe,
        SetupKind::PaperEval,
        vec![speccpu::soplex(); 4],
        vec![speccpu::soplex(); 4],
        &ropts,
    )?;
    m.enable_perf();
    m.run(SimDuration::from_secs(WINDOW_S));
    Ok(m.perf_snapshot())
}

/// Phase-rich SPEC workloads with the per-quantum intensity noise off:
/// engine inputs change only when a workload crosses a phase boundary,
/// so unchanged nodes clean-skip — the incremental-reuse path at its best
/// case.
fn phased_snapshot() -> Result<PerfSnapshot, SimError> {
    let cfg = MachineConfig {
        seed: SEED,
        intensity_noise_sd: 0.0,
        ..MachineConfig::default()
    };
    let mut m = MachineBuilder::new(presets::xeon_e5620())
        .config(cfg)
        .policy(Scheduler::VProbe.policy(2, SEED))
        .add_vm(VmConfig::new(
            "spec0",
            4,
            2 * GB,
            AllocPolicy::MostFree,
            vec![
                speccpu::soplex(),
                speccpu::mcf(),
                speccpu::milc(),
                speccpu::soplex(),
            ],
        ))
        .add_vm(VmConfig::new(
            "spec1",
            4,
            2 * GB,
            AllocPolicy::MostFree,
            vec![
                speccpu::milc(),
                speccpu::soplex(),
                speccpu::mcf(),
                speccpu::mcf(),
            ],
        ))
        .build()?;
    m.enable_perf();
    m.run(SimDuration::from_secs(WINDOW_S));
    Ok(m.perf_snapshot())
}

/// Saturated hungry loops with intensity noise off: the run goes
/// stationary and the whole-step skip takes over.
fn quiescent_snapshot() -> Result<PerfSnapshot, SimError> {
    let cfg = MachineConfig {
        seed: SEED,
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
        .build()?;
    m.enable_perf();
    m.run(SimDuration::from_secs(WINDOW_S));
    Ok(m.perf_snapshot())
}

/// The smoke-scale churn/failure fleet under vProbe; counters are summed
/// over every host and machine generation.
fn fleet_snapshot() -> Result<PerfSnapshot, SimError> {
    let mut cfg = crate::fig_fleet::sweep_config(
        FleetScheduler::VProbe,
        FLEET_HOSTS,
        SEED,
        FLEET_EPOCHS,
        true,
    );
    cfg.perf = true;
    let mut fleet = Fleet::new(cfg)?;
    fleet.run()?;
    Ok(fleet.perf_snapshot())
}

/// The full deterministic export: one object per point, stable order —
/// what the golden file pins.
pub fn to_json(points: &[PerfPoint]) -> String {
    Json::Arr(
        points
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("scenario".into(), Json::from(p.scenario)),
                    ("perf".into(), p.snap.to_json()),
                ])
            })
            .collect(),
    )
    .to_string_pretty()
}
