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
//! engine has no counters). Everything printed on stdout derives from the
//! deterministic counters alone: the report is byte-identical across
//! `--jobs`, repeated runs, and machines, and [`digest`] pins the whole
//! export with one token for the CI digest gate. Wall-clock lives in the
//! caller's [`telemetry::PhaseTimers`] and stays out of the report.

use crate::report::{f3, Table};
use crate::runner::{RunOptions, Scheduler, SetupKind};
use fleet::{Fleet, FleetScheduler};
use mem_model::AllocPolicy;
use numa_topo::presets;
use sim_core::{Json, SimDuration, SimError};
use telemetry::{digest64, PhaseTimers};
use workloads::{hungry, speccpu};
use xen_sim::{CreditPolicy, MachineBuilder, MachineConfig, PerfSnapshot, VmConfig};

const GB: u64 = 1024 * 1024 * 1024;

/// Scenario durations and sizes for one report run.
#[derive(Debug, Clone)]
pub struct ReportOptions {
    pub seed: u64,
    /// Simulated seconds of the noisy single-machine scenario.
    pub noisy_s: u64,
    /// Simulated seconds of the phased (noise-free SPEC) scenario.
    pub phased_s: u64,
    /// Simulated seconds of the quiescent (stationary) scenario.
    pub quiescent_s: u64,
    /// Hosts in the fleet scenario (0 skips it).
    pub fleet_hosts: usize,
    pub fleet_epochs: u64,
}

impl ReportOptions {
    /// The smoke regime (CI, `--quick`): 10-second windows, small fleet.
    pub fn quick() -> ReportOptions {
        ReportOptions {
            seed: 42,
            noisy_s: 10,
            phased_s: 10,
            quiescent_s: 10,
            fleet_hosts: 8,
            fleet_epochs: 4,
        }
    }

    /// The full regime: paper-scale 30-second windows, bigger fleet.
    pub fn full() -> ReportOptions {
        ReportOptions {
            noisy_s: 30,
            phased_s: 30,
            quiescent_s: 30,
            fleet_hosts: 24,
            fleet_epochs: 8,
            ..ReportOptions::quick()
        }
    }
}

/// One scenario of the report.
#[derive(Debug, Clone)]
pub struct PerfPoint {
    pub scenario: &'static str,
    pub snap: PerfSnapshot,
}

/// Run every scenario. Wall-clock per scenario is attributed to `timers`
/// under its name; the returned points hold only deterministic counters.
pub fn run(opts: &ReportOptions, timers: &mut PhaseTimers) -> Result<Vec<PerfPoint>, SimError> {
    type Scenario = fn(&ReportOptions) -> Result<PerfSnapshot, SimError>;
    let mut scenarios: Vec<(&'static str, Scenario)> = vec![
        ("noisy", noisy_snapshot),
        ("phased", phased_snapshot),
        ("quiescent", quiescent_snapshot),
    ];
    if opts.fleet_hosts > 0 {
        scenarios.push(("fleet", fleet_snapshot));
    }
    scenarios
        .into_iter()
        .map(|(scenario, snapshot)| {
            let snap = timers.time(scenario, || snapshot(opts))?;
            Ok(PerfPoint { scenario, snap })
        })
        .collect()
}

/// The paper's eval setup under vProbe at default noise: every quantum
/// dirties inputs, so the engine actually solves.
fn noisy_snapshot(opts: &ReportOptions) -> Result<PerfSnapshot, SimError> {
    let ropts = RunOptions {
        seed: opts.seed,
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
    m.run(SimDuration::from_secs(opts.noisy_s));
    Ok(m.perf_snapshot())
}

/// Phase-rich SPEC workloads with the per-quantum intensity noise off:
/// engine inputs change only when a workload crosses a phase boundary,
/// so unchanged nodes clean-skip — the incremental-reuse path at its best
/// case.
fn phased_snapshot(opts: &ReportOptions) -> Result<PerfSnapshot, SimError> {
    let cfg = MachineConfig {
        seed: opts.seed,
        intensity_noise_sd: 0.0,
        ..MachineConfig::default()
    };
    let mut m = MachineBuilder::new(presets::xeon_e5620())
        .config(cfg)
        .policy(Scheduler::VProbe.policy(2, opts.seed))
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
    m.run(SimDuration::from_secs(opts.phased_s));
    Ok(m.perf_snapshot())
}

/// Saturated hungry loops with intensity noise off: the run goes
/// stationary and the whole-step skip takes over.
fn quiescent_snapshot(opts: &ReportOptions) -> Result<PerfSnapshot, SimError> {
    let cfg = MachineConfig {
        seed: opts.seed,
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
    m.run(SimDuration::from_secs(opts.quiescent_s));
    Ok(m.perf_snapshot())
}

/// The smoke-scale churn/failure fleet under vProbe; counters are summed
/// over every host and machine generation.
fn fleet_snapshot(opts: &ReportOptions) -> Result<PerfSnapshot, SimError> {
    let mut cfg = crate::fig_fleet::sweep_config(
        FleetScheduler::VProbe,
        opts.fleet_hosts,
        opts.seed,
        opts.fleet_epochs,
        true,
    );
    cfg.perf = true;
    let mut fleet = Fleet::new(cfg)?;
    fleet.run()?;
    Ok(fleet.perf_snapshot())
}

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// The counter matrix as a table (text / CSV via [`Table`]).
pub fn render(points: &[PerfPoint]) -> Table {
    let mut t = Table::new(
        "Perf introspection — work avoided by the optimization machinery",
        &["scenario", "steps", "skip %", "clean skips", "rounds/solve"],
    );
    for p in points {
        let e = &p.snap.engine;
        t.push_row(vec![
            p.scenario.to_string(),
            e.steps.to_string(),
            pct(e.skip_rate()),
            e.node_clean_skips.to_string(),
            f3(e.rounds_per_solving_step()),
        ]);
    }
    t
}

/// The full deterministic export: one object per point, stable order —
/// what the golden file pins and [`digest`] hashes.
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

/// The one-token pin of the whole counter export.
pub fn digest(points: &[PerfPoint]) -> String {
    digest64(&to_json(points))
}

/// The complete stdout report: the table plus the digest line.
pub fn report_text(points: &[PerfPoint]) -> String {
    format!(
        "{}\ncounter digest: {}\n",
        render(points).to_text(),
        digest(points)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::parallel;

    fn tiny() -> ReportOptions {
        ReportOptions {
            seed: 42,
            noisy_s: 3,
            phased_s: 3,
            quiescent_s: 2,
            fleet_hosts: 4,
            fleet_epochs: 3,
        }
    }

    #[test]
    fn report_is_deterministic_across_jobs_and_repeats() {
        let text = |jobs: usize| {
            parallel::set_jobs(jobs);
            let mut timers = PhaseTimers::new();
            let points = run(&tiny(), &mut timers).unwrap();
            parallel::set_jobs(0);
            assert!(!timers.is_empty(), "every cell attributes wall-clock");
            report_text(&points)
        };
        let a = text(1);
        let b = text(4);
        assert_eq!(a, b, "stdout report must be byte-identical across --jobs");
        assert_eq!(a, text(1), "and across repeated runs");
        assert!(a.contains("counter digest: "));
    }

    #[test]
    fn report_covers_every_scenario() {
        let mut timers = PhaseTimers::new();
        let points = run(&tiny(), &mut timers).unwrap();
        let scenarios: Vec<_> = points.iter().map(|p| p.scenario).collect();
        assert_eq!(scenarios, ["noisy", "phased", "quiescent", "fleet"]);
        // The quiescent run is mostly whole-step skips...
        let quiet = &points[2];
        assert!(quiet.snap.engine.whole_step_skips * 2 > quiet.snap.engine.steps);
        // ...and the fleet run aggregates every host.
        let fl = &points[3];
        assert_eq!(fl.snap.hosts as usize, tiny().fleet_hosts);
    }

    #[test]
    fn fleet_scenario_can_be_skipped() {
        let opts = ReportOptions {
            fleet_hosts: 0,
            noisy_s: 1,
            phased_s: 1,
            quiescent_s: 1,
            ..tiny()
        };
        let mut timers = PhaseTimers::new();
        let points = run(&opts, &mut timers).unwrap();
        assert_eq!(points.len(), 3);
        assert!(points.iter().all(|p| p.scenario != "fleet"));
    }
}
