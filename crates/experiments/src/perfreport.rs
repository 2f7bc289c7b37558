//! Work-avoidance perf report: what the optimization machinery saved.
//!
//! The simulator's performance work — the incremental memory engine's
//! whole-step skip and dirty-node tracking, the LLC solve memo, the
//! demand replay, the approx engine's tolerance exit, fleet host
//! sharding — is deliberately invisible in
//! the artifacts it is forbidden to change. This module makes it
//! visible: it runs a small matrix of representative workloads with perf
//! introspection enabled and reports the deterministic work-avoidance
//! counters ([`xen_sim::PerfSnapshot`]).
//!
//! Four scenarios bracket the machinery's operating envelope:
//!
//! * **noisy** — the paper's §V-A eval setup (3 VMs, soplex + hungry
//!   interference) under vProbe at the default intensity noise. The
//!   per-quantum noise dirties every populated node every step, so this
//!   measures the *worst-case solving* path: per-node re-solves,
//!   fixed-point rounds, and (approx) tolerance exits, with the reuse
//!   caches structurally cold.
//! * **phased** — SPEC workloads with the noise off: inputs change only
//!   at workload phase boundaries, so this measures the *incremental
//!   reuse* path — clean-node skips, demand replays, whole-step skips —
//!   on a run that still does real scheduling work.
//! * **quiescent** — saturated hungry loops with the noise disabled.
//!   The sim reaches a fixed point and this measures the *skipping*
//!   path: whole-step skips replay the stationary solve each quantum.
//! * **fleet** — the smoke-scale churn/failure fleet sweep config on one
//!   scheduler, counters summed over every host and generation.
//!
//! Each scenario runs under both the exact and the approx engine (the
//! frozen reference engine has no counters), so the report also shows
//! the effectiveness delta the approximation buys. Everything printed on
//! stdout derives from the deterministic counters alone: the report is
//! byte-identical across `--jobs`, repeated runs, and machines, and
//! [`digest`] pins the whole export with one token for
//! `BENCH_history.jsonl` and the CI regression gate. Wall-clock lives in
//! the caller's [`telemetry::PhaseTimers`] and stays out of the report.

use crate::report::{f3, Table};
use crate::runner::{RunOptions, Scheduler, SetupKind};
use fleet::{Fleet, FleetScheduler};
use mem_model::{AllocPolicy, EngineSelect};
use numa_topo::presets;
use sim_core::{Json, SimDuration, SimError};
use telemetry::{digest64, PhaseTimers};
use workloads::{hungry, speccpu};
use xen_sim::{CreditPolicy, MachineBuilder, MachineConfig, PerfSnapshot, VmConfig};

const GB: u64 = 1024 * 1024 * 1024;

/// The engines compared. The frozen reference engine is excluded: it
/// predates the work-avoidance machinery, so every counter reads zero.
pub const ENGINES: [EngineSelect; 2] = [EngineSelect::Exact, EngineSelect::Approx];

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

/// One (scenario, engine) cell of the report matrix.
#[derive(Debug, Clone)]
pub struct PerfPoint {
    pub scenario: &'static str,
    pub engine: EngineSelect,
    pub snap: PerfSnapshot,
}

/// Run the scenario × engine matrix. Wall-clock per cell is attributed
/// to `timers` under `"<scenario>/<engine>"`; the returned points hold
/// only deterministic counters.
pub fn run(opts: &ReportOptions, timers: &mut PhaseTimers) -> Result<Vec<PerfPoint>, SimError> {
    let mut points = Vec::new();
    for engine in ENGINES {
        let snap = timers.time(&format!("noisy/{}", engine.name()), || {
            noisy_snapshot(opts, engine)
        })?;
        points.push(PerfPoint {
            scenario: "noisy",
            engine,
            snap,
        });
    }
    for engine in ENGINES {
        let snap = timers.time(&format!("phased/{}", engine.name()), || {
            phased_snapshot(opts, engine)
        })?;
        points.push(PerfPoint {
            scenario: "phased",
            engine,
            snap,
        });
    }
    for engine in ENGINES {
        let snap = timers.time(&format!("quiescent/{}", engine.name()), || {
            quiescent_snapshot(opts, engine)
        })?;
        points.push(PerfPoint {
            scenario: "quiescent",
            engine,
            snap,
        });
    }
    if opts.fleet_hosts > 0 {
        for engine in ENGINES {
            let snap = timers.time(&format!("fleet/{}", engine.name()), || {
                fleet_snapshot(opts, engine)
            })?;
            points.push(PerfPoint {
                scenario: "fleet",
                engine,
                snap,
            });
        }
    }
    Ok(points)
}

/// The paper's eval setup under vProbe at default noise: every quantum
/// dirties inputs, so the engine actually solves.
fn noisy_snapshot(opts: &ReportOptions, engine: EngineSelect) -> Result<PerfSnapshot, SimError> {
    let ropts = RunOptions {
        seed: opts.seed,
        engine,
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
/// so unchanged nodes clean-skip and unchanged slots replay their
/// demand — the incremental-reuse path at its best case.
fn phased_snapshot(opts: &ReportOptions, engine: EngineSelect) -> Result<PerfSnapshot, SimError> {
    let cfg = MachineConfig {
        seed: opts.seed,
        intensity_noise_sd: 0.0,
        ..MachineConfig::default()
    };
    let mut m = MachineBuilder::new(presets::xeon_e5620())
        .config(cfg)
        .policy(Scheduler::VProbe.policy(2, opts.seed))
        .engine(engine)
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
fn quiescent_snapshot(
    opts: &ReportOptions,
    engine: EngineSelect,
) -> Result<PerfSnapshot, SimError> {
    let cfg = MachineConfig {
        seed: opts.seed,
        intensity_noise_sd: 0.0,
        ..MachineConfig::default()
    };
    let mut m = MachineBuilder::new(presets::xeon_e5620())
        .config(cfg)
        .policy(Box::new(CreditPolicy::new()))
        .engine(engine)
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
fn fleet_snapshot(opts: &ReportOptions, engine: EngineSelect) -> Result<PerfSnapshot, SimError> {
    let mut cfg = crate::fig_fleet::sweep_config(
        FleetScheduler::VProbe,
        opts.fleet_hosts,
        opts.seed,
        opts.fleet_epochs,
        true,
    );
    cfg.engine = engine;
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
        &[
            "scenario",
            "engine",
            "steps",
            "skip %",
            "clean skips",
            "memo hit %",
            "rounds/solve",
            "replay",
            "tol exits",
        ],
    );
    for p in points {
        let e = &p.snap.engine;
        t.push_row(vec![
            p.scenario.to_string(),
            p.engine.name().to_string(),
            e.steps.to_string(),
            pct(e.skip_rate()),
            e.node_clean_skips.to_string(),
            pct(e.memo_hit_rate()),
            f3(e.rounds_per_solving_step()),
            e.replay_fires.to_string(),
            e.tolerance_exits.to_string(),
        ]);
    }
    t
}

/// Exact-vs-approx effectiveness deltas, one row per scenario that ran
/// under both engines. "rounds saved" is the fixed-point rounds the
/// approx engine avoided relative to exact (negative means it did more).
pub fn render_deltas(points: &[PerfPoint]) -> Table {
    let mut t = Table::new(
        "Exact vs approx — solver effort for the same simulated work",
        &[
            "scenario",
            "fp rounds (exact)",
            "fp rounds (approx)",
            "rounds saved",
            "tol exits",
            "snap backs",
            "memo hit % (approx)",
        ],
    );
    let mut seen: Vec<&'static str> = Vec::new();
    for p in points {
        if !seen.contains(&p.scenario) {
            seen.push(p.scenario);
        }
    }
    for scenario in seen {
        let find = |engine: EngineSelect| {
            points
                .iter()
                .find(|p| p.scenario == scenario && p.engine == engine)
        };
        if let (Some(ex), Some(ap)) = (find(EngineSelect::Exact), find(EngineSelect::Approx)) {
            let (exr, apr) = (ex.snap.engine.fp_rounds, ap.snap.engine.fp_rounds);
            let saved = if exr > 0 {
                format!("{:+.1}%", (1.0 - apr as f64 / exr as f64) * 100.0)
            } else {
                "-".into()
            };
            t.push_row(vec![
                scenario.to_string(),
                exr.to_string(),
                apr.to_string(),
                saved,
                ap.snap.engine.tolerance_exits.to_string(),
                ap.snap.engine.snap_backs.to_string(),
                pct(ap.snap.engine.memo_hit_rate()),
            ]);
        }
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
                    ("engine".into(), Json::Str(p.engine.name().into())),
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

/// The complete stdout report: both tables plus the digest line.
pub fn report_text(points: &[PerfPoint]) -> String {
    format!(
        "{}\n{}\ncounter digest: {}\n",
        render(points).to_text(),
        render_deltas(points).to_text(),
        digest(points)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel;

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
    fn matrix_covers_scenarios_and_engines() {
        let mut timers = PhaseTimers::new();
        let points = run(&tiny(), &mut timers).unwrap();
        assert_eq!(points.len(), 8);
        let scenarios: Vec<_> = points.iter().map(|p| p.scenario).collect();
        assert_eq!(
            scenarios,
            [
                "noisy",
                "noisy",
                "phased",
                "phased",
                "quiescent",
                "quiescent",
                "fleet",
                "fleet"
            ]
        );
        // The quiescent exact run is mostly whole-step skips...
        let quiet = &points[4];
        assert!(quiet.snap.engine.whole_step_skips * 2 > quiet.snap.engine.steps);
        // ...and the fleet run aggregates every host.
        let fl = &points[6];
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
        assert_eq!(points.len(), 6);
        assert!(points.iter().all(|p| p.scenario != "fleet"));
    }
}
