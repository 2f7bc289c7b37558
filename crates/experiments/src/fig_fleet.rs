//! Fleet sweep (beyond the paper): scheduler robustness at datacenter
//! scale under churn and host failures.
//!
//! The paper evaluates one machine; this sweep stands up a whole fleet of
//! NUMA hosts via the [`fleet`] crate — VM arrival/departure churn,
//! seed-deterministic host crashes with rack-correlated failure domains,
//! and self-healing evacuation — and compares Credit, vProbe, and
//! vProbe-GD on SLO outcomes the single-machine figures cannot show:
//! evacuation latency, shed work, degraded VM-minutes, and throughput per
//! host-up-second.
//!
//! Points run **sequentially**: each fleet already shards its hosts over
//! the workspace worker pool ([`sim_core::parallel::parallel_map`]), so
//! parallelizing the sweep grid on top would nest thread pools for no
//! gain. Output is byte-identical for any `--jobs` value.

use crate::report::{f3, Table};
use crate::runner::RunOptions;
use fleet::{ChurnConfig, FailureConfig, Fleet, FleetConfig, FleetReport, FleetScheduler};
use sim_core::{Json, SimError};

/// The fleet schedulers compared (the single-machine-only heuristics
/// VCPU-P/LB/BRM are not interesting at fleet scale).
pub const SCHEDULERS: [FleetScheduler; 3] = [
    FleetScheduler::Credit,
    FleetScheduler::VProbe,
    FleetScheduler::VProbeGd,
];

/// Paper-scale fleet sizes (the 100–1000 host regime the placement
/// literature targets).
pub const FULL_SIZES: [usize; 2] = [100, 1000];
/// Smoke-scale sizes for `--quick` runs and tests (big enough that the
/// default failure rates actually crash a host or two over the run).
pub const QUICK_SIZES: [usize; 1] = [24];

/// One (scheduler, fleet-size) point of the sweep.
#[derive(Debug, Clone)]
pub struct FleetPoint {
    pub scheduler: &'static str,
    pub num_hosts: usize,
    pub crashes: u64,
    pub rack_crashes: u64,
    pub displaced: u64,
    pub evacuated: u64,
    pub shed: u64,
    /// Must be 0 — the no-silent-loss invariant.
    pub vms_lost: i64,
    pub evac_latency_mean_s: f64,
    pub degraded_vm_minutes: f64,
    pub placement_failures: u64,
    pub migration_failures: u64,
    pub hosts_up_end: usize,
    pub instr_per_host_up_s: f64,
}

impl FleetPoint {
    fn from_report(r: &FleetReport) -> FleetPoint {
        FleetPoint {
            scheduler: r.scheduler,
            num_hosts: r.num_hosts,
            crashes: r.metrics.crashes,
            rack_crashes: r.metrics.rack_crashes,
            displaced: r.metrics.displaced,
            evacuated: r.metrics.evacuated,
            shed: r.metrics.shed_total(),
            vms_lost: r.vms_lost,
            evac_latency_mean_s: r.metrics.evac_latency_s.mean(),
            degraded_vm_minutes: r.degraded_vm_minutes,
            placement_failures: r.metrics.placement_failures,
            migration_failures: r.metrics.migration_failures,
            hosts_up_end: r.hosts_up_end,
            instr_per_host_up_s: r.instr_per_host_up_s,
        }
    }
}

/// The churn/failure regime every point runs under. Arrival pressure
/// scales with fleet size so utilization stays comparable across sizes.
/// `smoke` raises the crash rates ~5× so the failure/evacuation paths are
/// reliably exercised even at [`QUICK_SIZES`]-scale host-epoch counts
/// (at 100+ hosts the production-plausible rates already crash plenty).
pub fn sweep_config(
    scheduler: FleetScheduler,
    hosts: usize,
    seed: u64,
    epochs: u64,
    smoke: bool,
) -> FleetConfig {
    let mut cfg = FleetConfig::new(hosts, scheduler);
    cfg.seed = seed;
    cfg.epochs = epochs;
    cfg.initial_vms_per_host = 2;
    cfg.churn = ChurnConfig {
        arrivals_per_epoch: hosts as f64 * 0.05,
        departure_rate: 0.02,
    };
    cfg.failures = FailureConfig {
        host_crash_rate: if smoke { 0.05 } else { 0.01 },
        rack_crash_rate: if smoke { 0.01 } else { 0.002 },
        recovery_epochs_mean: 3.0,
        migration_fail_rate: 0.1,
        migration_delay_rate: 0.1,
        ..FailureConfig::none()
    };
    cfg
}

/// Run the paper-scale sweep: [`SCHEDULERS`] × [`FULL_SIZES`]. Only
/// `opts.seed` applies — fleet time is measured in epochs, not the
/// single-machine duration/warmup window.
pub fn run(opts: &RunOptions) -> Result<Vec<FleetPoint>, SimError> {
    run_grid(&SCHEDULERS, &FULL_SIZES, opts, 12, false)
}

/// Run the smoke-scale sweep: [`SCHEDULERS`] × [`QUICK_SIZES`].
pub fn run_quick(opts: &RunOptions) -> Result<Vec<FleetPoint>, SimError> {
    run_grid(&SCHEDULERS, &QUICK_SIZES, opts, 8, true)
}

/// Run chosen schedulers × fleet sizes, sequentially (see module docs).
pub fn run_grid(
    schedulers: &[FleetScheduler],
    sizes: &[usize],
    opts: &RunOptions,
    epochs: u64,
    smoke: bool,
) -> Result<Vec<FleetPoint>, SimError> {
    let mut points = Vec::with_capacity(schedulers.len() * sizes.len());
    for &scheduler in schedulers {
        for &hosts in sizes {
            let cfg = sweep_config(scheduler, hosts, opts.seed, epochs, smoke);
            let report = Fleet::new(cfg)?.run()?;
            if report.vms_lost != 0 {
                return Err(SimError::InvalidConfig(format!(
                    "fleet sweep ({} @ {hosts} hosts) lost {} VMs",
                    scheduler.name(),
                    report.vms_lost
                )));
            }
            points.push(FleetPoint::from_report(&report));
        }
    }
    Ok(points)
}

/// Render as a table (text / CSV via [`Table`]).
pub fn render(points: &[FleetPoint]) -> Table {
    let mut t = Table::new(
        "Fleet — churn + host failures: SLO outcomes per scheduler and fleet size",
        &[
            "scheduler",
            "hosts",
            "crashes",
            "displaced",
            "evacuated",
            "shed",
            "evac lat (s)",
            "degraded VM-min",
            "place fail",
            "instr/host-up-s",
        ],
    );
    for p in points {
        t.push_row(vec![
            p.scheduler.to_string(),
            p.num_hosts.to_string(),
            p.crashes.to_string(),
            p.displaced.to_string(),
            p.evacuated.to_string(),
            p.shed.to_string(),
            f3(p.evac_latency_mean_s),
            f3(p.degraded_vm_minutes),
            p.placement_failures.to_string(),
            format!("{:.3e}", p.instr_per_host_up_s),
        ]);
    }
    t
}

/// Serialize the sweep as JSON (one object per point, key order stable).
pub fn to_json(points: &[FleetPoint]) -> String {
    Json::Arr(
        points
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("scheduler".into(), Json::from(p.scheduler)),
                    ("num_hosts".into(), Json::from(p.num_hosts)),
                    ("crashes".into(), Json::from(p.crashes)),
                    ("rack_crashes".into(), Json::from(p.rack_crashes)),
                    ("displaced".into(), Json::from(p.displaced)),
                    ("evacuated".into(), Json::from(p.evacuated)),
                    ("shed".into(), Json::from(p.shed)),
                    ("vms_lost".into(), Json::from(p.vms_lost as f64)),
                    (
                        "evac_latency_mean_s".into(),
                        Json::Num(p.evac_latency_mean_s),
                    ),
                    (
                        "degraded_vm_minutes".into(),
                        Json::Num(p.degraded_vm_minutes),
                    ),
                    (
                        "placement_failures".into(),
                        Json::from(p.placement_failures),
                    ),
                    (
                        "migration_failures".into(),
                        Json::from(p.migration_failures),
                    ),
                    ("hosts_up_end".into(), Json::from(p.hosts_up_end)),
                    (
                        "instr_per_host_up_s".into(),
                        Json::Num(p.instr_per_host_up_s),
                    ),
                ])
            })
            .collect(),
    )
    .to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_runs_all_points_and_loses_nothing() {
        let opts = RunOptions::default();
        let pts = run_grid(&SCHEDULERS, &QUICK_SIZES, &opts, 4, true).unwrap();
        assert_eq!(pts.len(), SCHEDULERS.len());
        for p in &pts {
            assert_eq!(p.vms_lost, 0, "{}: no VM may vanish", p.scheduler);
            assert!(p.instr_per_host_up_s > 0.0);
        }
    }

    #[test]
    fn crashed_evacuation_target_loses_no_vm() {
        // Fleet seed 20 of the smoke regime crashes a host while an
        // evacuation copy is in flight to it. Counting that copy as a
        // second displacement used to leave `vms_lost` at 1 (and trip
        // the controller's debug assertion).
        let mut cfg = sweep_config(FleetScheduler::VProbe, 24, 20, 8, true);
        cfg.fault_seed = 20;
        let report = Fleet::new(cfg).unwrap().run().unwrap();
        assert!(report.metrics.crashes > 0);
        assert_eq!(report.vms_lost, 0);
    }

    #[test]
    fn sweep_is_deterministic() {
        let opts = RunOptions {
            seed: 7,
            ..RunOptions::default()
        };
        let a = to_json(&run_grid(&[FleetScheduler::Credit], &[6], &opts, 4, true).unwrap());
        let b = to_json(&run_grid(&[FleetScheduler::Credit], &[6], &opts, 4, true).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn render_and_json_shapes() {
        let opts = RunOptions::default();
        let pts = run_grid(&[FleetScheduler::VProbeGd], &[4], &opts, 3, true).unwrap();
        let t = render(&pts);
        assert_eq!(t.num_rows(), 1);
        assert!(t.to_csv().contains("vProbe-GD"));
        let doc = Json::parse(&to_json(&pts)).unwrap();
        let arr = doc.as_array().unwrap();
        assert_eq!(arr[0].get("num_hosts").unwrap().as_u64(), Some(4));
        assert_eq!(arr[0].get("vms_lost").unwrap().as_f64(), Some(0.0));
    }
}
