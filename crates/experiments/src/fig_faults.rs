//! Robustness sweep (beyond the paper): scheduler slowdown vs fault rate.
//!
//! The paper evaluates vProbe on a healthy testbed; this sweep asks what
//! each scheduler's PMU dependence costs when the counter pipeline and
//! the migration machinery degrade. Every scheduler runs the soplex
//! interference setup (§V-A) under [`sim_core::FaultConfig::uniform`]
//! fault injection at increasing rates, and reports its slowdown against
//! its own clean (rate 0) run — so the metric isolates fault sensitivity
//! from baseline scheduling quality.
//!
//! The sixth column is `vProbe-GD`, the graceful-degradation variant
//! ([`vprobe::variants::vprobe_gd`]): identical to vProbe at rate 0, it
//! should give back less performance than plain vProbe as the fault rate
//! grows.

use crate::report::{f3, Table};
use crate::runner::{run_schedulers, RunOptions, Scheduler, SetupKind};
use sim_core::{FaultConfig, Json, SimError};
use workloads::speccpu;

/// The swept uniform fault rates (x-axis). Rate 0 is the baseline and
/// must be bit-identical to a run without fault injection.
pub const FAULT_RATES: [f64; 4] = [0.0, 0.05, 0.1, 0.2];

/// The paper's five schedulers plus the degradation-hardened vProbe.
pub const SCHEDULERS: [Scheduler; 6] = [
    Scheduler::Credit,
    Scheduler::VProbe,
    Scheduler::VcpuP,
    Scheduler::Lb,
    Scheduler::Brm,
    Scheduler::VProbeGd,
];

/// One (scheduler, fault-rate) point of the sweep.
#[derive(Debug, Clone)]
pub struct FaultPoint {
    pub scheduler: Scheduler,
    pub fault_rate: f64,
    pub instr_rate: f64,
    /// Slowdown vs the same scheduler's lowest-rate run (1.0 = unharmed).
    pub slowdown: f64,
    pub remote_ratio: f64,
    /// Total injected fault events (sample loss, noise, corruption,
    /// failed/delayed migrations, stalls, throttles).
    pub faults_injected: u64,
    pub periods_skipped: u64,
    pub fallback_periods: u64,
    pub migration_retries: u64,
}

/// Run the full sweep: [`SCHEDULERS`] × [`FAULT_RATES`].
pub fn run(opts: &RunOptions) -> Result<Vec<FaultPoint>, SimError> {
    run_grid(&SCHEDULERS, &FAULT_RATES, opts)
}

/// Run chosen schedulers × rates. The fault seed is taken from
/// `opts.faults.seed`; each scheduler is normalized against its own run
/// at the lowest swept rate. Points come back grouped by scheduler, in
/// rate order.
pub fn run_grid(
    schedulers: &[Scheduler],
    rates: &[f64],
    opts: &RunOptions,
) -> Result<Vec<FaultPoint>, SimError> {
    let fault_seed = opts.faults.seed;
    // At one rate the Credit warmup is the same for every scheduler, so
    // each rate warms one machine and forks it per scheduler.
    let per_rate = sim_core::parallel::parallel_try_map(rates.to_vec(), |rate| {
        let mut o = opts.clone();
        o.faults = FaultConfig::uniform(rate, fault_seed);
        let soplex = || vec![speccpu::soplex(); 4];
        run_schedulers(schedulers, SetupKind::PaperEval, soplex(), soplex(), &o)
    })?;
    let mut points = Vec::with_capacity(schedulers.len() * rates.len());
    for (i, &scheduler) in schedulers.iter().enumerate() {
        for (&fault_rate, runs) in rates.iter().zip(&per_rate) {
            let r = &runs[i];
            // The lowest swept rate, the first, is the normalization baseline.
            let baseline = per_rate[0][i].instr_rate;
            let f = &r.metrics.faults;
            points.push(FaultPoint {
                scheduler,
                fault_rate,
                instr_rate: r.instr_rate,
                slowdown: baseline / r.instr_rate.max(f64::MIN_POSITIVE),
                remote_ratio: r.remote_ratio,
                faults_injected: f.injected(),
                periods_skipped: f.periods_skipped,
                fallback_periods: f.fallback_periods,
                migration_retries: f.migration_retries,
            });
        }
    }
    Ok(points)
}

/// Render as a table (text / CSV via [`Table`]).
pub fn render(points: &[FaultPoint]) -> Table {
    let mut t = Table::new(
        "Robustness — slowdown vs uniform fault rate (1.000 = clean-run speed)",
        &[
            "scheduler",
            "fault rate",
            "slowdown",
            "instr/s",
            "faults",
            "skipped",
            "fallback",
            "retries",
        ],
    );
    for p in points {
        t.push_row(vec![
            p.scheduler.name().to_string(),
            format!("{}", p.fault_rate),
            f3(p.slowdown),
            format!("{:.3e}", p.instr_rate),
            p.faults_injected.to_string(),
            p.periods_skipped.to_string(),
            p.fallback_periods.to_string(),
            p.migration_retries.to_string(),
        ]);
    }
    t
}

/// Serialize the sweep as JSON (one object per point, key order stable).
pub fn to_json(points: &[FaultPoint]) -> String {
    Json::Arr(
        points
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("scheduler".into(), Json::from(p.scheduler.name())),
                    ("fault_rate".into(), Json::Num(p.fault_rate)),
                    ("slowdown".into(), Json::Num(p.slowdown)),
                    ("instr_rate".into(), Json::Num(p.instr_rate)),
                    ("remote_ratio".into(), Json::Num(p.remote_ratio)),
                    ("faults_injected".into(), Json::from(p.faults_injected)),
                    ("periods_skipped".into(), Json::from(p.periods_skipped)),
                    ("fallback_periods".into(), Json::from(p.fallback_periods)),
                    ("migration_retries".into(), Json::from(p.migration_retries)),
                ])
            })
            .collect(),
    )
    .to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_workload, ALL_SCHEDULERS};
    use sim_core::SimDuration;

    fn quick() -> RunOptions {
        RunOptions {
            duration: SimDuration::from_secs(6),
            warmup: SimDuration::from_secs(4),
            ..RunOptions::default()
        }
    }

    #[test]
    fn rates_start_clean_and_grow() {
        assert_eq!(FAULT_RATES[0], 0.0);
        assert!(FAULT_RATES.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(SCHEDULERS.len(), ALL_SCHEDULERS.len() + 1);
        assert!(SCHEDULERS.contains(&Scheduler::VProbeGd));
    }

    #[test]
    fn zero_rate_point_matches_clean_run() {
        let opts = quick();
        let pts = run_grid(&[Scheduler::VProbe], &[0.0], &opts).unwrap();
        let clean = run_workload(
            Scheduler::VProbe,
            SetupKind::PaperEval,
            vec![speccpu::soplex(); 4],
            vec![speccpu::soplex(); 4],
            &opts,
        )
        .unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].instr_rate, clean.instr_rate);
        assert_eq!(pts[0].faults_injected, 0);
        assert!((pts[0].slowdown - 1.0).abs() < 1e-12);
    }

    #[test]
    fn faulty_sweep_is_deterministic_and_injects() {
        let opts = quick();
        let a = run_grid(&[Scheduler::Credit], &[0.2], &opts).unwrap();
        let b = run_grid(&[Scheduler::Credit], &[0.2], &opts).unwrap();
        assert_eq!(a[0].instr_rate, b[0].instr_rate);
        assert_eq!(a[0].faults_injected, b[0].faults_injected);
        assert!(a[0].faults_injected > 0, "rate 0.2 must inject faults");
    }

    #[test]
    fn render_and_json_shapes() {
        let pts = vec![FaultPoint {
            scheduler: Scheduler::VProbeGd,
            fault_rate: 0.1,
            instr_rate: 2.0e9,
            slowdown: 1.05,
            remote_ratio: 0.2,
            faults_injected: 17,
            periods_skipped: 2,
            fallback_periods: 1,
            migration_retries: 3,
        }];
        let t = render(&pts);
        assert_eq!(t.num_rows(), 1);
        assert!(t.to_csv().contains("vProbe-GD,0.1,1.050"));
        let json = to_json(&pts);
        let doc = Json::parse(&json).unwrap();
        let arr = doc.as_array().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("faults_injected").unwrap().as_u64(), Some(17));
    }
}
