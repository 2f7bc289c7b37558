//! Fig. 8 — sampling-period sensitivity.
//!
//! The paper runs the SPEC *mix* workload under vProbe with the sampling
//! period swept from 0.1 s to 10 s and reports the workload's completion
//! time, finding a U-shape with the optimum at 1 s: shorter periods pay
//! monitoring/migration overhead, longer ones act on stale memory-access
//! characteristics (the guest keeps rebalancing threads across VCPUs, so
//! per-VCPU affinities rot).

use crate::report::{f3, Table};
use crate::runner::{run_workload, RunOptions, Scheduler, SetupKind};
use sim_core::{SimDuration, SimError};
use workloads::speccpu;

/// The swept periods (seconds, paper Fig. 8 x-axis).
pub const PERIODS_S: [f64; 7] = [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0];

/// One point of Fig. 8.
#[derive(Debug, Clone)]
pub struct Fig8Point {
    pub period_s: f64,
    /// Relative completion time of the mix workload (1.0 = the 1 s run).
    pub norm_time: f64,
    pub instr_rate: f64,
}

/// Run the sweep under vProbe.
pub fn run(opts: &RunOptions) -> Result<Vec<Fig8Point>, SimError> {
    run_periods(&PERIODS_S, opts)
}

/// Run chosen periods; normalization is against the 1 s run (or the first
/// period if 1 s is not included).
pub fn run_periods(periods_s: &[f64], opts: &RunOptions) -> Result<Vec<Fig8Point>, SimError> {
    let rates = sim_core::parallel::parallel_try_map(periods_s.to_vec(), |p| {
        let mut o = opts.clone();
        o.sample_period = SimDuration::from_secs_f64(p);
        let r = run_workload(
            Scheduler::VProbe,
            SetupKind::PaperEval,
            speccpu::mix(),
            speccpu::mix(),
            &o,
        )?;
        Ok((p, r.instr_rate))
    })?;
    let reference = rates
        .iter()
        .find(|&&(p, _)| (p - 1.0).abs() < 1e-9)
        .or_else(|| rates.first())
        .map(|&(_, rate)| rate)
        .ok_or_else(|| {
            SimError::InvalidConfig("sampling-period sweep needs at least one period".into())
        })?;
    Ok(rates
        .into_iter()
        .map(|(p, rate)| Fig8Point {
            period_s: p,
            norm_time: reference / rate,
            instr_rate: rate,
        })
        .collect())
}

/// Render as a table.
pub fn render(points: &[Fig8Point]) -> Table {
    let mut t = Table::new(
        "Fig. 8 — workload mix completion time vs sampling period (1 s = 1.000)",
        &["period (s)", "normalized time"],
    );
    for p in points {
        t.push_row(vec![format!("{}", p.period_s), f3(p.norm_time)]);
    }
    t
}

/// The paper's claim: 1 s is no worse than both the shortest and the
/// longest period (the sweep is U-shaped around it).
pub fn u_shape_holds(points: &[Fig8Point]) -> bool {
    let at = |p: f64| {
        points
            .iter()
            .find(|x| (x.period_s - p).abs() < 1e-9)
            .map(|x| x.norm_time)
    };
    match (at(0.1), at(1.0), at(10.0)) {
        (Some(short), Some(mid), Some(long)) => mid <= short + 1e-9 && mid <= long + 1e-9,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunOptions {
        RunOptions {
            duration: SimDuration::from_secs(12),
            warmup: SimDuration::from_secs(4),
            ..RunOptions::default()
        }
    }

    #[test]
    fn periods_span_paper_range() {
        assert_eq!(PERIODS_S[0], 0.1);
        assert_eq!(PERIODS_S[PERIODS_S.len() - 1], 10.0);
        assert!(PERIODS_S.contains(&1.0));
    }

    #[test]
    fn one_second_beats_extremes() {
        let pts = run_periods(&[0.1, 1.0, 10.0], &quick()).unwrap();
        assert!(u_shape_holds(&pts), "points: {pts:?}");
    }

    #[test]
    fn normalization_reference_is_one_second() {
        let pts = run_periods(&[0.5, 1.0], &quick()).unwrap();
        let one = pts.iter().find(|p| p.period_s == 1.0).unwrap();
        assert!((one.norm_time - 1.0).abs() < 1e-9);
    }

    #[test]
    fn render_shape() {
        let pts = vec![
            Fig8Point {
                period_s: 1.0,
                norm_time: 1.0,
                instr_rate: 1.0,
            },
            Fig8Point {
                period_s: 10.0,
                norm_time: 1.1,
                instr_rate: 0.9,
            },
        ];
        let t = render(&pts);
        assert_eq!(t.num_rows(), 2);
    }
}
