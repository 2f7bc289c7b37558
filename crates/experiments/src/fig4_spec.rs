//! Fig. 4 — SPEC CPU2006 under the five schedulers.
//!
//! Five workloads (paper §V-B1): four identical instances each of soplex,
//! libquantum, and milc; mcf split six-in-VM1 / two-in-VM2 (VM2's 5 GB
//! only fits two); and *mix* (one instance each of the four programs).
//! For every workload and scheduler we report normalized execution time
//! (4a), normalized total memory accesses (4b), and normalized remote
//! memory accesses (4c), all relative to Credit.

use crate::report::{f3, Table};
use crate::runner::{run_all_schedulers, RunOptions, SetupKind, WorkloadRun};
use sim_core::SimError;
use workloads::{speccpu, WorkloadSpec};

/// One scheduler's bars for one workload.
#[derive(Debug, Clone)]
pub struct SchedulerBars {
    pub scheduler: &'static str,
    pub norm_time: f64,
    pub norm_total: f64,
    pub norm_remote: f64,
}

/// All five schedulers' results for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadBars {
    pub workload: String,
    pub bars: Vec<SchedulerBars>,
    pub runs: Vec<WorkloadRun>,
}

/// The five Fig. 4 workloads as (name, VM1 programs, VM2 programs).
pub fn workload_set() -> Vec<(String, Vec<WorkloadSpec>, Vec<WorkloadSpec>)> {
    vec![
        (
            "soplex".into(),
            vec![speccpu::soplex(); 4],
            vec![speccpu::soplex(); 4],
        ),
        (
            "libquantum".into(),
            vec![speccpu::libquantum(); 4],
            vec![speccpu::libquantum(); 4],
        ),
        // "we run six instances of the mcf in VM1 and two instances in VM2
        // to guarantee that all four workloads have the same total number
        // of instances" (§V-B1).
        (
            "mcf".into(),
            vec![speccpu::mcf(); 6],
            vec![speccpu::mcf(); 2],
        ),
        (
            "milc".into(),
            vec![speccpu::milc(); 4],
            vec![speccpu::milc(); 4],
        ),
        ("mix".into(), speccpu::mix(), speccpu::mix()),
    ]
}

/// Normalize a scheduler sweep against its Credit run (always `runs[0]`).
pub fn normalize(workload: &str, runs: Vec<WorkloadRun>) -> WorkloadBars {
    let credit = runs[0].clone();
    let bars = runs
        .iter()
        .map(|r| SchedulerBars {
            scheduler: r.scheduler.name(),
            norm_time: r.normalized_time_vs(&credit),
            norm_total: r.normalized_total_vs(&credit),
            norm_remote: r.normalized_remote_vs(&credit),
        })
        .collect();
    WorkloadBars {
        workload: workload.to_string(),
        bars,
        runs,
    }
}

/// Run the full Fig. 4 sweep (workloads in parallel; rows stay in
/// `workload_set` order).
pub fn run(opts: &RunOptions) -> Result<Vec<WorkloadBars>, SimError> {
    sim_core::parallel::parallel_try_map(workload_set(), |(name, vm1, vm2)| {
        let runs = run_all_schedulers(SetupKind::PaperEval, vm1, vm2, opts)?;
        Ok(normalize(&name, runs))
    })
}

/// Render all three panels as one table.
pub fn render(results: &[WorkloadBars], figure: &str) -> Table {
    let mut t = Table::new(
        format!("{figure} — normalized vs Credit (time / total accesses / remote accesses)"),
        &[
            "workload",
            "scheduler",
            "time (a)",
            "total (b)",
            "remote (c)",
        ],
    );
    for wb in results {
        for b in &wb.bars {
            t.push_row(vec![
                wb.workload.clone(),
                b.scheduler.to_string(),
                f3(b.norm_time),
                f3(b.norm_total),
                f3(b.norm_remote),
            ]);
        }
    }
    t
}

/// The qualitative claims of Fig. 4 that the reproduction asserts:
/// vProbe no slower than Credit and with clearly fewer remote accesses,
/// on every workload.
pub fn shape_holds(results: &[WorkloadBars]) -> bool {
    results.iter().all(|wb| {
        let vprobe = wb.bars.iter().find(|b| b.scheduler == "vProbe").unwrap();
        vprobe.norm_time <= 1.02 && vprobe.norm_remote < 0.9
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Scheduler;
    use sim_core::SimDuration;
    use std::sync::OnceLock;

    fn quick() -> RunOptions {
        RunOptions {
            duration: SimDuration::from_secs(8),
            warmup: SimDuration::from_secs(4),
            ..RunOptions::default()
        }
    }

    /// The soplex sweep at `quick()` options, run once per test process
    /// and shared by every test that reads it.
    fn soplex() -> &'static WorkloadBars {
        static SWEEP: OnceLock<WorkloadBars> = OnceLock::new();
        SWEEP.get_or_init(|| {
            let (name, vm1, vm2) = workload_set().remove(0);
            let runs = run_all_schedulers(SetupKind::PaperEval, vm1, vm2, &quick()).unwrap();
            normalize(&name, runs)
        })
    }

    #[test]
    fn workload_set_matches_paper() {
        let set = workload_set();
        assert_eq!(set.len(), 5);
        let (name, vm1, vm2) = &set[2];
        assert_eq!(name, "mcf");
        assert_eq!(vm1.len(), 6, "six mcf instances in VM1");
        assert_eq!(vm2.len(), 2, "two in VM2");
        assert_eq!(set[4].1.len(), 4, "mix runs one instance of each");
    }

    #[test]
    fn soplex_shape_vprobe_beats_credit() {
        let wb = soplex();
        let vprobe = wb.bars.iter().find(|b| b.scheduler == "vProbe").unwrap();
        assert!(
            vprobe.norm_time < 1.0,
            "vProbe should beat Credit on soplex: {}",
            vprobe.norm_time
        );
        assert!(
            vprobe.norm_remote < 0.95,
            "vProbe should cut remote accesses: {}",
            vprobe.norm_remote
        );
    }

    #[test]
    fn normalize_sets_credit_to_unity() {
        let (name, vm1, vm2) = workload_set().remove(1);
        let runs = run_all_schedulers(SetupKind::PaperEval, vm1, vm2, &quick()).unwrap();
        let wb = normalize(&name, runs);
        let credit = &wb.bars[0];
        assert_eq!(credit.scheduler, Scheduler::Credit.name());
        assert!((credit.norm_time - 1.0).abs() < 1e-9);
        assert!((credit.norm_total - 1.0).abs() < 1e-9);
        assert!((credit.norm_remote - 1.0).abs() < 1e-9);
    }

    #[test]
    fn render_emits_five_rows_per_workload() {
        let t = render(std::slice::from_ref(soplex()), "Fig. 4");
        assert_eq!(t.num_rows(), 5);
    }
}
