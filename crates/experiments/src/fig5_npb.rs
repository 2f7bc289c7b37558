//! Fig. 5 — NAS Parallel Benchmarks under the five schedulers.
//!
//! Five 4-threaded programs (bt, cg, lu, mg, sp) run identically in VM1
//! and VM2 (§V-B2); metrics and normalization are the same three panels as
//! Fig. 4. The paper's headline number — vProbe 45.2 % faster than Credit —
//! comes from this experiment's `sp` workload.

use crate::fig4_spec::{normalize, WorkloadBars};
use crate::report::Table;
use crate::runner::{run_all_schedulers, RunOptions, SetupKind};
use sim_core::SimError;
use workloads::{npb, WorkloadSpec};

/// The five Fig. 5 programs.
pub fn workload_set() -> Vec<(String, Vec<WorkloadSpec>)> {
    npb::fig5_set()
        .into_iter()
        .map(|w| (w.name.clone(), vec![w]))
        .collect()
}

/// Run the full Fig. 5 sweep (workloads in parallel; rows stay in
/// `workload_set` order).
pub fn run(opts: &RunOptions) -> Result<Vec<WorkloadBars>, SimError> {
    sim_core::parallel::parallel_try_map(workload_set(), |(name, wl)| {
        let runs = run_all_schedulers(SetupKind::PaperEval, wl.clone(), wl, opts)?;
        Ok(normalize(&name, runs))
    })
}

/// Render (same panel layout as Fig. 4).
pub fn render(results: &[WorkloadBars]) -> Table {
    crate::fig4_spec::render(results, "Fig. 5")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimDuration;

    fn quick() -> RunOptions {
        RunOptions {
            duration: SimDuration::from_secs(8),
            warmup: SimDuration::from_secs(4),
            ..RunOptions::default()
        }
    }

    #[test]
    fn workload_set_is_the_papers_five() {
        let names: Vec<String> = workload_set().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["bt", "cg", "lu", "mg", "sp"]);
    }

    #[test]
    fn sp_shape_vprobe_beats_credit() {
        // sp is the paper's best case (45.2 %); at minimum vProbe must win.
        let (name, wl) = workload_set().remove(4);
        assert_eq!(name, "sp");
        let runs = run_all_schedulers(SetupKind::PaperEval, wl.clone(), wl, &quick()).unwrap();
        let wb = normalize(&name, runs);
        let vprobe = wb.bars.iter().find(|b| b.scheduler == "vProbe").unwrap();
        assert!(
            vprobe.norm_time < 1.0,
            "vProbe must beat Credit on sp: {}",
            vprobe.norm_time
        );
        assert!(vprobe.norm_remote < 0.95);
    }
}
