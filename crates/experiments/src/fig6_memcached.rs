//! Fig. 6 — memcached under a memslap concurrency sweep.
//!
//! Each of VM1/VM2 hosts a memcached server with eight working ports; the
//! memslap driver issues 50 000 operations at concurrency levels 16–112
//! (§V-B3). Reported per level and scheduler: normalized completion time
//! (6a) and normalized total/remote accesses (6b, 6c).
//!
//! The paper's qualitative finding — LB beats VCPU-P at low concurrency
//! (remote latency dominates) while VCPU-P wins at high concurrency (LLC
//! contention dominates) — emerges here from the concurrency-dependent
//! memory model in `workloads::kv`.

use crate::report::{f3, Table};
use crate::runner::{run_all_schedulers, RunOptions, SetupKind, WorkloadRun};
use sim_core::SimError;
use workloads::kv::{self, MEMCACHED_CONCURRENCIES, MEMSLAP_OPS};

/// One scheduler's results at one concurrency level.
#[derive(Debug, Clone)]
pub struct Fig6Point {
    pub concurrency: u32,
    pub scheduler: &'static str,
    /// Completion time of the 50 000-operation memslap run, seconds.
    pub completion_s: f64,
    pub norm_time: f64,
    pub norm_total: f64,
    pub norm_remote: f64,
}

/// Run the sweep. Returns points grouped by concurrency, Credit first.
pub fn run(opts: &RunOptions) -> Result<Vec<Fig6Point>, SimError> {
    run_levels(&MEMCACHED_CONCURRENCIES, opts)
}

/// Run a chosen set of concurrency levels (levels in parallel on top of
/// the per-scheduler parallelism; point order is unchanged).
pub fn run_levels(levels: &[u32], opts: &RunOptions) -> Result<Vec<Fig6Point>, SimError> {
    let per_level = sim_core::parallel::parallel_try_map(levels.to_vec(), |c| {
        let spec = kv::memcached(c);
        let runs = run_all_schedulers(
            SetupKind::PaperEval,
            vec![spec.clone()],
            vec![spec.clone()],
            opts,
        )?;
        let credit = runs[0].clone();
        Ok(runs
            .iter()
            .map(|r| point(c, &spec, r, &credit))
            .collect::<Vec<_>>())
    })?;
    Ok(per_level.into_iter().flatten().collect())
}

fn point(
    c: u32,
    spec: &workloads::WorkloadSpec,
    r: &WorkloadRun,
    credit: &WorkloadRun,
) -> Fig6Point {
    Fig6Point {
        concurrency: c,
        scheduler: r.scheduler.name(),
        completion_s: kv::completion_time_s(spec, r.instr_rate, MEMSLAP_OPS),
        norm_time: r.normalized_time_vs(credit),
        norm_total: r.normalized_total_vs(credit),
        norm_remote: r.normalized_remote_vs(credit),
    }
}

/// Render as a table.
pub fn render(points: &[Fig6Point]) -> Table {
    let mut t = Table::new(
        "Fig. 6 — memcached, 50 000 memslap ops (normalized vs Credit)",
        &[
            "concurrency",
            "scheduler",
            "completion (s)",
            "time (a)",
            "total (b)",
            "remote (c)",
        ],
    );
    for p in points {
        t.push_row(vec![
            p.concurrency.to_string(),
            p.scheduler.to_string(),
            f3(p.completion_s),
            f3(p.norm_time),
            f3(p.norm_total),
            f3(p.norm_remote),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimDuration;
    use std::sync::OnceLock;

    fn quick() -> RunOptions {
        RunOptions {
            duration: SimDuration::from_secs(8),
            warmup: SimDuration::from_secs(4),
            ..RunOptions::default()
        }
    }

    /// Level 80 at `quick()` options, run once per test process and
    /// shared by every test that reads it.
    fn level_80() -> &'static [Fig6Point] {
        static POINTS: OnceLock<Vec<Fig6Point>> = OnceLock::new();
        POINTS.get_or_init(|| run_levels(&[80], &quick()).unwrap())
    }

    #[test]
    fn sweep_levels_match_paper() {
        assert_eq!(MEMCACHED_CONCURRENCIES, [16, 32, 48, 64, 80, 96, 112]);
    }

    #[test]
    fn single_level_produces_five_points() {
        let pts = level_80();
        assert_eq!(pts.len(), 5);
        assert!(pts.iter().all(|p| p.concurrency == 80));
        assert!(
            (pts[0].norm_time - 1.0).abs() < 1e-9,
            "credit normalizes to 1"
        );
        assert!(pts.iter().all(|p| p.completion_s > 0.0));
    }

    #[test]
    fn vprobe_wins_at_the_papers_peak_level() {
        // The paper's biggest gain is at concurrency 80.
        let pts = level_80();
        let vprobe = pts.iter().find(|p| p.scheduler == "vProbe").unwrap();
        assert!(
            vprobe.norm_time < 1.0,
            "vProbe should beat Credit at c=80: {}",
            vprobe.norm_time
        );
    }

    #[test]
    fn render_shape() {
        let pts = run_levels(&[16], &quick()).unwrap();
        let t = render(&pts);
        assert_eq!(t.num_rows(), 5);
        assert!(t.to_text().contains("memslap"));
    }
}
