//! Fig. 7 — redis under a parallel-connection sweep.
//!
//! Four redis servers plus four redis-benchmark drivers per VM (§V-B4),
//! GET flood, connection counts 2 000–10 000. Reported per level and
//! scheduler: average throughput in requests/second (7a — redis is the one
//! workload the paper reports as throughput rather than time) and
//! normalized total/remote accesses (7b, 7c).

use crate::report::{f3, Table};
use crate::runner::{run_all_schedulers, RunOptions, SetupKind, WorkloadRun};
use sim_core::SimError;
use workloads::kv::{self, REDIS_CONNECTIONS};

/// One scheduler's results at one connection count.
#[derive(Debug, Clone)]
pub struct Fig7Point {
    pub connections: u32,
    pub scheduler: &'static str,
    /// Aggregate GET throughput across VM1's four servers, requests/s.
    pub throughput_rps: f64,
    pub norm_throughput: f64,
    pub norm_total: f64,
    pub norm_remote: f64,
}

/// Run the full sweep.
pub fn run(opts: &RunOptions) -> Result<Vec<Fig7Point>, SimError> {
    run_levels(&REDIS_CONNECTIONS, opts)
}

/// Run a chosen set of connection counts (levels in parallel on top of
/// the per-scheduler parallelism; point order is unchanged).
pub fn run_levels(levels: &[u32], opts: &RunOptions) -> Result<Vec<Fig7Point>, SimError> {
    let per_level = sim_core::parallel::parallel_try_map(levels.to_vec(), |k| {
        let spec = kv::redis(k);
        let runs = run_all_schedulers(
            SetupKind::PaperEval,
            vec![spec.clone()],
            vec![spec.clone()],
            opts,
        )?;
        let credit = runs[0].clone();
        Ok(runs
            .iter()
            .map(|r| point(k, &spec, r, &credit))
            .collect::<Vec<_>>())
    })?;
    Ok(per_level.into_iter().flatten().collect())
}

fn point(
    k: u32,
    spec: &workloads::WorkloadSpec,
    r: &WorkloadRun,
    credit: &WorkloadRun,
) -> Fig7Point {
    let tput = kv::ops_per_second(spec, r.instr_rate);
    let credit_tput = kv::ops_per_second(spec, credit.instr_rate);
    Fig7Point {
        connections: k,
        scheduler: r.scheduler.name(),
        throughput_rps: tput,
        norm_throughput: tput / credit_tput,
        norm_total: r.normalized_total_vs(credit),
        norm_remote: r.normalized_remote_vs(credit),
    }
}

/// Render as a table.
pub fn render(points: &[Fig7Point]) -> Table {
    let mut t = Table::new(
        "Fig. 7 — redis GET flood (throughput; accesses normalized vs Credit)",
        &[
            "connections",
            "scheduler",
            "throughput (req/s)",
            "vs Credit (a)",
            "total (b)",
            "remote (c)",
        ],
    );
    for p in points {
        t.push_row(vec![
            p.connections.to_string(),
            p.scheduler.to_string(),
            format!("{:.0}", p.throughput_rps),
            f3(p.norm_throughput),
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

    fn quick() -> RunOptions {
        RunOptions {
            duration: SimDuration::from_secs(8),
            warmup: SimDuration::from_secs(4),
            ..RunOptions::default()
        }
    }

    #[test]
    fn sweep_levels_match_paper() {
        assert_eq!(REDIS_CONNECTIONS, [2_000, 4_000, 6_000, 8_000, 10_000]);
    }

    #[test]
    fn vprobe_outperforms_credit_at_2000_connections() {
        // The paper's biggest redis gain (26.0 %) is at 2 000 connections.
        let pts = run_levels(&[2_000], &quick()).unwrap();
        assert_eq!(pts.len(), 5);
        let vprobe = pts.iter().find(|p| p.scheduler == "vProbe").unwrap();
        assert!(
            vprobe.norm_throughput > 1.0,
            "vProbe throughput should exceed Credit: {}",
            vprobe.norm_throughput
        );
    }

    #[test]
    fn throughput_is_positive_and_credit_normalizes() {
        let pts = run_levels(&[6_000], &quick()).unwrap();
        assert!(pts.iter().all(|p| p.throughput_rps > 0.0));
        assert!((pts[0].norm_throughput - 1.0).abs() < 1e-9);
    }

    #[test]
    fn render_shape() {
        let pts = run_levels(&[2_000], &quick()).unwrap();
        let t = render(&pts);
        assert_eq!(t.num_rows(), 5);
    }
}
