//! The parallel experiment harness must be invisible in the results: a
//! sweep fanned across worker threads has to produce the same
//! `WorkloadRun` values — and the same CSV bytes — as `--jobs 1`. Each
//! run is an independent deterministic simulation, and `parallel_map`
//! writes results back by input index, so any divergence here means the
//! fan-out leaked state between runs or reordered them.

use experiments::perfreport;
use experiments::runner::{run_all_schedulers, RunOptions, SetupKind};
use experiments::{extensions, fig1_remote_ratio, table3_overhead};
use sim_core::parallel::set_jobs;
use sim_core::SimDuration;
use workloads::speccpu;

fn quick_opts() -> RunOptions {
    RunOptions {
        duration: SimDuration::from_secs(2),
        warmup: SimDuration::from_secs(1),
        ..RunOptions::default()
    }
}

/// Comparable digest of one run: every scalar the tables are built from,
/// plus the full metrics serialization (byte-stable by construction).
fn digest(runs: &[experiments::runner::WorkloadRun]) -> Vec<(String, String)> {
    runs.iter()
        .map(|r| {
            (
                format!(
                    "{:?} rate={} instr={} total={} remote={} ratio={} ovh={} mig={} cross={} part={}",
                    r.scheduler,
                    r.instr_rate,
                    r.instructions,
                    r.total_accesses,
                    r.remote_accesses,
                    r.remote_ratio,
                    r.overhead_percent,
                    r.migrations,
                    r.cross_node_migrations,
                    r.partition_moves
                ),
                r.metrics.to_json(),
            )
        })
        .collect()
}

#[test]
fn scheduler_sweep_is_identical_across_job_counts() {
    let opts = quick_opts();
    let sweep = |jobs: usize| {
        set_jobs(jobs);
        let runs = run_all_schedulers(
            SetupKind::PaperEval,
            vec![speccpu::soplex(); 4],
            vec![speccpu::soplex(); 4],
            &opts,
        )
        .unwrap();
        digest(&runs)
    };
    let sequential = sweep(1);
    let parallel = sweep(4);
    set_jobs(0);
    assert_eq!(sequential, parallel);
}

#[test]
fn rendered_csv_bytes_are_identical_across_job_counts() {
    let opts = quick_opts();
    let csvs = |jobs: usize| {
        set_jobs(jobs);
        let fig1 = fig1_remote_ratio::render(&fig1_remote_ratio::run(&opts).unwrap()).to_csv();
        let t3 = table3_overhead::render(&table3_overhead::run(&opts).unwrap()).to_csv();
        let ablations = extensions::render_ablations(&extensions::run_ablations(&opts).unwrap());
        (fig1, t3, ablations.to_csv())
    };
    let sequential = csvs(1);
    let parallel: Vec<_> = [2, 4].into_iter().map(csvs).collect();
    set_jobs(0);
    for p in parallel {
        assert_eq!(sequential, p);
    }
}

/// The perf counter export that `perf_report_golden` pins is the same at
/// `--jobs 1` and `--jobs 4`, and again on a repeated `--jobs 1` run.
#[test]
fn perf_report_bytes_are_identical_across_job_counts() {
    let report = |jobs: usize| {
        set_jobs(jobs);
        perfreport::to_json(&perfreport::run().unwrap())
    };
    let sequential = report(1);
    let parallel = report(4);
    let repeated = report(1);
    set_jobs(0);
    assert_eq!(sequential, parallel, "byte-identical across --jobs");
    assert_eq!(sequential, repeated, "and across repeated runs");
}
