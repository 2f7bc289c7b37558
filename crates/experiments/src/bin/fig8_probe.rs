//! Diagnose the sampling-period sweep: what does a short period buy?
use experiments::runner::{run_workload, RunOptions, Scheduler, SetupKind};
use sim_core::{SimDuration, SimError};
use workloads::speccpu;

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), SimError> {
    for p in [0.1, 0.5, 1.0, 2.0, 10.0] {
        let opts = RunOptions {
            duration: SimDuration::from_secs(20),
            warmup: SimDuration::from_secs(5),
            sample_period: SimDuration::from_secs_f64(p),
            ..RunOptions::default()
        };
        let r = run_workload(
            Scheduler::VProbe,
            SetupKind::PaperEval,
            speccpu::mix(),
            speccpu::mix(),
            &opts,
        )?;
        let vm1 = &r.metrics.per_vm[0];
        println!("p={p:<4} rate={:.3e} rratio={:.3} mpi={:.3} busy={:.1}s part_moves={} migr={} cross={} ovh={:.4}%",
            r.instr_rate, r.remote_ratio,
            vm1.llc_misses as f64 / vm1.instructions.max(1) as f64 * 1000.0,
            vm1.busy_us as f64 / 1e6,
            r.partition_moves, r.migrations, r.cross_node_migrations, r.overhead_percent);
    }
    Ok(())
}
