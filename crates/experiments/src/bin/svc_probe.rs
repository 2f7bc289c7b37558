//! Diagnostic: per-VCPU service (run quanta) and credit state under
//! Credit, vProbe, and LB — the fairness probe used while calibrating the
//! credit machinery (DESIGN.md §8).

use experiments::runner::{build_machine, RunOptions, Scheduler, SetupKind};
use sim_core::{SimDuration, SimError};
use workloads::speccpu;

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), SimError> {
    let opts = RunOptions {
        duration: SimDuration::from_secs(30),
        ..RunOptions::default()
    };
    for sched in [Scheduler::Credit, Scheduler::VProbe, Scheduler::Lb] {
        let mut m = build_machine(
            sched,
            SetupKind::PaperEval,
            vec![speccpu::soplex(); 4],
            vec![speccpu::soplex(); 4],
            &opts,
        )?;
        m.run(opts.duration);
        let q = m.vcpu_run_quanta();
        let c = m.vcpu_credits();
        println!(
            "{:8}: vm1_w={:?} vm2_w={:?} vm3_h={:?}",
            format!("{:?}", sched),
            &q[0..4],
            &q[8..12],
            &q[16..24]
        );
        println!("          credits vm1={:?} vm3={:?}", &c[0..4], &c[16..24]);
        let met = m.metrics();
        println!(
            "          steals={} attempts={} empty={} migr={} cross={}",
            met.steals,
            met.steal_attempts,
            met.steal_attempts_empty,
            met.migrations,
            met.cross_node_migrations
        );
    }
    Ok(())
}
