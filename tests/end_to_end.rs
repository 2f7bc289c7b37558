//! Cross-crate integration tests: full-machine simulations asserting the
//! paper's qualitative results end to end.

use experiments::runner::{
    run_all_schedulers, run_workload, RunOptions, Scheduler, SetupKind, ALL_SCHEDULERS,
};
use sim_core::SimDuration;
use workloads::{npb, speccpu};

fn opts(secs: u64) -> RunOptions {
    RunOptions {
        duration: SimDuration::from_secs(secs),
        warmup: SimDuration::from_secs(5),
        ..RunOptions::default()
    }
}

#[test]
fn all_five_schedulers_run_to_completion() {
    let runs = run_all_schedulers(
        SetupKind::PaperEval,
        vec![npb::lu()],
        vec![npb::lu()],
        &opts(6),
    )
    .unwrap();
    assert_eq!(runs.len(), ALL_SCHEDULERS.len());
    for r in &runs {
        assert!(
            r.instr_rate > 0.0,
            "{} made no progress",
            r.scheduler.name()
        );
        assert!(
            r.total_accesses > 0,
            "{} accessed no memory",
            r.scheduler.name()
        );
    }
}

#[test]
fn headline_vprobe_beats_credit_on_sp() {
    // The paper's best case (Fig. 5, sp): vProbe must clearly win.
    let o = opts(20);
    let credit = run_workload(
        Scheduler::Credit,
        SetupKind::PaperEval,
        vec![npb::sp()],
        vec![npb::sp()],
        &o,
    )
    .unwrap();
    let vp = run_workload(
        Scheduler::VProbe,
        SetupKind::PaperEval,
        vec![npb::sp()],
        vec![npb::sp()],
        &o,
    )
    .unwrap();
    let speedup = vp.instr_rate / credit.instr_rate;
    assert!(speedup > 1.08, "vProbe speedup on sp too small: {speedup}");
    assert!(
        vp.remote_ratio < credit.remote_ratio * 0.6,
        "vProbe must slash remote accesses: {} vs {}",
        vp.remote_ratio,
        credit.remote_ratio
    );
}

#[test]
fn vprobe_beats_both_single_mechanism_ablations_on_mix() {
    // §V-B5: both VCPU-P and LB lag the full system.
    let o = opts(20);
    let run = |s| {
        run_workload(s, SetupKind::PaperEval, speccpu::mix(), speccpu::mix(), &o)
            .unwrap()
            .instr_rate
    };
    let vp = run(Scheduler::VProbe);
    let vcpu_p = run(Scheduler::VcpuP);
    let lb = run(Scheduler::Lb);
    assert!(vp > vcpu_p, "vProbe {vp} must beat VCPU-P {vcpu_p}");
    assert!(vp > lb, "vProbe {vp} must beat LB {lb}");
}

#[test]
fn brm_is_not_better_than_vprobe() {
    // §V-B5: BRM's global lock keeps it at or below Credit, far from vProbe.
    let o = opts(15);
    let run = |s| {
        run_workload(
            s,
            SetupKind::PaperEval,
            vec![speccpu::milc(); 4],
            vec![speccpu::milc(); 4],
            &o,
        )
        .unwrap()
        .instr_rate
    };
    assert!(run(Scheduler::VProbe) > run(Scheduler::Brm));
}

#[test]
fn runs_are_deterministic_for_a_fixed_seed() {
    let o = opts(6);
    let a = run_workload(
        Scheduler::VProbe,
        SetupKind::PaperEval,
        vec![npb::cg()],
        vec![npb::cg()],
        &o,
    )
    .unwrap();
    let b = run_workload(
        Scheduler::VProbe,
        SetupKind::PaperEval,
        vec![npb::cg()],
        vec![npb::cg()],
        &o,
    )
    .unwrap();
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.total_accesses, b.total_accesses);
    assert_eq!(a.migrations, b.migrations);
}

#[test]
fn different_seeds_vary_but_preserve_the_winner() {
    let mut vp_wins = 0;
    for seed in [1, 2, 3] {
        let mut o = opts(12);
        o.seed = seed;
        let credit = run_workload(
            Scheduler::Credit,
            SetupKind::PaperEval,
            vec![npb::sp()],
            vec![npb::sp()],
            &o,
        )
        .unwrap();
        let vp = run_workload(
            Scheduler::VProbe,
            SetupKind::PaperEval,
            vec![npb::sp()],
            vec![npb::sp()],
            &o,
        )
        .unwrap();
        if vp.instr_rate > credit.instr_rate {
            vp_wins += 1;
        }
    }
    assert!(vp_wins >= 2, "vProbe should win on most seeds: {vp_wins}/3");
}

#[test]
fn overhead_budget_is_negligible_for_vprobe() {
    let o = opts(10);
    let vp = run_workload(
        Scheduler::VProbe,
        SetupKind::PaperEval,
        vec![npb::lu()],
        vec![npb::lu()],
        &o,
    )
    .unwrap();
    assert!(
        vp.overhead_percent < 0.1,
        "Table III bound violated: {}",
        vp.overhead_percent
    );
    let credit = run_workload(
        Scheduler::Credit,
        SetupKind::PaperEval,
        vec![npb::lu()],
        vec![npb::lu()],
        &o,
    )
    .unwrap();
    assert_eq!(credit.overhead_percent, 0.0, "Credit reads no counters");
}
