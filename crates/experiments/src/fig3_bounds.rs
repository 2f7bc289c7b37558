//! Fig. 3 — per-program LLC miss rate and RPTI; deriving the `low`/`high`
//! bounds (paper §IV-A).
//!
//! The paper runs each program in a 1-VCPU VM pinned to its local node and
//! measures (a) the LLC miss rate and (b) LLC references per thousand
//! instructions (RPTI). From povray/ep (LLC-friendly), lu/mg (fitting),
//! and milc/libquantum (thrashing) it picks `low = 3` and `high = 20`.
//!
//! We reproduce the same protocol: one single-worker VM alone on the
//! machine, measured through the virtual PMU (so the whole
//! engine→PMU→analyzer pipeline is exercised, not just the model inputs).

use crate::report::{f3, pct, Table};
use crate::runner::RunOptions;
use mem_model::AllocPolicy;
use numa_topo::presets;
use sim_core::SimError;
use vprobe::{Bounds, PmuDataAnalyzer, VcpuType};
use workloads::{npb, speccpu, WorkloadSpec};
use xen_sim::{CreditPolicy, MachineBuilder, VmConfig};

const GB: u64 = 1024 * 1024 * 1024;

/// One bar pair of Fig. 3.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    pub workload: String,
    /// Measured LLC miss rate, solo and pinned (Fig. 3a).
    pub miss_rate: f64,
    /// Measured LLC references per thousand instructions (Fig. 3b).
    pub rpti: f64,
    /// Classification under the derived bounds.
    pub class: VcpuType,
}

/// The six programs of Fig. 3, in the paper's order.
pub fn workload_set() -> Vec<WorkloadSpec> {
    vec![
        speccpu::povray(),
        npb::ep(),
        npb::lu(),
        npb::mg(),
        speccpu::milc(),
        speccpu::libquantum(),
    ]
}

/// Run one program alone in a 1-VCPU VM (paper: "a VM … configured with
/// 4 GB memory and 1 VCPU pinned to the local node").
pub fn run_one(spec: &WorkloadSpec, opts: &RunOptions) -> Result<Fig3Row, SimError> {
    let mut single = spec.clone();
    single.threads = 1;
    let mut vm = VmConfig::new(
        "solo",
        1,
        4 * GB,
        AllocPolicy::OnNode(numa_topo::NodeId::new(0)),
        vec![single],
    );
    // "1 VCPU pinned to the local node" (§IV-A).
    vm.pin_node = Some(numa_topo::NodeId::new(0));
    // A controlled microbenchmark run: burstiness off so the measured RPTI
    // is the program's intrinsic value, as in the paper's pinned setup.
    let cfg = xen_sim::MachineConfig {
        intensity_noise_sd: 0.0,
        ..Default::default()
    };
    let mut machine = MachineBuilder::new(presets::xeon_e5620())
        .config(cfg)
        .policy(Box::new(CreditPolicy::new()))
        .sample_period(opts.sample_period)
        .seed(opts.seed)
        .add_vm(vm)
        .build()?;
    machine.run(opts.duration);
    let totals = machine.vcpu_totals(numa_topo::VcpuId::new(0));
    let rpti = totals.llc_access_pressure(1_000.0);
    let analyzer = PmuDataAnalyzer::new(Bounds::default());
    Ok(Fig3Row {
        workload: spec.name.clone(),
        miss_rate: totals.miss_rate(),
        rpti,
        class: analyzer.classify(rpti),
    })
}

/// Run all six programs (in parallel; rows stay in `workload_set` order).
pub fn run(opts: &RunOptions) -> Result<Vec<Fig3Row>, SimError> {
    sim_core::parallel::parallel_try_map(workload_set(), |w| run_one(&w, opts))
}

/// Check that the measured RPTIs justify the paper's bounds: every
/// friendly program below `low`, every thrashing one at or above `high`,
/// the fitting ones in between.
pub fn bounds_consistent(rows: &[Fig3Row], bounds: Bounds) -> bool {
    rows.iter().all(|r| match r.workload.as_str() {
        "povray" | "ep" => r.rpti < bounds.low,
        "lu" | "mg" => bounds.low <= r.rpti && r.rpti < bounds.high,
        "milc" | "libquantum" => r.rpti >= bounds.high,
        _ => true,
    })
}

/// Render as a table.
pub fn render(rows: &[Fig3Row]) -> Table {
    let mut t = Table::new(
        "Fig. 3 — solo LLC miss rate and RPTI per program (bounds: low=3, high=20)",
        &["workload", "miss rate (3a)", "RPTI (3b)", "class"],
    );
    for r in rows {
        t.push_row(vec![
            r.workload.clone(),
            pct(r.miss_rate * 100.0),
            f3(r.rpti),
            format!("{:?}", r.class),
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
            duration: SimDuration::from_secs(3),
            warmup: SimDuration::ZERO,
            ..RunOptions::default()
        }
    }

    #[test]
    fn solo_rpti_matches_fig3b_values() {
        let opts = quick();
        let rows = run(&opts).unwrap();
        let by_name = |n: &str| rows.iter().find(|r| r.workload == n).unwrap();
        assert!((by_name("povray").rpti - 0.48).abs() < 0.1);
        assert!((by_name("ep").rpti - 2.01).abs() < 0.2);
        assert!((by_name("lu").rpti - 15.38).abs() < 0.8);
        assert!((by_name("mg").rpti - 16.33).abs() < 0.8);
        assert!((by_name("milc").rpti - 21.68).abs() < 1.0);
        assert!((by_name("libquantum").rpti - 22.41).abs() < 1.0);
    }

    #[test]
    fn classes_and_bounds_are_recovered() {
        let rows = run(&quick()).unwrap();
        assert!(bounds_consistent(&rows, Bounds::default()));
        let classes: Vec<VcpuType> = rows.iter().map(|r| r.class).collect();
        assert_eq!(
            classes,
            vec![
                VcpuType::Friendly,
                VcpuType::Friendly,
                VcpuType::Fitting,
                VcpuType::Fitting,
                VcpuType::Thrashing,
                VcpuType::Thrashing,
            ]
        );
    }

    #[test]
    fn solo_miss_rates_follow_the_taxonomy() {
        let rows = run(&quick()).unwrap();
        let by_name = |n: &str| rows.iter().find(|r| r.workload == n).unwrap();
        assert!(by_name("povray").miss_rate < 0.05);
        assert!(
            by_name("lu").miss_rate < 0.25,
            "fitting program fits when alone"
        );
        assert!(by_name("libquantum").miss_rate > 0.6);
        assert!(by_name("milc").miss_rate > 0.6);
    }

    #[test]
    fn render_includes_all_programs() {
        let rows = run(&quick()).unwrap();
        let txt = render(&rows).to_text();
        for n in ["povray", "ep", "lu", "mg", "milc", "libquantum"] {
            assert!(txt.contains(n), "missing {n}");
        }
    }
}
