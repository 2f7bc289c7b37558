//! Experiments beyond the paper: the §VI future-work features, a
//! node-count scaling study and ablations of vProbe's design choices.
//!
//! * **Page migration**: the paper argues page migration is expensive but
//!   complementary; the extension migrates a bounded number of bytes per
//!   period toward each misplaced memory-intensive VCPU. This experiment
//!   measures what that buys on a workload whose memory is born on the
//!   wrong node.
//! * **Scaling**: Algorithms 1 and 2 are defined for N nodes; the paper
//!   only evaluates N = 2. This experiment repeats the core comparison on
//!   a 4-socket machine.
//! * **Ablations**: VM1's rate on workload *mix* when one design choice
//!   changes: Eq. 2's α scaled by 0.5 and 2 (the bounds scale with it),
//!   and the §VI dynamic bounds instead of the static 3/20.

use crate::report::{f3, pct, Table};
use crate::runner::{warm_then_measure, RunOptions, SetupKind};
use mem_model::AllocPolicy;
use numa_topo::{presets, NodeId};
use sim_core::SimError;
use vprobe::{variants, Bounds, VProbePolicy};
use workloads::{hungry, npb, speccpu};
use xen_sim::{CreditPolicy, MachineBuilder, SchedPolicy, VmConfig};

const GB: u64 = 1024 * 1024 * 1024;

/// One row of the page-migration comparison.
#[derive(Debug, Clone)]
pub struct PageMigRow {
    pub policy: String,
    pub instr_rate: f64,
    pub remote_ratio: f64,
    pub migrated_mb: f64,
}

/// Run vProbe with and without page migration on a VM whose memory was
/// all allocated on node 0 (e.g. restored from a snapshot there) while
/// its threads need both sockets.
pub fn run_page_migration(opts: &RunOptions) -> Result<Vec<PageMigRow>, SimError> {
    // The policy box is built inside the worker (trait objects are not
    // `Send`); the tags keep the row order fixed.
    let names = vec!["Credit", "vProbe", "vProbe+pm"];
    sim_core::parallel::parallel_try_map(names, |name| {
        let policy: Box<dyn SchedPolicy> = match name {
            "Credit" => Box::new(CreditPolicy::new()),
            "vProbe" => Box::new(variants::vprobe(2, Bounds::default())),
            _ => Box::new(
                VProbePolicy::new(2, Bounds::default()).with_page_migration(256 * 1024 * 1024),
            ),
        };
        let mut machine = MachineBuilder::new(presets::xeon_e5620())
            .policy(policy)
            .sample_period(opts.sample_period)
            .seed(opts.seed)
            .add_vm(VmConfig::new(
                "vm1",
                8,
                8 * GB,
                AllocPolicy::OnNode(NodeId::new(0)),
                vec![npb::sp()],
            ))
            .add_vm(VmConfig::new(
                "vm2",
                8,
                5 * GB,
                AllocPolicy::OnNode(NodeId::new(0)),
                vec![npb::sp()],
            ))
            .add_vm(VmConfig::new(
                "vm3",
                8,
                GB,
                AllocPolicy::MostFree,
                vec![hungry::hungry_loop(); 8],
            ))
            .build()?;
        machine.run(opts.duration);
        let m = machine.metrics();
        Ok(PageMigRow {
            policy: name.into(),
            instr_rate: m.per_vm[0].instr_per_second(m.elapsed),
            remote_ratio: m.per_vm[0].remote_ratio(),
            migrated_mb: m.page_migration_bytes as f64 / (1024.0 * 1024.0),
        })
    })
}

pub fn render_page_migration(rows: &[PageMigRow]) -> Table {
    let mut t = Table::new(
        "Extension — §VI page migration (VM memory born on node 0)",
        &["policy", "vs Credit", "remote accesses", "migrated (MB)"],
    );
    let base = rows
        .iter()
        .find(|r| r.policy == "Credit")
        .map(|r| r.instr_rate)
        .unwrap_or(1.0);
    for r in rows {
        t.push_row(vec![
            r.policy.clone(),
            f3(r.instr_rate / base),
            pct(r.remote_ratio * 100.0),
            format!("{:.0}", r.migrated_mb),
        ]);
    }
    t
}

/// One row of the node-count scaling study.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    pub nodes: usize,
    pub policy: String,
    pub instr_rate: f64,
    pub remote_ratio: f64,
}

/// Compare Credit and vProbe on the paper's 2-socket box and on a
/// 4-socket machine with a proportionally scaled tenant set.
pub fn run_scaling(opts: &RunOptions) -> Result<Vec<ScalingRow>, SimError> {
    // One case per (machine size, policy); topology and policy are built
    // inside the worker so the case list is plain `Send` data.
    let cases: Vec<(usize, &'static str)> =
        vec![(2, "Credit"), (2, "vProbe"), (4, "Credit"), (4, "vProbe")];
    sim_core::parallel::parallel_try_map(cases, |(nodes, name)| {
        let topo = match nodes {
            2 => presets::xeon_e5620(),
            _ => presets::four_socket_32core(),
        };
        let vms_per_machine = nodes; // one heavy VM per socket's worth
        let policy: Box<dyn SchedPolicy> = match name {
            "Credit" => Box::new(CreditPolicy::new()),
            _ => Box::new(variants::vprobe(nodes, Bounds::default())),
        };
        let mut b = MachineBuilder::new(topo)
            .policy(policy)
            .sample_period(opts.sample_period)
            .seed(opts.seed);
        for i in 0..vms_per_machine {
            b = b.add_vm(VmConfig::new(
                format!("vm{i}"),
                8,
                6 * GB,
                AllocPolicy::SplitEven,
                vec![if i % 2 == 0 { npb::sp() } else { npb::lu() }],
            ));
        }
        let mut machine = b.build()?;
        machine.run(opts.duration);
        let m = machine.metrics();
        let instr: u64 = m.per_vm.iter().map(|v| v.instructions).sum();
        let remote: u64 = m.per_vm.iter().map(|v| v.remote_accesses).sum();
        let total: u64 = m.per_vm.iter().map(|v| v.total_accesses()).sum();
        Ok(ScalingRow {
            nodes,
            policy: name.into(),
            instr_rate: instr as f64 / m.elapsed.as_secs_f64(),
            remote_ratio: remote as f64 / total.max(1) as f64,
        })
    })
}

pub fn render_scaling(rows: &[ScalingRow]) -> Table {
    let mut t = Table::new(
        "Extension — node-count scaling (whole-machine throughput)",
        &["nodes", "policy", "instr/s", "remote accesses"],
    );
    for r in rows {
        t.push_row(vec![
            r.nodes.to_string(),
            r.policy.clone(),
            format!("{:.3e}", r.instr_rate),
            pct(r.remote_ratio * 100.0),
        ]);
    }
    t
}

/// One row of the design ablations.
#[derive(Debug, Clone)]
pub struct AblationRow {
    pub ablation: &'static str,
    pub variant: &'static str,
    pub instr_rate: f64,
}

/// Run each ablation on workload *mix* in the paper's setup (the four
/// vProbe variants fork one machine warmed under Credit, like
/// [`crate::runner::run_all_schedulers`]) and report VM1's instruction
/// rate. The paper configuration runs once and is the baseline row of all
/// three comparisons.
pub fn run_ablations(opts: &RunOptions) -> Result<Vec<AblationRow>, SimError> {
    // The policy order fixes the result order. The first is the paper's
    // vProbe: soft partitioning, static 3/20.
    let policies = |n| -> Vec<Box<dyn SchedPolicy>> {
        vec![
            Box::new(variants::vprobe(n, Bounds::default())),
            Box::new(variants::vprobe(n, Bounds::new(1.5, 10.0))),
            Box::new(variants::vprobe(n, Bounds::new(6.0, 40.0))),
            Box::new(VProbePolicy::new(n, Bounds::default()).with_dynamic_bounds()),
        ]
    };
    let mix = speccpu::mix;
    let runs = warm_then_measure(SetupKind::PaperEval, mix(), mix(), opts, policies)?;
    let rates: Vec<f64> = runs
        .iter()
        .map(|m| m.per_vm[0].instr_per_second(m.elapsed))
        .collect();
    let [paper, alpha_half, alpha_double, dynamic] = rates[..] else {
        unreachable!("one rate per case");
    };
    let row = |ablation, variant, instr_rate| AblationRow {
        ablation,
        variant,
        instr_rate,
    };
    Ok(vec![
        row("partitioning", "soft (paper)", paper),
        row("alpha", "x0.5 (bounds 1.5/10)", alpha_half),
        row("alpha", "paper (bounds 3/20)", paper),
        row("alpha", "x2 (bounds 6/40)", alpha_double),
        row("bounds", "static 3/20 (paper)", paper),
        row("bounds", "dynamic (§VI)", dynamic),
    ])
}

/// Render the ablation rows; "vs paper" is relative to the first row.
pub fn render_ablations(rows: &[AblationRow]) -> Table {
    let mut t = Table::new(
        "Extension — ablations of vProbe's design choices (workload mix, VM1)",
        &["ablation", "variant", "instr/s", "vs paper"],
    );
    let base = rows.first().map(|r| r.instr_rate).unwrap_or(1.0);
    for r in rows {
        t.push_row(vec![
            r.ablation.to_string(),
            r.variant.to_string(),
            format!("{:.3e}", r.instr_rate),
            f3(r.instr_rate / base),
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
            duration: SimDuration::from_secs(15),
            warmup: SimDuration::ZERO,
            ..RunOptions::default()
        }
    }

    /// The page-migration study at `quick()` options, run once per test
    /// process and shared by every test that reads it.
    fn page_migration() -> &'static [PageMigRow] {
        static ROWS: OnceLock<Vec<PageMigRow>> = OnceLock::new();
        ROWS.get_or_init(|| run_page_migration(&quick()).unwrap())
    }

    /// The socket-scaling study at `quick()` options, shared the same way.
    fn scaling() -> &'static [ScalingRow] {
        static ROWS: OnceLock<Vec<ScalingRow>> = OnceLock::new();
        ROWS.get_or_init(|| run_scaling(&quick()).unwrap())
    }

    #[test]
    fn page_migration_moves_memory_and_cuts_remote_traffic() {
        let rows = page_migration();
        let get = |n: &str| rows.iter().find(|r| r.policy == n).unwrap();
        assert_eq!(get("Credit").migrated_mb, 0.0);
        assert_eq!(get("vProbe").migrated_mb, 0.0);
        let pm = get("vProbe+pm");
        assert!(pm.migrated_mb > 0.0, "pages should move");
        assert!(
            pm.remote_ratio < get("vProbe").remote_ratio,
            "page migration should cut remote traffic further: {} vs {}",
            pm.remote_ratio,
            get("vProbe").remote_ratio
        );
    }

    #[test]
    fn page_migration_beats_plain_vprobe_on_misplaced_memory() {
        // `quick()` already runs 15 s, the span this claim needs.
        let rows = page_migration();
        let get = |n: &str| rows.iter().find(|r| r.policy == n).unwrap();
        assert!(
            get("vProbe+pm").instr_rate > get("vProbe").instr_rate,
            "pm {} vs vprobe {}",
            get("vProbe+pm").instr_rate,
            get("vProbe").instr_rate
        );
    }

    #[test]
    fn vprobe_helps_on_four_sockets_too() {
        let rows = scaling();
        for nodes in [2usize, 4] {
            let credit = rows
                .iter()
                .find(|r| r.nodes == nodes && r.policy == "Credit")
                .unwrap();
            let vp = rows
                .iter()
                .find(|r| r.nodes == nodes && r.policy == "vProbe")
                .unwrap();
            assert!(
                vp.remote_ratio < credit.remote_ratio,
                "n={nodes}: vProbe must cut remote traffic"
            );
        }
    }

    #[test]
    fn ablations_print_one_on_every_paper_row() {
        let opts = RunOptions {
            duration: SimDuration::from_secs(2),
            ..quick()
        };
        let csv = render_ablations(&run_ablations(&opts).unwrap()).to_csv();
        let paper_rows: Vec<_> = csv
            .lines()
            .skip(1)
            .filter(|l| l.split(',').nth(1).is_some_and(|v| v.contains("paper")))
            .collect();
        assert_eq!(paper_rows.len(), 3, "{csv}");
        for row in paper_rows {
            assert!(row.ends_with(",1.000"), "{row}");
        }
    }

    #[test]
    fn render_shapes() {
        assert_eq!(render_page_migration(page_migration()).num_rows(), 3);
        assert_eq!(render_scaling(scaling()).num_rows(), 4);
    }
}
