//! Workspace-level property tests: invariants that must hold across the
//! whole stack for arbitrary configurations.

use experiments::runner::{run_workload, RunOptions, Scheduler, SetupKind, ALL_SCHEDULERS};
use mem_model::{AllocPolicy, EngineSelect};
use numa_topo::{presets, NodeConfig, TopologyBuilder};
use proptest::prelude::*;
use sim_core::{FaultConfig, SimDuration};
use vprobe::{variants, Bounds};
use workloads::{npb, speccpu, WorkloadSpec};
use xen_sim::{CreditPolicy, Machine, MachineBuilder, VmConfig};

const GB: u64 = 1024 * 1024 * 1024;

/// Every scheduler the exact engine must match the reference engine
/// under: the paper's five plus the gracefully-degrading vProbe variant.
const EQUIV_SCHEDULERS: [Scheduler; 6] = [
    ALL_SCHEDULERS[0],
    ALL_SCHEDULERS[1],
    ALL_SCHEDULERS[2],
    ALL_SCHEDULERS[3],
    ALL_SCHEDULERS[4],
    Scheduler::VProbeGd,
];

/// Run one (scheduler, seed, fault, mix) configuration under the exact
/// incremental engine and the frozen reference engine and demand
/// byte-identical metrics and series.
fn assert_engine_invisible(
    scheduler: Scheduler,
    seed: u64,
    fault_rate: f64,
    w1: WorkloadSpec,
    w2: WorkloadSpec,
) {
    let mut opts = RunOptions {
        duration: SimDuration::from_secs(2),
        warmup: SimDuration::from_secs(1),
        seed,
        shuffle: Some(SimDuration::from_millis(500)),
        ..RunOptions::default()
    };
    if fault_rate > 0.0 {
        opts.faults = FaultConfig::uniform(fault_rate, seed + 1);
    }
    let run = |engine: EngineSelect| {
        let mut o = opts.clone();
        o.engine = engine;
        run_workload(
            scheduler,
            SetupKind::PaperEval,
            vec![w1.clone()],
            vec![w2.clone()],
            &o,
        )
        .unwrap()
        .metrics
    };
    let soa = run(EngineSelect::Exact);
    let reference = run(EngineSelect::Reference);
    let label = (scheduler.name(), seed, fault_rate);
    assert_eq!(
        soa.to_json(),
        reference.to_json(),
        "metrics diverged: {label:?}"
    );
    assert_eq!(
        soa.series_csv(),
        reference.series_csv(),
        "series diverged: {label:?}"
    );
}

/// Golden equivalence of the incremental SoA engine: for every scheduler,
/// across seeds and fault rates, exact-mode runs are bit-identical to the
/// frozen pre-rewrite engine.
#[test]
fn soa_engine_is_byte_identical_across_schedulers_seeds_and_faults() {
    for scheduler in EQUIV_SCHEDULERS {
        for seed in [1, 2, 3] {
            for fault_rate in [0.0, 0.15] {
                assert_engine_invisible(scheduler, seed, fault_rate, npb::lu(), npb::lu());
            }
        }
    }
}

/// The approx engine is a model-error trade, not a correctness bug: its
/// headline throughput prediction must track the exact engine within the
/// documented tolerance (quantization grid 0.05 → ≤ ~2.5% per lookup,
/// loosened here for accumulation across a full run).
#[test]
fn approx_engine_tracks_exact_within_documented_tolerance() {
    let run = |engine: EngineSelect| {
        let opts = RunOptions {
            duration: SimDuration::from_secs(2),
            warmup: SimDuration::from_secs(1),
            seed: 7,
            engine,
            ..RunOptions::default()
        };
        run_workload(
            Scheduler::VProbe,
            SetupKind::PaperEval,
            vec![npb::lu()],
            vec![npb::lu()],
            &opts,
        )
        .unwrap()
    };
    let exact = run(EngineSelect::Exact);
    let approx = run(EngineSelect::Approx);
    let rel = (approx.instr_rate - exact.instr_rate).abs() / exact.instr_rate;
    assert!(
        rel < 0.05,
        "approx instr_rate diverged {rel:.4} (exact {}, approx {})",
        exact.instr_rate,
        approx.instr_rate
    );
    let rel_remote = (approx.remote_ratio - exact.remote_ratio).abs();
    assert!(
        rel_remote < 0.05,
        "approx remote ratio diverged {rel_remote:.4}"
    );
}

/// The machine used by the fault-determinism properties: vProbe-GD so
/// every degradation path (skips, fallback, retries) is exercised.
fn faulty_machine(faults: FaultConfig, seed: u64) -> Machine {
    MachineBuilder::new(presets::xeon_e5620())
        .policy(Box::new(variants::vprobe_gd(2, Bounds::default())))
        .seed(seed)
        .faults(faults)
        .add_vm(VmConfig::new(
            "a",
            8,
            6 * GB,
            AllocPolicy::SplitEven,
            vec![speccpu::soplex(); 4],
        ))
        .add_vm(VmConfig::new(
            "b",
            4,
            2 * GB,
            AllocPolicy::MostFree,
            vec![speccpu::milc(); 2],
        ))
        .build()
        .unwrap()
}

fn arb_workload() -> impl Strategy<Value = WorkloadSpec> {
    prop_oneof![
        Just(speccpu::soplex()),
        Just(speccpu::libquantum()),
        Just(speccpu::milc()),
        Just(npb::lu()),
        Just(npb::sp()),
        Just(npb::ep()),
        Just(workloads::hungry::hungry_loop()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exact-vs-reference engine equivalence must also hold for arbitrary
    /// workload mixes, not just the enumerated golden matrix above.
    #[test]
    fn exact_engine_matches_reference_for_arbitrary_mixes(
        sched_idx in 0usize..EQUIV_SCHEDULERS.len(),
        w1 in arb_workload(),
        w2 in arb_workload(),
        seed in 0u64..1000,
        faulty in any::<bool>(),
    ) {
        let rate = if faulty { 0.1 } else { 0.0 };
        assert_engine_invisible(EQUIV_SCHEDULERS[sched_idx], seed, rate, w1, w2);
    }

    /// Conservation: every memory access a VM makes is either local or
    /// remote, and per-node counts sum to the total, for any workload mix
    /// and either scheduler family.
    #[test]
    fn access_accounting_is_conserved(
        w1 in arb_workload(),
        w2 in arb_workload(),
        use_vprobe in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let topo = presets::xeon_e5620();
        let policy: Box<dyn xen_sim::SchedPolicy> = if use_vprobe {
            Box::new(variants::vprobe(2, Bounds::default()))
        } else {
            Box::new(CreditPolicy::new())
        };
        let mut machine = MachineBuilder::new(topo)
            .policy(policy)
            .seed(seed)
            .add_vm(VmConfig::new("a", 8, 6 * GB, AllocPolicy::SplitEven, vec![w1]))
            .add_vm(VmConfig::new("b", 8, 4 * GB, AllocPolicy::MostFree, vec![w2]))
            .build()
            .unwrap();
        machine.run(SimDuration::from_secs(3));
        for vm in &machine.metrics().per_vm {
            prop_assert_eq!(
                vm.local_accesses + vm.remote_accesses,
                vm.total_accesses()
            );
            prop_assert!(vm.llc_misses <= vm.llc_refs);
            prop_assert!(vm.total_accesses() == vm.llc_misses);
        }
    }

    /// Machine capacity: total busy time can never exceed
    /// PCPUs × elapsed, on any machine shape.
    #[test]
    fn busy_time_bounded_by_capacity(
        nodes in 1usize..4,
        cores in 2u16..6,
        seed in 0u64..1000,
    ) {
        let topo = TopologyBuilder::new(2_400)
            .add_nodes(NodeConfig::e5620_node(), cores, nodes)
            .fully_connected_qpi()
            .build()
            .unwrap();
        let pcpus = topo.num_pcpus() as u64;
        let vcpus = (pcpus as usize).min(8);
        let mut machine = MachineBuilder::new(topo)
            .policy(Box::new(variants::vprobe(nodes, Bounds::default())))
            .seed(seed)
            .add_vm(VmConfig::new(
                "vm",
                vcpus,
                2 * GB,
                AllocPolicy::MostFree,
                vec![speccpu::soplex(); vcpus],
            ))
            .build()
            .unwrap();
        let secs = 2u64;
        machine.run(SimDuration::from_secs(secs));
        let busy: u64 = machine.metrics().per_vm.iter().map(|v| v.busy_us).sum();
        prop_assert!(busy <= pcpus * secs * 1_000_000);
    }

    /// Fault injection is a pure function of (simulation seed, fault
    /// seed, fault rate): two identically configured machines produce
    /// byte-identical RunMetrics, fault counters included.
    #[test]
    fn fault_injection_is_deterministic(
        rate in 0.0f64..0.5,
        fault_seed in 1u64..100,
        seed in 0u64..1000,
    ) {
        let faults = FaultConfig::uniform(rate, fault_seed);
        let mut a = faulty_machine(faults.clone(), seed);
        let mut b = faulty_machine(faults, seed);
        a.run(SimDuration::from_secs(3));
        b.run(SimDuration::from_secs(3));
        prop_assert_eq!(a.metrics().to_json(), b.metrics().to_json());
    }

    /// Rate zero must be byte-identical to no fault machinery at all —
    /// whatever the fault seed — so clean golden outputs stay valid.
    #[test]
    fn zero_fault_rate_is_invisible(
        fault_seed in 1u64..100,
        seed in 0u64..1000,
    ) {
        let mut zeroed = faulty_machine(FaultConfig::uniform(0.0, fault_seed), seed);
        let mut clean = faulty_machine(FaultConfig::none(), seed);
        zeroed.run(SimDuration::from_secs(3));
        clean.run(SimDuration::from_secs(3));
        prop_assert_eq!(zeroed.metrics().to_json(), clean.metrics().to_json());
    }

    /// NUMA-degenerate control: on a single-node (UMA) machine the
    /// NUMA-aware scheduler must produce zero remote accesses and zero
    /// cross-node migrations — and must not crash.
    #[test]
    fn uma_machine_has_no_remote_traffic(w in arb_workload(), seed in 0u64..1000) {
        let topo = presets::uma_quad();
        let mut machine = MachineBuilder::new(topo)
            .policy(Box::new(variants::vprobe(1, Bounds::default())))
            .seed(seed)
            .add_vm(VmConfig::new("vm", 4, 2 * GB, AllocPolicy::MostFree, vec![w]))
            .build()
            .unwrap();
        machine.run(SimDuration::from_secs(3));
        let m = machine.metrics();
        prop_assert_eq!(m.cross_node_migrations, 0);
        for vm in &m.per_vm {
            prop_assert_eq!(vm.remote_accesses, 0);
        }
    }
}
