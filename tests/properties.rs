//! Workspace-level property tests: invariants that must hold across the
//! whole stack for arbitrary configurations.

use experiments::runner::{run_workload, RunOptions, Scheduler, SetupKind, ALL_SCHEDULERS};
use mem_model::AllocPolicy;
use numa_topo::{presets, NodeConfig, TopologyBuilder};
use proptest::prelude::*;
use sim_core::{FaultConfig, SimDuration};
use vprobe::{variants, Bounds};
use workloads::{npb, speccpu, WorkloadSpec};
use xen_sim::{CreditPolicy, Machine, MachineBuilder, MachineConfig, VmConfig};

const GB: u64 = 1024 * 1024 * 1024;

/// Every scheduler the memory engine's reference shadow checks runs
/// under: the paper's five plus the gracefully-degrading vProbe variant.
const EQUIV_SCHEDULERS: [Scheduler; 6] = [
    ALL_SCHEDULERS[0],
    ALL_SCHEDULERS[1],
    ALL_SCHEDULERS[2],
    ALL_SCHEDULERS[3],
    ALL_SCHEDULERS[4],
    Scheduler::VProbeGd,
];

/// Run one (scheduler, seed, fault, mix) configuration to completion. In a
/// debug build `MemoryEngine` steps the frozen `ReferenceEngine` beside
/// every solve and panics on the first differing bit, so finishing the run
/// is the engine-equivalence check.
fn run_under_reference_shadow(
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
    run_workload(scheduler, SetupKind::PaperEval, vec![w1], vec![w2], &opts).unwrap();
}

/// Golden equivalence of the incremental engine: for every scheduler,
/// across seeds and fault rates, every quantum's solve is bit-identical to
/// the frozen pre-rewrite engine.
#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "the reference shadow runs only in debug builds"
)]
fn reference_shadow_passes_across_schedulers_seeds_and_faults() {
    for scheduler in EQUIV_SCHEDULERS {
        for seed in [1, 2, 3] {
            for fault_rate in [0.0, 0.15] {
                run_under_reference_shadow(scheduler, seed, fault_rate, npb::lu(), npb::lu());
            }
        }
    }
}

/// The noise-free regime: phased SPEC VMs beside hungry loops with the
/// per-quantum intensity noise off, so engine inputs repeat between phase
/// boundaries and the whole-step skip and node dirty bits fire (the noisy
/// `PaperEval` setup above never reaches them). The reference shadow must
/// still pass every step, under Credit and vProbe, and the run must really
/// have skipped work.
#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "the reference shadow runs only in debug builds"
)]
fn reference_shadow_passes_without_intensity_noise() {
    for scheduler in [Scheduler::Credit, Scheduler::VProbe] {
        for seed in [42, 1234] {
            let cfg = MachineConfig {
                seed,
                intensity_noise_sd: 0.0,
                ..MachineConfig::default()
            };
            let spec = |name, w| VmConfig::new(name, 4, 2 * GB, AllocPolicy::MostFree, w);
            let mut m = MachineBuilder::new(presets::xeon_e5620())
                .config(cfg)
                .policy(Scheduler::Credit.policy(2, seed))
                .add_vm(spec(
                    "spec0",
                    vec![
                        speccpu::soplex(),
                        speccpu::mcf(),
                        speccpu::milc(),
                        speccpu::soplex(),
                    ],
                ))
                .add_vm(spec(
                    "spec1",
                    vec![
                        speccpu::milc(),
                        speccpu::soplex(),
                        speccpu::mcf(),
                        speccpu::mcf(),
                    ],
                ))
                .add_vm(VmConfig::new(
                    "hungry",
                    4,
                    GB,
                    AllocPolicy::MostFree,
                    vec![workloads::hungry::hungry_loop(); 4],
                ))
                .build()
                .unwrap();
            m.run(SimDuration::from_secs(1));
            m.set_policy(scheduler.policy(2, seed));
            m.reset_metrics();
            m.run(SimDuration::from_secs(2));
            let perf = m.perf_snapshot().engine;
            let label = (scheduler.name(), seed);
            assert!(
                perf.whole_step_skips > 0,
                "no whole-step skip: {label:?} {perf:?}"
            );
            assert!(
                perf.node_clean_skips > 0,
                "no clean-node skip: {label:?} {perf:?}"
            );
        }
    }
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
    #[cfg_attr(
        not(debug_assertions),
        ignore = "the reference shadow runs only in debug builds"
    )]
    fn exact_engine_matches_reference_for_arbitrary_mixes(
        sched_idx in 0usize..EQUIV_SCHEDULERS.len(),
        w1 in arb_workload(),
        w2 in arb_workload(),
        seed in 0u64..1000,
        faulty in any::<bool>(),
    ) {
        let rate = if faulty { 0.1 } else { 0.0 };
        run_under_reference_shadow(EQUIV_SCHEDULERS[sched_idx], seed, rate, w1, w2);
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
