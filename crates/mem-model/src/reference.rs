//! The pre-SoA per-quantum solve, kept verbatim as the bit-exactness
//! oracle.
//!
//! [`ReferenceEngine`] is the engine exactly as it shipped before the
//! data-oriented rewrite: per-usage structs, a full LLC re-solve every
//! quantum, results rewritten every fixed-point round. The rewritten
//! [`MemoryEngine`](crate::MemoryEngine) must reproduce its output bit for
//! bit in exact mode; the equivalence proptests in this module and the
//! machine-level byte-equality matrix in the workspace tests pin that.
//! Keeping the original around also gives CI an `--reference-engine` sweep
//! to byte-diff against and bisection a known-good baseline.
//!
//! This module is intentionally frozen: performance work happens in
//! [`crate::engine`], not here.

use crate::engine::{
    round_to_u64, ContentionSnapshot, EngineParams, QuantumUsage, VcpuQuantumResult,
    FIXED_POINT_ROUNDS,
};
use crate::imc::ImcModel;
use crate::latency::LatencyParams;
use crate::llc::{LlcDemand, LlcModel, LlcOccupancy, LlcScratch};
use crate::qpi::QpiModel;
use numa_topo::Topology;
use sim_core::SimDuration;

/// Reusable buffers for [`ReferenceEngine::step`].
#[derive(Debug, Clone, Default)]
struct StepScratch {
    per_node: Vec<Vec<usize>>,
    miss_rate: Vec<f64>,
    demands: Vec<LlcDemand>,
    node_demand_bytes: Vec<f64>,
    pair_traffic_bytes: Vec<f64>,
    node_accesses: Vec<u64>,
    /// Per-usage values that do not change across fixed-point rounds,
    /// hoisted out of the round loop (identical expressions, so identical
    /// bits — pinned by the golden machine test).
    inv: Vec<UsageInv>,
    /// Flat list of each usage's nonzero access-distribution entries;
    /// `nz_start[i]..nz_start[i+1]` indexes usage `i`'s slice.
    nz: Vec<NzFrac>,
    nz_start: Vec<u32>,
    /// Per-round miss-latency matrix, row-major `[run_node][home]`.
    miss_cycles_matrix: Vec<f64>,
    llc_occ: Vec<LlcOccupancy>,
    llc_scratch: LlcScratch,
}

/// Round-invariant per-usage terms of the fixed-point solve.
#[derive(Debug, Clone, Copy, Default)]
struct UsageInv {
    run_node: u32,
    /// `rpti / 1000`.
    refs_per_instr: f64,
    /// Post-sharing, post-warmup miss rate.
    m: f64,
    /// `(1 - m) * llc_hit_cycles`.
    hit_term: f64,
    mlp: f64,
    base_cpi: f64,
    /// Usable core cycles this quantum.
    cycles: f64,
}

/// One nonzero entry of a usage's node-access distribution.
#[derive(Debug, Clone, Copy)]
struct NzFrac {
    /// Row-major `run_node * n + home` pair index.
    pair: u32,
    home: u32,
    frac: f64,
}

/// The frozen pre-rewrite memory engine (see the module docs).
#[derive(Debug, Clone)]
pub struct ReferenceEngine {
    params: EngineParams,
    num_nodes: usize,
    llc: Vec<LlcModel>,
    imc: Vec<ImcModel>,
    local_latency_ns: Vec<f64>,
    qpi: Vec<Option<QpiModel>>, // per pair, row-major
    hop_latency_ns: Vec<f64>,   // per pair, row-major
    latency: LatencyParams,
    line_bytes: u32,
    freq_mhz: u32,
    imc_mult: Vec<f64>,
    qpi_mult: Vec<f64>, // per pair, row-major
    scratch: StepScratch,
    results: Vec<VcpuQuantumResult>,
    stationary: bool,
}

impl ReferenceEngine {
    /// Build the engine from a validated topology with default calibration.
    pub fn new(topo: &Topology) -> Self {
        ReferenceEngine::with_params(topo, EngineParams::default())
    }

    /// Build with explicit calibration parameters.
    pub fn with_params(topo: &Topology, params: EngineParams) -> Self {
        let n = topo.num_nodes();
        let mut llc = Vec::with_capacity(n);
        let mut imc = Vec::with_capacity(n);
        let mut local_latency_ns = Vec::with_capacity(n);
        let mut line_bytes = 64;
        for node in topo.nodes() {
            let cfg = topo.node_config(node);
            llc.push(LlcModel::new(cfg.llc.size_bytes));
            imc.push(ImcModel::new(
                ((cfg.imc_bandwidth_bytes_per_s as f64) * params.sustained_imc_frac) as u64,
            ));
            local_latency_ns.push(cfg.local_latency_ns);
            line_bytes = cfg.llc.line_bytes;
        }
        let mut qpi = vec![None; n * n];
        let mut hop_latency_ns = vec![0.0; n * n];
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a == b {
                    continue;
                }
                // Parallel links between the pair share the traffic.
                let links: Vec<_> = topo.links().iter().filter(|l| l.connects(a, b)).collect();
                if let Some(first) = links.first() {
                    let idx = a.index() * n + b.index();
                    qpi[idx] = Some(QpiModel::new(
                        ((first.bandwidth_bytes_per_s as f64) * params.sustained_qpi_frac) as u64,
                        links.len() as u32,
                    ));
                    hop_latency_ns[idx] = first.hop_latency_ns;
                }
            }
        }
        ReferenceEngine {
            params,
            num_nodes: n,
            llc,
            imc,
            local_latency_ns,
            qpi,
            hop_latency_ns,
            latency: LatencyParams::new(topo.freq_mhz()),
            line_bytes,
            freq_mhz: topo.freq_mhz(),
            imc_mult: vec![1.0; n],
            qpi_mult: vec![1.0; n * n],
            scratch: StepScratch::default(),
            results: Vec::new(),
            stationary: false,
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    pub fn contention(&self) -> ContentionSnapshot {
        ContentionSnapshot {
            imc_multiplier: self.imc_mult.clone(),
            qpi_multiplier: self.qpi_mult.clone(),
        }
    }

    /// Resolve one quantum (see [`crate::MemoryEngine::step`]).
    pub fn step(&mut self, quantum: SimDuration, usages: &[QuantumUsage]) -> Vec<VcpuQuantumResult> {
        self.step_ref(quantum, usages).to_vec()
    }

    /// Whether the most recent solve was stationary.
    pub fn last_step_stationary(&self) -> bool {
        self.stationary
    }

    /// Results of the most recent solve.
    pub fn last_results(&self) -> &[VcpuQuantumResult] {
        &self.results
    }

    /// Detach the pooled results buffer (see
    /// [`crate::MemoryEngine::take_results`]).
    pub fn take_results(&mut self) -> Vec<VcpuQuantumResult> {
        std::mem::take(&mut self.results)
    }

    /// Return a buffer taken with [`ReferenceEngine::take_results`].
    pub fn put_back_results(&mut self, results: Vec<VcpuQuantumResult>) {
        self.results = results;
    }

    /// Allocation-free form of [`ReferenceEngine::step`].
    pub fn step_ref(
        &mut self,
        quantum: SimDuration,
        usages: &[QuantumUsage],
    ) -> &[VcpuQuantumResult] {
        let quantum_us = quantum.as_micros() as f64;
        assert!(quantum_us > 0.0, "zero quantum");

        // Detach the scratch buffers so the solve can borrow `&self`.
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut results = std::mem::take(&mut self.results);

        // 1. LLC sharing per node.
        scratch.per_node.resize(self.num_nodes, Vec::new());
        for members in scratch.per_node.iter_mut() {
            members.clear();
        }
        for (i, u) in usages.iter().enumerate() {
            debug_assert!(
                (u.profile.node_access_dist.len()) == self.num_nodes,
                "profile node distribution has wrong arity"
            );
            scratch.per_node[u.node.index()].push(i);
        }
        scratch.miss_rate.clear();
        scratch.miss_rate.resize(usages.len(), 0.0);
        for (node, members) in scratch.per_node.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            scratch.demands.clear();
            scratch.demands.extend(members.iter().map(|&i| LlcDemand {
                rpti: usages[i].rpti(),
                curve: usages[i].profile.miss_curve,
                runtime_share: usages[i].runtime_share,
            }));
            self.llc[node].occupancies_into(
                &scratch.demands,
                &mut scratch.llc_occ,
                &mut scratch.llc_scratch,
            );
            for (&i, o) in members.iter().zip(scratch.llc_occ.iter()) {
                let boosted = o.miss_rate * usages[i].cold_miss_boost.max(1.0);
                scratch.miss_rate[i] =
                    boosted.min(usages[i].profile.miss_curve.max_miss.max(o.miss_rate));
            }
        }

        // Hoist everything that does not change across fixed-point rounds.
        scratch.inv.clear();
        scratch.nz.clear();
        scratch.nz_start.clear();
        for (i, u) in usages.iter().enumerate() {
            scratch.nz_start.push(scratch.nz.len() as u32);
            let run_node = u.node.index();
            for (home, &frac) in u.profile.node_access_dist.iter().enumerate() {
                if frac <= 0.0 {
                    continue;
                }
                scratch.nz.push(NzFrac {
                    pair: (run_node * self.num_nodes + home) as u32,
                    home: home as u32,
                    frac,
                });
            }
            let m = scratch.miss_rate[i];
            let usable_us = (quantum_us * u.runtime_share - u.overhead_us).max(0.0);
            scratch.inv.push(UsageInv {
                run_node: run_node as u32,
                refs_per_instr: u.rpti() / 1_000.0,
                m,
                hit_term: (1.0 - m) * self.latency.llc_hit_cycles,
                mlp: u.profile.mlp.max(1.0),
                base_cpi: u.profile.base_cpi,
                cycles: usable_us * self.freq_mhz as f64,
            });
        }
        scratch.nz_start.push(scratch.nz.len() as u32);

        // 2. Solve the contention fixed point by damped iteration from the
        // previous quantum's state.
        let quantum_s = quantum_us / 1e6;
        let mut imc_mult = self.imc_mult.clone();
        let mut qpi_mult = self.qpi_mult.clone();
        let mut round = 0;
        loop {
            scratch.node_demand_bytes.clear();
            scratch.node_demand_bytes.resize(self.num_nodes, 0.0);
            scratch.pair_traffic_bytes.clear();
            scratch
                .pair_traffic_bytes
                .resize(self.num_nodes * self.num_nodes, 0.0);

            scratch.miss_cycles_matrix.clear();
            for run_node in 0..self.num_nodes {
                for (home, &home_mult) in imc_mult.iter().enumerate() {
                    let pair = run_node * self.num_nodes + home;
                    let hop = if home == run_node {
                        None
                    } else {
                        Some(self.hop_latency_ns[pair])
                    };
                    scratch.miss_cycles_matrix.push(self.latency.miss_cycles(
                        self.local_latency_ns[home],
                        home_mult,
                        hop,
                        qpi_mult[pair],
                    ));
                }
            }

            for (i, u) in usages.iter().enumerate() {
                let inv = &scratch.inv[i];
                let run_node = inv.run_node as usize;
                let nz =
                    &scratch.nz[scratch.nz_start[i] as usize..scratch.nz_start[i + 1] as usize];

                // Average cycle cost of a miss over the access distribution.
                let mut miss_cycles = 0.0;
                for e in nz {
                    miss_cycles += e.frac * scratch.miss_cycles_matrix[e.pair as usize];
                }

                let cpi = inv.base_cpi
                    + inv.refs_per_instr * (inv.hit_term + inv.m * miss_cycles) / inv.mlp;
                let instructions = (inv.cycles / cpi) as u64;
                let llc_refs = round_to_u64(instructions as f64 * inv.refs_per_instr);
                let llc_misses = round_to_u64(llc_refs as f64 * inv.m);

                scratch.node_accesses.clear();
                scratch.node_accesses.resize(self.num_nodes, 0);
                let mut assigned = 0u64;
                for e in nz {
                    let c = (llc_misses as f64 * e.frac) as u64;
                    scratch.node_accesses[e.home as usize] = c;
                    assigned += c;
                }
                // Give rounding remainder to the run node (arbitrary but local).
                scratch.node_accesses[run_node] += llc_misses - assigned;

                let local_accesses = scratch.node_accesses[run_node];
                let remote_accesses = llc_misses - local_accesses;

                let _ = self.line_bytes;
                for e in nz {
                    let home = e.home as usize;
                    if home == run_node {
                        continue;
                    }
                    let bytes =
                        scratch.node_accesses[home] as f64 * self.params.traffic_per_miss_bytes;
                    scratch.node_demand_bytes[home] += bytes * self.params.remote_imc_overhead;
                    scratch.pair_traffic_bytes[run_node * self.num_nodes + home] += bytes;
                    scratch.pair_traffic_bytes[home * self.num_nodes + run_node] += bytes;
                }
                let local_bytes =
                    scratch.node_accesses[run_node] as f64 * self.params.traffic_per_miss_bytes;
                scratch.node_demand_bytes[run_node] += local_bytes;

                if i < results.len() {
                    let out = &mut results[i];
                    out.key = u.key;
                    out.instructions = instructions;
                    out.llc_refs = llc_refs;
                    out.llc_misses = llc_misses;
                    out.local_accesses = local_accesses;
                    out.remote_accesses = remote_accesses;
                    out.node_accesses.clear();
                    out.node_accesses.extend_from_slice(&scratch.node_accesses);
                    out.effective_cpi = cpi;
                    out.miss_rate = inv.m;
                } else {
                    results.push(VcpuQuantumResult {
                        key: u.key,
                        instructions,
                        llc_refs,
                        llc_misses,
                        local_accesses,
                        remote_accesses,
                        node_accesses: scratch.node_accesses.clone(),
                        effective_cpi: cpi,
                        miss_rate: inv.m,
                    });
                }
            }

            // Recompute multipliers from this round's demand and relax.
            let damp = if round == 0 { 1.0 } else { 0.5 };
            let mut changed = false;
            for (node, mult) in imc_mult.iter_mut().enumerate() {
                let target =
                    self.imc[node].latency_multiplier(scratch.node_demand_bytes[node] / quantum_s);
                let before = *mult;
                *mult += damp * (target - *mult);
                changed |= *mult != before;
            }
            for a in 0..self.num_nodes {
                for b in 0..self.num_nodes {
                    let idx = a * self.num_nodes + b;
                    let target = match &self.qpi[idx] {
                        Some(q) => q.latency_multiplier(scratch.pair_traffic_bytes[idx] / quantum_s),
                        None => 1.0,
                    };
                    let before = qpi_mult[idx];
                    qpi_mult[idx] += damp * (target - qpi_mult[idx]);
                    changed |= qpi_mult[idx] != before;
                }
            }
            round += 1;
            if round == FIXED_POINT_ROUNDS || !changed {
                break;
            }
        }
        results.truncate(usages.len());
        self.stationary = imc_mult == self.imc_mult && qpi_mult == self.qpi_mult;
        self.imc_mult = imc_mult;
        self.qpi_mult = qpi_mult;
        self.scratch = scratch;
        self.results = results;
        &self.results
    }
}

/// Equivalence pins: the incremental SoA engine in exact mode must be
/// bitwise indistinguishable from this frozen reference on arbitrary
/// usage streams — including membership churn, placement flips, intensity
/// noise, warmup boosts, and overhead spikes, i.e. exactly the events the
/// dirty bits must notice.
#[cfg(test)]
mod equiv_proptests {
    use super::*;
    use crate::engine::{AccessProfile, MemoryEngine};
    use crate::MissCurve;
    use numa_topo::{presets, NodeId};
    use proptest::prelude::*;

    const MB: u64 = 1024 * 1024;

    /// One slot of one step: which profile ran where, under what momentary
    /// conditions.
    #[derive(Debug, Clone)]
    struct SlotSpec {
        prof: usize,
        node: u16,
        share: f64,
        scale: f64,
        boost: f64,
        overhead: f64,
    }

    /// Every topology the pins run on: the paper's two-node testbed (the
    /// engine's two-node specialisation), a one-node and a four-node
    /// machine (its generic path).
    fn topologies() -> [Topology; 3] {
        [presets::xeon_e5620(), presets::uma_quad(), presets::four_socket_32core()]
    }

    /// Default calibration with a fractional per-miss traffic. With the
    /// default 115 B every demand term is a multiple of 0.5 and sums
    /// exactly in any order; here the terms round, so the accumulators'
    /// bits depend on the order of the adds and the pin covers it.
    fn fractional_traffic() -> EngineParams {
        EngineParams {
            traffic_per_miss_bytes: 115.3,
            ..EngineParams::default()
        }
    }

    /// An `n`-node access distribution: `first` on node 0, the rest on the
    /// last node when `spread` is false, else split evenly over nodes
    /// `1..n` (on one node, everything is local).
    fn dist(n: usize, first: f64, spread: bool) -> Vec<f64> {
        if n == 1 {
            return vec![1.0];
        }
        let mut d = vec![0.0; n];
        d[0] = first;
        if spread {
            d[1..].fill((1.0 - first) / (n - 1) as f64);
        } else {
            d[n - 1] = 1.0 - first;
        }
        d
    }

    fn profiles(n: usize) -> Vec<AccessProfile> {
        vec![
            // LLC-fitting, mostly-local (an lu-like phase).
            AccessProfile {
                rpti: 18.0,
                base_cpi: 1.1,
                miss_curve: MissCurve::new(0.05, 0.6, 10 * MB),
                mlp: 2.0,
                node_access_dist: dist(n, 0.7, true),
            },
            // LLC-thrashing, mostly-remote (zero rows in between on more
            // than two nodes).
            AccessProfile {
                rpti: 26.0,
                base_cpi: 0.9,
                miss_curve: MissCurve::new(0.4, 0.7, 64 * MB),
                mlp: 4.0,
                node_access_dist: dist(n, 0.2, false),
            },
            // CPU-only (the hungry loop).
            AccessProfile::cpu_only(1.0, n),
        ]
    }

    fn arb_slot() -> impl Strategy<Value = SlotSpec> {
        (0usize..3, 0u16..4, 0.05f64..1.0, 0.5f64..1.6, 1.0f64..4.0, 0.0f64..300.0).prop_map(
            |(prof, node, share, scale, boost, overhead)| SlotSpec {
                prof,
                node,
                share,
                scale,
                boost,
                overhead,
            },
        )
    }

    fn arb_stream() -> impl Strategy<Value = Vec<Vec<SlotSpec>>> {
        // Steps of varying slot counts: lengthening/shortening the usage
        // list exercises the shape-change rebuild; repeated draws of
        // near-identical specs exercise partial dirtiness.
        proptest::collection::vec(proptest::collection::vec(arb_slot(), 0..8), 1..10)
    }

    /// The step's usages on `topo`: each slot's node wraps to the node
    /// count, and its profile comes from `profs` (built for that count).
    fn build_usages<'a>(
        step: &[SlotSpec],
        profs: &'a [AccessProfile],
        topo: &Topology,
    ) -> Vec<QuantumUsage<'a>> {
        let n = topo.num_nodes() as u16;
        step.iter()
            .enumerate()
            .map(|(slot, s)| QuantumUsage {
                key: slot as u64 + 1,
                node: NodeId::new(s.node % n),
                runtime_share: s.share,
                profile: &profs[s.prof],
                rpti_scale: s.scale,
                cold_miss_boost: s.boost,
                overhead_us: s.overhead,
            })
            .collect()
    }

    proptest! {
        #[test]
        fn soa_exact_matches_reference_stepwise(stream in arb_stream()) {
            for (topo, params) in topologies()
                .into_iter()
                .flat_map(|t| [(t.clone(), EngineParams::default()), (t, fractional_traffic())])
            {
                let n = topo.num_nodes();
                let profs = profiles(n);
                let mut soa = MemoryEngine::with_params(&topo, params);
                let mut reference = ReferenceEngine::with_params(&topo, params);
                let quantum = SimDuration::from_millis(1);
                for (step_idx, step) in stream.iter().enumerate() {
                    let usages = build_usages(step, &profs, &topo);
                    let a = soa.step_ref(quantum, &usages).to_vec();
                    let b = reference.step_ref(quantum, &usages).to_vec();
                    prop_assert_eq!(&a, &b, "{} nodes: results diverged at step {}", n, step_idx);
                    prop_assert_eq!(
                        soa.contention(),
                        reference.contention(),
                        "{} nodes: multipliers diverged at step {}",
                        n,
                        step_idx
                    );
                    prop_assert_eq!(
                        soa.last_step_stationary(),
                        reference.last_step_stationary(),
                        "{} nodes: stationarity diverged at step {}",
                        n,
                        step_idx
                    );
                }
            }
        }

        #[test]
        fn warm_start_equals_cold_solve(stream in arb_stream()) {
            // Dirty-bit soundness: at every step, an engine that diffs
            // against its warm cache must produce the same bytes as its
            // clone with the cache dropped (which re-solves everything
            // from the same multipliers). A skipped node whose inputs
            // actually changed would show up here.
            for topo in topologies() {
                let n = topo.num_nodes();
                let profs = profiles(n);
                let mut warm = MemoryEngine::new(&topo);
                let quantum = SimDuration::from_millis(1);
                for (step_idx, step) in stream.iter().enumerate() {
                    let usages = build_usages(step, &profs, &topo);
                    let mut cold = warm.clone();
                    cold.invalidate_cache();
                    let a = warm.step_ref(quantum, &usages).to_vec();
                    let b = cold.step_ref(quantum, &usages).to_vec();
                    prop_assert_eq!(&a, &b, "{} nodes: warm/cold diverged at step {}", n, step_idx);
                    prop_assert_eq!(
                        warm.contention(),
                        cold.contention(),
                        "{} nodes: warm/cold multipliers diverged at step {}",
                        n,
                        step_idx
                    );
                }
            }
        }

        #[test]
        fn repeated_steps_hit_the_whole_step_skip_correctly(step in proptest::collection::vec(arb_slot(), 1..6)) {
            // Drive the same usage list until the fixed point converges
            // and beyond: the whole-step skip must keep reproducing what
            // the reference (which never skips) produces.
            for topo in topologies() {
                let n = topo.num_nodes();
                let profs = profiles(n);
                let mut soa = MemoryEngine::new(&topo);
                let mut reference = ReferenceEngine::new(&topo);
                let quantum = SimDuration::from_millis(1);
                let usages = build_usages(&step, &profs, &topo);
                for rep in 0..16 {
                    let a = soa.step_ref(quantum, &usages).to_vec();
                    let b = reference.step_ref(quantum, &usages).to_vec();
                    prop_assert_eq!(&a, &b, "{} nodes: results diverged at repeat {}", n, rep);
                    prop_assert_eq!(
                        soa.last_step_stationary(),
                        reference.last_step_stationary(),
                        "{} nodes: stationarity diverged at repeat {}",
                        n,
                        rep
                    );
                }
            }
        }
    }
}
