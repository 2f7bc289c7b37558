//! Per-quantum execution resolution.
//!
//! [`MemoryEngine::step`] is the simulator's performance model: given which
//! VCPU ran on which node this quantum (and with what behavioural profile),
//! it computes how many instructions each executed and how its memory
//! accesses distributed over nodes. The hypervisor simulator calls it once
//! per quantum and feeds the results to the virtual PMU.
//!
//! The model composes:
//!
//! * per-socket LLC sharing → per-VCPU miss rate ([`crate::llc`]);
//! * per-node IMC queueing → DRAM latency multiplier ([`crate::imc`]);
//! * per-node-pair interconnect queueing → hop multiplier ([`crate::qpi`]);
//! * latency composition into an effective CPI.
//!
//! Latency multipliers and offered demand depend on each other (higher
//! latency throttles instruction rate, which lowers demand), so each
//! quantum solves that fixed point by damped iteration — a lagged update
//! oscillates between idle and saturated when the workload is near the
//! knee of the queueing curve.
//!
//! # Data-oriented incremental solve
//!
//! The engine keeps its hot state as struct-of-arrays ([`HotState`]): one
//! dense array per input field and per derived term, mirroring the last
//! step's inputs bit for bit. Every `step` first diffs the incoming usages
//! against that mirror, which drives three kinds of work avoidance — all
//! bit-exact, because each skipped computation is a pure function of
//! inputs that were verified (bitwise) unchanged:
//!
//! * **per-node LLC dirty bits** — a node's shared-cache occupancy solve
//!   re-runs only when some co-runner on that node changed its intensity,
//!   runtime share, or miss curve; otherwise the cached per-slot raw miss
//!   rates stand (the solve is a pure per-node function of exactly those
//!   inputs);
//! * **per-slot derived columns** — a slot whose inputs *and* solved miss
//!   rate are bitwise unchanged keeps its round-invariant derived terms;
//! * **whole-step skip** — when every input is bitwise unchanged *and* the
//!   previous solve was stationary (the damped update left every
//!   multiplier bitwise unchanged), re-running would replay the identical
//!   trajectory, so the cached outputs are rematerialized without solving.
//!
//! Every solve warm-starts from the previous quantum's multipliers, as the
//! original engine did, and every fixed-point round recomputes every
//! active slot: eight per AVX-512 vector over packed columns where the CPU
//! has AVX-512F and AVX-512DQ (`lanes512`), otherwise two per SSE2
//! register (`lanes`). The engine is byte-identical to
//! [`crate::reference::ReferenceEngine`]: every debug build steps that
//! oracle in lockstep and panics on the first bit that differs (see
//! [`MemoryEngine::step_ref`]), and the equivalence proptests in
//! [`crate::reference`] pin it on arbitrary usage streams.

use crate::curve::MissCurve;
use crate::imc::ImcModel;
use crate::latency::LatencyParams;
use crate::llc::{LlcDemand, LlcModel, LlcOccupancy, LlcScratch};
use crate::qpi::QpiModel;
#[cfg(debug_assertions)]
use crate::reference::ReferenceEngine;
use numa_topo::{NodeId, Topology};
use sim_core::SimDuration;

/// Behavioural profile of whatever a VCPU is currently executing.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessProfile {
    /// LLC references per thousand retired instructions (paper's RPTI).
    pub rpti: f64,
    /// Cycles per instruction with a perfect LLC (core + L1/L2 effects).
    pub base_cpi: f64,
    /// Miss-rate-vs-occupancy curve.
    pub miss_curve: MissCurve,
    /// Memory-level parallelism: average number of outstanding cache
    /// misses the workload sustains. Streaming codes overlap many misses
    /// (4-8); pointer chasers serialize them (~1-2). Stall cycles per miss
    /// are `latency / mlp`.
    pub mlp: f64,
    /// Fraction of memory accesses landing on each node; must sum to 1.
    pub node_access_dist: Vec<f64>,
}

impl AccessProfile {
    /// A profile that performs no memory accesses (idle/hungry loop body).
    pub fn cpu_only(base_cpi: f64, num_nodes: usize) -> Self {
        AccessProfile {
            rpti: 0.0,
            base_cpi,
            miss_curve: MissCurve::flat(0.0),
            mlp: 1.0,
            node_access_dist: vec![0.0; num_nodes],
        }
    }
}

/// One VCPU's share of the quantum, as scheduled by the hypervisor.
///
/// The profile is borrowed: the hypervisor caches one profile per guest
/// thread and phase, and `step` runs every quantum, so an owned profile
/// would mean two heap allocations per running VCPU per quantum.
#[derive(Debug, Clone)]
pub struct QuantumUsage<'a> {
    /// Caller-chosen identifier, echoed in the result (the VCPU id).
    pub key: u64,
    /// Node whose PCPU ran this VCPU.
    pub node: NodeId,
    /// Fraction of the quantum actually run, `(0, 1]`.
    pub runtime_share: f64,
    /// What the VCPU executed.
    pub profile: &'a AccessProfile,
    /// Momentary intensity factor applied to the profile's RPTI (the
    /// hypervisor's burstiness noise); 1.0 for steady behaviour.
    pub rpti_scale: f64,
    /// Post-migration cache-warmup penalty: multiplies the miss rate
    /// (clamped to the curve's `max_miss`); 1.0 when warm.
    pub cold_miss_boost: f64,
    /// Scheduler/monitoring time stolen from this VCPU this quantum, in
    /// microseconds (PMU sampling cost, BRM's global lock, …).
    pub overhead_us: f64,
}

impl QuantumUsage<'_> {
    /// The effective LLC references per thousand instructions this
    /// quantum: the profile's RPTI under the momentary intensity factor.
    pub(crate) fn rpti(&self) -> f64 {
        self.profile.rpti * self.rpti_scale
    }
}

/// What one VCPU accomplished during the quantum.
#[derive(Debug, Clone, PartialEq)]
pub struct VcpuQuantumResult {
    pub key: u64,
    pub instructions: u64,
    pub llc_refs: u64,
    pub llc_misses: u64,
    /// Misses served by the node the VCPU ran on.
    pub local_accesses: u64,
    /// Misses served by any other node.
    pub remote_accesses: u64,
    /// Misses per home node (the PMU's `N(vc, i)` page-access proxy).
    pub node_accesses: Vec<u64>,
    /// Realized cycles-per-instruction including all stalls.
    pub effective_cpi: f64,
    /// Realized miss rate after sharing and warmup effects.
    pub miss_rate: f64,
}

/// Dynamic contention levels, exposed for metrics and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionSnapshot {
    /// Latency multiplier of each node's IMC.
    pub imc_multiplier: Vec<f64>,
    /// Hop multiplier per node pair, row-major `n×n` (diagonal 1.0).
    pub qpi_multiplier: Vec<f64>,
}

/// Calibration knobs translating nameplate hardware numbers into the
/// behaviour a memory-bound workload actually sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineParams {
    /// Fraction of nameplate IMC bandwidth sustainable under the mixed
    /// random/streaming traffic of the modeled workloads (Nehalem-EP
    /// sustains roughly 40-50 % of peak on non-ideal access patterns).
    pub sustained_imc_frac: f64,
    /// Fraction of raw QPI bandwidth available to data after protocol and
    /// coherence overhead.
    pub sustained_qpi_frac: f64,
    /// DRAM traffic per LLC miss, in bytes: the 64-byte demand line plus
    /// prefetcher overfetch and writebacks.
    pub traffic_per_miss_bytes: f64,
    /// Extra home-IMC work for a remote access (snoop + forward) relative
    /// to a local one.
    pub remote_imc_overhead: f64,
}

impl Default for EngineParams {
    fn default() -> Self {
        EngineParams {
            sustained_imc_frac: 0.45,
            sustained_qpi_frac: 0.22,
            traffic_per_miss_bytes: 115.0,
            remote_imc_overhead: 1.5,
        }
    }
}

/// Struct-of-arrays hot state: the bitwise input mirror, the derived
/// round-invariant terms, the per-round output columns, and the solve
/// scratch. One array per field, indexed by usage slot; `dist` and
/// `out_node_acc` are `len × n` row-major matrices.
#[derive(Debug, Clone, Default)]
struct HotState {
    len: usize,
    quantum_us: f64,
    /// The mirror holds a real previous step (false until the first solve
    /// and after an invalidation).
    valid: bool,
    // Input mirror, diffed bitwise against each step's usages.
    key: Vec<u64>,
    node: Vec<u32>,
    share: Vec<f64>,
    /// Effective RPTI (`profile.rpti * rpti_scale`).
    rpti_eff: Vec<f64>,
    boost: Vec<f64>,
    overhead: Vec<f64>,
    cv_min: Vec<f64>,
    cv_max: Vec<f64>,
    cv_ws: Vec<u64>,
    mlp: Vec<f64>,
    base_cpi: Vec<f64>,
    dist: Vec<f64>,
    // Derived terms, refreshed only when their inputs changed.
    /// Raw shared-LLC miss rate per slot (pre cold-boost), the cached
    /// output of the per-node occupancy solve.
    occ_miss: Vec<f64>,
    m: Vec<f64>,
    refs_per_instr: Vec<f64>,
    hit_term: Vec<f64>,
    mlp_eff: Vec<f64>,
    cycles: Vec<f64>,
    /// Per node: member slots in input order (the LLC solve order).
    members: Vec<Vec<u32>>,
    /// Per node: some member's LLC-relevant inputs changed since its last
    /// occupancy solve.
    node_dirty: Vec<bool>,
    /// Per slot: some input or the slot's solved miss rate changed bitwise
    /// since the slot's derived columns were computed. Gates the derived
    /// pass, which clears it.
    slot_changed: Vec<bool>,
    /// Slots with nonzero effective RPTI — the only ones whose outputs can
    /// depend on the contention multipliers, and therefore the only ones
    /// the fixed-point rounds re-evaluate (see the derived pass).
    active: Vec<u32>,
    // Output columns of the most recent round (the final round survives
    // and is materialized into `VcpuQuantumResult`s once per step).
    out_instructions: Vec<u64>,
    out_cpi: Vec<f64>,
    out_refs: Vec<u64>,
    out_misses: Vec<u64>,
    out_local: Vec<u64>,
    out_remote: Vec<u64>,
    out_node_acc: Vec<u64>,
    // Solve scratch.
    cur_imc: Vec<f64>,
    cur_qpi: Vec<f64>,
    node_demand: Vec<f64>,
    pair_traffic: Vec<f64>,
    miss_cycles_matrix: Vec<f64>,
    demands: Vec<LlcDemand>,
    llc_occ: Vec<LlcOccupancy>,
    llc_scratch: LlcScratch,
    /// The active slots' columns in `active` order, for the packed round.
    chunks: Vec<Chunk>,
    /// The final round of the most recent solve ran packed: the active
    /// slots' outputs are in `chunks`, not in the `out_*` columns.
    outputs_packed: bool,
}

/// The fixed-point round's columns for [`LANES`] active slots, one array
/// per column: lane `k` of chunk `c` is slot `active[LANES * c + k]`. The
/// chunks are packed once per changed solve and read by every round of
/// the packed kernel ([`lanes512`]). Lanes past the last active slot keep
/// stale values, which the kernel masks out.
#[derive(Debug, Clone, Copy, Default)]
struct Chunk {
    // Round-invariant inputs.
    node: [u64; LANES],
    base_cpi: [f64; LANES],
    refs_per_instr: [f64; LANES],
    hit_term: [f64; LANES],
    m: [f64; LANES],
    mlp_eff: [f64; LANES],
    cycles: [f64; LANES],
    /// Per home node.
    dist: [[f64; LANES]; MAX_NODES],
    // The most recent packed round's outputs.
    out_instructions: [u64; LANES],
    out_cpi: [f64; LANES],
    out_refs: [u64; LANES],
    out_misses: [u64; LANES],
    out_local: [u64; LANES],
    out_remote: [u64; LANES],
    /// Per home node.
    out_node_acc: [[u64; LANES]; MAX_NODES],
}

/// Slots per packed-round vector.
const LANES: usize = 8;

/// The most nodes the packed round handles: one vector then holds a
/// miss-cost column over every run node.
const MAX_NODES: usize = LANES;

impl HotState {
    /// Slot `i`'s round-invariant derived columns.
    #[inline(always)]
    fn derive(
        &mut self,
        i: usize,
        n: usize,
        quantum_us: f64,
        latency: &LatencyParams,
        freq_mhz: u32,
    ) {
        let om = self.occ_miss[i];
        let boosted = om * self.boost[i].max(1.0);
        let m = boosted.min(self.cv_max[i].max(om));
        self.m[i] = m;
        self.refs_per_instr[i] = self.rpti_eff[i] / 1_000.0;
        self.hit_term[i] = (1.0 - m) * latency.llc_hit_cycles;
        self.mlp_eff[i] = self.mlp[i].max(1.0);
        let usable_us = (quantum_us * self.share[i] - self.overhead[i]).max(0.0);
        self.cycles[i] = usable_us * freq_mhz as f64;
        if self.rpti_eff[i] == 0.0 {
            // Zero LLC references: the miss term below is an exact
            // `+0.0` for any finite miss cost, so this slot's CPI
            // cannot see the contention multipliers and it offers
            // no demand. Its outputs are round-invariant — compute
            // them once here with a zero miss cost (same bits) and
            // leave it out of the fixed-point rounds entirely.
            let cpi = self.base_cpi[i]
                + self.refs_per_instr[i] * (self.hit_term[i] + self.m[i] * 0.0) / self.mlp_eff[i];
            let instructions = f64_to_u64(self.cycles[i] / cpi);
            let llc_refs = round_to_u64(u64_to_f64(instructions) * self.refs_per_instr[i]);
            let llc_misses = round_to_u64(u64_to_f64(llc_refs) * self.m[i]);
            self.out_instructions[i] = instructions;
            self.out_cpi[i] = cpi;
            self.out_refs[i] = llc_refs;
            self.out_misses[i] = llc_misses;
            self.out_local[i] = 0;
            self.out_remote[i] = 0;
            self.out_node_acc[i * n..(i + 1) * n].fill(0);
        }
    }

    /// Copy slot `i`'s round-invariant columns into lane `k` of `chunks`
    /// (`k` is its position in `active`).
    #[inline(always)]
    fn pack_lane(&mut self, k: usize, i: usize, n: usize) {
        if self.chunks.len() == k / LANES {
            self.chunks.push(Chunk::default());
        }
        let (chunk, lane) = (&mut self.chunks[k / LANES], k % LANES);
        chunk.node[lane] = u64::from(self.node[i]);
        chunk.base_cpi[lane] = self.base_cpi[i];
        chunk.refs_per_instr[lane] = self.refs_per_instr[i];
        chunk.hit_term[lane] = self.hit_term[i];
        chunk.m[lane] = self.m[i];
        chunk.mlp_eff[lane] = self.mlp_eff[i];
        chunk.cycles[lane] = self.cycles[i];
        for (home, &frac) in chunk.dist[..n].iter_mut().zip(&self.dist[i * n..i * n + n]) {
            home[lane] = frac;
        }
    }
}

/// Deterministic work-avoidance counters for the incremental engine
/// (DESIGN §16). Every field is a pure function of the simulated
/// execution — solver control flow, never wall-clock — so two runs of
/// the same seed produce bitwise-equal counters at any `--jobs`. The
/// counters are maintained unconditionally (a handful of predictable
/// integer adds per step, far below one solve) and are only *read* when
/// perf introspection asks; they appear in no default output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnginePerf {
    /// Solver invocations (`step_ref` calls).
    pub steps: u64,
    /// Steps answered entirely from cache: unchanged inputs at a
    /// stationary fixed point (the whole-step skip).
    pub whole_step_skips: u64,
    /// Per-node LLC occupancy solves actually performed.
    pub node_solves: u64,
    /// Populated nodes skipped in a changed step by a clean dirty bit.
    pub node_clean_skips: u64,
    /// Fixed-point rounds executed, total (divide by `steps −
    /// whole_step_skips` for rounds per solving step).
    pub fp_rounds: u64,
    /// Always 0: the engine replays no per-slot outputs. Kept only for the
    /// benchmark's `mem-model.replay_fires` row, until the benchmark
    /// retires it; not part of [`EnginePerf::accumulate`] or any export.
    pub replay_fires: u64,
}

impl EnginePerf {
    /// Always 0.0: the engine has no solve memo. Kept only for the
    /// benchmark's `mem-model.memo_hit_ratio` row, until the benchmark
    /// retires it.
    pub fn memo_hit_rate(&self) -> f64 {
        0.0
    }

    /// Add another engine's counters into this one. Summing per-host
    /// counters in host index order is the fleet aggregation primitive.
    pub fn accumulate(&mut self, o: EnginePerf) {
        self.steps += o.steps;
        self.whole_step_skips += o.whole_step_skips;
        self.node_solves += o.node_solves;
        self.node_clean_skips += o.node_clean_skips;
        self.fp_rounds += o.fp_rounds;
    }
}

/// The composed memory-system model for one machine.
#[derive(Debug, Clone)]
pub struct MemoryEngine {
    params: EngineParams,
    num_nodes: usize,
    llc: Vec<LlcModel>,
    imc: Vec<ImcModel>,
    /// Unloaded local DRAM latency per node, in core cycles.
    local_cycles: Vec<f64>,
    qpi: Vec<Option<QpiModel>>, // per pair, row-major
    /// Unloaded interconnect hop latency per pair, in core cycles
    /// (row-major; 0 on the diagonal and for unlinked pairs).
    hop_cycles: Vec<f64>,
    latency: LatencyParams,
    freq_mhz: u32,
    imc_mult: Vec<f64>,
    qpi_mult: Vec<f64>, // per pair, row-major
    hot: HotState,
    /// Pooled results of the most recent solve (element buffers reused
    /// across quanta instead of reallocated).
    results: Vec<VcpuQuantumResult>,
    /// Whether the most recent solve left the contention multipliers
    /// bitwise unchanged — i.e. the fixed point has converged, so an
    /// identical-input step would reproduce identical results.
    stationary: bool,
    /// Work-avoidance accounting (read via [`MemoryEngine::perf`]).
    perf: EnginePerf,
    /// This CPU runs the packed round for this machine
    /// ([`lanes512::available`], asked once at construction).
    packed_kernel: bool,
    /// The frozen oracle, stepped in lockstep with every solve.
    #[cfg(debug_assertions)]
    shadow: Box<ReferenceEngine>,
}

impl MemoryEngine {
    /// Build the engine from a validated topology with default calibration.
    pub fn new(topo: &Topology) -> Self {
        MemoryEngine::with_params(topo, EngineParams::default())
    }

    /// Build with explicit calibration parameters.
    pub fn with_params(topo: &Topology, params: EngineParams) -> Self {
        let n = topo.num_nodes();
        // The latencies convert to cycles once, with the expression the
        // reference evaluates per round (`LatencyParams::miss_cycles`), so
        // the per-round products see the same bits.
        let latency = LatencyParams::new(topo.freq_mhz());
        let mut llc = Vec::with_capacity(n);
        let mut imc = Vec::with_capacity(n);
        let mut local_cycles = Vec::with_capacity(n);
        for node in topo.nodes() {
            let cfg = topo.node_config(node);
            llc.push(LlcModel::new(cfg.llc.size_bytes));
            imc.push(ImcModel::new(
                ((cfg.imc_bandwidth_bytes_per_s as f64) * params.sustained_imc_frac) as u64,
            ));
            local_cycles.push(latency.ns_to_cycles(cfg.local_latency_ns));
        }
        let mut qpi = vec![None; n * n];
        let mut hop_cycles = vec![0.0; n * n];
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
                    hop_cycles[idx] = latency.ns_to_cycles(first.hop_latency_ns);
                }
            }
        }
        MemoryEngine {
            params,
            num_nodes: n,
            llc,
            imc,
            local_cycles,
            qpi,
            hop_cycles,
            latency,
            freq_mhz: topo.freq_mhz(),
            imc_mult: vec![1.0; n],
            qpi_mult: vec![1.0; n * n],
            hot: HotState::default(),
            results: Vec::new(),
            stationary: false,
            perf: EnginePerf::default(),
            packed_kernel: lanes512::available(n),
            #[cfg(debug_assertions)]
            shadow: Box::new(ReferenceEngine::with_params(topo, params)),
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Drop the incremental state: the next step diffs against nothing and
    /// performs a full solve (warm-started from the current multipliers,
    /// exactly as every step is). Exposed for tests and bisection; results
    /// are unaffected by construction, which the equivalence proptests
    /// check by invalidating at arbitrary points.
    pub fn invalidate_cache(&mut self) {
        self.hot.valid = false;
    }

    pub fn contention(&self) -> ContentionSnapshot {
        ContentionSnapshot {
            imc_multiplier: self.imc_mult.clone(),
            qpi_multiplier: self.qpi_mult.clone(),
        }
    }

    /// Resolve one quantum. `usages` lists every VCPU that ran (at most one
    /// per PCPU per share of the quantum; the hypervisor may split a
    /// quantum between two VCPUs by passing two entries with shares
    /// summing to ≤ 1 for that PCPU).
    pub fn step(
        &mut self,
        quantum: SimDuration,
        usages: &[QuantumUsage],
    ) -> Vec<VcpuQuantumResult> {
        self.step_ref(quantum, usages).to_vec()
    }

    /// Whether the most recent solve was stationary: the damped update
    /// left every contention multiplier bitwise unchanged, so re-running
    /// it with the same inputs would replay the exact same trajectory
    /// (what the whole-step skip relies on).
    pub fn last_step_stationary(&self) -> bool {
        self.stationary
    }

    /// Cumulative work-avoidance counters for this engine's lifetime.
    /// Deterministic; never part of the engine's outputs.
    pub fn perf(&self) -> EnginePerf {
        self.perf
    }

    /// Allocation-free form of [`MemoryEngine::step`]: the returned slice
    /// borrows pooled per-engine buffers that the next step overwrites.
    ///
    /// Debug builds step the frozen
    /// [`ReferenceEngine`](crate::reference::ReferenceEngine) on the same
    /// inputs and panic on the first bit that differs, so every debug-built
    /// run is an engine-equivalence check.
    pub fn step_ref(
        &mut self,
        quantum: SimDuration,
        usages: &[QuantumUsage],
    ) -> &[VcpuQuantumResult] {
        self.solve(quantum, usages);
        #[cfg(debug_assertions)]
        self.check_against_shadow(quantum, usages);
        &self.results
    }

    /// Step the shadow oracle on the same inputs and demand bitwise-equal
    /// results, contention multipliers and stationarity.
    #[cfg(debug_assertions)]
    fn check_against_shadow(&mut self, quantum: SimDuration, usages: &[QuantumUsage]) {
        let step = self.perf.steps;
        let oracle = self.shadow.step_ref(quantum, usages);
        assert_eq!(
            self.results.len(),
            oracle.len(),
            "MemoryEngine diverged from ReferenceEngine at step {step}: result count"
        );
        for (got, want) in self.results.iter().zip(oracle) {
            assert!(
                results_bits_eq(got, want),
                "MemoryEngine diverged from ReferenceEngine at step {step}, key {}: \
                 {got:?} != {want:?}",
                got.key
            );
        }
        let want = self.shadow.contention();
        assert!(
            slices_bits_eq(&self.imc_mult, &want.imc_multiplier)
                && slices_bits_eq(&self.qpi_mult, &want.qpi_multiplier),
            "MemoryEngine diverged from ReferenceEngine at step {step}: contention {:?} != {want:?}",
            self.contention()
        );
        assert_eq!(
            self.stationary,
            self.shadow.last_step_stationary(),
            "MemoryEngine diverged from ReferenceEngine at step {step}: stationarity"
        );
    }

    /// The incremental solve behind [`MemoryEngine::step_ref`]; leaves its
    /// answer in `self.results`.
    fn solve(&mut self, quantum: SimDuration, usages: &[QuantumUsage]) {
        let quantum_us = quantum.as_micros() as f64;
        assert!(quantum_us > 0.0, "zero quantum");
        self.perf.steps += 1;
        let n = self.num_nodes;

        // Disjoint field borrows: the solve mutates `hot`/`results` while
        // reading the model fields (`llc`, `imc`, `latency`, …) — all
        // distinct fields of `self`, so no detach/re-attach copying of the
        // (large) hot-state header block per step.
        let hot = &mut self.hot;
        let results = &mut self.results;

        // --- Diff the incoming usages against the bitwise input mirror. ---
        // `shape_same`: the (key, node) sequence is unchanged, so the
        // per-node membership and every slot's run node stand.
        let mut shape_same = hot.valid && usages.len() == hot.len;
        if shape_same {
            for (i, u) in usages.iter().enumerate() {
                if hot.key[i] != u.key || hot.node[i] != u.node.index() as u32 {
                    shape_same = false;
                    break;
                }
            }
        }
        let quantum_changed = quantum_us.to_bits() != hot.quantum_us.to_bits();
        let mut any_changed = !shape_same || quantum_changed;
        let mut dist_changed = !shape_same;
        hot.quantum_us = quantum_us;
        hot.node_dirty.resize(n, false);
        if shape_same && quantum_changed {
            // A quantum change rescales every slot's cycle budget.
            for s in hot.slot_changed.iter_mut() {
                *s = true;
            }
        }
        if !shape_same {
            let len = usages.len();
            hot.len = len;
            hot.key.resize(len, 0);
            hot.node.resize(len, 0);
            hot.share.resize(len, 0.0);
            hot.rpti_eff.resize(len, 0.0);
            hot.boost.resize(len, 0.0);
            hot.overhead.resize(len, 0.0);
            hot.cv_min.resize(len, 0.0);
            hot.cv_max.resize(len, 0.0);
            hot.cv_ws.resize(len, 0);
            hot.mlp.resize(len, 0.0);
            hot.base_cpi.resize(len, 0.0);
            hot.dist.resize(len * n, 0.0);
            hot.occ_miss.resize(len, 0.0);
            hot.m.resize(len, 0.0);
            hot.refs_per_instr.resize(len, 0.0);
            hot.hit_term.resize(len, 0.0);
            hot.mlp_eff.resize(len, 0.0);
            hot.cycles.resize(len, 0.0);
            hot.out_instructions.resize(len, 0);
            hot.out_cpi.resize(len, 0.0);
            hot.out_refs.resize(len, 0);
            hot.out_misses.resize(len, 0);
            hot.out_local.resize(len, 0);
            hot.out_remote.resize(len, 0);
            hot.out_node_acc.resize(len * n, 0);
            hot.slot_changed.clear();
            hot.slot_changed.resize(len, true);
            for d in hot.node_dirty.iter_mut() {
                *d = true;
            }
            hot.members.resize(n, Vec::new());
            for m in hot.members.iter_mut() {
                m.clear();
            }
            for (i, u) in usages.iter().enumerate() {
                let node = u.node.index();
                hot.key[i] = u.key;
                hot.node[i] = node as u32;
                hot.members[node].push(i as u32);
                let p = u.profile;
                let c = &p.miss_curve;
                hot.share[i] = u.runtime_share;
                hot.rpti_eff[i] = u.rpti();
                hot.boost[i] = u.cold_miss_boost;
                hot.overhead[i] = u.overhead_us;
                hot.cv_min[i] = c.min_miss;
                hot.cv_max[i] = c.max_miss;
                hot.cv_ws[i] = c.ws_bytes;
                hot.mlp[i] = p.mlp;
                hot.base_cpi[i] = p.base_cpi;
                mirror_dist_row(
                    &mut hot.dist[i * n..(i + 1) * n],
                    u.key,
                    &p.node_access_dist,
                );
            }
        } else {
            for (i, u) in usages.iter().enumerate() {
                let p = u.profile;
                let c = &p.miss_curve;
                let rpti_eff = u.rpti();
                // XOR-fold each field group into one change word: one
                // well-predicted branch per group instead of one per field.
                let llc_delta = (hot.rpti_eff[i].to_bits() ^ rpti_eff.to_bits())
                    | (hot.share[i].to_bits() ^ u.runtime_share.to_bits())
                    | (hot.cv_min[i].to_bits() ^ c.min_miss.to_bits())
                    | (hot.cv_max[i].to_bits() ^ c.max_miss.to_bits())
                    | (hot.cv_ws[i] ^ c.ws_bytes);
                if llc_delta != 0 {
                    hot.rpti_eff[i] = rpti_eff;
                    hot.share[i] = u.runtime_share;
                    hot.cv_min[i] = c.min_miss;
                    hot.cv_max[i] = c.max_miss;
                    hot.cv_ws[i] = c.ws_bytes;
                    hot.node_dirty[hot.node[i] as usize] = true;
                    hot.slot_changed[i] = true;
                    any_changed = true;
                }
                let slot_delta = (hot.boost[i].to_bits() ^ u.cold_miss_boost.to_bits())
                    | (hot.overhead[i].to_bits() ^ u.overhead_us.to_bits())
                    | (hot.mlp[i].to_bits() ^ p.mlp.to_bits())
                    | (hot.base_cpi[i].to_bits() ^ p.base_cpi.to_bits());
                if slot_delta != 0 {
                    hot.boost[i] = u.cold_miss_boost;
                    hot.overhead[i] = u.overhead_us;
                    hot.mlp[i] = p.mlp;
                    hot.base_cpi[i] = p.base_cpi;
                    hot.slot_changed[i] = true;
                    any_changed = true;
                }
                if mirror_dist_row(
                    &mut hot.dist[i * n..(i + 1) * n],
                    u.key,
                    &p.node_access_dist,
                ) {
                    hot.slot_changed[i] = true;
                    dist_changed = true;
                }
            }
            any_changed |= dist_changed;
        }
        hot.valid = true;

        // --- Whole-step skip: identical inputs at a converged fixed point
        // replay the identical trajectory, so the cached final round
        // already is this step's answer. ---
        if !any_changed && self.stationary {
            self.perf.whole_step_skips += 1;
            materialize_results(hot, results, n);
            return;
        }
        let packed_kernel = self.packed_kernel;

        if any_changed {
            // --- LLC occupancy re-solve, dirty nodes only. The solve is a
            // pure per-node function of its members' (rpti, share, curve)
            // tuples, all verified bitwise unchanged on clean nodes. ---
            for node in 0..n {
                if !hot.node_dirty[node] || hot.members[node].is_empty() {
                    if !hot.node_dirty[node] && !hot.members[node].is_empty() {
                        self.perf.node_clean_skips += 1;
                    }
                    hot.node_dirty[node] = false;
                    continue;
                }
                hot.node_dirty[node] = false;
                let members = &hot.members[node];
                self.perf.node_solves += 1;
                hot.demands.clear();
                for &i in members.iter() {
                    let i = i as usize;
                    hot.demands.push(LlcDemand {
                        rpti: hot.rpti_eff[i],
                        curve: MissCurve {
                            min_miss: hot.cv_min[i],
                            max_miss: hot.cv_max[i],
                            ws_bytes: hot.cv_ws[i],
                        },
                        runtime_share: hot.share[i],
                    });
                }
                self.llc[node].occupancies_into(
                    &hot.demands,
                    &mut hot.llc_occ,
                    &mut hot.llc_scratch,
                );
                for (&i, o) in members.iter().zip(hot.llc_occ.iter()) {
                    let i = i as usize;
                    if bits_ne(hot.occ_miss[i], o.miss_rate) {
                        hot.occ_miss[i] = o.miss_rate;
                        hot.slot_changed[i] = true;
                    }
                }
            }

            // --- Round-invariant derived columns. Each expression is
            // composed exactly as the reference composes it, from inputs
            // that are bitwise the reference's inputs, so the bits match.
            // Slots whose inputs and solved miss rate are all bitwise
            // unchanged would recompute identical values, so they are
            // skipped (the same pure-function argument the node dirty bits
            // rest on). Active slots are packed for the packed kernel as
            // they are found. ---
            hot.active.clear();
            for i in 0..hot.len {
                if std::mem::take(&mut hot.slot_changed[i]) {
                    hot.derive(i, n, quantum_us, &self.latency, self.freq_mhz);
                }
                if hot.rpti_eff[i] != 0.0 {
                    if packed_kernel {
                        hot.pack_lane(hot.active.len(), i, n);
                    }
                    hot.active.push(i as u32);
                }
            }
        }
        // (`!any_changed && !stationary`: everything above is cached, the
        // packed columns included; only the fixed point below still moves.)

        // --- Solve the contention fixed point: instruction rates depend on
        // latency multipliers, which depend on the demand those rates
        // generate. Damped iteration, warm-started from the previous
        // quantum's multipliers. Every round overwrites the output columns,
        // so the solve may stop at the first round whose update leaves all
        // multipliers bitwise unchanged: with identical multipliers every
        // further round recomputes identical demand, identical targets, and
        // identical per-VCPU results, so the final round's output is
        // already in hand. ---
        let quantum_s = quantum_us / 1e6;
        hot.cur_imc.clear();
        hot.cur_imc.extend_from_slice(&self.imc_mult);
        hot.cur_qpi.clear();
        hot.cur_qpi.extend_from_slice(&self.qpi_mult);
        hot.node_demand.resize(n, 0.0);
        hot.pair_traffic.resize(n * n, 0.0);
        hot.miss_cycles_matrix.resize(n * n, 0.0);
        let mut round = 0;
        loop {
            hot.node_demand.fill(0.0);
            hot.pair_traffic.fill(0.0);

            // Miss latency per (run, home) pair at the round's contention
            // levels: a pure function of the pair, so n² evaluations
            // replace one per usage × home.
            let mut pair = 0;
            for run_node in 0..n {
                for (home, &home_mult) in hot.cur_imc.iter().enumerate() {
                    let dram = self.local_cycles[home] * home_mult;
                    hot.miss_cycles_matrix[pair] = if home == run_node {
                        dram
                    } else {
                        dram + self.hop_cycles[pair] * hot.cur_qpi[pair]
                    };
                    pair += 1;
                }
            }

            hot.outputs_packed = run_round(hot, n, self.params, packed_kernel);

            // Recompute multipliers from this round's demand and relax.
            let damp = if round == 0 { 1.0 } else { 0.5 };
            let mut changed = false;
            for (node, mult) in hot.cur_imc.iter_mut().enumerate() {
                let target = self.imc[node].latency_multiplier(hot.node_demand[node] / quantum_s);
                let before = *mult;
                *mult += damp * (target - *mult);
                changed |= *mult != before;
            }
            for (idx, mult) in hot.cur_qpi.iter_mut().enumerate() {
                let target = match &self.qpi[idx] {
                    Some(q) => q.latency_multiplier(hot.pair_traffic[idx] / quantum_s),
                    None => 1.0,
                };
                let before = *mult;
                *mult += damp * (target - *mult);
                changed |= *mult != before;
            }
            round += 1;
            if round == FIXED_POINT_ROUNDS || !changed {
                break;
            }
        }
        self.perf.fp_rounds += round as u64;
        self.stationary = hot.cur_imc == self.imc_mult && hot.cur_qpi == self.qpi_mult;
        self.imc_mult.copy_from_slice(&hot.cur_imc);
        self.qpi_mult.copy_from_slice(&hot.cur_qpi);
        materialize_results(hot, results, n);
    }
}

/// One fixed-point round into `hot`'s zeroed demand accumulators: the
/// packed kernel when `packed` (the caller packed the columns) and every
/// lane is in range, otherwise [`round_slots`]. Returns whether the
/// outputs are in the packed columns.
#[inline(always)]
fn run_round(hot: &mut HotState, n: usize, params: EngineParams, packed: bool) -> bool {
    if packed && lanes512::round(hot, n, params) {
        return true;
    }
    // The paper's testbed has two nodes: a literal `2` lets the inlined
    // copy unroll every per-home loop. Same code, same bits.
    if n == 2 {
        round_slots(hot, 2, params);
    } else {
        round_slots(hot, n, params);
    }
    false
}

/// Copy the final round's output columns into the pooled AoS results the
/// callers consume — once per step, not once per round. Active slots read
/// their lane of `chunks` when the final round ran packed.
fn materialize_results(hot: &HotState, results: &mut Vec<VcpuQuantumResult>, n: usize) {
    results.truncate(hot.len);
    results.resize_with(hot.len, || VcpuQuantumResult {
        key: 0,
        instructions: 0,
        llc_refs: 0,
        llc_misses: 0,
        local_accesses: 0,
        remote_accesses: 0,
        node_accesses: vec![0; n],
        effective_cpi: 0.0,
        miss_rate: 0.0,
    });
    let mut lane = 0;
    for (i, out) in results.iter_mut().enumerate() {
        out.key = hot.key[i];
        out.miss_rate = hot.m[i];
        out.node_accesses.resize(n, 0);
        if hot.outputs_packed && hot.active.get(lane) == Some(&(i as u32)) {
            let (c, l) = (&hot.chunks[lane / LANES], lane % LANES);
            lane += 1;
            out.instructions = c.out_instructions[l];
            out.llc_refs = c.out_refs[l];
            out.llc_misses = c.out_misses[l];
            out.local_accesses = c.out_local[l];
            out.remote_accesses = c.out_remote[l];
            out.effective_cpi = c.out_cpi[l];
            for (acc, home) in out.node_accesses.iter_mut().zip(&c.out_node_acc) {
                *acc = home[l];
            }
        } else {
            out.instructions = hot.out_instructions[i];
            out.llc_refs = hot.out_refs[i];
            out.llc_misses = hot.out_misses[i];
            out.local_accesses = hot.out_local[i];
            out.remote_accesses = hot.out_remote[i];
            out.effective_cpi = hot.out_cpi[i];
            out.node_accesses
                .copy_from_slice(&hot.out_node_acc[i * n..(i + 1) * n]);
        }
    }
}

/// The per-slot work of one fixed-point round, as two passes over the
/// active slots.
///
/// * **Rate pass:** each slot's miss cost, CPI, instructions, references
///   and misses. Slots are independent here, so the CPU can overlap one
///   slot's dependent chain (dot product → division → casts) with the
///   next one's.
/// * **Ordered scatter pass:** in `active` order, each slot splits its
///   misses over home nodes and adds its traffic to the node and pair
///   demand accumulators. The float adds happen in the reference's order
///   (slot order, then home order, remote homes before the run node's
///   local bytes), so the accumulators keep their bits.
///
/// Both passes take adjacent slots two at a time through [`lanes`], one
/// per SSE2 lane; a pair the lanes cannot represent exactly and the odd
/// tail take the scalar body one slot at a time. Either way each slot's
/// values are the same IEEE operations in the same order, so which path
/// ran is invisible in the bits.
///
/// Called with a literal `n` for two-node machines so the inlined copy
/// unrolls the per-home loops.
#[inline(always)]
fn round_slots(hot: &mut HotState, n: usize, params: EngineParams) {
    let mut cols = RoundCols::new(hot, n, params);
    let active = cols.active;

    let mut k = 0;
    while k < active.len() {
        if let Some((a, b)) = cols.pair_at(k) {
            if cols.rate_pair(a, b) {
                k += 2;
                continue;
            }
        }
        cols.rate(active[k] as usize);
        k += 1;
    }

    let mut k = 0;
    while k < active.len() {
        if let Some((a, b)) = cols.pair_at(k) {
            if let Some([assigned_a, assigned_b]) = cols.split_pair(a, b) {
                cols.settle(a, assigned_a);
                cols.demand(a);
                cols.settle(b, assigned_b);
                cols.demand(b);
                k += 2;
                continue;
            }
        }
        let i = active[k] as usize;
        cols.split(i);
        cols.demand(i);
        k += 1;
    }
}

/// The columns one fixed-point round reads and writes (see
/// [`round_slots`]), with the scalar per-slot body as methods.
struct RoundCols<'a> {
    n: usize,
    params: EngineParams,
    active: &'a [u32],
    node: &'a [u32],
    dist: &'a [f64],
    miss_cycles_matrix: &'a [f64],
    base_cpi: &'a [f64],
    refs_per_instr: &'a [f64],
    hit_term: &'a [f64],
    m: &'a [f64],
    mlp_eff: &'a [f64],
    cycles: &'a [f64],
    out_instructions: &'a mut [u64],
    out_cpi: &'a mut [f64],
    out_refs: &'a mut [u64],
    out_misses: &'a mut [u64],
    out_local: &'a mut [u64],
    out_remote: &'a mut [u64],
    out_node_acc: &'a mut [u64],
    node_demand: &'a mut [f64],
    pair_traffic: &'a mut [f64],
}

impl<'a> RoundCols<'a> {
    /// Bind every column once. The slices' pointers and lengths then stay
    /// in registers across the output stores, instead of being reloaded
    /// from `hot` (which the compiler cannot prove the stores leave alone).
    #[inline(always)]
    fn new(hot: &'a mut HotState, n: usize, params: EngineParams) -> Self {
        let len = hot.len;
        RoundCols {
            n,
            params,
            active: &hot.active,
            node: &hot.node[..len],
            dist: &hot.dist[..len * n],
            miss_cycles_matrix: &hot.miss_cycles_matrix[..n * n],
            base_cpi: &hot.base_cpi[..len],
            refs_per_instr: &hot.refs_per_instr[..len],
            hit_term: &hot.hit_term[..len],
            m: &hot.m[..len],
            mlp_eff: &hot.mlp_eff[..len],
            cycles: &hot.cycles[..len],
            out_instructions: &mut hot.out_instructions[..len],
            out_cpi: &mut hot.out_cpi[..len],
            out_refs: &mut hot.out_refs[..len],
            out_misses: &mut hot.out_misses[..len],
            out_local: &mut hot.out_local[..len],
            out_remote: &mut hot.out_remote[..len],
            out_node_acc: &mut hot.out_node_acc[..len * n],
            node_demand: &mut hot.node_demand[..n],
            pair_traffic: &mut hot.pair_traffic[..n * n],
        }
    }

    /// The pair of slots starting at `active[k]`, when there are two.
    #[inline(always)]
    fn pair_at(&self, k: usize) -> Option<(usize, usize)> {
        let b = *self.active.get(k + 1)? as usize;
        Some((self.active[k] as usize, b))
    }

    /// Rate pass, one slot.
    #[inline(always)]
    fn rate(&mut self, i: usize) {
        let n = self.n;
        let run_node = self.node[i] as usize;
        // Average cycle cost of a miss over the access distribution —
        // dense over homes, exactly as the reference composes it (zero
        // rows contribute an exact `+0.0`: every matrix entry is finite).
        let dist_row = &self.dist[i * n..i * n + n];
        let mrow = &self.miss_cycles_matrix[run_node * n..run_node * n + n];
        let mut miss_cycles = 0.0;
        for (&frac, &mc) in dist_row.iter().zip(mrow) {
            miss_cycles += frac * mc;
        }
        // Outstanding misses overlap: each miss (and L3 hit) stalls the
        // core for latency / MLP cycles on average. The saturating cast
        // (`f64_to_u64`, which is `as u64`) is `.floor().max(0.0) as u64`
        // (truncation, zero for negatives/NaN, saturation at the top)
        // without the libm floor call.
        let stall = self.hit_term[i] + self.m[i] * miss_cycles;
        let cpi = self.base_cpi[i] + self.refs_per_instr[i] * stall / self.mlp_eff[i];
        let instructions = f64_to_u64(self.cycles[i] / cpi);
        let llc_refs = round_to_u64(u64_to_f64(instructions) * self.refs_per_instr[i]);
        self.out_instructions[i] = instructions;
        self.out_cpi[i] = cpi;
        self.out_refs[i] = llc_refs;
        self.out_misses[i] = round_to_u64(u64_to_f64(llc_refs) * self.m[i]);
    }

    /// Rate pass, slots `a` and `b` in the two lanes. False, with nothing
    /// written, when the pair must take the scalar body instead.
    #[inline(always)]
    fn rate_pair(&mut self, a: usize, b: usize) -> bool {
        #[cfg(target_arch = "x86_64")]
        return lanes::rate_pair(self, a, b);
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (a, b);
            false
        }
    }

    /// Scatter slot `i`'s misses over home nodes, dense in home order
    /// (zero rows scatter a zero count). Every row entry is rewritten.
    #[inline(always)]
    fn split(&mut self, i: usize) {
        let n = self.n;
        let misses_f = u64_to_f64(self.out_misses[i]);
        let mut assigned = 0u64;
        let acc = &mut self.out_node_acc[i * n..i * n + n];
        for (c, &frac) in acc.iter_mut().zip(&self.dist[i * n..i * n + n]) {
            *c = f64_to_u64(misses_f * frac);
            assigned += *c;
        }
        self.settle(i, assigned);
    }

    /// [`RoundCols::split`] for slots `a < b` in the two lanes, up to the
    /// per-slot [`RoundCols::settle`]: the rows are written and each
    /// slot's assigned total returned. `None` when the pair must take the
    /// scalar body instead (which rewrites both rows).
    #[inline(always)]
    fn split_pair(&mut self, a: usize, b: usize) -> Option<[u64; 2]> {
        #[cfg(target_arch = "x86_64")]
        return lanes::split_pair(self, a, b);
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (a, b);
            None
        }
    }

    /// The rounding remainder of slot `i`'s split goes to the run node
    /// (arbitrary but local).
    #[inline(always)]
    fn settle(&mut self, i: usize, assigned: u64) {
        let n = self.n;
        let run_node = self.node[i] as usize;
        let misses = self.out_misses[i];
        let acc = &mut self.out_node_acc[i * n..i * n + n];
        acc[run_node] += misses - assigned;
        self.out_local[i] = acc[run_node];
        self.out_remote[i] = misses - acc[run_node];
    }

    /// Add slot `i`'s row to the demand accumulators. Each miss moves more
    /// than its demand line (prefetch, writeback); remote misses also tax
    /// the home IMC with coherence work and cross the interconnect.
    #[inline(always)]
    fn demand(&mut self, i: usize) {
        let n = self.n;
        let run_node = self.node[i] as usize;
        let acc = &self.out_node_acc[i * n..i * n + n];
        let params = self.params;
        for (home, &c) in acc.iter().enumerate() {
            if home != run_node {
                let bytes = u64_to_f64(c) * params.traffic_per_miss_bytes;
                self.node_demand[home] += bytes * params.remote_imc_overhead;
                self.pair_traffic[run_node * n + home] += bytes;
                self.pair_traffic[home * n + run_node] += bytes;
            }
        }
        self.node_demand[run_node] += u64_to_f64(acc[run_node]) * params.traffic_per_miss_bytes;
    }
}

/// Two slots per SSE2 instruction for [`round_slots`].
///
/// Each lane runs the scalar body's IEEE operations in its order, so a
/// lane's doubles carry the scalar bits. The float↔integer casts are the
/// one place the lanes differ: `cvttpd2dq` and `cvtepi32_pd` convert
/// through `i32`, which is exact — and equal to the saturating `as u64` /
/// `as f64` — for every lane value in `[0, 2^31 − 1)`. A pair with any
/// other lane value (negative, NaN, infinite or too large) is refused and
/// takes the scalar body: a refused rate pair has written nothing, and a
/// refused split's partly written rows are rewritten whole by the scalar
/// split. SSE2 is part of the `x86_64` baseline, so there is no runtime
/// feature check.
#[cfg(target_arch = "x86_64")]
mod lanes {
    use super::RoundCols;
    use std::arch::x86_64::*;

    /// `2^31 − 1`. A lane below it truncates exactly into an `i32`, and
    /// the truncation plus a rounding carry still fits one.
    const LIMIT: f64 = 2_147_483_647.0;

    /// See [`RoundCols::rate_pair`].
    #[inline(always)]
    pub(super) fn rate_pair(c: &mut RoundCols, a: usize, b: usize) -> bool {
        // SAFETY: `rate` only requires SSE2, which is part of the `x86_64`
        // baseline: every `x86_64` CPU has it and every `x86_64` target
        // enables it.
        unsafe { rate(c, a, b) }
    }

    /// See [`RoundCols::split_pair`].
    #[inline(always)]
    pub(super) fn split_pair(c: &mut RoundCols, a: usize, b: usize) -> Option<[u64; 2]> {
        // SAFETY: as for `rate_pair`, SSE2 is part of the `x86_64`
        // baseline.
        unsafe { split(c, a, b) }
    }

    /// # Safety
    ///
    /// The CPU must support SSE2 (true of every `x86_64` CPU). The same
    /// holds for every `unsafe fn` below. They are `unsafe fn` rather than
    /// `#[target_feature]` functions so that they can be
    /// `#[inline(always)]`: the two-node copy of the round then unrolls
    /// their per-home loops too.
    #[inline(always)]
    unsafe fn rate(c: &mut RoundCols, a: usize, b: usize) -> bool {
        let n = c.n;
        let pair = |col: &[f64]| _mm_set_pd(col[b], col[a]);
        let (mrow_a, mrow_b) = (c.node[a] as usize * n, c.node[b] as usize * n);
        let mut miss_cycles = _mm_setzero_pd();
        for h in 0..n {
            let frac = _mm_set_pd(c.dist[b * n + h], c.dist[a * n + h]);
            let mc = _mm_set_pd(
                c.miss_cycles_matrix[mrow_b + h],
                c.miss_cycles_matrix[mrow_a + h],
            );
            miss_cycles = _mm_add_pd(miss_cycles, _mm_mul_pd(frac, mc));
        }
        let stall = _mm_add_pd(pair(c.hit_term), _mm_mul_pd(pair(c.m), miss_cycles));
        let t = _mm_mul_pd(pair(c.refs_per_instr), stall);
        let cpi = _mm_add_pd(pair(c.base_cpi), _mm_div_pd(t, pair(c.mlp_eff)));
        let (instructions, ok_i) = trunc(_mm_div_pd(pair(c.cycles), cpi));
        let refs_x = _mm_mul_pd(_mm_cvtepi32_pd(instructions), pair(c.refs_per_instr));
        let (refs, ok_r) = round(refs_x);
        let (misses, ok_m) = round(_mm_mul_pd(_mm_cvtepi32_pd(refs), pair(c.m)));
        if _mm_movemask_pd(_mm_and_pd(ok_i, _mm_and_pd(ok_r, ok_m))) != 0b11 {
            return false;
        }
        c.out_cpi[a] = _mm_cvtsd_f64(cpi);
        c.out_cpi[b] = _mm_cvtsd_f64(_mm_unpackhi_pd(cpi, cpi));
        [c.out_instructions[a], c.out_instructions[b]] = to_u64(instructions);
        [c.out_refs[a], c.out_refs[b]] = to_u64(refs);
        [c.out_misses[a], c.out_misses[b]] = to_u64(misses);
        true
    }

    #[inline(always)]
    unsafe fn split(c: &mut RoundCols, a: usize, b: usize) -> Option<[u64; 2]> {
        let limit = LIMIT as u64;
        let (misses_a, misses_b) = (c.out_misses[a], c.out_misses[b]);
        if misses_a >= limit || misses_b >= limit {
            return None;
        }
        let misses = _mm_cvtepi32_pd(_mm_set_epi32(0, 0, misses_b as i32, misses_a as i32));
        let n = c.n;
        debug_assert!(a < b, "active slots are in index order");
        let (lo, hi) = c.out_node_acc.split_at_mut(b * n);
        let (row_a, row_b) = (&mut lo[a * n..a * n + n], &mut hi[..n]);
        let mut ok = _mm_castsi128_pd(_mm_set1_epi32(-1));
        let mut assigned = [0u64; 2];
        for h in 0..n {
            let frac = _mm_set_pd(c.dist[b * n + h], c.dist[a * n + h]);
            let (count, in_range) = trunc(_mm_mul_pd(misses, frac));
            ok = _mm_and_pd(ok, in_range);
            let [count_a, count_b] = to_u64(count);
            row_a[h] = count_a;
            row_b[h] = count_b;
            assigned[0] += count_a;
            assigned[1] += count_b;
        }
        (_mm_movemask_pd(ok) == 0b11).then_some(assigned)
    }

    /// Per-lane truncation of `x` into the low two `i32`s, and the mask of
    /// lanes where it equals `x as u64` (those in `[0, LIMIT)`; NaN fails
    /// both ordered compares).
    #[inline(always)]
    unsafe fn trunc(x: __m128d) -> (__m128i, __m128d) {
        let in_range = _mm_and_pd(
            _mm_cmpge_pd(x, _mm_setzero_pd()),
            _mm_cmplt_pd(x, _mm_set1_pd(LIMIT)),
        );
        (_mm_cvttpd_epi32(x), in_range)
    }

    /// Per-lane [`super::round_to_u64`] for `x < 2^53`: the truncation plus
    /// the carry of `x − trunc(x) ≥ 0.5`, with the same in-range mask as
    /// [`trunc`].
    #[inline(always)]
    unsafe fn round(x: __m128d) -> (__m128i, __m128d) {
        let (t, in_range) = trunc(x);
        let carry = _mm_cmpge_pd(_mm_sub_pd(x, _mm_cvtepi32_pd(t)), _mm_set1_pd(0.5));
        // Each carry lane is a 64-bit 0 or −1: move its low dwords (0 and
        // 2) next to `t`'s and subtract.
        let carry = _mm_shuffle_epi32::<0b10_00>(_mm_castpd_si128(carry));
        (_mm_sub_epi32(t, carry), in_range)
    }

    /// The low two `i32`s of `v`, which the caller has range-checked to
    /// be non-negative, as `u64`s.
    #[inline(always)]
    unsafe fn to_u64(v: __m128i) -> [u64; 2] {
        let wide = _mm_unpacklo_epi32(v, _mm_setzero_si128());
        [
            _mm_cvtsi128_si64(wide) as u64,
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(wide, wide)) as u64,
        ]
    }
}

/// The packed fixed-point round: eight active slots per AVX-512 vector.
///
/// Each lane runs the scalar body's IEEE operations in its order, so its
/// doubles carry the scalar bits (see the `lanes` module for why). The
/// float↔integer casts are AVX-512DQ's native unsigned ones: `vcvttpd2uqq`
/// truncates toward zero, which for a lane in `[0, 2^53)` is the
/// saturating `as u64`, and `vcvtuqq2pd` converts such a count back
/// exactly. A round in which any lane's cast input falls outside that
/// range (negative, NaN, infinite or too large), or any split assigns more
/// misses than the slot has, returns `false` before the demand
/// accumulators are written, and the whole round takes [`round_slots`].
///
/// The demand terms are computed per lane, then summed slot by slot in
/// `active` order into scalar accumulators: each node's demand gets one
/// term per slot, as in [`RoundCols::demand`]; each pair's traffic gets
/// its term from the slots running on either end and `+0.0` from every
/// other slot. An accumulator starts at `+0.0` and so is never `-0.0`, so
/// adding `+0.0` leaves its bits alone, and `pair_traffic` is symmetric
/// bit for bit (both entries of a pair receive the same terms in the same
/// order), so one sum per node pair fills both entries.
///
/// The kernel runs where the CPU reports AVX-512F and AVX-512DQ (checked
/// once per engine, [`available`]) and for up to [`MAX_NODES`] nodes, so
/// that one vector holds a miss-cost column over all run nodes.
mod lanes512 {
    use super::{Chunk, EngineParams, HotState, LANES, MAX_NODES};
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Whether the packed kernel runs on this CPU for an `n`-node machine.
    #[inline]
    pub(super) fn available(n: usize) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            n <= MAX_NODES
                && std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = n;
            false
        }
    }

    /// One fixed-point round over `hot.chunks` at the miss costs in
    /// `hot.miss_cycles_matrix`, adding the demand into the zeroed
    /// `node_demand` and `pair_traffic`. `false` when a lane is out of
    /// range: the accumulators are then untouched and the packed outputs
    /// undefined. Call only where [`available`] holds.
    #[inline]
    pub(super) fn round(hot: &mut HotState, n: usize, params: EngineParams) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            debug_assert!(available(n));
            let cols = Cols {
                chunks: &mut hot.chunks,
                len: hot.active.len(),
                matrix: &hot.miss_cycles_matrix[..n * n],
                node_demand: &mut hot.node_demand[..n],
                pair_traffic: &mut hot.pair_traffic[..n * n],
            };
            // SAFETY: callers check `available`, which tests the CPU for
            // both target features the kernel enables. The paper's testbed
            // has two nodes: a literal `2` unrolls every per-home loop and
            // keeps the accumulators in registers.
            unsafe {
                if n == 2 {
                    kernel::<2>(cols, params)
                } else {
                    kernel::<0>(cols, params)
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (hot, n, params);
            false
        }
    }

    /// What one packed round reads and writes.
    #[cfg(target_arch = "x86_64")]
    struct Cols<'a> {
        chunks: &'a mut [Chunk],
        /// Active slots; lanes past them hold stale values.
        len: usize,
        matrix: &'a [f64],
        node_demand: &'a mut [f64],
        pair_traffic: &'a mut [f64],
    }

    /// `2^53`: a lane below it (and not below zero) casts exactly both
    /// ways.
    #[cfg(target_arch = "x86_64")]
    const LIMIT: f64 = 9_007_199_254_740_992.0;

    /// [`round`] for `N` nodes, or for `c.node_demand.len()` nodes when
    /// `N` is 0.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX-512DQ.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn kernel<const N: usize>(c: Cols, params: EngineParams) -> bool {
        let n = if N == 0 { c.node_demand.len() } else { N };
        // Lane `r` of `cols[h]` is the miss cost of home `h` from run node
        // `r`, so one permute per home looks up every lane's run node.
        let mut cols = [_mm512_setzero_pd(); MAX_NODES];
        for (h, col) in cols.iter_mut().enumerate().take(n) {
            let mut by_run = [0.0; LANES];
            for (r, cost) in by_run.iter_mut().enumerate().take(n) {
                *cost = c.matrix[r * n + h];
            }
            *col = load(&by_run);
        }
        let traffic = _mm512_set1_pd(params.traffic_per_miss_bytes);
        let overhead = _mm512_set1_pd(params.remote_imc_overhead);
        let mut node_demand = [0.0; MAX_NODES];
        // Pair `a < b` at `a * MAX_NODES + b`.
        let mut pair_traffic = [0.0; MAX_NODES * MAX_NODES];
        for (k0, p) in (0..c.len).step_by(LANES).zip(c.chunks.iter_mut()) {
            let node = load_u64(&p.node);
            let at_home: [__mmask8; MAX_NODES] =
                std::array::from_fn(|h| _mm512_cmpeq_epi64_mask(node, _mm512_set1_epi64(h as i64)));
            // The rate pass, as `RoundCols::rate`.
            let mut miss_cycles = _mm512_setzero_pd();
            for (&col, frac) in cols.iter().zip(&p.dist).take(n) {
                let mc = _mm512_permutexvar_pd(node, col);
                miss_cycles = _mm512_add_pd(miss_cycles, _mm512_mul_pd(load(frac), mc));
            }
            let (m, refs_per_instr) = (load(&p.m), load(&p.refs_per_instr));
            let stall = _mm512_add_pd(load(&p.hit_term), _mm512_mul_pd(m, miss_cycles));
            let t = _mm512_mul_pd(refs_per_instr, stall);
            let cpi = _mm512_add_pd(load(&p.base_cpi), _mm512_div_pd(t, load(&p.mlp_eff)));
            let instr_x = _mm512_div_pd(load(&p.cycles), cpi);
            let instructions = _mm512_cvttpd_epu64(instr_x);
            let refs_x = _mm512_mul_pd(_mm512_cvtepu64_pd(instructions), refs_per_instr);
            let refs = round_half_up(refs_x);
            let misses_x = _mm512_mul_pd(_mm512_cvtepu64_pd(refs), m);
            let misses = round_half_up(misses_x);
            let mut ok = in_range(instr_x) & in_range(refs_x) & in_range(misses_x);
            // The split, as `RoundCols::split` and `settle`.
            let misses_f = _mm512_cvtepu64_pd(misses);
            let mut counts = [_mm512_setzero_si512(); MAX_NODES];
            let mut assigned = _mm512_setzero_si512();
            let mut at_run = _mm512_setzero_si512();
            for h in 0..n {
                let x = _mm512_mul_pd(misses_f, load(&p.dist[h]));
                ok &= in_range(x);
                counts[h] = _mm512_cvttpd_epu64(x);
                assigned = _mm512_add_epi64(assigned, counts[h]);
                at_run = _mm512_mask_blend_epi64(at_home[h], at_run, counts[h]);
            }
            // Lanes past the last active slot hold stale values: their
            // outputs are never read, so their checks are masked out.
            let slots = (c.len - k0).min(LANES);
            let live: __mmask8 = u8::MAX >> (LANES - slots);
            if ok & _mm512_cmple_epu64_mask(assigned, misses) & live != live {
                return false;
            }
            let local = _mm512_add_epi64(at_run, _mm512_sub_epi64(misses, assigned));
            store(&mut p.out_cpi, cpi);
            store_u64(&mut p.out_instructions, instructions);
            store_u64(&mut p.out_refs, refs);
            store_u64(&mut p.out_misses, misses);
            store_u64(&mut p.out_local, local);
            store_u64(&mut p.out_remote, _mm512_sub_epi64(misses, local));
            // The demand terms, as `RoundCols::demand`, summed per
            // accumulator in slot order.
            let mut bytes = [_mm512_setzero_pd(); MAX_NODES];
            for h in 0..n {
                let count = _mm512_mask_blend_epi64(at_home[h], counts[h], local);
                store_u64(&mut p.out_node_acc[h], count);
                bytes[h] = _mm512_mul_pd(_mm512_cvtepu64_pd(count), traffic);
                let remote = _mm512_mul_pd(bytes[h], overhead);
                let term = _mm512_mask_blend_pd(at_home[h], remote, bytes[h]);
                add_in_order(&mut node_demand[h], term, slots);
            }
            for a in 0..n {
                for b in a + 1..n {
                    let from_b = _mm512_maskz_mov_pd(at_home[b], bytes[a]);
                    let term = _mm512_mask_blend_pd(at_home[a], from_b, bytes[b]);
                    add_in_order(&mut pair_traffic[a * MAX_NODES + b], term, slots);
                }
            }
        }
        c.node_demand.copy_from_slice(&node_demand[..n]);
        for a in 0..n {
            for b in a + 1..n {
                c.pair_traffic[a * n + b] = pair_traffic[a * MAX_NODES + b];
                c.pair_traffic[b * n + a] = pair_traffic[a * MAX_NODES + b];
            }
        }
        true
    }

    /// `acc += lane` for the first `slots` lanes of `v`, in lane order.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    fn add_in_order(acc: &mut f64, v: __m512d, slots: usize) {
        let mut lanes = [0.0; LANES];
        store(&mut lanes, v);
        for &x in &lanes[..slots] {
            *acc += x;
        }
    }

    /// Lanes of `x` in `[0, 2^53)`; NaN fails both ordered compares.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    fn in_range(x: __m512d) -> __mmask8 {
        _mm512_cmp_pd_mask::<_CMP_GE_OQ>(x, _mm512_setzero_pd())
            & _mm512_cmp_pd_mask::<_CMP_LT_OQ>(x, _mm512_set1_pd(LIMIT))
    }

    /// Per-lane [`super::round_to_u64`] for lanes in range: the truncation
    /// plus the carry of `x − trunc(x) ≥ 0.5`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    fn round_half_up(x: __m512d) -> __m512i {
        let t = _mm512_cvttpd_epu64(x);
        let frac = _mm512_sub_pd(x, _mm512_cvtepu64_pd(t));
        let carry = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(frac, _mm512_set1_pd(0.5));
        _mm512_mask_add_epi64(t, carry, t, _mm512_set1_epi64(1))
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    fn load(lanes: &[f64; LANES]) -> __m512d {
        // SAFETY: `lanes` is the 64 bytes the load reads, and `loadu` has
        // no alignment requirement.
        unsafe { _mm512_loadu_pd(lanes.as_ptr()) }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    fn load_u64(lanes: &[u64; LANES]) -> __m512i {
        // SAFETY: as for `load`.
        unsafe { _mm512_loadu_epi64(lanes.as_ptr().cast()) }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    fn store(lanes: &mut [f64; LANES], v: __m512d) {
        // SAFETY: `lanes` is the 64 bytes the store writes, and `storeu`
        // has no alignment requirement.
        unsafe { _mm512_storeu_pd(lanes.as_mut_ptr(), v) }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    #[inline]
    fn store_u64(lanes: &mut [u64; LANES], v: __m512i) {
        // SAFETY: as for `store`.
        unsafe { _mm512_storeu_epi64(lanes.as_mut_ptr().cast(), v) }
    }
}

/// Store `fracs`, slot `key`'s access distribution, in its mirror `row`;
/// whether it differed bitwise. A differing row is checked first
/// ([`check_dist_row`]). The row it replaces entered the mirror checked
/// (or is the zero fill of a new slot), so a row that enters unchanged —
/// every row of a steady step, most rows of a shape rebuild — costs one
/// compare.
#[inline(always)]
fn mirror_dist_row(row: &mut [f64], key: u64, fracs: &[f64]) -> bool {
    if fracs.len() == row.len() && row.iter().zip(fracs).all(|(&a, &b)| !bits_ne(a, b)) {
        return false;
    }
    check_dist_row(key, fracs, row.len());
    row.copy_from_slice(fracs);
    true
}

/// Panics unless `row`, slot `key`'s access distribution, has one finite,
/// non-negative fraction per node and sums to at most 1 (plus rounding).
/// The split hands each home `misses × fraction` and the run node the
/// remainder, so a larger fraction would assign more misses than the slot
/// has. [`ReferenceEngine`](crate::ReferenceEngine) checks every row with
/// it too.
pub(crate) fn check_dist_row(key: u64, row: &[f64], n: usize) {
    let sum: f64 = row.iter().sum();
    assert!(
        row.len() == n
            && row.iter().all(|f| f.is_finite() && *f >= 0.0)
            && sum <= 1.0 + n as f64 * f64::EPSILON,
        "slot key {key}: node_access_dist {row:?} is not a distribution over {n} nodes \
         (finite, non-negative, summing to at most 1)"
    );
}

/// Bitwise inequality: the dirty diff must treat any representational
/// change as a change (and, unlike `!=`, must not treat NaN as always
/// changed-and-never-updated, which would re-dirty every step).
#[inline]
fn bits_ne(a: f64, b: f64) -> bool {
    a.to_bits() != b.to_bits()
}

/// Field-by-field bitwise equality of two results. The derived `==` would
/// call `-0.0` equal to `0.0` and an identical NaN unequal.
#[cfg(debug_assertions)]
fn results_bits_eq(a: &VcpuQuantumResult, b: &VcpuQuantumResult) -> bool {
    let VcpuQuantumResult {
        key,
        instructions,
        llc_refs,
        llc_misses,
        local_accesses,
        remote_accesses,
        node_accesses,
        effective_cpi,
        miss_rate,
    } = a;
    *key == b.key
        && *instructions == b.instructions
        && *llc_refs == b.llc_refs
        && *llc_misses == b.llc_misses
        && *local_accesses == b.local_accesses
        && *remote_accesses == b.remote_accesses
        && *node_accesses == b.node_accesses
        && !bits_ne(*effective_cpi, b.effective_cpi)
        && !bits_ne(*miss_rate, b.miss_rate)
}

#[cfg(debug_assertions)]
fn slices_bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| !bits_ne(x, y))
}

/// Damped fixed-point iterations per quantum: enough for convergence at
/// the queueing knee, cheap enough to run every quantum. The solve exits
/// early once a round leaves every multiplier bitwise unchanged — each
/// remaining round would reproduce exactly the same state.
pub(crate) const FIXED_POINT_ROUNDS: usize = 4;

/// `x.round() as u64` without the libm call. For `x < 2^53` the cast
/// truncates exactly and `x - trunc(x)` is exact (Sterbenz: `x < 2t` for
/// `t ≥ 1`, trivially for `t = 0`), so adding the half-up carry reproduces
/// round-half-away-from-zero bit for bit; negatives and NaN hit the
/// saturating-cast zero exactly like the reference, and the huge/infinite
/// tail falls back to the reference expression itself.
#[inline]
pub(crate) fn round_to_u64(x: f64) -> u64 {
    if x >= 9_007_199_254_740_992.0 {
        return x.round() as u64;
    }
    let t = f64_to_u64(x);
    t + u64::from(x - u64_to_f64(t) >= 0.5)
}

/// `x as u64`, through the signed conversion below `2^63`. Baseline
/// `x86_64` has no unsigned conversion instruction, so `as u64` costs a
/// two-conversion emulation; `as i64` is one `cvttsd2si`, and on
/// `[0, 2^63)` it is the same truncation. Negatives clamp to the same
/// zero; NaN and the top range keep the original cast.
#[inline(always)]
pub(crate) fn f64_to_u64(x: f64) -> u64 {
    if x < 9_223_372_036_854_775_808.0 {
        x.max(0.0) as i64 as u64
    } else {
        x as u64
    }
}

/// `x as f64`, through the signed conversion below `2^63` (one
/// `cvtsi2sd` instead of the unsigned emulation; both round to nearest,
/// so the bits agree).
#[inline(always)]
pub(crate) fn u64_to_f64(x: u64) -> f64 {
    if x < 1 << 63 {
        x as i64 as f64
    } else {
        x as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topo::presets;

    const MB: u64 = 1024 * 1024;

    fn engine() -> MemoryEngine {
        MemoryEngine::new(&presets::xeon_e5620())
    }

    fn quantum() -> SimDuration {
        SimDuration::from_millis(1)
    }

    fn profile(rpti: f64, ws_mb: u64, dist: Vec<f64>) -> AccessProfile {
        AccessProfile {
            rpti,
            base_cpi: 1.0,
            miss_curve: MissCurve::new(0.05, 0.6, ws_mb * MB),
            mlp: 1.0,
            node_access_dist: dist,
        }
    }

    fn usage<'a>(key: u64, node: u16, p: &'a AccessProfile) -> QuantumUsage<'a> {
        QuantumUsage {
            key,
            node: NodeId::new(node),
            runtime_share: 1.0,
            profile: p,
            rpti_scale: 1.0,
            cold_miss_boost: 1.0,
            overhead_us: 0.0,
        }
    }

    #[test]
    fn cpu_only_workload_runs_at_base_cpi() {
        let mut e = engine();
        let p = AccessProfile::cpu_only(1.0, 2);
        let r = e.step(quantum(), &[usage(1, 0, &p)]);
        // 1 ms at 2400 MHz and CPI 1 => 2.4 M instructions.
        assert_eq!(r[0].instructions, 2_400_000);
        assert_eq!(r[0].llc_refs, 0);
        assert_eq!(r[0].llc_misses, 0);
    }

    #[test]
    fn local_beats_remote() {
        let p = profile(20.0, 64, vec![1.0, 0.0]);
        let mut e = engine();
        let local = e.step(quantum(), &[usage(1, 0, &p)])[0].instructions;
        let mut e = engine();
        let remote = e.step(quantum(), &[usage(1, 1, &p)])[0].instructions;
        assert!(
            local as f64 > remote as f64 * 1.05,
            "local={local} remote={remote}"
        );
    }

    #[test]
    fn remote_accesses_follow_distribution() {
        let mut e = engine();
        let p = profile(20.0, 64, vec![0.25, 0.75]);
        let r = &e.step(quantum(), &[usage(1, 0, &p)])[0];
        assert!(r.llc_misses > 0);
        let remote_frac = r.remote_accesses as f64 / r.llc_misses as f64;
        assert!(
            (remote_frac - 0.75).abs() < 0.01,
            "remote_frac={remote_frac}"
        );
        assert_eq!(
            r.node_accesses.iter().sum::<u64>(),
            r.llc_misses,
            "per-node accesses must sum to misses"
        );
    }

    #[test]
    fn llc_contention_slows_fitting_workload() {
        // A fitting workload alone on node0 vs sharing node0 with thrashers.
        let fit = profile(15.0, 6, vec![1.0, 0.0]);
        let thrash = AccessProfile {
            rpti: 22.0,
            base_cpi: 1.0,
            miss_curve: MissCurve::new(0.5, 0.7, 64 * MB),
            mlp: 1.0,
            node_access_dist: vec![1.0, 0.0],
        };
        let mut e = engine();
        let alone = e.step(quantum(), &[usage(1, 0, &fit)])[0].instructions;
        let mut e = engine();
        let shared = e.step(
            quantum(),
            &[
                usage(1, 0, &fit),
                usage(2, 0, &thrash),
                usage(3, 0, &thrash),
            ],
        )[0]
        .instructions;
        assert!(
            alone as f64 > shared as f64 * 1.2,
            "alone={alone} shared={shared}"
        );
    }

    #[test]
    fn contention_state_lags_one_quantum() {
        let mut e = engine();
        let heavy = profile(30.0, 128, vec![1.0, 0.0]);
        assert_eq!(e.contention().imc_multiplier, vec![1.0, 1.0]);
        e.step(
            quantum(),
            &[
                usage(1, 0, &heavy),
                usage(2, 0, &heavy),
                usage(3, 0, &heavy),
                usage(4, 0, &heavy),
            ],
        );
        let snap = e.contention();
        assert!(
            snap.imc_multiplier[0] > 1.0,
            "imc should be loaded: {snap:?}"
        );
        assert_eq!(snap.imc_multiplier[1], 1.0);
    }

    #[test]
    fn qpi_contention_builds_from_remote_traffic() {
        let mut e = engine();
        // Four VCPUs on node1 all hitting node0 memory.
        let p = profile(30.0, 128, vec![1.0, 0.0]);
        let usages: Vec<_> = (0..4).map(|i| usage(i, 1, &p)).collect();
        e.step(quantum(), &usages);
        let snap = e.contention();
        assert!(snap.qpi_multiplier[1] > 1.0, "qpi loaded: {snap:?}");
    }

    #[test]
    fn overhead_reduces_instructions() {
        let mut e = engine();
        let p = AccessProfile::cpu_only(1.0, 2);
        let mut u = usage(1, 0, &p);
        u.overhead_us = 500.0; // half the quantum
        let r = e.step(quantum(), &[u]);
        assert_eq!(r[0].instructions, 1_200_000);
    }

    #[test]
    fn overhead_larger_than_quantum_yields_zero() {
        let mut e = engine();
        let p = AccessProfile::cpu_only(1.0, 2);
        let mut u = usage(1, 0, &p);
        u.overhead_us = 5_000.0;
        let r = e.step(quantum(), &[u]);
        assert_eq!(r[0].instructions, 0);
    }

    #[test]
    fn cold_boost_raises_miss_rate_up_to_max() {
        let fit = profile(15.0, 6, vec![1.0, 0.0]);
        let mut e = engine();
        let warm = e.step(quantum(), &[usage(1, 0, &fit)])[0].miss_rate;
        let mut e = engine();
        let mut u = usage(1, 0, &fit);
        u.cold_miss_boost = 4.0;
        let cold = e.step(quantum(), &[u])[0].miss_rate;
        assert!(cold > warm);
        assert!(cold <= 0.6 + 1e-12, "clamped to max_miss");
    }

    #[test]
    fn runtime_share_scales_output() {
        let mut e = engine();
        let p = AccessProfile::cpu_only(1.0, 2);
        let mut u = usage(1, 0, &p);
        u.runtime_share = 0.5;
        let r = e.step(quantum(), &[u]);
        assert_eq!(r[0].instructions, 1_200_000);
    }

    #[test]
    fn empty_step_is_fine() {
        let mut e = engine();
        assert!(e.step(quantum(), &[]).is_empty());
        assert_eq!(e.contention().imc_multiplier, vec![1.0, 1.0]);
    }

    /// Steps a valid row, then `bad` under the same key: first as a
    /// fresh engine's shape rebuild, then as a row change in the diff.
    fn step_bad_row(bad: Vec<f64>, through_diff: bool) {
        let good = profile(20.0, 16, vec![0.6, 0.4]);
        let bad = profile(20.0, 16, bad);
        let mut e = engine();
        if through_diff {
            e.step(quantum(), &[usage(7, 0, &good)]);
        }
        e.step(quantum(), &[usage(7, 0, &bad)]);
    }

    macro_rules! bad_row_tests {
        ($($name:ident: $row:expr,)*) => {$(
            mod $name {
                use super::*;

                #[test]
                #[should_panic(expected = "slot key 7: node_access_dist")]
                fn on_rebuild() {
                    step_bad_row($row, false);
                }

                #[test]
                #[should_panic(expected = "slot key 7: node_access_dist")]
                fn in_diff() {
                    step_bad_row($row, true);
                }
            }
        )*};
    }

    bad_row_tests! {
        infinite_fraction: vec![f64::INFINITY, 0.0],
        nan_fraction: vec![f64::NAN, 0.5],
        negative_fraction: vec![1.1, -0.1],
        sum_above_one: vec![0.75, 0.75],
        wrong_arity: vec![0.6, 0.4, 0.0],
    }

    #[test]
    fn rounded_rows_are_accepted() {
        // Fractions of a byte count: this row's float sum lands an ulp
        // above 1.
        let row: Vec<f64> = [9, 18, 1].iter().map(|&b| f64::from(b) / 28.0).collect();
        assert!(row.iter().sum::<f64>() > 1.0);
        check_dist_row(1, &row, 3);
        check_dist_row(2, &[0.1, 0.2, 0.7, 0.0], 4);
        check_dist_row(3, &[0.0, -0.0], 2);
    }

    /// The debug shadow is live: corrupt state the next solve reads and
    /// the lockstep check must catch it. A shadow that never steps, or
    /// compares the wrong buffer, fails this test.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "MemoryEngine diverged from ReferenceEngine at step 2")]
    fn shadow_catches_a_corrupted_solve() {
        let p = profile(20.0, 16, vec![0.6, 0.4]);
        let usages = [usage(1, 0, &p), usage(2, 1, &p)];
        let mut e = engine();
        e.step_ref(quantum(), &usages);
        e.imc_mult[0] *= 4.0;
        e.step_ref(quantum(), &usages);
    }
}

/// The lane kernel against the scalar body it replaces, and the exact
/// cast helpers against `as`.
#[cfg(test)]
mod lane_tests {
    use super::*;
    use proptest::prelude::*;

    /// `2^31 − 1`, the first lane value the kernel refuses.
    const LIMIT: f64 = 2_147_483_647.0;

    /// Lane values at and around every edge of the exact ranges: both
    /// zeros, the half-up carry, `2^31 − 1` and its neighbours (the pair
    /// lanes' edge), the last half below `2^52`, `2^53 − 1` and `2^53`
    /// (the packed kernel's edge), `2^63`, negatives, NaN and the
    /// infinities.
    #[rustfmt::skip]
    const EDGES: [f64; 19] = [
        0.0, -0.0, 0.49, 0.5,
        2_147_483_645.5, 2_147_483_646.0, 2_147_483_646.5, 2_147_483_646.999_999_8,
        LIMIT, 2_147_483_647.5, 2_147_483_648.0,
        4_503_599_627_370_495.5, 9_007_199_254_740_991.0,
        9_007_199_254_740_992.0, 9_223_372_036_854_775_808.0,
        -1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY,
    ];

    /// Factors for `refs_per_instr` and the miss rate that move an
    /// in-range product onto, past or below an edge.
    #[rustfmt::skip]
    const RATIOS: [f64; 10] = [
        1.0, 0.5, LIMIT / 2_147_483_646.0, 1.0 + f64::EPSILON, 1.5, 1e-9, 0.0, -1.0, f64::NAN,
        f64::INFINITY,
    ];

    /// Access fractions no real distribution has.
    const BAD_FRACS: [f64; 5] = [-0.0, -0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

    #[test]
    fn cast_helpers_equal_as_at_the_edges() {
        let two63 = 9_223_372_036_854_775_808.0f64;
        let ulp_around_two63 = [two63.to_bits() - 1, two63.to_bits() + 1].map(f64::from_bits);
        for x in EDGES.into_iter().chain(ulp_around_two63) {
            assert_eq!(f64_to_u64(x), x as u64, "f64_to_u64({x:e})");
            for x in [x, x + 0.5] {
                assert_eq!(round_to_u64(x), x.round() as u64, "round_to_u64({x:e})");
            }
        }
        #[rustfmt::skip]
        let ints = [
            0, 1, (1 << 31) - 1, 1 << 53, (1 << 53) + 1,
            (1 << 63) - 1, 1 << 63, (1 << 63) + 1, u64::MAX,
        ];
        for x in ints {
            let (got, want) = (u64_to_f64(x), x as f64);
            assert_eq!(got.to_bits(), want.to_bits(), "u64_to_f64({x})");
        }
    }

    /// One generated slot of a synthetic round.
    #[derive(Debug, Clone)]
    struct Slot {
        node: usize,
        dist: Vec<f64>,
        base_cpi: f64,
        refs_per_instr: f64,
        hit_term: f64,
        m: f64,
        mlp_eff: f64,
        cycles: f64,
        active: bool,
        /// Put onto an edge (or given a bad fraction) on purpose.
        forced: bool,
    }

    /// Weights scaled to sum to `total` over the first `n` homes (a zero
    /// row stays zero).
    fn row(weights: &[f64], n: usize, total: f64) -> Vec<f64> {
        let sum: f64 = weights[..n].iter().sum();
        weights[..n]
            .iter()
            .map(|w| if sum > 0.0 { w / sum * total } else { 0.0 })
            .collect()
    }

    /// Mostly realistic slots (access rows summing to 1). One in three is
    /// forced onto the edges: a cycle budget from [`EDGES`] with a CPI of
    /// exactly 1 (so the instruction count sits on the edge) or with a
    /// computed CPI, edge reference and miss factors, or a bad access
    /// fraction. Forced slots' rows sum to 63/64 (or are zero): with a
    /// huge miss count the split's float products round, and the margin
    /// keeps their truncations from overrunning the count, which the
    /// scalar body's `misses - assigned` would reject in a debug build.
    fn arb_slot(n: usize) -> impl Strategy<Value = Slot> {
        (
            (
                0usize..4,
                0u8..12,
                0usize..EDGES.len(),
                0usize..RATIOS.len(),
                0usize..RATIOS.len(),
            ),
            (
                proptest::collection::vec(0.0f64..1.0, 4),
                0.5f64..2.0,
                0.001f64..0.05,
                0.0f64..40.0,
                0.0f64..1.0,
            ),
            (1.0f64..8.0, 0.0f64..2.4e6, 0u8..4),
        )
            .prop_map(
                move |(
                    (node, kind, e, r1, r2),
                    (w, base_cpi, rpi, hit_term, m),
                    (mlp_eff, cycles, active),
                )| {
                    let margin = 63.0 / 64.0;
                    let mut s = Slot {
                        node: node % n,
                        dist: row(&w, n, 1.0),
                        base_cpi,
                        refs_per_instr: rpi,
                        hit_term,
                        m,
                        mlp_eff,
                        cycles,
                        active: active != 0,
                        forced: kind >= 8,
                    };
                    match kind {
                        8 => {
                            s.dist = vec![0.0; n];
                            s.base_cpi = 1.0;
                            s.hit_term = 0.0;
                            s.cycles = EDGES[e];
                            s.refs_per_instr = RATIOS[r1];
                            s.m = RATIOS[r2];
                        }
                        9 => {
                            s.dist = row(&w, n, margin);
                            s.cycles = EDGES[e];
                        }
                        10 => {
                            s.dist = row(&w, n, margin);
                            s.refs_per_instr = RATIOS[r1];
                            s.m = RATIOS[r2];
                        }
                        11 => {
                            s.dist = row(&w, n, margin);
                            s.dist[r1 % n] = BAD_FRACS[e % BAD_FRACS.len()];
                        }
                        _ => {}
                    }
                    s
                },
            )
    }

    /// A hot state holding just what one round reads: the slots, the miss
    /// cost matrix, and stale output rows that the round must rewrite.
    fn hot_for(n: usize, slots: &[Slot], matrix: &[f64]) -> HotState {
        let len = slots.len();
        let mut hot = HotState {
            len,
            ..HotState::default()
        };
        for (i, s) in slots.iter().enumerate() {
            hot.node.push(s.node as u32);
            hot.dist.extend_from_slice(&s.dist);
            hot.base_cpi.push(s.base_cpi);
            hot.refs_per_instr.push(s.refs_per_instr);
            hot.hit_term.push(s.hit_term);
            hot.m.push(s.m);
            hot.mlp_eff.push(s.mlp_eff);
            hot.cycles.push(s.cycles);
            if s.active {
                hot.active.push(i as u32);
            }
        }
        hot.miss_cycles_matrix = matrix[..n * n].to_vec();
        hot.out_instructions = vec![0; len];
        hot.out_cpi = vec![0.0; len];
        hot.out_refs = vec![0; len];
        hot.out_misses = vec![0; len];
        hot.out_local = vec![0; len];
        hot.out_remote = vec![0; len];
        hot.out_node_acc = (0..len * n).map(|j| j as u64 * 7_919 + 13).collect();
        hot.node_demand = vec![0.0; n];
        hot.pair_traffic = vec![0.0; n * n];
        hot
    }

    impl RoundCols<'_> {
        /// [`round_slots`] with every slot through the scalar body.
        fn round_scalar(&mut self) {
            let active = self.active;
            for &i in active {
                self.rate(i as usize);
            }
            for &i in active {
                self.split(i as usize);
                self.demand(i as usize);
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every column a round writes, floats as bits.
    fn outputs(hot: &HotState) -> Vec<Vec<u64>> {
        vec![
            hot.out_instructions.clone(),
            bits(&hot.out_cpi),
            hot.out_refs.clone(),
            hot.out_misses.clone(),
            hot.out_local.clone(),
            hot.out_remote.clone(),
            hot.out_node_acc.clone(),
            bits(&hot.node_demand),
            bits(&hot.pair_traffic),
        ]
    }

    fn arb_round() -> impl Strategy<Value = (usize, Vec<Slot>, Vec<f64>, bool)> {
        (0usize..3).prop_flat_map(|k| {
            let n = [1, 2, 4][k];
            (
                Just(n),
                proptest::collection::vec(arb_slot(n), 0..24),
                proptest::collection::vec(50.0f64..800.0, 16),
                any::<bool>(),
            )
        })
    }

    /// One round as a solve runs it with the packed kernel: pack, then
    /// [`run_round`]; a packed round's outputs are copied back to slot
    /// order. Whether the kernel took the round.
    fn round_packed(hot: &mut HotState, n: usize, params: EngineParams) -> bool {
        for k in 0..hot.active.len() {
            hot.pack_lane(k, hot.active[k] as usize, n);
        }
        let took = run_round(hot, n, params, true);
        if took {
            for (k, &i) in hot.active.iter().enumerate() {
                let (c, l, i) = (&hot.chunks[k / LANES], k % LANES, i as usize);
                hot.out_instructions[i] = c.out_instructions[l];
                hot.out_cpi[i] = c.out_cpi[l];
                hot.out_refs[i] = c.out_refs[l];
                hot.out_misses[i] = c.out_misses[l];
                hot.out_local[i] = c.out_local[l];
                hot.out_remote[i] = c.out_remote[l];
                for h in 0..n {
                    hot.out_node_acc[i * n + h] = c.out_node_acc[h][l];
                }
            }
        }
        took
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The pair lanes and, where the CPU runs it, the packed kernel
        /// against an all-scalar round: every output column and
        /// accumulator, bit for bit.
        #[test]
        fn round_lanes_match_the_scalar_body(
            (n, slots, matrix, fractional) in arb_round()
        ) {
            let params = EngineParams {
                traffic_per_miss_bytes: if fractional { 115.3 } else { 115.0 },
                ..EngineParams::default()
            };
            let mut lanes = hot_for(n, &slots, &matrix);
            let mut scalar = lanes.clone();
            let mut packed = lanes.clone();
            round_slots(&mut lanes, n, params);
            RoundCols::new(&mut scalar, n, params).round_scalar();
            prop_assert_eq!(outputs(&lanes), outputs(&scalar), "{} nodes: {:?}", n, slots);
            if lanes512::available(n) {
                let took = round_packed(&mut packed, n, params);
                prop_assert_eq!(outputs(&packed), outputs(&scalar), "{} nodes: {:?}", n, slots);
                // Only a lane forced onto an edge can make it refuse.
                let realistic = slots.iter().all(|s| !s.active || !s.forced);
                prop_assert!(took || !realistic, "refused realistic slots {:?}", slots);
            }
        }
    }

    /// Whether this CPU runs the packed kernel on two nodes. Where it does
    /// not, the packed tests pass without checking it: say so on stderr
    /// (shown with `--nocapture`; CI's "Packed-round coverage" step
    /// reports the same from the CPU flags).
    fn packed_runs(test: &str) -> bool {
        let runs = lanes512::available(2);
        if !runs {
            eprintln!("{test}: no AVX-512F/DQ on this CPU, the packed round went untested");
        }
        runs
    }

    /// A hot state of `k` realistic slots on two nodes, for the packed
    /// kernel's tail handling.
    fn realistic(k: usize) -> HotState {
        let slots: Vec<Slot> = (0..k)
            .map(|i| Slot {
                node: i % 2,
                dist: vec![0.7 - 0.02 * i as f64, 0.3 + 0.02 * i as f64],
                base_cpi: 1.0 + 0.01 * i as f64,
                refs_per_instr: 0.018,
                hit_term: 12.0,
                m: 0.1 + 0.02 * i as f64,
                mlp_eff: 2.0,
                cycles: 2.4e6 - 1e4 * i as f64,
                active: true,
                forced: false,
            })
            .collect();
        hot_for(2, &slots, &[300.0, 450.0, 460.0, 310.0])
    }

    /// Every active count from 1 to 17 (every tail length, up to three
    /// chunks) is taken by the packed kernel and matches the scalar body,
    /// also over chunks whose tail lanes still hold an earlier solve's
    /// out-of-range slots.
    #[test]
    fn packed_round_takes_every_active_count() {
        if !packed_runs("packed_round_takes_every_active_count") {
            return;
        }
        let params = EngineParams {
            traffic_per_miss_bytes: 115.3,
            ..EngineParams::default()
        };
        let mut stale = realistic(24);
        stale.cycles.fill(f64::NAN);
        assert!(!round_packed(&mut stale, 2, params));
        for k in 1..=17 {
            for reuse in [false, true] {
                let mut packed = realistic(k);
                if reuse {
                    packed.chunks = stale.chunks.clone();
                }
                let mut scalar = packed.clone();
                assert!(round_packed(&mut packed, 2, params), "{k} slots");
                RoundCols::new(&mut scalar, 2, params).round_scalar();
                assert_eq!(outputs(&packed), outputs(&scalar), "{k} slots");
            }
        }
    }

    /// The packed kernel's accept and refuse boundary: `2^53 − 1` is
    /// taken, `2^53`, negatives, NaN and the infinities are refused, and
    /// a refused round still matches the scalar body (it ran it).
    #[test]
    fn packed_round_takes_in_range_lanes_and_refuses_the_rest() {
        if !packed_runs("packed_round_takes_in_range_lanes_and_refuses_the_rest") {
            return;
        }
        let params = EngineParams::default();
        let round = |cycles: f64, refs_per_instr: f64, m: f64, dist: [f64; 2]| {
            let mut packed = edge_pair(cycles, refs_per_instr, m, dist);
            let mut scalar = packed.clone();
            let took = round_packed(&mut packed, 2, params);
            RoundCols::new(&mut scalar, 2, params).round_scalar();
            assert_eq!(outputs(&packed), outputs(&scalar), "cycles {cycles:e}");
            took
        };
        let two53 = 9_007_199_254_740_992.0;
        assert!(round(two53 - 1.0, 1.0, 0.5, [0.25, 0.75]));
        assert!(round(0.0, 1e-9, 0.5, [0.25, 0.75]) && round(-0.0, 1e-9, 0.5, [0.25, 0.75]));
        for cycles in [two53, -1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!round(cycles, 1e-9, 0.5, [0.25, 0.75]), "cycles {cycles:e}");
        }
        // References past the edge, and negative or NaN products.
        assert!(!round(two53 - 1.0, 1.0 + f64::EPSILON, 0.5, [0.25, 0.75]));
        assert!(!round(1e6, 1.0, -1.0, [0.25, 0.75]));
        assert!(!round(1e6, f64::NAN, 0.5, [0.25, 0.75]));
        // The split: a negative or NaN fraction is refused, `-0.0` taken.
        for frac in [-0.5, f64::NAN, f64::NEG_INFINITY] {
            assert!(!round(1e6, 0.5, 0.5, [frac, 0.5]), "frac {frac:e}");
        }
        assert!(round(1e6, 0.5, 0.5, [-0.0, 0.5]));
        // A row summing above 1 would assign more misses than the slot
        // has: refused before the scalar body's subtraction could wrap.
        let mut over = edge_pair(1e6, 0.5, 0.5, [0.75, 0.75]);
        for k in 0..2 {
            over.pack_lane(k, k, 2);
        }
        assert!(!lanes512::round(&mut over, 2, params));
    }

    /// A two-node hot state: slot 0 realistic, slot 1 with a CPI of
    /// exactly 1 (no stall), so its instruction count is its cycle
    /// budget truncated.
    fn edge_pair(cycles: f64, refs_per_instr: f64, m: f64, dist: [f64; 2]) -> HotState {
        let plain = Slot {
            node: 0,
            dist: vec![0.7, 0.3],
            base_cpi: 1.1,
            refs_per_instr: 0.018,
            hit_term: 12.0,
            m: 0.4,
            mlp_eff: 2.0,
            cycles: 2.4e6,
            active: true,
            forced: false,
        };
        let edge = Slot {
            node: 1,
            dist: dist.to_vec(),
            base_cpi: 1.0,
            refs_per_instr,
            hit_term: 0.0,
            m,
            cycles,
            ..plain.clone()
        };
        // A zero miss cost keeps the edge slot's CPI at exactly 1 whatever
        // its access row.
        hot_for(2, &[plain, edge], &[300.0, 450.0, 0.0, 0.0])
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lanes_take_in_range_pairs_and_refuse_the_rest() {
        let rate = |cycles: f64, refs_per_instr: f64, m: f64| {
            let mut lanes = edge_pair(cycles, refs_per_instr, m, [0.25, 0.75]);
            let mut scalar = lanes.clone();
            let params = EngineParams::default();
            let took = RoundCols::new(&mut lanes, 2, params).rate_pair(0, 1);
            let mut cols = RoundCols::new(&mut scalar, 2, params);
            cols.rate(0);
            cols.rate(1);
            if took {
                assert_eq!(outputs(&lanes), outputs(&scalar), "cycles {cycles:e}");
            } else {
                assert_eq!(
                    lanes.out_instructions,
                    [0, 0],
                    "a refused pair writes nothing"
                );
            }
            took
        };
        // Instructions: the last in-range budget and the first refused one.
        assert!(rate(2_147_483_646.999_999_8, 1e-9, 0.5));
        assert!(!rate(LIMIT, 1e-9, 0.5));
        assert!(rate(0.0, 1e-9, 0.5) && rate(-0.0, 1e-9, 0.5));
        for cycles in [
            2_147_483_648.0,
            -1.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert!(!rate(cycles, 1e-9, 0.5), "cycles {cycles:e}");
        }
        // References, then misses: an exact 2^31 − 2 passes, a product
        // rounding to 2^31 − 1 does not.
        assert!(rate(2_147_483_646.0, 1.0, 1.0));
        assert!(!rate(2_147_483_646.0, LIMIT / 2_147_483_646.0, 0.5));
        assert!(!rate(2_147_483_646.0, 1.0, LIMIT / 2_147_483_646.0));
        assert!(!rate(2_147_483_646.0, 1.0, -1.0));
        assert!(!rate(2_147_483_646.0, f64::NAN, 0.5));

        let split = |misses: u64, dist: [f64; 2]| {
            let mut lanes = edge_pair(0.0, 0.0, 0.0, dist);
            lanes.out_misses = vec![1_000, misses];
            let mut scalar = lanes.clone();
            let params = EngineParams::default();
            let pair = RoundCols::new(&mut lanes, 2, params).split_pair(0, 1);
            let mut cols = RoundCols::new(&mut scalar, 2, params);
            cols.split(0);
            cols.split(1);
            if let Some([a, b]) = pair {
                let mut cols = RoundCols::new(&mut lanes, 2, params);
                cols.settle(0, a);
                cols.settle(1, b);
                assert_eq!(outputs(&lanes), outputs(&scalar), "misses {misses}");
            }
            pair.is_some()
        };
        assert!(split(2_147_483_646, [0.0, 1.0]));
        assert!(split(2_147_483_646, [0.3, 0.7]));
        assert!(!split(2_147_483_647, [0.0, 1.0]));
        // (+∞ is refused too, but the scalar body it falls back to
        // overflows on it in a debug build; in a round a +∞ fraction
        // makes the miss cost, and so the miss count, zero or NaN.)
        for frac in [-0.5, f64::NAN, f64::NEG_INFINITY] {
            assert!(!split(1_000, [frac, 0.5]), "frac {frac:e}");
        }
        assert!(split(1_000, [-0.0, 0.5]), "−0.0 truncates to the same zero");
    }
}
