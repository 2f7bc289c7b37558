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
//! against that mirror, which drives three levels of work avoidance — all
//! bit-exact, because each skipped computation is a pure function of
//! inputs that were verified (bitwise) unchanged:
//!
//! * **per-node LLC dirty bits** — a node's shared-cache occupancy solve
//!   re-runs only when some co-runner on that node changed its intensity,
//!   runtime share, or miss curve; otherwise the cached per-slot raw miss
//!   rates stand (the solve is a pure per-node function of exactly those
//!   inputs);
//! * **per-slot derived/output reuse** — a slot whose inputs *and* solved
//!   miss rate are bitwise unchanged keeps its derived columns, and —
//!   when the stored outputs are known consistent with the warm-start
//!   multipliers — skips the first fixed-point round entirely, replaying
//!   its stored demand contribution instead (same values, same order:
//!   same accumulator bits);
//! * **whole-step skip** — when every input is bitwise unchanged *and* the
//!   previous solve was stationary (the damped update left every
//!   multiplier bitwise unchanged), re-running would replay the identical
//!   trajectory, so the cached outputs are rematerialized without solving.
//!
//! Every solve warm-starts from the previous quantum's multipliers, as the
//! original engine did. Exact mode ([`EngineMode::Exact`], the default) is
//! byte-identical to [`crate::reference::ReferenceEngine`] — pinned by
//! equivalence proptests here and a scheduler×seed×fault byte-equality
//! matrix at machine level. [`EngineMode::Approx`] additionally quantizes
//! intensity inputs *and* solved miss rates onto a relative grid (so the
//! dirty bits, the per-slot replay, and a small per-node solve memo all
//! fire under continuous intensity noise) and exits the fixed point early
//! on a relative tolerance, snapping the sub-tolerance nudge back so the
//! multipliers stay piecewise-constant; both reassociate rounding and are
//! therefore opt-in behind the machine config flag, with a documented
//! tolerance test.

use crate::curve::{rel_grid_mask, MissCurve};
use crate::imc::ImcModel;
use crate::latency::LatencyParams;
use crate::llc::{fingerprint_u64, LlcDemand, LlcModel, LlcOccupancy, LlcScratch, LlcSolveCache};
use crate::qpi::QpiModel;
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

/// Arithmetic regime of the solve.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EngineMode {
    /// Bit-identical to the pre-rewrite engine (the default). Work is
    /// skipped only where the skipped computation's inputs are bitwise
    /// unchanged, so every emitted byte matches the reference.
    #[default]
    Exact,
    /// Trades bounded model error for speed: intensity inputs snap onto a
    /// relative grid (turning continuous burstiness noise into repeats the
    /// dirty bits and solve memo can catch) and the fixed point exits once
    /// multipliers move less than a relative tolerance. Opt-in; not
    /// byte-identical to exact mode.
    Approx(ApproxParams),
}

/// Knobs for [`EngineMode::Approx`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxParams {
    /// Width of the relative intensity quantization grid, realized by
    /// mantissa truncation ([`crate::curve::quantize_rel`]). 0.05 keeps
    /// five mantissa bits: effective RPTI snaps onto a geometric ladder
    /// with ≤ 3.2 % spacing — a perturbation comparable to the ±σ
    /// intensity noise it is absorbing. 0 disables quantization.
    pub intensity_grid: f64,
    /// Relative multiplier movement below which a fixed-point round counts
    /// as converged; the sub-tolerance nudge is rolled back, so the stored
    /// multipliers lag the moving fixed point by at most this much. 0
    /// keeps the exact bitwise-unchanged criterion.
    pub fp_tolerance: f64,
}

impl Default for ApproxParams {
    fn default() -> Self {
        ApproxParams {
            intensity_grid: 0.05,
            fp_tolerance: 0.05,
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
    /// Effective RPTI (`profile.rpti * rpti_scale`), after quantization in
    /// approx mode.
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
    /// `refs_per_instr / mlp_eff`, filled in approx mode only: hoisting
    /// the division out of the fixed-point rounds reassociates the CPI
    /// expression, so exact mode keeps dividing per round instead.
    refs_over_mlp: Vec<f64>,
    cycles: Vec<f64>,
    /// Per node: member slots in input order (the LLC solve order).
    members: Vec<Vec<u32>>,
    /// Per node: some member's LLC-relevant inputs changed since its last
    /// occupancy solve.
    node_dirty: Vec<bool>,
    /// Per slot: some input or the slot's solved miss rate changed bitwise
    /// since the stored output columns were computed. Cleared once the
    /// step's final round has (re)computed every changed slot; drives the
    /// per-slot output replay in the fixed-point rounds.
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
    memo_miss: Vec<f64>,
    // Pre-update multipliers of the current round, kept only in approx
    // mode so a tolerance exit can discard the final sub-tolerance nudge
    // (see the fixed-point loop).
    prev_imc: Vec<f64>,
    prev_qpi: Vec<f64>,
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
    /// [`LlcSolveCache`](crate::llc::LlcSolveCache) fingerprint hits.
    pub memo_hits: u64,
    /// Fingerprint misses (each followed by a full solve + insert).
    pub memo_misses: u64,
    /// Times a node's memo self-disabled (128-miss streak).
    pub memo_disables: u64,
    /// Slots whose round-0 demand was replayed from stored outputs
    /// instead of recomputed.
    pub replay_fires: u64,
    /// Fixed-point rounds executed, total (divide by `steps −
    /// whole_step_skips` for rounds per solving step).
    pub fp_rounds: u64,
    /// Approx-mode fixed-point exits via the tolerance test.
    pub tolerance_exits: u64,
    /// Multiplier entries whose sub-tolerance nudge was rolled back by
    /// those exits (the snap-back volume).
    pub snap_backs: u64,
}

impl EnginePerf {
    /// Memo hit rate over consulted lookups (0 when never consulted).
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }

    /// Fraction of steps answered by the whole-step skip.
    pub fn skip_rate(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.whole_step_skips as f64 / self.steps as f64
        }
    }

    /// Mean fixed-point rounds per step that actually solved.
    pub fn rounds_per_solving_step(&self) -> f64 {
        let solving = self.steps - self.whole_step_skips;
        if solving == 0 {
            0.0
        } else {
            self.fp_rounds as f64 / solving as f64
        }
    }

    /// Add another engine's counters into this one. Summing per-host
    /// counters in host index order is the fleet aggregation primitive.
    pub fn accumulate(&mut self, o: EnginePerf) {
        self.steps += o.steps;
        self.whole_step_skips += o.whole_step_skips;
        self.node_solves += o.node_solves;
        self.node_clean_skips += o.node_clean_skips;
        self.memo_hits += o.memo_hits;
        self.memo_misses += o.memo_misses;
        self.memo_disables += o.memo_disables;
        self.replay_fires += o.replay_fires;
        self.fp_rounds += o.fp_rounds;
        self.tolerance_exits += o.tolerance_exits;
        self.snap_backs += o.snap_backs;
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
    mode: EngineMode,
    /// Per-node memo of recent occupancy solves, consulted in approx mode
    /// only (exact inputs are continuous and would never repeat except
    /// consecutively, which the dirty bits already cover).
    llc_memo: Vec<LlcSolveCache>,
    hot: HotState,
    /// Pooled results of the most recent solve (element buffers reused
    /// across quanta instead of reallocated).
    results: Vec<VcpuQuantumResult>,
    /// Whether the most recent solve left the contention multipliers
    /// bitwise unchanged — i.e. the fixed point has converged, so an
    /// identical-input step would reproduce identical results.
    stationary: bool,
    /// Whether the stored output columns were computed with multipliers
    /// bitwise equal to the stored `imc_mult`/`qpi_mult` (true on a
    /// `!changed` or tolerance exit, false when the round cap fired with
    /// the last update still moving). Gates the per-slot output replay:
    /// only then does "inputs unchanged" imply "outputs unchanged".
    out_consistent: bool,
    /// Work-avoidance accounting (read via [`MemoryEngine::perf`]).
    perf: EnginePerf,
}

impl MemoryEngine {
    /// Build the engine from a validated topology with default calibration.
    pub fn new(topo: &Topology) -> Self {
        MemoryEngine::with_params(topo, EngineParams::default())
    }

    /// Build with an explicit arithmetic mode.
    pub fn with_mode(topo: &Topology, mode: EngineMode) -> Self {
        let mut e = MemoryEngine::with_params(topo, EngineParams::default());
        e.mode = mode;
        e
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
            mode: EngineMode::Exact,
            llc_memo: vec![LlcSolveCache::default(); n],
            hot: HotState::default(),
            results: Vec::new(),
            stationary: false,
            out_consistent: false,
            perf: EnginePerf::default(),
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The engine's arithmetic mode.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Switch arithmetic mode. Invalidates the input mirror (the next step
    /// re-solves everything from the current multipliers) so cached state
    /// produced under the old mode's arithmetic can never leak into the
    /// new one.
    pub fn set_mode(&mut self, mode: EngineMode) {
        self.mode = mode;
        self.invalidate_cache();
    }

    /// Drop the incremental state: the next step diffs against nothing and
    /// performs a full solve (warm-started from the current multipliers,
    /// exactly as every step is). Exposed for tests and bisection; results
    /// are unaffected by construction, which the equivalence proptests
    /// check by invalidating at arbitrary points.
    pub fn invalidate_cache(&mut self) {
        self.hot.valid = false;
        for memo in &mut self.llc_memo {
            memo.clear();
        }
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
    pub fn step(&mut self, quantum: SimDuration, usages: &[QuantumUsage]) -> Vec<VcpuQuantumResult> {
        self.step_ref(quantum, usages).to_vec()
    }

    /// Whether the most recent solve was stationary: the damped update
    /// left every contention multiplier bitwise unchanged, so re-running
    /// it with the same inputs would replay the exact same trajectory
    /// (what the whole-step skip relies on).
    pub fn last_step_stationary(&self) -> bool {
        self.stationary
    }

    /// Cumulative work-avoidance counters for this engine's lifetime,
    /// folding in the per-node memo disable events. Deterministic; never
    /// part of the engine's outputs.
    pub fn perf(&self) -> EnginePerf {
        let mut p = self.perf;
        p.memo_disables = self.llc_memo.iter().map(LlcSolveCache::disable_events).sum();
        p
    }

    /// Results of the most recent solve.
    pub fn last_results(&self) -> &[VcpuQuantumResult] {
        &self.results
    }

    /// Detach the pooled results buffer so a caller can apply it while
    /// holding other borrows; hand it back via
    /// [`MemoryEngine::put_back_results`] to keep the pooling.
    pub fn take_results(&mut self) -> Vec<VcpuQuantumResult> {
        std::mem::take(&mut self.results)
    }

    /// Return a buffer taken with [`MemoryEngine::take_results`].
    pub fn put_back_results(&mut self, results: Vec<VcpuQuantumResult>) {
        self.results = results;
    }

    /// Allocation-free form of [`MemoryEngine::step`]: the returned slice
    /// borrows pooled per-engine buffers that the next step overwrites.
    pub fn step_ref(
        &mut self,
        quantum: SimDuration,
        usages: &[QuantumUsage],
    ) -> &[VcpuQuantumResult] {
        let quantum_us = quantum.as_micros() as f64;
        assert!(quantum_us > 0.0, "zero quantum");
        self.perf.steps += 1;
        let n = self.num_nodes;
        let (grid, fp_tol) = match self.mode {
            EngineMode::Exact => (0.0, 0.0),
            EngineMode::Approx(p) => (p.intensity_grid, p.fp_tolerance),
        };
        // Mask once per step; per-slot quantization is then two integer ops
        // (`quantize_rel` semantics without its per-call mask derivation).
        let qmask = rel_grid_mask(grid);

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
            hot.refs_over_mlp.resize(len, 0.0);
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
                debug_assert!(
                    u.profile.node_access_dist.len() == n,
                    "profile node distribution has wrong arity"
                );
                let node = u.node.index();
                hot.key[i] = u.key;
                hot.node[i] = node as u32;
                hot.members[node].push(i as u32);
                let p = u.profile;
                let c = &p.miss_curve;
                hot.share[i] = u.runtime_share;
                hot.rpti_eff[i] = quantize_bits(u.rpti(), qmask);
                hot.boost[i] = u.cold_miss_boost;
                hot.overhead[i] = u.overhead_us;
                hot.cv_min[i] = c.min_miss;
                hot.cv_max[i] = c.max_miss;
                hot.cv_ws[i] = c.ws_bytes;
                hot.mlp[i] = p.mlp;
                hot.base_cpi[i] = p.base_cpi;
                hot.dist[i * n..(i + 1) * n].copy_from_slice(&p.node_access_dist);
            }
        } else {
            for (i, u) in usages.iter().enumerate() {
                debug_assert!(
                    u.profile.node_access_dist.len() == n,
                    "profile node distribution has wrong arity"
                );
                let p = u.profile;
                let c = &p.miss_curve;
                let rpti_eff = quantize_bits(u.rpti(), qmask);
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
                let row = &mut hot.dist[i * n..(i + 1) * n];
                for (prev, &frac) in row.iter_mut().zip(p.node_access_dist.iter()) {
                    if bits_ne(*prev, frac) {
                        *prev = frac;
                        hot.slot_changed[i] = true;
                        dist_changed = true;
                    }
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
            return &self.results;
        }

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
                let mut memo_fp = members.len() as u64;
                let use_memo = grid > 0.0 && self.llc_memo[node].consult();
                if use_memo {
                    // Approx mode: memo the solve behind a fingerprint of
                    // the quantized member-input key (intensity noise now
                    // lands on a small set of grid points, so revisited
                    // states hit).
                    for &i in members.iter() {
                        let i = i as usize;
                        memo_fp = fingerprint_u64(memo_fp, hot.rpti_eff[i].to_bits());
                        memo_fp = fingerprint_u64(memo_fp, hot.share[i].to_bits());
                        memo_fp = fingerprint_u64(memo_fp, hot.cv_min[i].to_bits());
                        memo_fp = fingerprint_u64(memo_fp, hot.cv_max[i].to_bits());
                        memo_fp = fingerprint_u64(memo_fp, hot.cv_ws[i]);
                    }
                    if let Some(miss) = self.llc_memo[node].lookup(memo_fp) {
                        self.perf.memo_hits += 1;
                        for (&i, &m) in members.iter().zip(miss.iter()) {
                            let i = i as usize;
                            let q = quantize_bits(m, qmask);
                            if bits_ne(hot.occ_miss[i], q) {
                                hot.occ_miss[i] = q;
                                hot.slot_changed[i] = true;
                            }
                        }
                        continue;
                    }
                    self.perf.memo_misses += 1;
                }
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
                // Approx mode quantizes the solved miss rate onto the same
                // relative grid as the intensity inputs: sub-grid occupancy
                // shifts then leave a co-runner's miss rate bitwise
                // unchanged, which is what lets its outputs replay (the
                // added relative error is below the grid, on top of the
                // input quantization already documented). The exact-mode
                // mask is all ones, a bitwise identity.
                for (&i, o) in members.iter().zip(hot.llc_occ.iter()) {
                    let i = i as usize;
                    let q = quantize_bits(o.miss_rate, qmask);
                    if bits_ne(hot.occ_miss[i], q) {
                        hot.occ_miss[i] = q;
                        hot.slot_changed[i] = true;
                    }
                }
                if use_memo {
                    hot.memo_miss.clear();
                    hot.memo_miss
                        .extend(members.iter().map(|&i| hot.occ_miss[i as usize]));
                    self.llc_memo[node].insert(memo_fp, &hot.memo_miss);
                }
            }

            // --- Round-invariant derived columns. Each expression is
            // composed exactly as the reference composes it, from inputs
            // that are bitwise the reference's inputs, so the bits match.
            // Slots whose inputs and solved miss rate are all bitwise
            // unchanged would recompute identical values, so they are
            // skipped (valid in both modes — it is the same pure-function
            // argument the node dirty bits rest on). ---
            hot.active.clear();
            for i in 0..hot.len {
                if hot.rpti_eff[i] != 0.0 {
                    hot.active.push(i as u32);
                }
                if !hot.slot_changed[i] {
                    continue;
                }
                let om = hot.occ_miss[i];
                let boosted = om * hot.boost[i].max(1.0);
                let m = boosted.min(hot.cv_max[i].max(om));
                hot.m[i] = m;
                hot.refs_per_instr[i] = hot.rpti_eff[i] / 1_000.0;
                hot.hit_term[i] = (1.0 - m) * self.latency.llc_hit_cycles;
                hot.mlp_eff[i] = hot.mlp[i].max(1.0);
                if grid > 0.0 || fp_tol > 0.0 {
                    hot.refs_over_mlp[i] = hot.refs_per_instr[i] / hot.mlp_eff[i];
                }
                let usable_us = (quantum_us * hot.share[i] - hot.overhead[i]).max(0.0);
                hot.cycles[i] = usable_us * self.freq_mhz as f64;
                if hot.rpti_eff[i] == 0.0 {
                    // Zero LLC references: the miss term below is an exact
                    // `+0.0` for any finite miss cost, so this slot's CPI
                    // cannot see the contention multipliers and it offers
                    // no demand. Its outputs are round-invariant — compute
                    // them once here with a zero miss cost (same bits) and
                    // leave it out of the fixed-point rounds entirely.
                    let cpi = hot.base_cpi[i]
                        + hot.refs_per_instr[i] * (hot.hit_term[i] + hot.m[i] * 0.0)
                            / hot.mlp_eff[i];
                    let instructions = (hot.cycles[i] / cpi) as u64;
                    let llc_refs = round_to_u64(instructions as f64 * hot.refs_per_instr[i]);
                    let llc_misses = round_to_u64(llc_refs as f64 * hot.m[i]);
                    hot.out_instructions[i] = instructions;
                    hot.out_cpi[i] = cpi;
                    hot.out_refs[i] = llc_refs;
                    hot.out_misses[i] = llc_misses;
                    hot.out_local[i] = 0;
                    hot.out_remote[i] = 0;
                    hot.out_node_acc[i * n..(i + 1) * n].fill(0);
                }
            }
        }
        // (`!any_changed && !stationary`: everything above is cached; only
        // the fixed point below still moves.)

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
        // Loop-invariant mode split for the CPI expression below: LLVM
        // unswitches it, so neither variant pays a per-slot branch.
        let approx_cpi = grid > 0.0 || fp_tol > 0.0;
        // Per-slot output replay (round 0 only): when the stored outputs
        // are consistent with the warm-start multipliers, a slot whose
        // inputs and miss rate are bitwise unchanged would recompute
        // bitwise-identical outputs — so its stored row is re-offered as
        // demand (same values, same accumulation order: same bits) and the
        // body is skipped. Any later round recomputes every active slot,
        // because by then the multipliers have moved.
        let reuse_ok = self.out_consistent;
        let consistent_exit;
        let mut round = 0;
        loop {
            let replay = round == 0 && reuse_ok;
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

            // The paper's testbed has two nodes: a literal `2` lets the
            // inlined copy unroll every per-home loop. Same code, same bits.
            self.perf.replay_fires += if n == 2 {
                round_slots(hot, 2, replay, approx_cpi, self.params)
            } else {
                round_slots(hot, n, replay, approx_cpi, self.params)
            };

            // Recompute multipliers from this round's demand and relax.
            let damp = if round == 0 { 1.0 } else { 0.5 };
            let mut changed = false;
            let mut max_rel = 0.0f64;
            if fp_tol > 0.0 {
                // Approx mode keeps the pre-update multipliers so a
                // tolerance exit can discard the final nudge (below).
                hot.prev_imc.clear();
                hot.prev_imc.extend_from_slice(&hot.cur_imc);
                hot.prev_qpi.clear();
                hot.prev_qpi.extend_from_slice(&hot.cur_qpi);
            }
            for (node, mult) in hot.cur_imc.iter_mut().enumerate() {
                let target =
                    self.imc[node].latency_multiplier(hot.node_demand[node] / quantum_s);
                let before = *mult;
                *mult += damp * (target - *mult);
                changed |= *mult != before;
                if fp_tol > 0.0 {
                    max_rel = max_rel.max((*mult - before).abs() / before);
                }
            }
            for (idx, mult) in hot.cur_qpi.iter_mut().enumerate() {
                let target = match &self.qpi[idx] {
                    Some(q) => q.latency_multiplier(hot.pair_traffic[idx] / quantum_s),
                    None => 1.0,
                };
                let before = *mult;
                *mult += damp * (target - *mult);
                changed |= *mult != before;
                if fp_tol > 0.0 {
                    max_rel = max_rel.max((*mult - before).abs() / before);
                }
            }
            round += 1;
            if round == FIXED_POINT_ROUNDS || !changed {
                // `!changed`: the update was a bitwise identity, so the
                // stored multipliers equal the ones that produced the
                // outputs. A round-cap exit instead stores the post-update
                // multipliers while the outputs came from the pre-update
                // ones — inconsistent, so the next step must not replay.
                consistent_exit = !changed;
                break;
            }
            // Approx mode only: a round that moved every multiplier by
            // less than the tolerance counts as converged. Roll the
            // sub-tolerance nudge back: the round's outputs were computed
            // with the pre-update multipliers, so keeping those makes the
            // stored state consistent with the outputs — and makes a truly
            // static stream reach *bitwise* stationarity (enabling the
            // whole-step skip), instead of creeping forever by less than
            // the tolerance. The multipliers then lag the moving target by
            // at most `fp_tolerance`: once drift accumulates past it, the
            // next round-0 full jump is applied as usual.
            if fp_tol > 0.0 && max_rel < fp_tol {
                self.perf.tolerance_exits += 1;
                // Snap-back volume: multiplier entries whose sub-tolerance
                // nudge the rollback below discards.
                self.perf.snap_backs += hot
                    .cur_imc
                    .iter()
                    .zip(&hot.prev_imc)
                    .chain(hot.cur_qpi.iter().zip(&hot.prev_qpi))
                    .filter(|(a, b)| a.to_bits() != b.to_bits())
                    .count() as u64;
                hot.cur_imc.copy_from_slice(&hot.prev_imc);
                hot.cur_qpi.copy_from_slice(&hot.prev_qpi);
                consistent_exit = true;
                break;
            }
        }
        self.perf.fp_rounds += round as u64;
        self.stationary = hot.cur_imc == self.imc_mult && hot.cur_qpi == self.qpi_mult;
        self.out_consistent = consistent_exit;
        // Every changed slot has been recomputed by the final round (or the
        // derived pass, for inactive slots), so the stored outputs are
        // up to date again.
        for s in hot.slot_changed.iter_mut() {
            *s = false;
        }
        self.imc_mult.copy_from_slice(&hot.cur_imc);
        self.qpi_mult.copy_from_slice(&hot.cur_qpi);
        materialize_results(hot, results, n);
        &self.results
    }
}

/// Copy the final round's output columns into the pooled AoS results the
/// callers consume — once per step, not once per round.
fn materialize_results(hot: &HotState, results: &mut Vec<VcpuQuantumResult>, n: usize) {
    results.truncate(hot.len);
    for i in 0..hot.len {
        let row = &hot.out_node_acc[i * n..(i + 1) * n];
        if i < results.len() {
            let out = &mut results[i];
            out.key = hot.key[i];
            out.instructions = hot.out_instructions[i];
            out.llc_refs = hot.out_refs[i];
            out.llc_misses = hot.out_misses[i];
            out.local_accesses = hot.out_local[i];
            out.remote_accesses = hot.out_remote[i];
            out.node_accesses.clear();
            out.node_accesses.extend_from_slice(row);
            out.effective_cpi = hot.out_cpi[i];
            out.miss_rate = hot.m[i];
        } else {
            results.push(VcpuQuantumResult {
                key: hot.key[i],
                instructions: hot.out_instructions[i],
                llc_refs: hot.out_refs[i],
                llc_misses: hot.out_misses[i],
                local_accesses: hot.out_local[i],
                remote_accesses: hot.out_remote[i],
                node_accesses: row.to_vec(),
                effective_cpi: hot.out_cpi[i],
                miss_rate: hot.m[i],
            });
        }
    }
}

/// The per-slot work of one fixed-point round, as two passes over the
/// active slots. Returns the number of slots whose outputs were replayed.
///
/// * **Rate pass:** each recomputed slot's miss cost, CPI, instructions,
///   references and misses. Slots are independent here, so the CPU can
///   overlap one slot's dependent chain (dot product → division → casts)
///   with the next one's.
/// * **Ordered scatter pass:** in `active` order, each recomputed slot
///   splits its misses over home nodes, and every slot — replayed ones
///   with their stored row, at the same position — adds its traffic to the
///   node and pair demand accumulators. The float adds happen in the
///   reference's order (slot order, then home order, remote homes before
///   the run node's local bytes), so the accumulators keep their bits.
///
/// Called with a literal `n` for two-node machines so the inlined copy
/// unrolls the per-home loops.
#[inline(always)]
fn round_slots(
    hot: &mut HotState,
    n: usize,
    replay: bool,
    approx_cpi: bool,
    params: EngineParams,
) -> u64 {
    // Bind every column once. The slices' pointers and lengths then stay
    // in registers across the output stores, instead of being reloaded
    // from `hot` (which the compiler cannot prove the stores leave alone).
    let len = hot.len;
    let node = &hot.node[..len];
    let slot_changed = &hot.slot_changed[..len];
    let dist = &hot.dist[..len * n];
    let miss_cycles_matrix = &hot.miss_cycles_matrix[..n * n];
    let base_cpi = &hot.base_cpi[..len];
    let refs_over_mlp = &hot.refs_over_mlp[..len];
    let refs_per_instr = &hot.refs_per_instr[..len];
    let hit_term = &hot.hit_term[..len];
    let m = &hot.m[..len];
    let mlp_eff = &hot.mlp_eff[..len];
    let cycles = &hot.cycles[..len];
    let out_instructions = &mut hot.out_instructions[..len];
    let out_cpi = &mut hot.out_cpi[..len];
    let out_refs = &mut hot.out_refs[..len];
    let out_misses = &mut hot.out_misses[..len];
    let out_local = &mut hot.out_local[..len];
    let out_remote = &mut hot.out_remote[..len];
    let out_node_acc = &mut hot.out_node_acc[..len * n];
    let node_demand = &mut hot.node_demand[..n];
    let pair_traffic = &mut hot.pair_traffic[..n * n];

    for &slot in hot.active.iter() {
        let i = slot as usize;
        if replay && !slot_changed[i] {
            continue;
        }
        let run_node = node[i] as usize;
        // Average cycle cost of a miss over the access distribution —
        // dense over homes, exactly as the reference composes it (zero
        // rows contribute an exact `+0.0`: every matrix entry is finite).
        let dist_row = &dist[i * n..i * n + n];
        let mrow = &miss_cycles_matrix[run_node * n..run_node * n + n];
        let mut miss_cycles = 0.0;
        for (&frac, &mc) in dist_row.iter().zip(mrow) {
            miss_cycles += frac * mc;
        }
        // Outstanding misses overlap: each miss (and L3 hit) stalls the
        // core for latency / MLP cycles on average. The saturating `as
        // u64` cast is `.floor().max(0.0) as u64` (truncation, zero for
        // negatives/NaN, saturation at the top) without the libm floor
        // call.
        let cpi = if approx_cpi {
            // Reassociated (division hoisted to the derived pass); approx
            // mode only.
            base_cpi[i] + refs_over_mlp[i] * (hit_term[i] + m[i] * miss_cycles)
        } else {
            base_cpi[i] + refs_per_instr[i] * (hit_term[i] + m[i] * miss_cycles) / mlp_eff[i]
        };
        let instructions = (cycles[i] / cpi) as u64;
        let llc_refs = round_to_u64(instructions as f64 * refs_per_instr[i]);
        out_instructions[i] = instructions;
        out_cpi[i] = cpi;
        out_refs[i] = llc_refs;
        out_misses[i] = round_to_u64(llc_refs as f64 * m[i]);
    }

    let mut fires = 0;
    for &slot in hot.active.iter() {
        let i = slot as usize;
        let run_node = node[i] as usize;
        let acc = &mut out_node_acc[i * n..i * n + n];
        if replay && !slot_changed[i] {
            // Outputs stand bitwise; only their demand is re-offered below.
            fires += 1;
        } else {
            // Scatter misses over home nodes, dense in home order (zero
            // rows scatter a zero count). The rounding remainder goes to
            // the run node (arbitrary but local). Every row entry is
            // rewritten, so replayed rows never go stale.
            let misses = out_misses[i];
            let misses_f = misses as f64;
            let mut assigned = 0u64;
            for (c, &frac) in acc.iter_mut().zip(&dist[i * n..i * n + n]) {
                *c = (misses_f * frac) as u64;
                assigned += *c;
            }
            acc[run_node] += misses - assigned;
            out_local[i] = acc[run_node];
            out_remote[i] = misses - acc[run_node];
        }
        // Each miss moves more than its demand line (prefetch,
        // writeback); remote misses also tax the home IMC with coherence
        // work and cross the interconnect.
        for (home, &c) in acc.iter().enumerate() {
            if home != run_node {
                let bytes = c as f64 * params.traffic_per_miss_bytes;
                node_demand[home] += bytes * params.remote_imc_overhead;
                pair_traffic[run_node * n + home] += bytes;
                pair_traffic[home * n + run_node] += bytes;
            }
        }
        node_demand[run_node] += acc[run_node] as f64 * params.traffic_per_miss_bytes;
    }
    fires
}


/// Bitwise inequality: the dirty diff must treat any representational
/// change as a change (and, unlike `!=`, must not treat NaN as always
/// changed-and-never-updated, which would re-dirty every step).
#[inline]
fn bits_ne(a: f64, b: f64) -> bool {
    a.to_bits() != b.to_bits()
}

/// `quantize_rel` with the grid mask precomputed (see
/// [`crate::curve::rel_grid_mask`]): identity for the all-ones exact-mode
/// mask and for non-positive/non-finite values, mantissa truncation
/// otherwise. Two integer ops on the per-slot diff path.
#[inline]
fn quantize_bits(x: f64, mask: u64) -> f64 {
    if x > 0.0 && x.is_finite() {
        f64::from_bits(x.to_bits() & mask)
    } else {
        x
    }
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
    let t = x as u64;
    t + u64::from(x - t as f64 >= 0.5)
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
        assert!((remote_frac - 0.75).abs() < 0.01, "remote_frac={remote_frac}");
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
        assert!(snap.imc_multiplier[0] > 1.0, "imc should be loaded: {snap:?}");
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

    #[test]
    fn repeated_identical_steps_match_fresh_solve() {
        // The whole-step skip may only fire where a re-solve would land on
        // identical bytes: stepping the same inputs N times must match an
        // engine that actually re-solves every step (reference semantics).
        let p = profile(18.0, 16, vec![0.7, 0.3]);
        let q = profile(25.0, 64, vec![0.2, 0.8]);
        let mut incr = engine();
        let mut ref_e = crate::reference::ReferenceEngine::new(&presets::xeon_e5620());
        for _ in 0..12 {
            let usages = [usage(1, 0, &p), usage(2, 1, &q), usage(3, 1, &p)];
            let a = incr.step(quantum(), &usages);
            let b = ref_e.step(quantum(), &usages);
            assert_eq!(a, b);
            assert_eq!(incr.contention(), ref_e.contention());
            assert_eq!(incr.last_step_stationary(), ref_e.last_step_stationary());
        }
    }

    #[test]
    fn mode_switch_invalidates_and_still_solves() {
        let p = profile(18.0, 16, vec![0.7, 0.3]);
        let mut e = engine();
        e.step(quantum(), &[usage(1, 0, &p)]);
        e.set_mode(EngineMode::Approx(ApproxParams::default()));
        assert_eq!(e.mode(), EngineMode::Approx(ApproxParams::default()));
        let r = e.step(quantum(), &[usage(1, 0, &p)]);
        assert!(r[0].instructions > 0);
        e.set_mode(EngineMode::Exact);
        let r = e.step(quantum(), &[usage(1, 0, &p)]);
        assert!(r[0].instructions > 0);
    }

    #[test]
    fn approx_mode_tracks_exact_within_tolerance() {
        // Documented bound for the default ApproxParams: the 0.05 grid
        // truncates effective RPTI onto a ≤ 3.2 %-spaced ladder, and the
        // 0.05 fixed-point tolerance lets the multipliers lag the moving
        // fixed point by up to 5 % — per-quantum instruction counts stay
        // within a few percent of exact.
        let p = profile(18.0, 16, vec![0.7, 0.3]);
        let q = profile(25.0, 64, vec![0.2, 0.8]);
        let mut exact = engine();
        let mut approx =
            MemoryEngine::with_mode(&presets::xeon_e5620(), EngineMode::Approx(ApproxParams::default()));
        for step in 0..50 {
            // A deterministic pseudo-noise walk over intensity.
            let scale = 1.0 + 0.15 * ((step * 37 % 17) as f64 / 17.0 - 0.5);
            let mut u1 = usage(1, 0, &p);
            u1.rpti_scale = scale;
            let mut u2 = usage(2, 1, &q);
            u2.rpti_scale = 2.0 - scale;
            let usages = [u1, u2];
            let a = exact.step(quantum(), &usages);
            let b = approx.step(quantum(), &usages);
            for (ra, rb) in a.iter().zip(b.iter()) {
                let rel = (ra.instructions as f64 - rb.instructions as f64).abs()
                    / ra.instructions.max(1) as f64;
                assert!(
                    rel < 0.05,
                    "step {step}: approx deviated {rel:.4} (exact={}, approx={})",
                    ra.instructions,
                    rb.instructions
                );
            }
        }
    }
}
