//! The memory engine alone on a replayed noisy per-quantum usage stream.
//!
//! The repro sweep's noisy runs (fig4–fig7) change every slot's
//! intensity every quantum, so their cost is dominated by per-quantum
//! engine solves. This bench replays the same shape of stream — 16
//! saturated slots on two sockets, per-slot intensity following the
//! machine's clamped Ornstein-Uhlenbeck process, occasional cold windows
//! and overhead spikes — through three engines:
//!
//! * `reference` — the frozen pre-rewrite per-struct engine;
//! * `soa_exact` — the incremental SoA engine in exact mode
//!   (byte-identical results, so any delta is pure data layout and
//!   dirty-tracking);
//! * `soa_approx` — the SoA engine with quantized intensity keys and a
//!   fixed-point tolerance (bounded model error, documented in
//!   DESIGN.md §15).
//!
//! The wall clocks and speedups are recorded in `BENCH_repro.json`
//! under `noisy_engine_16slots`.

use criterion::{criterion_group, Criterion};
use mem_model::{
    AccessProfile, ApproxParams, EngineMode, MemoryEngine, MissCurve, QuantumUsage,
    ReferenceEngine,
};
use numa_topo::{presets, NodeId};
use sim_core::{Json, SimDuration, SimRng};

const MB: u64 = 1024 * 1024;
const SLOTS: usize = 16;
/// Matches the machine's defaults: 1 ms quantum, 250 ms noise correlation,
/// 0.18 stationary relative sd.
const NOISE_SD: f64 = 0.18;
const NOISE_THETA: f64 = 1.0 / 250.0;

/// Per-socket mix mirroring the repro sweep's noisy machine: LLC-fitting
/// solvers, LLC-thrashing co-runners, and CPU-only hungry loops.
fn profiles() -> Vec<AccessProfile> {
    vec![
        // lu-like: fits the LLC when alone, mostly local.
        AccessProfile {
            rpti: 18.0,
            base_cpi: 1.1,
            miss_curve: MissCurve::new(0.05, 0.6, 10 * MB),
            mlp: 2.0,
            node_access_dist: vec![0.7, 0.3],
        },
        // Thrasher: working set far beyond the LLC, mostly remote.
        AccessProfile {
            rpti: 26.0,
            base_cpi: 0.9,
            miss_curve: MissCurve::new(0.4, 0.7, 64 * MB),
            mlp: 4.0,
            node_access_dist: vec![0.2, 0.8],
        },
        AccessProfile::cpu_only(1.0, 2),
    ]
}

/// Slot -> profile index: per socket, 4 fitting + 2 thrashers + 2 hungry.
fn slot_profile(slot: usize) -> usize {
    match slot % 8 {
        0..=3 => 0,
        4 | 5 => 1,
        _ => 2,
    }
}

/// Precomputed per-step, per-slot intensity factors: the machine's
/// discrete OU process (`update_intensity_noise`) replayed verbatim.
fn make_scales(steps: usize) -> Vec<f64> {
    let mut rng = SimRng::seed_from(42);
    let step_sd = NOISE_SD * (NOISE_THETA * (2.0 - NOISE_THETA)).sqrt();
    let mut state = vec![1.0f64; SLOTS];
    let mut out = Vec::with_capacity(steps * SLOTS);
    for _ in 0..steps {
        for x in &mut state {
            let eps = rng.normal_clamped(0.0, 1.0, -3.0, 3.0);
            *x = (*x + NOISE_THETA * (1.0 - *x) + step_sd * eps).clamp(0.4, 1.8);
            out.push(*x);
        }
    }
    out
}

fn build_usages<'a>(
    usages: &mut Vec<QuantumUsage<'a>>,
    profs: &'a [AccessProfile],
    scales: &[f64],
    step: usize,
) {
    usages.clear();
    for slot in 0..SLOTS {
        // A cold window (cross-node migration refill) and an overhead
        // spike (partitioning work) wander across the slots so the dirty
        // tracking sees realistic non-intensity churn too.
        let cold = (step + slot * 131) % 997 < 4;
        let spike = (step + slot * 59).is_multiple_of(499);
        usages.push(QuantumUsage {
            key: slot as u64 + 1,
            node: NodeId::new((slot / 8) as u16),
            runtime_share: 1.0,
            profile: &profs[slot_profile(slot)],
            rpti_scale: scales[step * SLOTS + slot],
            cold_miss_boost: if cold { 3.0 } else { 1.0 },
            overhead_us: if spike { 24.0 } else { 0.0 },
        });
    }
}

/// Replay `steps` quanta through `step`, returning a checksum so the work
/// cannot be optimized away.
fn replay<E>(steps: usize, scales: &[f64], profs: &[AccessProfile], mut step: E) -> u64
where
    E: FnMut(SimDuration, &[QuantumUsage]) -> u64,
{
    let quantum = SimDuration::from_millis(1);
    let mut usages = Vec::with_capacity(SLOTS);
    let mut sum = 0u64;
    for s in 0..steps {
        build_usages(&mut usages, profs, scales, s);
        sum = sum.wrapping_add(step(quantum, &usages));
    }
    sum
}

fn run_reference(steps: usize, scales: &[f64], profs: &[AccessProfile]) -> u64 {
    let mut engine = ReferenceEngine::new(&presets::xeon_e5620());
    replay(steps, scales, profs, |q, u| {
        engine.step_ref(q, u).iter().map(|r| r.instructions).sum()
    })
}

fn run_soa(mode: EngineMode, steps: usize, scales: &[f64], profs: &[AccessProfile]) -> u64 {
    let mut engine = MemoryEngine::with_mode(&presets::xeon_e5620(), mode);
    replay(steps, scales, profs, |q, u| {
        engine.step_ref(q, u).iter().map(|r| r.instructions).sum()
    })
}

const BENCH_STEPS: usize = 2_000;

fn noisy_engine(c: &mut Criterion) {
    let profs = profiles();
    let scales = make_scales(BENCH_STEPS);
    c.bench_function("noisy_engine/reference", |b| {
        b.iter(|| run_reference(BENCH_STEPS, &scales, &profs))
    });
    c.bench_function("noisy_engine/soa_exact", |b| {
        b.iter(|| run_soa(EngineMode::Exact, BENCH_STEPS, &scales, &profs))
    });
    c.bench_function("noisy_engine/soa_approx", |b| {
        b.iter(|| {
            run_soa(
                EngineMode::Approx(ApproxParams::default()),
                BENCH_STEPS,
                &scales,
                &profs,
            )
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(5))
        .warm_up_time(std::time::Duration::from_secs(1))
}

criterion_group! {
    name = benches;
    config = config();
    targets = noisy_engine
}

/// Median-of-3 wall clock of one long replay.
fn timed_ms(mut f: impl FnMut() -> u64) -> f64 {
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            let sum = f();
            let ms = t.elapsed().as_secs_f64() * 1000.0;
            std::hint::black_box(sum);
            ms
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[1]
}

/// Merge the engine wall clocks into the repo-root `BENCH_repro.json`.
fn record_bench() {
    const RECORD_STEPS: usize = 10_000;
    let profs = profiles();
    let scales = make_scales(RECORD_STEPS);
    let reference = timed_ms(|| run_reference(RECORD_STEPS, &scales, &profs));
    let exact = timed_ms(|| run_soa(EngineMode::Exact, RECORD_STEPS, &scales, &profs));
    let approx = timed_ms(|| {
        run_soa(
            EngineMode::Approx(ApproxParams::default()),
            RECORD_STEPS,
            &scales,
            &profs,
        )
    });
    let round3 = |x: f64| (x * 1000.0).round() / 1000.0;
    let entry = Json::Obj(vec![
        ("steps".into(), Json::from(RECORD_STEPS)),
        ("reference_wall_ms".into(), Json::Num(round3(reference))),
        ("soa_exact_wall_ms".into(), Json::Num(round3(exact))),
        ("soa_approx_wall_ms".into(), Json::Num(round3(approx))),
        (
            "speedup_exact".into(),
            Json::Num(round3(reference / exact.max(f64::MIN_POSITIVE))),
        ),
        (
            "speedup_approx".into(),
            Json::Num(round3(reference / approx.max(f64::MIN_POSITIVE))),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_repro.json");
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .and_then(|j| match j {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        })
        .unwrap_or_default();
    let key = "noisy_engine_16slots".to_string();
    match doc.iter_mut().find(|(k, _)| *k == key) {
        Some(slot) => slot.1 = entry,
        None => doc.push((key, entry)),
    }
    if let Err(e) = std::fs::write(path, Json::Obj(doc).to_string_pretty()) {
        eprintln!("warning: cannot write {path}: {e}");
    } else {
        eprintln!("recorded noisy-engine wall clocks in {path}");
    }
}

fn main() {
    benches();
    record_bench();
}
