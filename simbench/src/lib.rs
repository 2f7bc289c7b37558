//! End-to-end benchmark of the vProbe simulator.
//!
//! One invocation runs one workload at one seed for a fixed host-time
//! budget, checks every operation's output, and reports host-time metrics
//! (how fast the simulator runs) beside simulated ones (what the model
//! computes). See `README.md` in this package for the workloads and how to
//! read the output.

pub mod pins;
pub mod probe;
pub mod report;
pub mod spans;
pub mod workload;

use pins::Pins;
use spans::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;
use workload::{Cycle, Op, Runner, Segment, Workload};

/// `RunOptions::default().seed`, the seed every figure uses.
pub const DEFAULT_SEED: u64 = 42;
/// A second pinned seed, never used while the benchmark was written.
pub const HELD_OUT_SEED: u64 = 1234;
/// Set-ups timed before the first cycle, and again before every cycle,
/// so that the median of `setup_s` spans the whole run.
pub const SETUP_REPS: usize = 21;
pub const SETUP_REPS_PER_CYCLE: usize = 5;

/// Everything one invocation measured.
#[derive(Debug)]
pub struct Measurement {
    pub workload: Workload,
    pub seed: u64,
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Cycles run with tracing off, folded together.
    pub untraced: Cycle,
    pub untraced_cycles: usize,
    /// Each segment's fastest repeat over the untraced cycles.
    pub untraced_best: Vec<Segment>,
    /// Cycles run with tracing on (trace mode only).
    pub traced: Cycle,
    pub traced_cycles: usize,
    pub traced_best: Vec<Segment>,
    pub tracer: Tracer,
    /// The first cycle's operations, in order.
    pub first_ops: Vec<Op>,
    /// Whether `fingerprints.txt` pins this seed.
    pub pinned: bool,
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

impl Measurement {
    /// Digest over every operation fingerprint of the first cycle.
    pub fn fingerprint(&self) -> String {
        let all: Vec<String> = self
            .first_ops
            .iter()
            .map(|o| format!("{} {}", o.key, o.digest.as_deref().unwrap_or("-")))
            .collect();
        pins::digest(&all.join("\n"))
    }
}

/// Run `workload` at `seed` for at least `seconds` of host time, in whole
/// cycles. In trace mode, cycles alternate untraced and traced, starting
/// untraced, and at least one of each runs.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Measurement, String> {
    measure_with(workload, seed, seconds, trace, Pins::load)
}

/// [`measure`] with the pinned table read by `load_pins`.
pub fn measure_with(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    load_pins: impl Fn() -> Result<Pins, String>,
) -> Result<Measurement, String> {
    let runner = Runner::new(workload, seed);
    let mut setup_s = Vec::new();
    let mut set_up = |reps: usize| -> Result<Pins, String> {
        let mut pins = Pins::default();
        for _ in 0..reps {
            let t0 = Instant::now();
            pins = load_pins()?;
            let done = runner.build_first().map_err(|e| format!("set-up: {e}"))?;
            setup_s.push(done.duration_since(t0).as_secs_f64());
        }
        Ok(pins)
    };
    let pins = set_up(SETUP_REPS)?;
    let pinned = pins.pinned(seed, workload.name());

    let mut m = Measurement {
        workload,
        seed,
        setup_s: Vec::new(),
        untraced: Cycle::default(),
        untraced_cycles: 0,
        untraced_best: Vec::new(),
        traced: Cycle::default(),
        traced_cycles: 0,
        traced_best: Vec::new(),
        tracer: Tracer::default(),
        first_ops: Vec::new(),
        pinned,
        attempted: 0,
        failures: Vec::new(),
    };
    let mut reference: BTreeMap<String, Option<String>> = BTreeMap::new();
    let started = Instant::now();
    loop {
        set_up(SETUP_REPS_PER_CYCLE)?;
        let traced = trace && m.untraced_cycles > m.traced_cycles;
        let cycle = if traced {
            m.tracer.begin("cycle");
            let c = runner.cycle(Some(&mut m.tracer));
            m.tracer.end();
            c
        } else {
            runner.cycle(None)
        };

        for op in &cycle.ops {
            m.attempted += 1;
            let error = op.error.clone().or_else(|| {
                let expected = reference.get(&op.key);
                if expected.is_some_and(|d| *d != op.digest) {
                    return Some("output differs from the first cycle's".into());
                }
                let digest = op.digest.as_deref().unwrap_or("-");
                match pins.get(seed, workload.name(), &op.key) {
                    Some(p) if p != digest => Some(format!("fingerprint {digest} != pinned {p}")),
                    None if pinned => Some("no pinned fingerprint".into()),
                    _ => None,
                }
            });
            if let Some(e) = error {
                m.failures.push(format!("{}: {e}", op.key));
            }
        }
        if m.first_ops.is_empty() {
            m.first_ops = cycle.ops.clone();
            reference = cycle
                .ops
                .iter()
                .map(|o| (o.key.clone(), o.digest.clone()))
                .collect();
        }
        if traced {
            keep_fastest(&mut m.traced_best, &cycle.segments);
            m.traced.absorb(cycle);
            m.traced_cycles += 1;
        } else {
            keep_fastest(&mut m.untraced_best, &cycle.segments);
            m.untraced.absorb(cycle);
            m.untraced_cycles += 1;
        }
        let done = started.elapsed().as_secs_f64() >= seconds;
        if done && (!trace || m.traced_cycles > 0) {
            break;
        }
    }
    m.setup_s = setup_s;
    Ok(m)
}

/// Fold a cycle's segments into the fastest repeat of each. Host noise
/// only ever slows a segment, so the fastest repeat is the steadiest
/// estimate of its cost. A cycle whose segments do not line up (an
/// operation failed part-way) is left out.
fn keep_fastest(best: &mut Vec<Segment>, segments: &[Segment]) {
    if best.is_empty() {
        *best = segments.to_vec();
    } else if best.len() == segments.len() {
        for (b, s) in best.iter_mut().zip(segments) {
            b.host_s = b.host_s.min(s.host_s);
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
