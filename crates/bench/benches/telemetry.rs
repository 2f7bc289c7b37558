//! Cost of the telemetry registry: disabled (the default every sweep
//! runs with) versus enabled (counters, histograms, per-period
//! snapshots), and enabled-plus-trace (what the `trace` binary runs).
//!
//! The disabled path is the one that matters for the repro sweeps: every
//! `inc`/`observe` call sites a branch on the enabled flag and nothing
//! else, so disabled must be indistinguishable from the pre-telemetry
//! simulator. The recorded numbers in `BENCH_repro.json` are the audit
//! trail for that claim.

use criterion::{criterion_group, Criterion};
use mem_model::AllocPolicy;
use numa_topo::presets;
use sim_core::{Json, SimDuration};
use workloads::{hungry, npb};
use xen_sim::{CreditPolicy, Machine, MachineBuilder, MachineConfig, VmConfig};

const GB: u64 = 1024 * 1024 * 1024;

/// Telemetry instrumentation to apply to a run.
#[derive(Clone, Copy)]
enum Mode {
    Disabled,
    Enabled,
    EnabledWithTrace,
}

/// A noisy paper-style machine: event-rich (steals, idler
/// wakes, partition moves every period), so the enabled path pays for
/// every instrumented site.
fn noisy_machine(mode: Mode) -> Machine {
    let mut m = MachineBuilder::new(presets::xeon_e5620())
        .config(MachineConfig::default())
        .policy(Box::new(CreditPolicy::new()))
        .add_vm(VmConfig::new("vm1", 8, 8 * GB, AllocPolicy::MostFree, vec![npb::lu()]))
        .add_vm(VmConfig::new("vm2", 8, 5 * GB, AllocPolicy::MostFree, vec![npb::lu()]))
        .add_vm(VmConfig::new(
            "vm3",
            8,
            GB,
            AllocPolicy::MostFree,
            vec![hungry::hungry_loop(); 8],
        ))
        .build()
        .unwrap();
    match mode {
        Mode::Disabled => {}
        Mode::Enabled => m.enable_telemetry(),
        Mode::EnabledWithTrace => {
            m.enable_telemetry();
            m.enable_trace(2_000_000);
        }
    }
    m
}

fn modes(c: &mut Criterion) {
    for (label, mode) in [
        ("disabled", Mode::Disabled),
        ("enabled", Mode::Enabled),
        ("enabled_trace", Mode::EnabledWithTrace),
    ] {
        c.bench_function(&format!("telemetry/noisy_10s/{label}"), |b| {
            b.iter(|| {
                let mut m = noisy_machine(mode);
                m.run(SimDuration::from_secs(10));
                m.metrics().steals
            })
        });
    }
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(10))
        .warm_up_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = telemetry;
    config = config();
    targets = modes
}

/// Median-of-3 wall clock of a 10 s simulated run.
fn timed_s(mode: Mode) -> f64 {
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let mut m = noisy_machine(mode);
            let t = std::time::Instant::now();
            m.run(SimDuration::from_secs(10));
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[1]
}

/// Merge the disabled/enabled/enabled+trace wall clocks into the
/// repo-root `BENCH_repro.json`.
fn record_bench() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_repro.json");
    let disabled_s = timed_s(Mode::Disabled);
    let enabled_s = timed_s(Mode::Enabled);
    let traced_s = timed_s(Mode::EnabledWithTrace);
    let round3 = |s: f64| (s * 1000.0).round() / 1000.0;
    let entry = Json::Obj(vec![
        ("disabled_wall_ms".into(), Json::Num(round3(disabled_s * 1000.0))),
        ("enabled_wall_ms".into(), Json::Num(round3(enabled_s * 1000.0))),
        (
            "enabled_trace_wall_ms".into(),
            Json::Num(round3(traced_s * 1000.0)),
        ),
        (
            "enabled_overhead_pct".into(),
            Json::Num(round3(
                (enabled_s / disabled_s.max(f64::MIN_POSITIVE) - 1.0) * 100.0,
            )),
        ),
    ]);
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .and_then(|j| match j {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        })
        .unwrap_or_default();
    let key = "telemetry_noisy_10s".to_string();
    match doc.iter_mut().find(|(k, _)| *k == key) {
        Some(slot) => slot.1 = entry,
        None => doc.push((key, entry)),
    }
    if let Err(e) = std::fs::write(path, Json::Obj(doc).to_string_pretty()) {
        eprintln!("warning: cannot write {path}: {e}");
    } else {
        eprintln!("recorded telemetry wall clocks in {path}");
    }
}

fn main() {
    telemetry();
    record_bench();
}
