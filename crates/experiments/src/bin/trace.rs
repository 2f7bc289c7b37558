//! Run a scenario with tracing + telemetry + provenance enabled and
//! export the trace.
//!
//! ```sh
//! trace path/to/scenario.json                  # writes into the cwd
//! trace --out traces/run1 path/to/scenario.json
//! trace --seed 9 --fault-rate 0.1 --fault-seed 1 path/to/scenario.json
//! trace --trace-cap 500000 path/to/scenario.json
//! trace --print-example
//! ```
//!
//! Produces, under the output directory:
//!
//! * `trace.jsonl` — one JSON event per line (grep/jq-friendly);
//! * `trace.chrome.json` — Chrome Trace Event format; open it at
//!   <https://ui.perfetto.dev> or `chrome://tracing` to see per-PCPU
//!   tracks of which VCPU ran when;
//! * `metrics.json` — the full `RunMetrics` including the `telemetry`
//!   block (per-period counter/gauge/histogram series);
//! * `decisions.jsonl` — one `DecisionRecord` per line: every
//!   placement/steal/partition/page-migration/degrade decision with its
//!   candidate set and the rule that fired (query with the `explain`
//!   binary);
//!
//! and prints the analysis report: steal locality, partition-move churn,
//! fault/degrade audit, and the per-period RPTI classification table.
//! The run's wall-clock is merged into `BENCH_repro.json` under the
//! `trace_tool` key, next to the `repro` sweep timings.

use experiments::benchrec;
use experiments::scenario::Scenario;
use experiments::tracetool;
use sim_core::{Json, SimDuration, SimError};
use std::time::Instant;

const EXAMPLE: &str = r#"{
  "topology": "xeon_e5620",
  "scheduler": "vprobe-gd",
  "duration_s": 10,
  "seed": 7,
  "fault_rate": 0.05,
  "fault_seed": 11,
  "vms": [
    { "name": "spec", "vcpus": 8, "mem_gb": 4,
      "workloads": ["soplex", "mcf", "milc", "soplex", "mcf", "milc"] },
    { "name": "batch", "vcpus": 4, "mem_gb": 4,
      "workloads": ["soplex", "soplex", "soplex", "soplex"] }
  ]
}"#;

const DEFAULT_TRACE_CAP: usize = 2_000_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        std::process::exit(2);
    }
    match run(args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn usage() {
    eprintln!(
        "usage: trace [--out DIR] [--seed N] [--fault-rate R] [--fault-seed N] \
         [--trace-cap N] <file.json> | --print-example"
    );
}

fn run(mut args: Vec<String>) -> Result<(), SimError> {
    let out_dir = take_value(&mut args, "--out")?.unwrap_or_else(|| ".".into());
    let seed = take_parsed::<u64>(&mut args, "--seed")?;
    let fault_rate = take_rate(&mut args, "--fault-rate")?;
    let fault_seed = take_parsed::<u64>(&mut args, "--fault-seed")?;
    let trace_cap = take_parsed::<usize>(&mut args, "--trace-cap")?.unwrap_or(DEFAULT_TRACE_CAP);
    match args.as_slice() {
        [flag] if flag == "--print-example" => {
            println!("{EXAMPLE}");
            Ok(())
        }
        [path] => {
            let path = path.clone();
            trace_one(&path, &out_dir, seed, fault_rate, fault_seed, trace_cap)
        }
        _ => {
            usage();
            std::process::exit(2);
        }
    }
}

fn trace_one(
    path: &str,
    out_dir: &str,
    seed: Option<u64>,
    fault_rate: Option<f64>,
    fault_seed: Option<u64>,
    trace_cap: usize,
) -> Result<(), SimError> {
    let started = Instant::now();
    let json = std::fs::read_to_string(path)
        .map_err(|e| SimError::InvalidConfig(format!("cannot read {path}: {e}")))?;
    let mut scenario = Scenario::from_json(&json)?;
    if let Some(s) = seed {
        scenario.seed = s;
    }
    if let Some(r) = fault_rate {
        scenario.fault_rate = r;
    }
    if let Some(s) = fault_seed {
        scenario.fault_seed = s;
    }
    let mut machine = scenario.build()?;
    machine.enable_trace(trace_cap.max(1));
    machine.enable_telemetry();
    machine.enable_provenance(trace_cap.max(1));
    machine.run(SimDuration::from_secs(scenario.duration_s));

    std::fs::create_dir_all(out_dir)
        .map_err(|e| SimError::InvalidConfig(format!("cannot create {out_dir}: {e}")))?;
    write_out(out_dir, "trace.jsonl", &machine.trace_jsonl())?;
    write_out(out_dir, "trace.chrome.json", &machine.trace_chrome())?;
    write_out(out_dir, "metrics.json", &machine.metrics().to_json())?;
    write_out(out_dir, "decisions.jsonl", &machine.provenance_jsonl())?;

    println!("{}", tracetool::analysis_report(&machine));

    // Scenario files have no engine knob: the trace tool always runs the
    // exact engine, and a scenario's own duration is its "regime".
    let mut fields = benchrec::stamp("full", "exact");
    fields.extend([
        ("scenario".into(), Json::Str(path.into())),
        ("duration_s".into(), Json::from(scenario.duration_s)),
        ("events".into(), Json::from(machine.trace().recorded())),
        (
            "decisions".into(),
            Json::from(machine.provenance().recorded()),
        ),
        (
            "wall_s".into(),
            Json::Num(benchrec::round3(started.elapsed().as_secs_f64())),
        ),
    ]);
    benchrec::record(benchrec::BENCH_FILE, "trace_tool", Json::Obj(fields));
    Ok(())
}

fn write_out(dir: &str, file: &str, contents: &str) -> Result<(), SimError> {
    let p = format!("{dir}/{file}");
    std::fs::write(&p, contents)
        .map_err(|e| SimError::InvalidConfig(format!("cannot write {p}: {e}")))?;
    eprintln!("wrote {p}");
    Ok(())
}

fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, SimError> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    args.remove(i);
    if i < args.len() {
        Ok(Some(args.remove(i)))
    } else {
        Err(SimError::InvalidConfig(format!("{flag} requires a value")))
    }
}

fn take_parsed<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
) -> Result<Option<T>, SimError> {
    match take_value(args, flag)? {
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| SimError::InvalidConfig(format!("{flag}: cannot parse '{v}'"))),
        None => Ok(None),
    }
}

fn take_rate(args: &mut Vec<String>, flag: &str) -> Result<Option<f64>, SimError> {
    match take_parsed::<f64>(args, flag)? {
        Some(r) if (0.0..=1.0).contains(&r) => Ok(Some(r)),
        Some(r) => Err(SimError::InvalidConfig(format!(
            "{flag} expects a probability in [0, 1], got '{r}'"
        ))),
        None => Ok(None),
    }
}
