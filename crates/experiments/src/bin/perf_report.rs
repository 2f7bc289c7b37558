//! Print the simulator's work-avoidance report.
//!
//! ```sh
//! perf-report --quick             # 10 s windows + smoke fleet (CI regime)
//! perf-report                     # 30 s windows + bigger fleet
//! perf-report --jobs 1            # sequential; stdout is byte-identical
//! perf-report --seed 7            # different simulated history
//! perf-report --no-fleet         # single-machine scenarios only
//! perf-report --out report.txt    # write the report to a file
//! ```
//!
//! Runs the [`experiments::perfreport`] scenario × engine matrix with
//! perf introspection enabled and prints what the optimization machinery
//! saved: whole-step skip rates, clean-node skips, memo hit rates,
//! demand replays, fixed-point rounds per solving step, and the
//! exact-vs-approx effectiveness deltas.
//!
//! Everything on stdout is a pure function of the simulated execution:
//! byte-identical across `--jobs`, repeated runs, and machines, and
//! summarized by the trailing `counter digest:` line. Wall-clock
//! attribution (real time per scenario/engine cell) goes to stderr and
//! into `BENCH_repro.json` + `BENCH_history.jsonl` — never into the
//! deterministic report.

use experiments::perfreport::{self, ReportOptions};
use experiments::{benchrec, parallel};
use sim_core::Json;
use telemetry::PhaseTimers;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        std::process::exit(2);
    }
    let quick = take_flag(&mut args, "--quick");
    let no_fleet = take_flag(&mut args, "--no-fleet");
    let jobs = take_value(&mut args, "--jobs").map(|v| parse_num(&v, "--jobs"));
    let seed = take_value(&mut args, "--seed").map(|v| parse_num(&v, "--seed"));
    let out = take_value(&mut args, "--out");
    if let Some(a) = args.first() {
        usage();
        eprintln!("unknown argument '{a}'");
        std::process::exit(2);
    }
    if let Some(j) = jobs {
        parallel::set_jobs(j as usize);
    }
    let mut opts = if quick {
        ReportOptions::quick()
    } else {
        ReportOptions::full()
    };
    if let Some(s) = seed {
        opts.seed = s;
    }
    if no_fleet {
        opts.fleet_hosts = 0;
    }

    let mut timers = PhaseTimers::new();
    let points = match perfreport::run(&opts, &mut timers) {
        Ok(points) => points,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let report = perfreport::report_text(&points);
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &report) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {path}");
        }
        None => print!("{report}"),
    }

    // Wall-clock attribution: stderr + best-effort BENCH records only.
    let total_s = timers.total().as_secs_f64();
    eprintln!(
        "wall-clock attribution: {}",
        timers.to_json().to_string_pretty()
    );
    eprintln!("total wall time: {total_s:.2} s");
    record_bench(quick, &points, &timers, total_s);
}

/// Merge this run into `BENCH_repro.json` under `perf_report` and append
/// the same record (with the counter digest) to `BENCH_history.jsonl`.
fn record_bench(quick: bool, points: &[perfreport::PerfPoint], timers: &PhaseTimers, total_s: f64) {
    let regime = if quick { "quick" } else { "full" };
    let mut fields = benchrec::stamp(regime, "exact+approx");
    fields.extend([
        ("jobs".into(), Json::from(parallel::configured_jobs())),
        ("digest".into(), Json::Str(perfreport::digest(points))),
        ("total_wall_s".into(), Json::Num(benchrec::round3(total_s))),
        ("phase_wall".into(), timers.to_json()),
    ]);
    benchrec::record(
        benchrec::BENCH_FILE,
        "perf_report",
        Json::Obj(fields.clone()),
    );
    fields.insert(0, ("bench".into(), Json::Str("perf_report".into())));
    benchrec::append_history(benchrec::HISTORY_FILE, &Json::Obj(fields));
}

fn usage() {
    eprintln!(
        "usage: perf-report [--quick] [--jobs N] [--seed N] [--no-fleet] [--out FILE]\n\
         prints the deterministic work-avoidance report (stdout) and\n\
         wall-clock attribution (stderr + BENCH_repro.json/BENCH_history.jsonl)"
    );
}

fn parse_num(v: &str, flag: &str) -> u64 {
    v.parse().unwrap_or_else(|_| {
        eprintln!("{flag} expects a non-negative integer, got '{v}'");
        std::process::exit(2);
    })
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    args.remove(i);
    if i < args.len() {
        Some(args.remove(i))
    } else {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    }
}
