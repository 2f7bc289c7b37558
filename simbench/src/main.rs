//! `simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints a human-readable report, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}` carrying the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! Exits 0 when every operation passed its checks, 1 when one failed, and
//! 2 on a usage or set-up error, printing no JSON line.

use simbench::workload::Workload;
use simbench::{measure, report};
use std::process::ExitCode;

const USAGE: &str =
    "usage: simbench --workload <paper-eval|quiet-phased|fleet-churn|observed-faults> \
--seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(simbench::DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One worker thread: the steadiest timing on a small shared host.
    // Fleet outputs are identical at any worker count (tested).
    sim_core::parallel::set_jobs(1);
    // Run inside the package's own output directory, so nothing the
    // simulator might write lands in the repository.
    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    if let Err(e) =
        std::fs::create_dir_all(out_dir).and_then(|()| std::env::set_current_dir(out_dir))
    {
        eprintln!("cannot enter {out_dir}: {e}");
        return ExitCode::from(2);
    }
    let m = match measure(args.workload, args.seed, args.seconds, args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report::human(&m, args.trace));
    if args.trace {
        let path = format!("spans-{}-{}.jsonl", args.workload.name(), args.seed);
        match std::fs::write(&path, m.tracer.to_jsonl()) {
            Ok(()) => println!("spans written to {out_dir}/{path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let metrics = if args.trace {
        report::per_layer(&m)
    } else {
        report::end_to_end(&m)
    };
    println!("{}", report::json_line(&m, &metrics));
    if m.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
