//! Answer "why" queries against a recorded trace.
//!
//! ```sh
//! explain vm 3 --trace traces/run1            # why is VCPU 3 placed where it is
//! explain vm 3 --at 1500000 --trace traces/run1   # ... as of sim-time 1.5 s
//! explain steal --node 1 --trace traces/run1  # steal-locality breakdown for node 1
//! explain steal --trace traces/run1           # ... machine-wide
//! explain slo --fleet fleet/run1              # who burned evacuation budget and why
//! ```
//!
//! `explain vm` and `explain steal` read `DIR/decisions.jsonl` as written
//! by the `trace` binary (`--trace DIR`, default `.`). `explain slo` reads
//! `DIR/slo.json` and `DIR/spans.jsonl` as written by
//! `fleet --provenance-dir DIR` (`--fleet DIR`, default `.`). Output is a
//! single pretty-printed JSON document on stdout.
//!
//! `--jobs N` is accepted for sweep-harness parity; answers are computed
//! from the recorded files alone, so output is byte-identical for any
//! value.

use experiments::explain;
use sim_core::parallel;
use sim_core::SimError;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
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
        "usage: explain vm <id> [--at T_US] [--trace DIR] [--jobs N]\n\
         \u{20}      explain steal [--node N] [--trace DIR] [--jobs N]\n\
         \u{20}      explain slo [--fleet DIR] [--jobs N]"
    );
}

fn run(mut args: Vec<String>) -> Result<(), SimError> {
    if let Some(j) = take_parsed::<usize>(&mut args, "--jobs")? {
        parallel::set_jobs(j);
    }
    let trace_dir = take_parsed_or(&mut args, "--trace", ".".into())?;
    let fleet_dir = take_parsed_or(&mut args, "--fleet", ".".into())?;
    let answer = match args.first().map(String::as_str) {
        Some("vm") => {
            let at = take_parsed::<u64>(&mut args, "--at")?;
            let [_, id] = args.as_slice() else {
                usage();
                std::process::exit(2);
            };
            let id: u64 = id
                .parse()
                .map_err(|_| SimError::InvalidConfig(format!("vm id: cannot parse '{id}'")))?;
            explain::explain_vm(&read(&trace_dir, "decisions.jsonl")?, id, at)?
        }
        Some("steal") => {
            let node = take_parsed::<u64>(&mut args, "--node")?;
            expect_bare(&args)?;
            explain::explain_steal(&read(&trace_dir, "decisions.jsonl")?, node)?
        }
        Some("slo") => {
            expect_bare(&args)?;
            explain::explain_slo(
                &read(&fleet_dir, "slo.json")?,
                &read(&fleet_dir, "spans.jsonl")?,
            )?
        }
        _ => {
            usage();
            std::process::exit(2);
        }
    };
    println!("{}", answer.to_string_pretty());
    Ok(())
}

/// After flag extraction, only the query word itself may remain.
fn expect_bare(args: &[String]) -> Result<(), SimError> {
    match args.len() {
        1 => Ok(()),
        _ => Err(SimError::InvalidConfig(format!(
            "unexpected argument '{}'",
            args[1]
        ))),
    }
}

fn read(dir: &str, file: &str) -> Result<String, SimError> {
    let p = format!("{dir}/{file}");
    std::fs::read_to_string(&p)
        .map_err(|e| SimError::InvalidConfig(format!("cannot read {p}: {e}")))
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

fn take_parsed_or(args: &mut Vec<String>, flag: &str, default: String) -> Result<String, SimError> {
    Ok(take_value(args, flag)?.unwrap_or(default))
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
