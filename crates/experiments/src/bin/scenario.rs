//! Run a declarative JSON scenario file.
//!
//! ```sh
//! scenario path/to/scenario.json
//! scenario --seed 9 path/to/scenario.json   # override the file's seed
//! scenario --jobs 1 path/to/scenario.json   # worker-thread count
//! scenario --fault-rate 0.05 --fault-seed 1 path/to/scenario.json
//! scenario --print-example
//! ```

use experiments::parallel;
use experiments::scenario::Scenario;
use sim_core::SimError;

const EXAMPLE: &str = r#"{
  "topology": "xeon_e5620",
  "scheduler": "vprobe",
  "duration_s": 20,
  "seed": 7,
  "vms": [
    { "name": "db", "vcpus": 8, "mem_gb": 8, "alloc": "split",
      "workloads": ["redis:4000"] },
    { "name": "cache", "vcpus": 8, "mem_gb": 4,
      "workloads": ["memcached:64"] },
    { "name": "batch", "vcpus": 4, "mem_gb": 4,
      "workloads": ["soplex", "soplex", "soplex", "soplex"] }
  ]
}"#;

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
        "usage: scenario [--jobs N] [--seed N] [--fault-rate R] [--fault-seed N] \
         <file.json> | --print-example"
    );
}

fn run(mut args: Vec<String>) -> Result<(), SimError> {
    if let Some(j) = take_parsed::<usize>(&mut args, "--jobs")? {
        parallel::set_jobs(j);
    }
    let seed = take_parsed::<u64>(&mut args, "--seed")?;
    let fault_rate = take_rate(&mut args, "--fault-rate")?;
    let fault_seed = take_parsed::<u64>(&mut args, "--fault-seed")?;
    match args.as_slice() {
        [flag] if flag == "--print-example" => {
            println!("{EXAMPLE}");
            Ok(())
        }
        [path] => {
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
            let table = scenario.run()?;
            println!("{}", table.to_text());
            Ok(())
        }
        _ => {
            usage();
            std::process::exit(2);
        }
    }
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
