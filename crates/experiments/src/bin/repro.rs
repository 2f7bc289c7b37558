//! Regenerate the paper's tables and figures.
//!
//! ```sh
//! repro all            # everything, paper-scale windows
//! repro fig4 fig8      # a selection
//! repro --quick all    # short windows, for smoke runs
//! repro --csv DIR all  # additionally write one CSV per artifact
//! repro --jobs 1 all   # sequential (identical output, slower)
//! repro --seed 7 all   # override the simulation seed
//! repro --fault-rate 0.05 --fault-seed 1 all   # run under fault injection
//! repro fig-faults     # the robustness sweep (rates swept internally)
//! repro fig-fleet      # the fleet sweep (churn + host failures at scale)
//! ```
//!
//! The total wall-clock time goes to stderr. Results are bit-identical
//! regardless of `--jobs`.

use experiments::report::Table;
use experiments::runner::RunOptions;
use experiments::{
    fig1_remote_ratio, fig3_bounds, fig4_spec, fig5_npb, fig6_memcached, fig7_redis, fig8_period,
    fig_faults, fig_fleet, table3_overhead,
};
use sim_core::{parallel, FaultConfig, SimDuration, SimError};
use std::path::{Path, PathBuf};
use std::time::Instant;

const ARTIFACTS: [&str; 13] = [
    "fig1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table3",
    "fig8",
    "fig-faults",
    "fig-fleet",
    "ext-pagemig",
    "ext-scaling",
    "ext-ablations",
];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = take_flag(&mut args, "--quick");
    let csv_dir = take_value(&mut args, "--csv").map(PathBuf::from);
    let jobs = take_value(&mut args, "--jobs").map(|v| parse_num(&v, "--jobs"));
    let seed = take_value(&mut args, "--seed").map(|v| parse_num(&v, "--seed"));
    let fault_rate = take_value(&mut args, "--fault-rate").map(|v| parse_rate(&v, "--fault-rate"));
    let fault_seed = take_value(&mut args, "--fault-seed").map(|v| parse_num(&v, "--fault-seed"));
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: repro [--quick] [--csv DIR] [--jobs N] [--seed N] \
             [--fault-rate R] [--fault-seed N] all | {}",
            ARTIFACTS.join(" | ")
        );
        std::process::exit(2);
    }
    if let Some(j) = jobs {
        parallel::set_jobs(j as usize);
    }
    // Checked before `all` expands, so a stray flag beside it is an error
    // rather than silently ignored.
    for a in &args {
        if a != "all" && !ARTIFACTS.contains(&a.as_str()) {
            eprintln!("unknown artifact '{a}'; known: {}", ARTIFACTS.join(", "));
            std::process::exit(2);
        }
    }
    let selected: Vec<&str> = if args.iter().any(|a| a == "all") {
        ARTIFACTS.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };

    let mut opts = if quick {
        RunOptions {
            duration: SimDuration::from_secs(10),
            warmup: SimDuration::from_secs(4),
            ..RunOptions::default()
        }
    } else {
        RunOptions {
            duration: SimDuration::from_secs(30),
            warmup: SimDuration::from_secs(10),
            ..RunOptions::default()
        }
    };
    if let Some(s) = seed {
        opts.seed = s;
    }
    if fault_rate.is_some() || fault_seed.is_some() {
        let cfg = FaultConfig::uniform(fault_rate.unwrap_or(0.0), fault_seed.unwrap_or(1));
        if let Err(e) = cfg.validate() {
            eprintln!("{e}");
            std::process::exit(2);
        }
        opts.faults = cfg;
    }

    let total = Instant::now();
    let mut failed: Vec<&str> = Vec::new();
    for name in &selected {
        match generate(name, &opts, quick) {
            Ok((table, extra)) => {
                println!("{}", table.to_text());
                if let Some(dir) = &csv_dir {
                    if let Err(e) = write_outputs(dir, name, &table, extra) {
                        eprintln!("error: {name}: cannot write outputs: {e}");
                        failed.push(name);
                    }
                }
            }
            // A failed artifact doesn't abort the selection: later
            // artifacts still regenerate, and the run exits nonzero.
            Err(e) => {
                eprintln!("error: {name}: {e}");
                failed.push(name);
            }
        }
    }
    let total_s = total.elapsed().as_secs_f64();
    let effective_jobs = parallel::configured_jobs();
    eprintln!("total wall time: {total_s:.2} s ({effective_jobs} jobs)");
    if !failed.is_empty() {
        eprintln!("failed artifacts: {}", failed.join(", "));
        std::process::exit(1);
    }
}

/// Produce a table, plus (for artifacts that have one) a named JSON
/// sidecar written next to the CSV.
fn generate(
    name: &str,
    opts: &RunOptions,
    quick: bool,
) -> Result<(Table, Option<(String, String)>), SimError> {
    let table = match name {
        "fig1" => fig1_remote_ratio::render(&fig1_remote_ratio::run(opts)?),
        "fig3" => fig3_bounds::render(&fig3_bounds::run(opts)?),
        "fig4" => fig4_spec::render(&fig4_spec::run(opts)?, "Fig. 4"),
        "fig5" => fig5_npb::render(&fig5_npb::run(opts)?),
        "fig6" => fig6_memcached::render(&fig6_memcached::run(opts)?),
        "fig7" => fig7_redis::render(&fig7_redis::run(opts)?),
        "table3" => table3_overhead::render(&table3_overhead::run(opts)?),
        "fig8" => fig8_period::render(&fig8_period::run(opts)?),
        "fig-faults" => {
            let points = fig_faults::run(opts)?;
            let json = fig_faults::to_json(&points);
            return Ok((
                fig_faults::render(&points),
                Some(("fig-faults.json".into(), json)),
            ));
        }
        "fig-fleet" => {
            let points = if quick {
                fig_fleet::run_quick(opts)?
            } else {
                fig_fleet::run(opts)?
            };
            let json = fig_fleet::to_json(&points);
            return Ok((
                fig_fleet::render(&points),
                Some(("fig-fleet.json".into(), json)),
            ));
        }
        "ext-pagemig" => experiments::extensions::render_page_migration(
            &experiments::extensions::run_page_migration(opts)?,
        ),
        "ext-scaling" => {
            experiments::extensions::render_scaling(&experiments::extensions::run_scaling(opts)?)
        }
        "ext-ablations" => experiments::extensions::render_ablations(
            &experiments::extensions::run_ablations(opts)?,
        ),
        _ => unreachable!("validated above"),
    };
    Ok((table, None))
}

/// Write the CSV (and optional JSON sidecar) for one artifact.
fn write_outputs(
    dir: &Path,
    name: &str,
    table: &Table,
    extra: Option<(String, String)>,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, table.to_csv())?;
    eprintln!("wrote {}", path.display());
    if let Some((file, contents)) = extra {
        let path = dir.join(file);
        std::fs::write(&path, contents)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn parse_num(v: &str, flag: &str) -> u64 {
    v.parse().unwrap_or_else(|_| {
        eprintln!("{flag} expects a non-negative integer, got '{v}'");
        std::process::exit(2);
    })
}

fn parse_rate(v: &str, flag: &str) -> f64 {
    match v.parse::<f64>() {
        Ok(r) if (0.0..=1.0).contains(&r) => r,
        _ => {
            eprintln!("{flag} expects a probability in [0, 1], got '{v}'");
            std::process::exit(2);
        }
    }
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
