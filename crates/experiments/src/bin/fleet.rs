//! Run one fleet simulation: N NUMA hosts under churn, host/rack
//! failures, and self-healing placement.
//!
//! ```sh
//! fleet --hosts 100 --epochs 20 --scheduler vprobe        # one run, report on stdout
//! fleet --hosts 100 --crash-rate 0.02 --rack-crash-rate 0.005
//! fleet --hosts 50 --arrivals 2 --depart-rate 0.05        # churn only
//! fleet --hosts 8 --fault-rate 0.1 --fault-seed 3         # per-host PMU faults
//! fleet --hosts 4 --jobs 1 --out fleet.json               # sequential, JSON to a file
//! fleet --hosts 16 --trace-host 3 --trace-out host3.json  # Chrome trace of host 3
//! fleet --hosts 8 --crash-rate 0.1 --provenance-dir prov  # spans + SLO rollup
//! fleet --compare-single                                  # 1-host equivalence check
//! ```
//!
//! `--provenance-dir DIR` enables controller provenance and writes
//! `DIR/spans.jsonl` (admission/evacuation journeys with retry chains),
//! `DIR/fleet.chrome.json` (per-host span tracks for Perfetto), and
//! `DIR/slo.json` (fleet telemetry rollup + evac-latency burn-rate
//! series) after the run; query them with `explain slo --fleet DIR`.
//! The report itself stays byte-identical with or without it.
//!
//! `--compare-single` runs a quiet 1-host fleet and a directly-built
//! single `Machine` with the same seed and workload, and byte-diffs their
//! metrics JSON; any divergence means the fleet layer perturbed the
//! simulation it hosts, and the process exits 1. Every run is
//! seed-deterministic: the report is byte-identical for any `--jobs`.

use experiments::parallel;
use fleet::{Fleet, FleetConfig, FleetScheduler, HostPreset};
use sim_core::{SimDuration, SimError};
use xen_sim::MachineBuilder;

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
        "usage: fleet [--hosts N] [--epochs N] [--epoch-len-ms N] [--scheduler S] \
         [--presets P1,P2,..] [--vms-per-host N] [--seed N] \
         [--arrivals R] [--depart-rate R] \
         [--crash-rate R] [--rack-size N] [--rack-crash-rate R] \
         [--migration-fail-rate R] [--migration-delay-rate R] \
         [--fault-rate R] [--fault-seed N] [--jobs N] [--out FILE] \
         [--trace-host IDX] [--trace-out FILE] [--provenance-dir DIR] \
         [--slo-budget-s S] [--engine E] [--perf-out FILE] [--compare-single]\n\
         schedulers: credit, vprobe, vprobe-gd; presets: xeon-e5620, 4s32c, uma-quad; \
         engines: exact, approx, reference"
    );
}

fn run(mut args: Vec<String>) -> Result<(), SimError> {
    let compare_single = take_flag(&mut args, "--compare-single");
    let hosts = take_parsed(&mut args, "--hosts")?.unwrap_or(if compare_single { 1 } else { 8 });
    let scheduler = match take_value(&mut args, "--scheduler")? {
        Some(s) => FleetScheduler::parse(&s)?,
        None => FleetScheduler::VProbe,
    };
    let mut cfg = FleetConfig::new(hosts, scheduler);
    if let Some(e) = take_parsed(&mut args, "--epochs")? {
        cfg.epochs = e;
    }
    if let Some(ms) = take_parsed(&mut args, "--epoch-len-ms")? {
        cfg.epoch_len = SimDuration::from_millis(ms);
    }
    if let Some(p) = take_value(&mut args, "--presets")? {
        cfg.presets = p
            .split(',')
            .map(HostPreset::parse)
            .collect::<Result<_, _>>()?;
    }
    if let Some(n) = take_parsed(&mut args, "--vms-per-host")? {
        cfg.initial_vms_per_host = n;
    }
    if let Some(s) = take_parsed(&mut args, "--seed")? {
        cfg.seed = s;
    }
    if let Some(r) = take_parsed(&mut args, "--arrivals")? {
        cfg.churn.arrivals_per_epoch = r;
    }
    if let Some(r) = take_parsed(&mut args, "--depart-rate")? {
        cfg.churn.departure_rate = r;
    }
    if let Some(r) = take_parsed(&mut args, "--crash-rate")? {
        cfg.failures.host_crash_rate = r;
    }
    if let Some(n) = take_parsed(&mut args, "--rack-size")? {
        cfg.failures.rack_size = n;
    }
    if let Some(r) = take_parsed(&mut args, "--rack-crash-rate")? {
        cfg.failures.rack_crash_rate = r;
    }
    if let Some(r) = take_parsed(&mut args, "--migration-fail-rate")? {
        cfg.failures.migration_fail_rate = r;
    }
    if let Some(r) = take_parsed(&mut args, "--migration-delay-rate")? {
        cfg.failures.migration_delay_rate = r;
    }
    if let Some(r) = take_parsed(&mut args, "--fault-rate")? {
        cfg.host_fault_rate = r;
    }
    if let Some(s) = take_parsed(&mut args, "--fault-seed")? {
        cfg.fault_seed = s;
    }
    if let Some(j) = take_parsed::<usize>(&mut args, "--jobs")? {
        parallel::set_jobs(j);
    }
    if let Some(s) = take_parsed::<f64>(&mut args, "--slo-budget-s")? {
        cfg.slo_evac_budget_s = s;
    }
    if let Some(e) = take_value(&mut args, "--engine")? {
        cfg.engine = mem_model::EngineSelect::parse(&e).ok_or_else(|| {
            SimError::UnknownName(format!("engine '{e}' (known: exact, approx, reference)"))
        })?;
    }
    let perf_out = take_value(&mut args, "--perf-out")?;
    cfg.perf = perf_out.is_some();
    let out = take_value(&mut args, "--out")?;
    let trace_host = take_parsed::<usize>(&mut args, "--trace-host")?;
    let trace_out = take_value(&mut args, "--trace-out")?;
    let provenance_dir = take_value(&mut args, "--provenance-dir")?;
    if let Some(dir) = &provenance_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| SimError::InvalidConfig(format!("cannot create {dir}: {e}")))?;
    }
    if let Some(a) = args.first() {
        usage();
        return Err(SimError::InvalidConfig(format!("unknown argument '{a}'")));
    }

    if compare_single {
        return compare_single_host(&cfg);
    }

    let mut fleet = Fleet::new(cfg)?;
    if let Some(idx) = trace_host {
        fleet.set_trace_host(idx, 200_000);
    }
    if provenance_dir.is_some() {
        fleet.enable_provenance();
    }
    let report = fleet.run()?;
    let json = report.to_json();
    match out {
        Some(path) => {
            write_file(&path, &json)?;
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    if let Some(dir) = provenance_dir {
        for (file, contents) in [
            ("spans.jsonl", fleet.spans_jsonl()),
            ("fleet.chrome.json", fleet.spans_chrome()),
            ("slo.json", fleet.slo_json()?),
        ] {
            let contents = contents.ok_or_else(|| {
                SimError::InvalidConfig("provenance accessors empty after enable".into())
            })?;
            let p = format!("{dir}/{file}");
            write_file(&p, &contents)?;
            eprintln!("wrote {p}");
        }
    }
    if let Some(path) = perf_out {
        write_file(&path, &format!("{}\n", fleet.perf_json()))?;
        eprintln!("wrote {path}");
    }
    if let (Some(idx), Some(path)) = (trace_host, trace_out) {
        match fleet.hosts().get(idx).and_then(|h| h.machine.as_ref()) {
            Some(m) => {
                write_file(&path, &m.trace_chrome())?;
                eprintln!("wrote {path}");
            }
            None => eprintln!("warning: host {idx} has no live machine to trace"),
        }
    }
    if report.vms_lost != 0 {
        return Err(SimError::InvalidConfig(format!(
            "accounting violation: {} VMs lost",
            report.vms_lost
        )));
    }
    Ok(())
}

/// Byte-diff a quiet 1-host fleet against the equivalent directly-built
/// machine. Exit status is the check result.
fn compare_single_host(cfg: &FleetConfig) -> Result<(), SimError> {
    let mut quiet = cfg.clone();
    quiet.num_hosts = 1;
    quiet.churn = fleet::ChurnConfig::none();
    quiet.failures.host_crash_rate = 0.0;
    quiet.failures.rack_crash_rate = 0.0;
    let mut f = Fleet::new(quiet.clone())?;
    f.run()?;
    let fleet_json = f.host_metrics_json(0).ok_or_else(|| {
        SimError::InvalidConfig("1-host fleet ended without a live machine".into())
    })?;

    // The same simulation built by hand: host 0, generation 0, so the
    // machine seed is exactly the fleet seed, and the whole duration runs
    // in ONE call — the fleet's per-epoch chunking must not be observable.
    let topo = quiet.preset_for(0).topology();
    let num_nodes = topo.num_nodes();
    let faults = if quiet.host_fault_rate > 0.0 {
        sim_core::FaultConfig::uniform(quiet.host_fault_rate, quiet.fault_seed)
    } else {
        sim_core::FaultConfig::none()
    };
    let mut builder = MachineBuilder::new(topo)
        .policy(quiet.scheduler.policy(num_nodes, quiet.seed))
        .sample_period(quiet.epoch_len)
        .seed(quiet.seed)
        .faults(faults)
        .engine(quiet.engine);
    for id in 0..quiet.initial_vms_per_host as u64 {
        let flavor = &quiet.flavors[id as usize % quiet.flavors.len()];
        builder = builder.add_vm(flavor.vm_config(id));
    }
    let mut machine = builder.build()?;
    machine.run(SimDuration::from_micros(
        quiet.epoch_len.as_micros() * quiet.epochs,
    ));
    let single_json = machine.metrics().to_json();

    if fleet_json == single_json {
        println!(
            "OK: 1-host fleet ({} epochs x {} us) is byte-identical to the single-machine run",
            quiet.epochs,
            quiet.epoch_len.as_micros()
        );
        Ok(())
    } else {
        eprintln!("--- fleet host 0 metrics ---\n{fleet_json}");
        eprintln!("--- single machine metrics ---\n{single_json}");
        Err(SimError::InvalidConfig(
            "1-host fleet diverged from the single-machine run".into(),
        ))
    }
}

fn write_file(path: &str, contents: &str) -> Result<(), SimError> {
    std::fs::write(path, contents)
        .map_err(|e| SimError::InvalidConfig(format!("cannot write {path}: {e}")))
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
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
        Some(v) => v.parse().map(Some).map_err(|_| {
            SimError::InvalidConfig(format!("{flag}: cannot parse '{v}'"))
        }),
        None => Ok(None),
    }
}
