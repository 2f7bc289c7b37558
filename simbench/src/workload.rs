//! The benchmark workloads and the operations they run.
//!
//! One *cycle* runs every operation of a workload once. An operation is
//! one machine run, one fleet run or one export; each yields one output
//! fingerprint and passes or fails its checks on its own.

use crate::probe::{self, Probed, SharedProbe};
use crate::spans::Tracer;
use experiments::runner::{self, RunOptions, Scheduler, SetupKind, ALL_SCHEDULERS};
use experiments::{fig4_spec, fig_fleet};
use fleet::{Fleet, FleetScheduler};
use mem_model::AllocPolicy;
use numa_topo::presets;
use sim_core::{FaultConfig, SimDuration, SimError};
use std::time::{Duration, Instant};
use workloads::{hungry, speccpu};
use xen_sim::{Machine, MachineBuilder, MachineConfig, PerfSnapshot, RunMetrics, VmConfig};

const GB: u64 = 1024 * 1024 * 1024;
/// Uniform fault rate of `observed-faults`.
pub const FAULT_RATE: f64 = 0.05;
/// Trace and provenance ring capacity of `observed-faults`: large enough
/// that no event of a run is evicted.
const SINK_CAPACITY: usize = 2_000_000;
/// The `fig_fleet` smoke regime: 24 hosts for 8 epochs.
const FLEET_HOSTS: usize = 24;
const FLEET_EPOCHS: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperEval,
    QuietPhased,
    FleetChurn,
    ObservedFaults,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperEval,
        Workload::QuietPhased,
        Workload::FleetChurn,
        Workload::ObservedFaults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperEval => "paper-eval",
            Workload::QuietPhased => "quiet-phased",
            Workload::FleetChurn => "fleet-churn",
            Workload::ObservedFaults => "observed-faults",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Which machine an operation builds.
#[derive(Debug, Clone, Copy)]
enum Setup {
    /// The §V-A testbed running `fig4_spec::workload_set()[i]`.
    Paper(usize),
    /// Phase-rich SPEC VMs beside saturated hungry loops, noise off.
    Phased,
}

/// One machine run: a Credit warmup, then the measured window under
/// `scheduler`, one sampling period per `Machine::run` call.
#[derive(Debug, Clone)]
struct MachineRun {
    key: String,
    setup: Setup,
    scheduler: Scheduler,
    faults: bool,
    /// Trace, telemetry and provenance on, plus the exports.
    sinks: bool,
}

/// The outcome of one operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub key: String,
    /// Fingerprint of the operation's output (absent if it never produced
    /// one).
    pub digest: Option<String>,
    pub error: Option<String>,
}

/// One timed piece of a cycle: a `Machine::run` call, a fleet run, or the
/// rest of an operation (set-up, checks, fingerprints, exports). Every
/// cycle of a workload repeats the same computations in the same order,
/// so the i-th segments of two cycles did identical work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    pub host_s: f64,
    /// Simulated machine-seconds the segment advanced (0 for the rest).
    pub sim_s: f64,
}

/// Host seconds spent in segments that advanced simulated time.
pub fn simulating_s(segments: &[Segment]) -> f64 {
    segments
        .iter()
        .filter(|s| s.sim_s > 0.0)
        .map(|s| s.host_s)
        .sum()
}

/// Everything one cycle observed. Counts and simulated quantities are
/// deterministic; `*_s`, `*_ms` and `*_ns` fields are host time.
#[derive(Debug, Default)]
pub struct Cycle {
    pub ops: Vec<Op>,
    pub segments: Vec<Segment>,
    /// Host seconds per machine or fleet run.
    pub run_s: Vec<f64>,
    /// (mix, simulated VM1 instruction-rate gain of vProbe over Credit, %).
    pub gains: Vec<(String, f64)>,
    /// Work-avoidance counters (traced cycles only).
    pub perf: PerfSnapshot,
    pub steal_calls: u64,
    pub steal_hits: u64,
    pub steal_ns: u64,
    pub on_sample_calls: u64,
    pub on_sample_ns: u64,
    pub export_s: f64,
    pub export_bytes: u64,
    pub trace_events: u64,
    pub provenance_records: u64,
    /// Host seconds in `Machine::run` of each sinks-off twin.
    pub sinks_off_s: Vec<f64>,
    pub fleet_run_s: f64,
    pub machine_builds: u64,
    pub host_epochs: u64,
}

impl Cycle {
    /// Close an operation that started at `started` and whose segments
    /// begin at `first`: record its run time, and the time no segment
    /// covered as one more segment.
    fn finish_op(&mut self, started: Instant, first: usize) {
        let run_s = started.elapsed().as_secs_f64();
        let timed: f64 = self.segments[first..].iter().map(|s| s.host_s).sum();
        self.run_s.push(run_s);
        self.segments.push(Segment {
            host_s: (run_s - timed).max(0.0),
            sim_s: 0.0,
        });
    }

    /// Fold a later cycle of the same mode into this one.
    pub fn absorb(&mut self, o: Cycle) {
        self.ops.extend(o.ops);
        self.segments.extend(o.segments);
        self.run_s.extend(o.run_s);
        self.gains.extend(o.gains);
        self.perf.merge(&o.perf);
        self.steal_calls += o.steal_calls;
        self.steal_hits += o.steal_hits;
        self.steal_ns += o.steal_ns;
        self.on_sample_calls += o.on_sample_calls;
        self.on_sample_ns += o.on_sample_ns;
        self.export_s += o.export_s;
        self.export_bytes += o.export_bytes;
        self.trace_events += o.trace_events;
        self.provenance_records += o.provenance_records;
        self.sinks_off_s.extend(o.sinks_off_s);
        self.fleet_run_s += o.fleet_run_s;
        self.machine_builds += o.machine_builds;
        self.host_epochs += o.host_epochs;
    }
}

/// Runs cycles of one workload at one seed. With a tracer, the cycle is
/// traced: spans around every layer call, policies wrapped in
/// [`Probed`], and perf counters on.
pub struct Runner {
    workload: Workload,
    seed: u64,
    probe: SharedProbe,
}

impl Runner {
    pub fn new(workload: Workload, seed: u64) -> Runner {
        Runner {
            workload,
            seed,
            probe: SharedProbe::default(),
        }
    }

    fn machine_runs(&self) -> Vec<MachineRun> {
        let run = |key: String, setup, scheduler, faults, sinks| MachineRun {
            key,
            setup,
            scheduler,
            faults,
            sinks,
        };
        match self.workload {
            Workload::PaperEval => fig4_spec::workload_set()
                .iter()
                .enumerate()
                .flat_map(|(i, (mix, _, _))| {
                    ALL_SCHEDULERS.map(|s| {
                        run(
                            format!("{mix}/{}", s.name()),
                            Setup::Paper(i),
                            s,
                            false,
                            false,
                        )
                    })
                })
                .collect(),
            Workload::QuietPhased => [Scheduler::Credit, Scheduler::VProbe]
                .map(|s| {
                    run(
                        format!("phased/{}", s.name()),
                        Setup::Phased,
                        s,
                        false,
                        false,
                    )
                })
                .to_vec(),
            Workload::FleetChurn => Vec::new(),
            Workload::ObservedFaults => vec![run(
                "soplex/vProbe-GD".into(),
                Setup::Paper(0),
                Scheduler::VProbeGd,
                true,
                true,
            )],
        }
    }

    /// Construct the workload's first machine or fleet: the set-up work
    /// that precedes the first simulated quantum.
    /// Returns when construction finished, before the drop.
    pub fn build_first(&self) -> Result<Instant, SimError> {
        Ok(match self.machine_runs().first() {
            Some(r) => {
                let _m = self.build(r)?;
                Instant::now()
            }
            None => {
                let _f = Fleet::new(self.fleet_config(false))?;
                Instant::now()
            }
        })
    }

    /// Run every operation of the workload once.
    pub fn cycle(&self, mut tracer: Option<&mut Tracer>) -> Cycle {
        let mut c = Cycle::default();
        if self.workload == Workload::FleetChurn {
            self.fleet_run(&mut c, tracer);
            return c;
        }
        // VM1 instruction rate of the current mix's Credit run (Credit
        // runs first in `ALL_SCHEDULERS`).
        let mut credit_rate = None;
        for r in self.machine_runs() {
            let at = c.ops.len();
            if r.scheduler == Scheduler::Credit {
                credit_rate = None;
            }
            let Some(m) = self.machine_run(&r, &mut c, tracer.as_deref_mut()) else {
                continue;
            };
            if let Some(t) = tracer.as_deref_mut().filter(|_| r.sinks) {
                t.begin("sinks_off");
                self.sinks_off_twin(&r, &m, &mut c, at);
                t.end();
            }
            if self.workload != Workload::PaperEval {
                continue;
            }
            let rate = m.per_vm[0].instr_per_second(m.elapsed);
            match r.scheduler {
                Scheduler::Credit => credit_rate = Some(rate),
                Scheduler::VProbe => {
                    let gain = credit_rate.map(|credit| (rate / credit - 1.0) * 100.0);
                    let mix = r.key.split('/').next().unwrap_or_default();
                    // The Fig. 4 shape: vProbe beats Credit on every mix.
                    let error = match gain {
                        Some(g) if g > 0.0 => {
                            c.gains.push((mix.to_string(), g));
                            None
                        }
                        Some(g) => Some(format!("vProbe not faster than Credit ({g:+.2} %)")),
                        None => Some("no Credit run to compare with".to_string()),
                    };
                    if c.ops[at].error.is_none() {
                        c.ops[at].error = error;
                    }
                }
                _ => {}
            }
        }
        c
    }

    fn build(&self, r: &MachineRun) -> Result<Machine, SimError> {
        match r.setup {
            Setup::Paper(i) => {
                let (_, vm1, vm2) = fig4_spec::workload_set().swap_remove(i);
                let opts = RunOptions {
                    seed: self.seed,
                    faults: if r.faults {
                        FaultConfig::uniform(FAULT_RATE, self.seed)
                    } else {
                        FaultConfig::none()
                    },
                    ..RunOptions::default()
                };
                runner::build_machine(Scheduler::Credit, SetupKind::PaperEval, vm1, vm2, &opts)
            }
            Setup::Phased => {
                let cfg = MachineConfig {
                    seed: self.seed,
                    intensity_noise_sd: 0.0,
                    ..MachineConfig::default()
                };
                let spec = |name, w| VmConfig::new(name, 4, 2 * GB, AllocPolicy::MostFree, w);
                MachineBuilder::new(presets::xeon_e5620())
                    .config(cfg)
                    .policy(Scheduler::Credit.policy(2, self.seed))
                    .add_vm(spec(
                        "spec0",
                        vec![
                            speccpu::soplex(),
                            speccpu::mcf(),
                            speccpu::milc(),
                            speccpu::soplex(),
                        ],
                    ))
                    .add_vm(spec(
                        "spec1",
                        vec![
                            speccpu::milc(),
                            speccpu::soplex(),
                            speccpu::mcf(),
                            speccpu::mcf(),
                        ],
                    ))
                    .add_vm(VmConfig::new(
                        "hungry",
                        4,
                        GB,
                        AllocPolicy::MostFree,
                        vec![hungry::hungry_loop(); 4],
                    ))
                    .build()
            }
        }
    }

    fn policy(&self, s: Scheduler, traced: bool) -> Box<dyn xen_sim::SchedPolicy> {
        let p = s.policy(2, self.seed);
        if traced {
            Probed::wrap(p, self.probe.clone())
        } else {
            p
        }
    }

    /// One machine run; returns its metrics when it completed. Records the
    /// run's op (and export ops) into `c`.
    fn machine_run(
        &self,
        r: &MachineRun,
        c: &mut Cycle,
        mut tracer: Option<&mut Tracer>,
    ) -> Option<RunMetrics> {
        let started = Instant::now();
        let first_segment = c.segments.len();
        span(&mut tracer, |t| t.begin("run"));
        let result = self.machine_run_inner(r, c, &mut tracer);
        span(&mut tracer, |t| t.end());
        c.finish_op(started, first_segment);
        match result {
            Ok((digest, metrics, exports)) => {
                c.ops.push(Op {
                    key: r.key.clone(),
                    digest: Some(digest),
                    error: check_metrics(&metrics).err(),
                });
                c.ops.extend(exports);
                Some(metrics)
            }
            Err(e) => {
                c.ops.push(Op {
                    key: r.key.clone(),
                    digest: None,
                    error: Some(e),
                });
                None
            }
        }
    }

    fn machine_run_inner(
        &self,
        r: &MachineRun,
        c: &mut Cycle,
        tracer: &mut Option<&mut Tracer>,
    ) -> Result<(String, RunMetrics, Vec<Op>), String> {
        let traced = tracer.is_some();
        let opts = RunOptions::default();
        span(tracer, |t| t.begin("setup"));
        let built = self.build(r);
        span(tracer, |t| t.end());
        let mut m = built.map_err(|e| format!("build: {e}"))?;
        if traced {
            m.set_policy(self.policy(Scheduler::Credit, true));
            m.enable_perf();
        }
        if r.sinks {
            m.enable_trace(SINK_CAPACITY);
            m.enable_telemetry();
            m.enable_provenance(SINK_CAPACITY);
        }
        span(tracer, |t| t.begin("warmup"));
        let warm = self.periods(&mut m, opts.warmup, opts.sample_period, c, tracer);
        span(tracer, |t| t.end());
        warm?;
        m.set_policy(self.policy(r.scheduler, traced));
        m.reset_metrics();
        span(tracer, |t| t.begin("measure"));
        let measured = self.periods(&mut m, opts.duration, opts.sample_period, c, tracer);
        span(tracer, |t| t.end());
        measured?;

        span(tracer, |t| t.begin("metrics_json"));
        let digest = crate::pins::digest(&fingerprint_json(m.metrics()));
        span(tracer, |t| t.end());

        let mut exports = Vec::new();
        if r.sinks {
            type Export = fn(&Machine) -> String;
            let calls: [(&str, Export); 3] = [
                ("trace.jsonl", Machine::trace_jsonl),
                ("trace.chrome.json", Machine::trace_chrome),
                ("decisions.jsonl", Machine::provenance_jsonl),
            ];
            for (name, export) in calls {
                let t0 = Instant::now();
                span(tracer, |t| t.begin("export"));
                let text = export(&m);
                span(tracer, |t| t.end());
                c.export_s += t0.elapsed().as_secs_f64();
                c.export_bytes += text.len() as u64;
                exports.push(Op {
                    key: format!("{}/{name}", r.key),
                    digest: Some(crate::pins::digest(&text)),
                    error: text.is_empty().then(|| format!("{name} is empty")),
                });
                // Its own segment: short segments find the host's quiet
                // moments more often than one long remainder would.
                c.segments.push(Segment {
                    host_s: t0.elapsed().as_secs_f64(),
                    sim_s: 0.0,
                });
            }
            c.trace_events += m.trace().recorded();
            c.provenance_records += m.provenance().recorded();
        }
        if traced {
            c.perf.merge(&m.perf_snapshot());
        }
        Ok((digest, m.metrics().clone(), exports))
    }

    /// Advance `m` by `total` in `period`-long `Machine::run` calls,
    /// checking the machine's invariants after each.
    fn periods(
        &self,
        m: &mut Machine,
        total: SimDuration,
        period: SimDuration,
        c: &mut Cycle,
        tracer: &mut Option<&mut Tracer>,
    ) -> Result<(), String> {
        for _ in 0..total / period {
            span(tracer, |t| t.begin("period"));
            let t0 = Instant::now();
            m.run(period);
            c.segments.push(Segment {
                host_s: t0.elapsed().as_secs_f64(),
                sim_s: period.as_secs_f64(),
            });
            if let Some(t) = tracer.as_deref_mut() {
                let p = probe::drain(&self.probe);
                for &(a, b) in &p.on_sample {
                    t.child("on_sample", a, b);
                    c.on_sample_ns += b.duration_since(a).as_nanos() as u64;
                }
                c.on_sample_calls += p.on_sample.len() as u64;
                t.aggregate("steal", p.steal_calls, Duration::from_nanos(p.steal_ns));
                c.steal_calls += p.steal_calls;
                c.steal_hits += p.steal_hits;
                c.steal_ns += p.steal_ns;
                t.end();
            }
            m.check_invariants()
                .map_err(|e| format!("invariant broken at {:?}: {e}", m.now()))?;
        }
        Ok(())
    }

    /// Re-run a sinks-on operation with every sink off: times the sinks'
    /// cost and checks they changed no simulated result. The twin's time
    /// stays out of the cycle's segments.
    fn sinks_off_twin(&self, r: &MachineRun, on: &RunMetrics, c: &mut Cycle, at: usize) {
        let quiet = MachineRun {
            sinks: false,
            ..r.clone()
        };
        let mut scratch = Cycle::default();
        let off = self.machine_run(&quiet, &mut scratch, None);
        c.sinks_off_s.push(simulating_s(&scratch.segments));
        let mut on = on.clone();
        on.telemetry = None;
        let same = off.is_some_and(|off| fingerprint_json(&off) == fingerprint_json(&on));
        if !same && c.ops[at].error.is_none() {
            c.ops[at].error = Some("sinks changed the simulated results".into());
        }
    }

    fn fleet_config(&self, perf: bool) -> fleet::FleetConfig {
        let mut cfg = fig_fleet::sweep_config(
            FleetScheduler::VProbe,
            FLEET_HOSTS,
            self.seed,
            FLEET_EPOCHS,
            true,
        );
        cfg.fault_seed = self.seed;
        cfg.perf = perf;
        cfg
    }

    fn fleet_run(&self, c: &mut Cycle, mut tracer: Option<&mut Tracer>) {
        let traced = tracer.is_some();
        let started = Instant::now();
        let first_segment = c.segments.len();
        span(&mut tracer, |t| t.begin("run"));
        let result = (|| {
            span(&mut tracer, |t| t.begin("setup"));
            let built = Fleet::new(self.fleet_config(traced));
            span(&mut tracer, |t| t.end());
            let mut fleet = built.map_err(|e| format!("build: {e}"))?;
            let t0 = Instant::now();
            span(&mut tracer, |t| t.begin("fleet"));
            let ran = fleet.run();
            span(&mut tracer, |t| t.end());
            let run_s = t0.elapsed().as_secs_f64();
            let report = ran.map_err(|e| format!("fleet run: {e}"))?;
            span(&mut tracer, |t| t.begin("metrics_json"));
            let digest = crate::pins::digest(&report.to_json());
            span(&mut tracer, |t| t.end());

            let host_epochs = report.up_epochs_total;
            c.segments.push(Segment {
                host_s: run_s,
                sim_s: host_epochs as f64 * report.epoch_len_s,
            });
            if traced {
                let snap = fleet.perf_snapshot();
                c.machine_builds += snap.hosts;
                c.perf.merge(&snap);
                c.fleet_run_s += run_s;
                c.host_epochs += host_epochs;
            }
            let check = if report.vms_lost != 0 {
                Err(format!("fleet lost {} VMs", report.vms_lost))
            } else if report.total_instructions == 0 || host_epochs == 0 {
                Err("fleet retired no instructions".to_string())
            } else {
                Ok(())
            };
            Ok::<_, String>((digest, check.err()))
        })();
        span(&mut tracer, |t| t.end());
        c.finish_op(started, first_segment);
        let (digest, error) = match result {
            Ok((d, e)) => (Some(d), e),
            Err(e) => (None, Some(e)),
        };
        c.ops.push(Op {
            key: "fleet/vProbe".into(),
            digest,
            error,
        });
    }
}

fn span(tracer: &mut Option<&mut Tracer>, f: impl FnOnce(&mut Tracer)) {
    if let Some(t) = tracer.as_deref_mut() {
        f(t);
    }
}

/// The JSON a run's fingerprint covers: `RunMetrics::to_json` without the
/// perf block, whose counters depend on how the run was chunked.
pub fn fingerprint_json(m: &RunMetrics) -> String {
    if m.perf.is_none() {
        return m.to_json();
    }
    let mut m = m.clone();
    m.perf = None;
    m.to_json()
}

/// Seed-independent checks on a finished run: every VM retired
/// instructions, and every ratio lies in [0, 1].
pub fn check_metrics(m: &RunMetrics) -> Result<(), String> {
    let unit = |x: f64| (0.0..=1.0).contains(&x);
    for (i, vm) in m.per_vm.iter().enumerate() {
        if vm.instructions == 0 {
            return Err(format!("vm{i} retired no instructions"));
        }
        if !unit(vm.remote_ratio()) || vm.llc_misses > vm.llc_refs {
            return Err(format!("vm{i} has a ratio outside [0, 1]"));
        }
    }
    let series_ok = m
        .remote_ratio_series
        .iter()
        .flat_map(|s| s.points())
        .all(|&(_, v)| unit(v));
    if !series_ok {
        return Err("remote-ratio series leaves [0, 1]".into());
    }
    if !unit(m.overhead_percent() / 100.0) {
        return Err(format!(
            "overhead {} % outside [0, 100]",
            m.overhead_percent()
        ));
    }
    Ok(())
}
