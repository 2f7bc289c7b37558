//! The fleet controller: epoch loop, failure domains, self-healing
//! placement, and the deterministic execution barrier.
//!
//! # Epoch anatomy (the determinism barrier)
//!
//! All cross-host state changes happen single-threaded, in a fixed order,
//! against dedicated forked RNG streams — then hosts step one sampling
//! period in parallel. The order inside the barrier is:
//!
//! 1. **recoveries** — hosts whose down-timer expired come back (index
//!    order);
//! 2. **landings** — finished migration copies become resident VMs (host
//!    index order, arrival order within a host);
//! 3. **crash draws** — rack-correlated draws (rack order) then
//!    independent per-host draws (index order); crashed hosts hand every
//!    resident and in-flight VM to the evacuation queue;
//! 4. **departure churn** — per-VM exit draws (host index order, resident
//!    order);
//! 5. **arrival churn** — one Poisson draw for the count, one flavor draw
//!    each, appended to the admission queue;
//! 6. **placement** — evacuation queue first, then admission, FIFO:
//!    available-space scoring picks a host, migration-fault draws decide
//!    failure/delay, accepted VMs reserve capacity and start their copy;
//!    failures back off exponentially and shed after the retry budget or
//!    queue timeout (recorded — never silently dropped);
//! 7. **rebuilds** — Up hosts whose membership changed rebuild their
//!    `Machine`;
//! 8. **parallel step** — every Up host's machine runs one epoch via the
//!    ordered [`sim_core::parallel::parallel_map`];
//! 9. **telemetry snapshot** — fleet gauges/counters/histograms are
//!    sampled at the epoch-end timestamp.
//!
//! Zero-rate draws are skipped entirely (no RNG consumption), matching the
//! fault injector's discipline, so a zero-churn zero-failure fleet makes
//! *no* controller draws at all.

use crate::config::FleetConfig;
use crate::host::{FleetVm, Host, HostState, IncomingVm};
use crate::metrics::FleetMetrics;
use crate::placement::choose_host;
use sim_core::{parallel, Json, SimError, SimRng, SimTime};
use telemetry::{CounterId, GaugeId, HistogramId, Registry};

/// A VM waiting for placement (fresh arrival or crash evacuee).
#[derive(Debug, Clone)]
pub struct QueuedVm {
    pub vm: FleetVm,
    pub enqueued_epoch: u64,
    /// `Some(epoch)` when the VM was displaced by a crash; drives the
    /// evacuation-latency histogram when it lands.
    pub displaced_epoch: Option<u64>,
    pub retries: u32,
    pub next_attempt_epoch: u64,
    /// Provenance span id for this VM's placement journey; 0 when
    /// provenance is disabled.
    pub span: u64,
}

/// Decision-provenance state for a fleet run: controller spans (admission
/// and evacuation journeys with retry children), the SLO burn-rate series,
/// and per-source-host burn attribution. Pure observation — enabling it
/// draws no RNG and perturbs no placement decision, so every other output
/// stays byte-identical.
struct FleetProvenance {
    spans: telemetry::SpanLog,
    /// Evacuation span id → (source host, rack), for burn attribution at
    /// landing time. Keyed lookup only — never iterated for output.
    evac_src: std::collections::HashMap<u64, (usize, usize)>,
    /// Evac-latency budget consumed per epoch: sum over evacuations landed
    /// that epoch of `latency_s / budget_s`.
    burn_by_epoch: Vec<f64>,
    /// Evacuation-latency seconds attributed to each crashed source host.
    burned_s_by_host: Vec<f64>,
    budget_s: f64,
}

/// Telemetry ids registered once at fleet construction (registration
/// order fixes export order).
#[derive(Debug)]
struct FleetTelemetry {
    crashes: CounterId,
    recoveries: CounterId,
    displaced: CounterId,
    evacuated: CounterId,
    shed: CounterId,
    arrivals: CounterId,
    departures: CounterId,
    placement_failures: CounterId,
    migration_failures: CounterId,
    hosts_up: GaugeId,
    resident_vms: GaugeId,
    queue_depth: GaugeId,
    evac_latency_s: HistogramId,
}

impl FleetTelemetry {
    fn register(reg: &mut Registry) -> Self {
        FleetTelemetry {
            crashes: reg.counter("fleet_crashes"),
            recoveries: reg.counter("fleet_recoveries"),
            displaced: reg.counter("fleet_displaced"),
            evacuated: reg.counter("fleet_evacuated"),
            shed: reg.counter("fleet_shed"),
            arrivals: reg.counter("fleet_arrivals"),
            departures: reg.counter("fleet_departures"),
            placement_failures: reg.counter("fleet_placement_failures"),
            migration_failures: reg.counter("fleet_migration_failures"),
            hosts_up: reg.gauge("fleet_hosts_up"),
            resident_vms: reg.gauge("fleet_resident_vms"),
            queue_depth: reg.gauge("fleet_queue_depth"),
            evac_latency_s: reg.histogram("fleet_evac_latency_s", 0.0, 120.0, 24),
        }
    }
}

/// A running fleet. Construct with [`Fleet::new`], drive with
/// [`Fleet::run`], inspect hosts afterwards (e.g. to export one host's
/// trace).
pub struct Fleet {
    cfg: FleetConfig,
    hosts: Vec<Host>,
    evac_queue: Vec<QueuedVm>,
    admit_queue: Vec<QueuedVm>,
    next_vm_id: u64,
    // Controller RNG streams, forked from the root seed in fixed label
    // order at construction. All draws happen inside the barrier.
    rack_rng: SimRng,
    crash_rng: SimRng,
    recovery_rng: SimRng,
    arrival_rng: SimRng,
    depart_rng: SimRng,
    flavor_rng: SimRng,
    migration_rng: SimRng,
    pub metrics: FleetMetrics,
    registry: Registry,
    tele: FleetTelemetry,
    /// Mirror a host's machine trace/telemetry across rebuilds:
    /// `(host index, trace capacity)`.
    trace_host: Option<(usize, usize)>,
    /// Up hosts stepped per epoch — the shardable width of the parallel
    /// step, a pure function of controller state (never of `--jobs`).
    hosts_stepped: telemetry::BatchHistogram,
    /// Decision provenance; `None` (free) unless enabled.
    prov: Option<FleetProvenance>,
    epochs_run: u64,
}

impl Fleet {
    pub fn new(cfg: FleetConfig) -> Result<Fleet, SimError> {
        cfg.validate()?;
        let mut root = SimRng::seed_from(cfg.seed);
        let rack_rng = root.fork(1);
        let crash_rng = root.fork(2);
        let recovery_rng = root.fork(3);
        let arrival_rng = root.fork(4);
        let depart_rng = root.fork(5);
        let flavor_rng = root.fork(6);
        let migration_rng = root.fork(7);
        let mut registry = Registry::new();
        registry.set_enabled(true);
        let tele = FleetTelemetry::register(&mut registry);
        let mut fleet = Fleet {
            hosts: (0..cfg.num_hosts)
                .map(|i| Host::new(i, cfg.preset_for(i), cfg.rack_of(i)))
                .collect(),
            cfg,
            evac_queue: Vec::new(),
            admit_queue: Vec::new(),
            next_vm_id: 0,
            rack_rng,
            crash_rng,
            recovery_rng,
            arrival_rng,
            depart_rng,
            flavor_rng,
            migration_rng,
            metrics: FleetMetrics::default(),
            registry,
            tele,
            trace_host: None,
            hosts_stepped: telemetry::BatchHistogram::new(),
            prov: None,
            epochs_run: 0,
        };
        fleet.place_initial_vms()?;
        Ok(fleet)
    }

    /// Pre-place `initial_vms_per_host` VMs on every host, flavors cycling
    /// through the catalog in fleet-wide VM-id order (no RNG involved, so
    /// initial state is a pure function of the config).
    fn place_initial_vms(&mut self) -> Result<(), SimError> {
        let per_host = self.cfg.initial_vms_per_host;
        let num_flavors = self.cfg.flavors.len();
        for h in 0..self.hosts.len() {
            for _ in 0..per_host {
                let id = self.next_vm_id;
                self.next_vm_id += 1;
                let flavor_idx = (id as usize) % num_flavors;
                let vm = FleetVm {
                    id,
                    flavor_idx,
                    flavor: self.cfg.flavors[flavor_idx].clone(),
                    arrived_epoch: 0,
                };
                let fits =
                    crate::placement::instances_fit(&self.hosts[h].capacity(&self.cfg.admission), &vm.flavor);
                if fits == 0 {
                    return Err(SimError::ResourceExhausted(format!(
                        "initial VM {id} ({}) does not fit on host {h}",
                        vm.flavor.name
                    )));
                }
                self.hosts[h].admit_resident(vm);
            }
        }
        for h in 0..self.hosts.len() {
            self.rebuild_host(h)?;
        }
        Ok(())
    }

    /// Export one host's machine trace (Chrome Trace Event JSON) and
    /// enable its telemetry registry; survives machine rebuilds.
    pub fn set_trace_host(&mut self, index: usize, capacity: usize) {
        self.trace_host = Some((index, capacity));
        if let Some(m) = self.hosts.get_mut(index).and_then(|h| h.machine.as_mut()) {
            m.enable_trace(capacity);
            m.enable_telemetry();
        }
    }

    /// Enable decision provenance: controller spans for every VM's
    /// admission/evacuation journey (with retry children), the SLO
    /// burn-rate series against [`FleetConfig::slo_evac_budget_s`], and
    /// per-host machine telemetry for the fleet rollup. Call before
    /// [`Fleet::run`]. Observation only: no RNG draws, no decision
    /// changes; `FleetReport` stays byte-identical.
    pub fn enable_provenance(&mut self) {
        self.prov = Some(FleetProvenance {
            spans: telemetry::SpanLog::enabled(),
            evac_src: std::collections::HashMap::new(),
            burn_by_epoch: vec![0.0; self.cfg.epochs as usize],
            burned_s_by_host: vec![0.0; self.hosts.len()],
            budget_s: self.cfg.slo_evac_budget_s,
        });
        for host in &mut self.hosts {
            if let Some(m) = host.machine.as_mut() {
                m.enable_telemetry();
            }
        }
    }

    /// Controller span log as JSONL; `None` unless
    /// [`Fleet::enable_provenance`] was called.
    pub fn spans_jsonl(&self) -> Option<String> {
        self.prov.as_ref().map(|p| p.spans.to_jsonl())
    }

    /// Chrome Trace Event export of the controller spans: one track per
    /// host plus a "queue" track for not-yet-placed work. Open spans are
    /// closed at the end of the run.
    pub fn spans_chrome(&self) -> Option<String> {
        let p = self.prov.as_ref()?;
        let mut tracks: Vec<(u64, String)> = (0..self.hosts.len())
            .map(|i| (i as u64, format!("host{i}")))
            .collect();
        tracks.push((self.hosts.len() as u64, "queue".into()));
        let end_us = self.cfg.epoch_len.as_micros() * self.epochs_run;
        Some(p.spans.to_chrome(&tracks, end_us))
    }

    /// SLO rollup JSON: the evacuation-latency burn-rate series, per-host
    /// burn attribution, and the fleet-wide aggregation of every live
    /// host machine's registry ([`telemetry::try_rollup`]). Host
    /// registries die with their machine on crash/rebuild, so the rollup
    /// covers the *surviving* machine generations — exactly the
    /// population still serving at the end of the run. `Ok(None)` when
    /// provenance is off; `Err` if hosts somehow registered histogram
    /// layouts that cannot be merged (a programming error surfaced
    /// instead of silently mis-added).
    pub fn slo_json(&self) -> Result<Option<String>, SimError> {
        let Some(p) = self.prov.as_ref() else {
            return Ok(None);
        };
        let total_burned: f64 = p.burned_s_by_host.iter().sum();
        let burn_by_epoch: Vec<Json> = p
            .burn_by_epoch
            .iter()
            .enumerate()
            .map(|(e, b)| {
                Json::Obj(vec![
                    ("epoch".into(), Json::from(e)),
                    ("burn".into(), Json::Num(*b)),
                ])
            })
            .collect();
        let burned_by_host: Vec<Json> = p
            .burned_s_by_host
            .iter()
            .enumerate()
            .map(|(h, s)| {
                Json::Obj(vec![
                    ("host".into(), Json::from(h)),
                    ("rack".into(), Json::from(self.hosts[h].rack)),
                    ("burned_s".into(), Json::Num(*s)),
                ])
            })
            .collect();
        let host_docs: Vec<Json> = self
            .hosts
            .iter()
            .filter_map(|h| h.machine.as_ref())
            .filter_map(|m| m.telemetry().export())
            .collect();
        let host_rollup = telemetry::try_rollup(&host_docs).map_err(|e| {
            SimError::InvalidConfig(format!("fleet telemetry rollup: {e}"))
        })?;
        Ok(Some(
            Json::Obj(vec![
                ("budget_s".into(), Json::Num(p.budget_s)),
                ("epochs".into(), Json::from(self.epochs_run)),
                (
                    "epoch_len_s".into(),
                    Json::Num(self.cfg.epoch_len.as_secs_f64()),
                ),
                ("total_burned_s".into(), Json::Num(total_burned)),
                (
                    "total_burn".into(),
                    Json::Num(total_burned / p.budget_s),
                ),
                ("burn_by_epoch".into(), Json::Arr(burn_by_epoch)),
                ("burned_by_host".into(), Json::Arr(burned_by_host)),
                ("hosts_reporting".into(), Json::from(host_docs.len())),
                ("host_rollup".into(), host_rollup),
            ])
            .to_string_pretty(),
        ))
    }

    /// Perf counters merged across every host (each host folds its own
    /// retired machine generations), in host index order, so the result
    /// is byte-deterministic at any `--jobs`. Engine counters are always
    /// maintained; the step statistics are nonzero only when
    /// [`crate::config::FleetConfig::perf`] enabled collection.
    pub fn perf_snapshot(&self) -> xen_sim::PerfSnapshot {
        let mut snap = xen_sim::PerfSnapshot::default();
        for h in &self.hosts {
            snap.merge(&h.perf_snapshot());
        }
        snap
    }

    /// Deterministic fleet perf document: the merged host snapshot plus
    /// epoch shard-balance statistics (Up hosts stepped per epoch — the
    /// shardable width, independent of the worker count).
    pub fn perf_json(&self) -> Json {
        let Json::Obj(mut fields) = self.perf_snapshot().to_json() else {
            unreachable!("snapshot exports an object")
        };
        fields.push(("epochs".into(), Json::from(self.epochs_run)));
        fields.push(("hosts_stepped".into(), self.hosts_stepped.to_json()));
        Json::Obj(fields)
    }

    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// The metrics JSON of one host's live machine (for byte-diffing a
    /// 1-host fleet against the single-machine path).
    pub fn host_metrics_json(&self, index: usize) -> Option<String> {
        self.hosts
            .get(index)?
            .machine
            .as_ref()
            .map(|m| m.metrics().to_json())
    }

    fn rebuild_host(&mut self, index: usize) -> Result<(), SimError> {
        self.hosts[index].rebuild(&self.cfg)?;
        if let Some((ti, cap)) = self.trace_host {
            if ti == index {
                if let Some(m) = self.hosts[index].machine.as_mut() {
                    m.enable_trace(cap);
                    m.enable_telemetry();
                }
            }
        }
        // Provenance keeps every host's registry live so the end-of-run
        // rollup sees the whole surviving fleet.
        if self.prov.is_some() {
            if let Some(m) = self.hosts[index].machine.as_mut() {
                m.enable_telemetry();
            }
        }
        Ok(())
    }

    /// Run the configured number of epochs and produce the report.
    pub fn run(&mut self) -> Result<FleetReport, SimError> {
        for epoch in 0..self.cfg.epochs {
            self.epoch(epoch)?;
        }
        let report = self.report();
        debug_assert_eq!(report.vms_lost, 0, "controller lost track of a VM");
        Ok(report)
    }

    fn epoch(&mut self, e: u64) -> Result<(), SimError> {
        self.recoveries(e);
        self.landings(e);
        self.crashes(e);
        self.departures(e);
        self.arrivals(e);
        self.placement(e);
        for h in 0..self.hosts.len() {
            if self.hosts[h].is_up() && self.hosts[h].dirty {
                self.rebuild_host(h)?;
            }
        }
        self.step_hosts();
        self.snapshot(e);
        self.epochs_run = e + 1;
        Ok(())
    }

    fn recoveries(&mut self, e: u64) {
        for host in &mut self.hosts {
            if let HostState::Down { until_epoch } = host.state {
                if e >= until_epoch {
                    host.recover();
                    self.metrics.recoveries += 1;
                    self.registry.inc(self.tele.recoveries, 1);
                }
            }
        }
    }

    fn landings(&mut self, e: u64) {
        let epoch_s = self.cfg.epoch_len.as_secs_f64();
        let t_us = self.cfg.epoch_len.as_micros() * e;
        for host in &mut self.hosts {
            if !host.is_up() {
                continue;
            }
            let mut still_in_flight = Vec::new();
            for inc in std::mem::take(&mut host.incoming) {
                if inc.lands_epoch <= e {
                    match inc.displaced_epoch {
                        Some(d) => {
                            let latency = (e - d) as f64 * epoch_s;
                            self.metrics.evacuated += 1;
                            self.metrics.evac_latency_s.push(latency);
                            self.registry.inc(self.tele.evacuated, 1);
                            self.registry.observe(self.tele.evac_latency_s, latency);
                            if let Some(p) = &mut self.prov {
                                if inc.span != 0 {
                                    p.spans.annotate(inc.span, "dst_host", Json::from(host.index));
                                    p.spans.annotate(inc.span, "latency_s", Json::Num(latency));
                                    p.spans.annotate(inc.span, "outcome", Json::from("landed"));
                                    p.spans.end(inc.span, t_us);
                                    if let Some(&(src, _)) = p.evac_src.get(&inc.span) {
                                        p.burned_s_by_host[src] += latency;
                                    }
                                }
                                if let Some(b) = p.burn_by_epoch.get_mut(e as usize) {
                                    *b += latency / p.budget_s;
                                }
                            }
                        }
                        None => {
                            self.metrics.admitted += 1;
                            if let Some(p) = &mut self.prov {
                                if inc.span != 0 {
                                    p.spans.annotate(inc.span, "dst_host", Json::from(host.index));
                                    p.spans.annotate(inc.span, "outcome", Json::from("landed"));
                                    p.spans.end(inc.span, t_us);
                                }
                            }
                        }
                    }
                    host.admit_resident(inc.vm);
                } else {
                    still_in_flight.push(inc);
                }
            }
            host.incoming = still_in_flight;
        }
    }

    fn crashes(&mut self, e: u64) {
        let fail = &self.cfg.failures;
        let mut crashing: Vec<usize> = Vec::new();
        // Correlated failure domains first: one draw per rack, in rack
        // order, taking down every Up host in the rack together.
        if fail.rack_crash_rate > 0.0 {
            for rack in 0..self.cfg.num_racks() {
                if self.rack_rng.chance(fail.rack_crash_rate) {
                    self.metrics.rack_crashes += 1;
                    crashing.extend(
                        self.hosts
                            .iter()
                            .filter(|h| h.rack == rack && h.is_up())
                            .map(|h| h.index),
                    );
                }
            }
        }
        // Independent per-host failures, skipping hosts already going down.
        if fail.host_crash_rate > 0.0 {
            for h in 0..self.hosts.len() {
                if self.hosts[h].is_up()
                    && !crashing.contains(&h)
                    && self.crash_rng.chance(fail.host_crash_rate)
                {
                    crashing.push(h);
                }
            }
        }
        crashing.sort_unstable();
        for h in crashing {
            let down_for = self
                .recovery_rng
                .exponential(fail.recovery_epochs_mean)
                .round()
                .max(1.0) as u64;
            let (vms, in_flight) = self.hosts[h].crash(e + down_for);
            self.metrics.crashes += 1;
            self.registry.inc(self.tele.crashes, 1);
            // A copy that is already an evacuation was counted when its VM
            // was first displaced, and it can land only once; only the
            // residents and in-flight admissions are new displacements.
            let new_in_flight = in_flight.iter().filter(|i| i.displaced_epoch.is_none()).count();
            let displaced_now = (vms.len() + new_in_flight) as u64;
            self.metrics.displaced += displaced_now;
            self.registry.inc(self.tele.displaced, displaced_now);
            let rack = self.hosts[h].rack;
            let t_us = self.cfg.epoch_len.as_micros() * e;
            for vm in vms {
                let span = match &mut self.prov {
                    Some(p) => {
                        let sid = p.spans.begin(
                            &format!("evacuation vm{}", vm.id),
                            h as u64,
                            t_us,
                            None,
                        );
                        p.spans.annotate(sid, "src_host", Json::from(h));
                        p.spans.annotate(sid, "rack", Json::from(rack));
                        p.evac_src.insert(sid, (h, rack));
                        sid
                    }
                    None => 0,
                };
                self.evac_queue.push(QueuedVm {
                    vm,
                    enqueued_epoch: e,
                    displaced_epoch: Some(e),
                    retries: 0,
                    next_attempt_epoch: e,
                    span,
                });
            }
            // In-flight copies died with their target; they re-queue as
            // evacuations too (their copy work is lost), keeping any
            // earlier displacement timestamp so latency spans the whole
            // outage.
            for inc in in_flight {
                let span = match &mut self.prov {
                    Some(p) => {
                        // Keep the VM's existing journey span (admission
                        // spans turn into evacuations here) and mark the
                        // lost copy as a child.
                        let sid = if inc.span != 0 {
                            inc.span
                        } else {
                            p.spans.begin(
                                &format!("evacuation vm{}", inc.vm.id),
                                h as u64,
                                t_us,
                                None,
                            )
                        };
                        let child = p.spans.begin("copy-lost", h as u64, t_us, Some(sid));
                        p.spans.annotate(child, "reason", Json::from("target-crashed"));
                        p.spans.end(child, t_us);
                        p.evac_src.entry(sid).or_insert((h, rack));
                        sid
                    }
                    None => 0,
                };
                self.evac_queue.push(QueuedVm {
                    vm: inc.vm,
                    enqueued_epoch: e,
                    displaced_epoch: Some(inc.displaced_epoch.unwrap_or(e)),
                    retries: 0,
                    next_attempt_epoch: e,
                    span,
                });
            }
        }
    }

    fn departures(&mut self, e: u64) {
        let rate = self.cfg.churn.departure_rate;
        if rate <= 0.0 {
            return;
        }
        let _ = e;
        for host in &mut self.hosts {
            if !host.is_up() {
                continue;
            }
            let leaving: Vec<u64> = host
                .vms
                .iter()
                .filter(|_| self.depart_rng.chance(rate))
                .map(|v| v.id)
                .collect();
            for id in leaving {
                host.remove_vm(id);
                self.metrics.departures += 1;
                self.registry.inc(self.tele.departures, 1);
            }
        }
    }

    fn arrivals(&mut self, e: u64) {
        let lambda = self.cfg.churn.arrivals_per_epoch;
        if lambda <= 0.0 {
            return;
        }
        let n = self.arrival_rng.poisson(lambda);
        self.metrics.arrivals += n;
        self.registry.inc(self.tele.arrivals, n);
        for _ in 0..n {
            let flavor_idx = self
                .flavor_rng
                .index(self.cfg.flavors.len())
                .expect("validated non-empty catalog");
            let id = self.next_vm_id;
            self.next_vm_id += 1;
            let span = match &mut self.prov {
                Some(p) => {
                    let sid = p.spans.begin(
                        &format!("admission vm{id}"),
                        self.hosts.len() as u64,
                        self.cfg.epoch_len.as_micros() * e,
                        None,
                    );
                    p.spans.annotate(
                        sid,
                        "flavor",
                        Json::from(self.cfg.flavors[flavor_idx].name),
                    );
                    sid
                }
                None => 0,
            };
            self.admit_queue.push(QueuedVm {
                vm: FleetVm {
                    id,
                    flavor_idx,
                    flavor: self.cfg.flavors[flavor_idx].clone(),
                    arrived_epoch: e,
                },
                enqueued_epoch: e,
                displaced_epoch: None,
                retries: 0,
                next_attempt_epoch: e,
                span,
            });
        }
    }

    fn placement(&mut self, e: u64) {
        let evac = std::mem::take(&mut self.evac_queue);
        self.evac_queue = self.place_queue(e, evac, true);
        let admit = std::mem::take(&mut self.admit_queue);
        self.admit_queue = self.place_queue(e, admit, false);
    }

    /// One placement pass over a queue (FIFO). Returns the entries that
    /// stay queued; sheds on timeout or retry exhaustion.
    fn place_queue(&mut self, e: u64, queue: Vec<QueuedVm>, is_evac: bool) -> Vec<QueuedVm> {
        let adm = self.cfg.admission;
        let fail = self.cfg.failures;
        let mut kept = Vec::new();
        for mut q in queue {
            if e - q.enqueued_epoch >= adm.queue_timeout_epochs {
                self.end_span_shed(q.span, e, "shed-timeout");
                self.shed(is_evac);
                continue;
            }
            if q.next_attempt_epoch > e {
                kept.push(q);
                continue;
            }
            self.metrics.placement_attempts += 1;
            let chosen = choose_host(&self.hosts, &q.vm.flavor, &adm);
            let Some(h) = chosen else {
                self.metrics.placement_failures += 1;
                self.registry.inc(self.tele.placement_failures, 1);
                if !self.backoff(&mut q, e, &adm) {
                    self.end_span_shed(q.span, e, "shed-retries");
                    self.shed(is_evac);
                    continue;
                }
                self.retry_child(&q, e, "no-host");
                kept.push(q);
                continue;
            };
            // The copy can fail outright or run degraded; both draws live
            // on the dedicated migration stream, skipped at rate 0.
            if fail.migration_fail_rate > 0.0 && self.migration_rng.chance(fail.migration_fail_rate)
            {
                self.metrics.migration_failures += 1;
                self.registry.inc(self.tele.migration_failures, 1);
                if !self.backoff(&mut q, e, &adm) {
                    self.end_span_shed(q.span, e, "shed-retries");
                    self.shed(is_evac);
                    continue;
                }
                self.retry_child(&q, e, "migration-fault");
                kept.push(q);
                continue;
            }
            let mut copy_epochs = if fail.copy_bandwidth_bytes_per_epoch == 0 {
                1
            } else {
                q.vm.flavor
                    .mem_bytes
                    .div_ceil(fail.copy_bandwidth_bytes_per_epoch)
                    .max(1)
            };
            if fail.migration_delay_rate > 0.0 && self.migration_rng.chance(fail.migration_delay_rate)
            {
                copy_epochs *= 2;
                self.metrics.migrations_delayed += 1;
            }
            if let Some(p) = &mut self.prov {
                if q.span != 0 {
                    // The journey moves onto the destination host's track
                    // once the copy is accepted.
                    p.spans.set_track(q.span, h as u64);
                }
            }
            self.hosts[h].incoming.push(IncomingVm {
                vm: q.vm,
                lands_epoch: e + copy_epochs,
                displaced_epoch: q.displaced_epoch,
                span: q.span,
            });
        }
        kept
    }

    /// Close a journey span for a VM that was shed (timeout or retry
    /// exhaustion). No-op when provenance is off or the span is 0.
    fn end_span_shed(&mut self, span: u64, e: u64, reason: &'static str) {
        if let Some(p) = &mut self.prov {
            if span != 0 {
                let t_us = self.cfg.epoch_len.as_micros() * e;
                p.spans.annotate(span, "outcome", Json::from(reason));
                p.spans.end(span, t_us);
            }
        }
    }

    /// Record one failed placement attempt as a child span covering the
    /// backoff window (attempt epoch → next attempt).
    fn retry_child(&mut self, q: &QueuedVm, e: u64, reason: &'static str) {
        if let Some(p) = &mut self.prov {
            if q.span != 0 {
                let us = self.cfg.epoch_len.as_micros();
                let child = p.spans.begin(
                    "retry",
                    self.hosts.len() as u64,
                    us * e,
                    Some(q.span),
                );
                p.spans.annotate(child, "reason", Json::from(reason));
                p.spans.annotate(child, "attempt", Json::from(q.retries as u64));
                p.spans.end(child, us * q.next_attempt_epoch);
            }
        }
    }

    /// Exponential backoff; returns `false` when the retry budget is
    /// exhausted (the caller sheds the VM).
    fn backoff(&self, q: &mut QueuedVm, e: u64, adm: &crate::config::AdmissionConfig) -> bool {
        q.retries += 1;
        if q.retries > adm.max_retries {
            return false;
        }
        let shift = (q.retries - 1).min(16);
        q.next_attempt_epoch = e + adm.backoff_epochs.saturating_mul(1 << shift).max(1);
        true
    }

    fn shed(&mut self, is_evac: bool) {
        if is_evac {
            self.metrics.shed_evacuation += 1;
        } else {
            self.metrics.shed_admission += 1;
        }
        self.registry.inc(self.tele.shed, 1);
    }

    /// Advance every Up host's machine one epoch, sharded over the
    /// process-wide worker pool. Results return in input order, and each
    /// machine is a pure function of its own state, so output is
    /// byte-identical for any job count.
    fn step_hosts(&mut self) {
        let epoch_len = self.cfg.epoch_len;
        let mut stepping: Vec<(usize, xen_sim::Machine)> = Vec::new();
        for host in &mut self.hosts {
            match host.state {
                HostState::Up => {
                    host.up_epochs += 1;
                    if let Some(m) = host.machine.take() {
                        stepping.push((host.index, m));
                    }
                }
                HostState::Down { .. } => {
                    host.down_epochs += 1;
                    self.metrics.host_down_epochs += 1;
                }
            }
        }
        if !stepping.is_empty() {
            self.hosts_stepped.observe(stepping.len() as u64);
        }
        let stepped = parallel::parallel_map(stepping, move |(idx, mut machine)| {
            machine.run(epoch_len);
            (idx, machine)
        });
        for (idx, machine) in stepped {
            self.hosts[idx].machine = Some(machine);
        }
        // SLO integral: every displaced VM still waiting (queued or
        // mid-copy) is degraded for this epoch.
        let in_flight_evac = self.in_flight_evac();
        self.metrics.degraded_vm_epochs += self.evac_queue.len() as u64 + in_flight_evac;
    }

    fn snapshot(&mut self, e: u64) {
        let up = self.hosts.iter().filter(|h| h.is_up()).count();
        let resident: usize = self.hosts.iter().map(|h| h.vms.len()).sum();
        let queued = self.evac_queue.len() + self.admit_queue.len();
        self.registry.set_gauge(self.tele.hosts_up, up as f64);
        self.registry.set_gauge(self.tele.resident_vms, resident as f64);
        self.registry.set_gauge(self.tele.queue_depth, queued as f64);
        self.registry
            .snapshot(SimTime::from_micros(self.cfg.epoch_len.as_micros() * (e + 1)));
    }

    fn in_flight_evac(&self) -> u64 {
        self.hosts
            .iter()
            .flat_map(|h| &h.incoming)
            .filter(|i| i.displaced_epoch.is_some())
            .count() as u64
    }

    /// Assemble the end-of-run report.
    pub fn report(&self) -> FleetReport {
        let in_flight_evac = self.in_flight_evac();
        let in_flight_admit = self
            .hosts
            .iter()
            .flat_map(|h| &h.incoming)
            .filter(|i| i.displaced_epoch.is_none())
            .count() as u64;
        let pending_evac = self.evac_queue.len() as u64;
        let pending_admit = self.admit_queue.len() as u64;
        let total_instructions: u64 = self.hosts.iter().map(Host::total_instructions).sum();
        let total_busy_us: f64 = self.hosts.iter().map(Host::total_busy_us).sum();
        let up_epochs_total: u64 = self.hosts.iter().map(|h| h.up_epochs).sum();
        let epoch_s = self.cfg.epoch_len.as_secs_f64();
        FleetReport {
            scheduler: self.cfg.scheduler.name(),
            num_hosts: self.cfg.num_hosts,
            num_racks: self.cfg.num_racks(),
            seed: self.cfg.seed,
            epochs: self.epochs_run,
            epoch_len_s: epoch_s,
            metrics: self.metrics.clone(),
            hosts_up_end: self.hosts.iter().filter(|h| h.is_up()).count(),
            resident_vms_end: self.hosts.iter().map(|h| h.vms.len()).sum(),
            pending_evac,
            pending_admit,
            in_flight_evac,
            in_flight_admit,
            vms_lost: self.metrics.vms_lost(pending_evac, in_flight_evac),
            total_instructions,
            total_busy_us,
            up_epochs_total,
            instr_per_host_up_s: if up_epochs_total == 0 {
                0.0
            } else {
                total_instructions as f64 / (up_epochs_total as f64 * epoch_s)
            },
            degraded_vm_minutes: self.metrics.degraded_vm_epochs as f64 * epoch_s / 60.0,
            telemetry: self.registry.export(),
        }
    }
}

/// End-of-run summary: SLO counters, throughput, accounting, and the
/// fleet telemetry export.
#[derive(Debug, Clone)]
pub struct FleetReport {
    pub scheduler: &'static str,
    pub num_hosts: usize,
    pub num_racks: usize,
    pub seed: u64,
    pub epochs: u64,
    pub epoch_len_s: f64,
    pub metrics: FleetMetrics,
    pub hosts_up_end: usize,
    pub resident_vms_end: usize,
    pub pending_evac: u64,
    pub pending_admit: u64,
    pub in_flight_evac: u64,
    pub in_flight_admit: u64,
    /// Displaced VMs unaccounted for — nonzero is a controller bug.
    pub vms_lost: i64,
    pub total_instructions: u64,
    pub total_busy_us: f64,
    pub up_epochs_total: u64,
    /// Fleet throughput normalized by host uptime: instructions per
    /// host-up-second (comparable across fleet sizes and outage levels).
    pub instr_per_host_up_s: f64,
    pub degraded_vm_minutes: f64,
    pub telemetry: Option<Json>,
}

impl FleetReport {
    /// Serialize with stable key order (byte-identical across runs of the
    /// same seed, for golden diffs).
    pub fn to_json(&self) -> String {
        let m = &self.metrics;
        let mut fields = vec![
            ("scheduler".into(), Json::from(self.scheduler)),
            ("num_hosts".into(), Json::from(self.num_hosts)),
            ("num_racks".into(), Json::from(self.num_racks)),
            ("seed".into(), Json::from(self.seed)),
            ("epochs".into(), Json::from(self.epochs)),
            ("epoch_len_s".into(), Json::Num(self.epoch_len_s)),
            ("crashes".into(), Json::from(m.crashes)),
            ("rack_crashes".into(), Json::from(m.rack_crashes)),
            ("recoveries".into(), Json::from(m.recoveries)),
            ("displaced".into(), Json::from(m.displaced)),
            ("evacuated".into(), Json::from(m.evacuated)),
            ("shed_evacuation".into(), Json::from(m.shed_evacuation)),
            ("shed_admission".into(), Json::from(m.shed_admission)),
            ("arrivals".into(), Json::from(m.arrivals)),
            ("departures".into(), Json::from(m.departures)),
            ("admitted".into(), Json::from(m.admitted)),
            ("placement_attempts".into(), Json::from(m.placement_attempts)),
            ("placement_failures".into(), Json::from(m.placement_failures)),
            ("migration_failures".into(), Json::from(m.migration_failures)),
            ("migrations_delayed".into(), Json::from(m.migrations_delayed)),
            ("degraded_vm_epochs".into(), Json::from(m.degraded_vm_epochs)),
            ("degraded_vm_minutes".into(), Json::Num(self.degraded_vm_minutes)),
            ("host_down_epochs".into(), Json::from(m.host_down_epochs)),
            ("evac_latency_mean_s".into(), Json::Num(m.evac_latency_s.mean())),
            (
                "evac_latency_max_s".into(),
                Json::Num(m.evac_latency_s.max().unwrap_or(0.0)),
            ),
            ("hosts_up_end".into(), Json::from(self.hosts_up_end)),
            ("resident_vms_end".into(), Json::from(self.resident_vms_end)),
            ("pending_evac".into(), Json::from(self.pending_evac)),
            ("pending_admit".into(), Json::from(self.pending_admit)),
            ("in_flight_evac".into(), Json::from(self.in_flight_evac)),
            ("in_flight_admit".into(), Json::from(self.in_flight_admit)),
            ("vms_lost".into(), Json::from(self.vms_lost as f64)),
            ("total_instructions".into(), Json::from(self.total_instructions)),
            ("total_busy_us".into(), Json::Num(self.total_busy_us)),
            ("up_epochs_total".into(), Json::from(self.up_epochs_total)),
            ("instr_per_host_up_s".into(), Json::Num(self.instr_per_host_up_s)),
        ];
        if let Some(t) = &self.telemetry {
            fields.push(("telemetry".into(), t.clone()));
        }
        Json::Obj(fields).to_string_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FleetScheduler, HostPreset};
    use sim_core::SimDuration;

    fn small_cfg(hosts: usize) -> FleetConfig {
        let mut cfg = FleetConfig::new(hosts, FleetScheduler::Credit);
        cfg.epochs = 4;
        cfg.epoch_len = SimDuration::from_secs(1);
        cfg.initial_vms_per_host = 1;
        cfg
    }

    #[test]
    fn quiet_fleet_runs_and_accounts() {
        let mut fleet = Fleet::new(small_cfg(3)).unwrap();
        let report = fleet.run().unwrap();
        assert_eq!(report.vms_lost, 0);
        assert_eq!(report.metrics.crashes, 0);
        assert_eq!(report.hosts_up_end, 3);
        assert_eq!(report.resident_vms_end, 3);
        assert!(report.total_instructions > 0);
        assert!(report.instr_per_host_up_s > 0.0);
    }

    #[test]
    fn quiet_fleet_makes_no_controller_draws() {
        // Two quiet runs interleaved with an extra dummy fleet must agree:
        // determinism does not hinge on RNG stream positions because no
        // stream is touched.
        let a = Fleet::new(small_cfg(2)).unwrap().run().unwrap().to_json();
        let b = Fleet::new(small_cfg(2)).unwrap().run().unwrap().to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn crashes_displace_and_evacuate() {
        let mut cfg = small_cfg(4);
        cfg.epochs = 10;
        cfg.failures.host_crash_rate = 0.3;
        cfg.failures.recovery_epochs_mean = 2.0;
        let mut fleet = Fleet::new(cfg).unwrap();
        let report = fleet.run().unwrap();
        assert!(report.metrics.crashes > 0, "30% over 40 host-epochs must crash");
        assert!(report.metrics.displaced > 0);
        assert_eq!(report.vms_lost, 0, "every displaced VM accounted for");
        assert!(
            report.metrics.evacuated > 0,
            "with spare capacity evacuations must land"
        );
    }

    #[test]
    fn rack_failure_takes_whole_rack_down() {
        let mut cfg = small_cfg(4);
        cfg.epochs = 1;
        cfg.failures.rack_size = 4;
        cfg.failures.rack_crash_rate = 1.0;
        cfg.failures.recovery_epochs_mean = 50.0;
        let mut fleet = Fleet::new(cfg).unwrap();
        let report = fleet.run().unwrap();
        assert_eq!(report.metrics.rack_crashes, 1);
        assert_eq!(report.metrics.crashes, 4, "all four hosts share the rack");
        assert_eq!(report.hosts_up_end, 0);
        // Nowhere to evacuate: everything pending or shed, nothing lost.
        assert_eq!(report.vms_lost, 0);
        assert_eq!(report.metrics.evacuated, 0);
    }

    #[test]
    fn capacity_exhaustion_sheds_instead_of_panicking() {
        let mut cfg = small_cfg(1);
        cfg.presets = vec![HostPreset::UmaQuad];
        cfg.initial_vms_per_host = 1;
        // Catalog trimmed to the small flavor so the single tiny host fills.
        cfg.flavors = vec![crate::config::VmFlavor::catalog().remove(2)];
        cfg.epochs = 30;
        cfg.churn.arrivals_per_epoch = 3.0;
        cfg.admission.queue_timeout_epochs = 4;
        cfg.admission.max_retries = 2;
        let mut fleet = Fleet::new(cfg).unwrap();
        let report = fleet.run().unwrap();
        assert!(report.metrics.arrivals > 0);
        assert!(
            report.metrics.shed_admission > 0,
            "a full fleet must shed, not panic: {report:?}"
        );
        assert_eq!(report.vms_lost, 0);
    }

    #[test]
    fn churn_fleet_is_deterministic_across_jobs() {
        let mut cfg = small_cfg(4);
        cfg.epochs = 8;
        cfg.churn.arrivals_per_epoch = 1.0;
        cfg.churn.departure_rate = 0.05;
        cfg.failures.host_crash_rate = 0.1;
        cfg.failures.migration_fail_rate = 0.2;
        let baseline = {
            parallel::set_jobs(1);
            let mut fleet = Fleet::new(cfg.clone()).unwrap();
            let r = fleet.run().unwrap().to_json();
            parallel::set_jobs(0);
            r
        };
        for jobs in [2, 5] {
            parallel::set_jobs(jobs);
            let mut fleet = Fleet::new(cfg.clone()).unwrap();
            let got = fleet.run().unwrap().to_json();
            parallel::set_jobs(0);
            assert_eq!(got, baseline, "jobs={jobs} must be byte-identical");
        }
    }

    #[test]
    fn report_json_is_stable_and_parses() {
        let mut fleet = Fleet::new(small_cfg(2)).unwrap();
        let report = fleet.run().unwrap();
        let json = report.to_json();
        let doc = Json::parse(&json).unwrap();
        assert_eq!(doc.get("num_hosts").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("vms_lost").unwrap().as_f64(), Some(0.0));
        assert!(doc.get("telemetry").is_some(), "registry export present");
        assert_eq!(json, report.to_json());
    }

    #[test]
    fn single_host_quiet_fleet_matches_single_machine() {
        // The acceptance bar for the fleet layer: hosting a machine inside
        // the fleet (epoch-chunked stepping, generation-0 seed) must not
        // perturb the simulation at all.
        let mut cfg = small_cfg(1);
        cfg.scheduler = FleetScheduler::VProbe;
        cfg.epochs = 5;
        cfg.initial_vms_per_host = 2;
        let mut fleet = Fleet::new(cfg.clone()).unwrap();
        fleet.run().unwrap();
        let fleet_json = fleet.host_metrics_json(0).unwrap();

        let topo = cfg.preset_for(0).topology();
        let num_nodes = topo.num_nodes();
        let mut builder = xen_sim::MachineBuilder::new(topo)
            .policy(cfg.scheduler.policy(num_nodes, cfg.seed))
            .sample_period(cfg.epoch_len)
            .seed(cfg.seed)
            .engine(cfg.engine);
        for id in 0..cfg.initial_vms_per_host as u64 {
            let flavor = &cfg.flavors[id as usize % cfg.flavors.len()];
            builder = builder.add_vm(flavor.vm_config(id));
        }
        let mut machine = builder.build().unwrap();
        machine.run(sim_core::SimDuration::from_micros(
            cfg.epoch_len.as_micros() * cfg.epochs,
        ));
        assert_eq!(fleet_json, machine.metrics().to_json());
    }

    fn churny_cfg() -> FleetConfig {
        let mut cfg = small_cfg(4);
        cfg.epochs = 10;
        cfg.churn.arrivals_per_epoch = 1.0;
        cfg.failures.host_crash_rate = 0.2;
        cfg.failures.recovery_epochs_mean = 2.0;
        cfg.failures.migration_fail_rate = 0.2;
        cfg
    }

    #[test]
    fn provenance_does_not_change_the_report() {
        let cfg = churny_cfg();
        let plain = Fleet::new(cfg.clone()).unwrap().run().unwrap().to_json();
        let mut probed = Fleet::new(cfg).unwrap();
        probed.enable_provenance();
        let report = probed.run().unwrap().to_json();
        assert_eq!(plain, report, "provenance must be pure observation");
    }

    #[test]
    fn provenance_spans_cover_the_vm_journeys() {
        let mut fleet = Fleet::new(churny_cfg()).unwrap();
        fleet.enable_provenance();
        let report = fleet.run().unwrap();
        assert!(report.metrics.crashes > 0, "scenario must exercise crashes");
        let jsonl = fleet.spans_jsonl().unwrap();
        assert!(!jsonl.is_empty());
        let mut evac = 0;
        let mut admission = 0;
        for line in jsonl.lines() {
            let doc = Json::parse(line).unwrap();
            let name = doc.get("name").unwrap().as_str().unwrap().to_string();
            if name.starts_with("evacuation") {
                evac += 1;
            }
            if name.starts_with("admission") {
                admission += 1;
            }
        }
        assert!(evac > 0, "crashes must open evacuation spans");
        assert!(admission > 0, "arrivals must open admission spans");
        // Chrome export and SLO rollup parse and agree on the budget.
        Json::parse(&fleet.spans_chrome().unwrap()).unwrap();
        let slo = Json::parse(&fleet.slo_json().unwrap().unwrap()).unwrap();
        assert_eq!(slo.get("budget_s").unwrap().as_f64(), Some(60.0));
        let burn = slo.get("burn_by_epoch").unwrap().as_array().unwrap();
        assert_eq!(burn.len(), 10, "one burn entry per epoch");
        if report.metrics.evacuated > 0 {
            let total: f64 = slo.get("total_burned_s").unwrap().as_f64().unwrap();
            let expect: f64 =
                report.metrics.evac_latency_s.mean() * report.metrics.evacuated as f64;
            assert!(
                (total - expect).abs() < 1e-6,
                "burned seconds {total} must match landed evac latency {expect}"
            );
        }
        assert!(
            slo.get("host_rollup").unwrap().get("counters").is_some(),
            "host registries rolled up"
        );
    }

    #[test]
    fn span_exports_keep_their_bytes() {
        // Digests of the bytes the tree-building span exporters wrote for
        // this fleet; the streaming exporters must reproduce them exactly.
        let mut cfg = churny_cfg();
        cfg.seed = 42;
        let mut fleet = Fleet::new(cfg).unwrap();
        fleet.enable_provenance();
        fleet.run().unwrap();
        let jsonl = fleet.spans_jsonl().unwrap();
        let chrome = fleet.spans_chrome().unwrap();
        assert!(jsonl.contains("\"args\":{"), "annotations are exercised");
        assert_eq!(
            (telemetry::digest64(&jsonl), jsonl.len()),
            ("bfb37c4fd430eb58".to_string(), 4493)
        );
        assert_eq!(
            (telemetry::digest64(&chrome), chrome.len()),
            ("4fa11bcf53db4ac9".to_string(), 2716)
        );
    }

    #[test]
    fn provenance_is_deterministic_across_jobs() {
        let cfg = churny_cfg();
        let run = |jobs: usize| {
            parallel::set_jobs(jobs);
            let mut fleet = Fleet::new(cfg.clone()).unwrap();
            fleet.enable_provenance();
            fleet.run().unwrap();
            let out = (
                fleet.spans_jsonl().unwrap(),
                fleet.spans_chrome().unwrap(),
                fleet.slo_json().unwrap().unwrap(),
            );
            parallel::set_jobs(0);
            out
        };
        assert_eq!(run(1), run(4), "spans and rollups are jobs-invariant");
    }

    #[test]
    fn perf_collection_is_observational_and_jobs_invariant() {
        let plain = Fleet::new(churny_cfg()).unwrap().run().unwrap().to_json();
        let mut cfg = churny_cfg();
        cfg.perf = true;
        let run = |jobs: usize| {
            parallel::set_jobs(jobs);
            let mut fleet = Fleet::new(cfg.clone()).unwrap();
            let report = fleet.run().unwrap().to_json();
            let perf = fleet.perf_json().to_string();
            parallel::set_jobs(0);
            (report, perf)
        };
        let (r1, p1) = run(1);
        let (r4, p4) = run(4);
        assert_eq!(r1, plain, "perf collection must not change the report");
        assert_eq!(r1, r4, "report is jobs-invariant with perf on");
        assert_eq!(p1, p4, "fleet perf doc must be jobs-invariant");
        let doc = Json::parse(&p1).unwrap();
        let steps = doc
            .get("engine")
            .and_then(|e| e.get("steps"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(steps > 0, "engine counters accumulated across generations");
        assert_eq!(doc.get("epochs").and_then(Json::as_u64), Some(10));
        let stepped = doc
            .get("hosts_stepped")
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(stepped > 0, "shard-balance stats recorded per epoch");
    }

    #[test]
    fn engine_select_reaches_every_host() {
        let run = |engine| {
            let mut cfg = small_cfg(2);
            cfg.engine = engine;
            let mut fleet = Fleet::new(cfg).unwrap();
            fleet.run().unwrap();
            fleet.perf_snapshot().engine
        };
        // Only the approx engine consults the solve memo; exact mode
        // short-circuits it. The counters prove the selection reached the
        // hosts' machines.
        let exact = run(mem_model::EngineSelect::Exact);
        assert_eq!(exact.memo_hits + exact.memo_misses, 0);
        let approx = run(mem_model::EngineSelect::Approx);
        assert!(
            approx.memo_hits + approx.memo_misses > 0,
            "approx engine must consult the memo: {approx:?}"
        );
    }

    #[test]
    fn heterogeneous_fleet_mixes_presets() {
        let mut cfg = small_cfg(3);
        cfg.presets = vec![HostPreset::XeonE5620, HostPreset::FourSocket32];
        let fleet = Fleet::new(cfg).unwrap();
        assert_eq!(fleet.hosts()[0].preset, HostPreset::XeonE5620);
        assert_eq!(fleet.hosts()[1].preset, HostPreset::FourSocket32);
        assert_eq!(fleet.hosts()[2].preset, HostPreset::XeonE5620);
    }
}
