//! Declarative scenarios: describe a machine, its VMs, and a scheduler in
//! JSON; run it and get the standard metrics back.
//!
//! This is the "I want to try my own setup" entry point a downstream user
//! reaches for before writing Rust:
//!
//! ```json
//! {
//!   "topology": "xeon_e5620",
//!   "scheduler": "vprobe",
//!   "duration_s": 20,
//!   "seed": 7,
//!   "vms": [
//!     { "name": "db", "vcpus": 8, "mem_gb": 8, "alloc": "split",
//!       "workloads": ["redis:4000"] },
//!     { "name": "batch", "vcpus": 4, "mem_gb": 4, "alloc": "most_free",
//!       "workloads": ["soplex", "soplex", "soplex", "soplex"] }
//!   ]
//! }
//! ```
//!
//! Workload strings name registry entries (`soplex`, `lu`, `hungry`, …)
//! plus the parameterized servers `memcached:<concurrency>` and
//! `redis:<connections>`.

use crate::report::{pct, Table};
use mem_model::AllocPolicy;
use numa_topo::{presets, NodeId, Topology};
use sim_core::{FaultConfig, Json, SimDuration, SimError};
use vprobe::{variants, Bounds, BrmPolicy};
use workloads::{kv, registry, WorkloadSpec};
use xen_sim::{CreditPolicy, Machine, MachineBuilder, SchedPolicy, VmConfig};

const GB: u64 = 1024 * 1024 * 1024;

/// One VM in a scenario file.
#[derive(Debug, Clone)]
pub struct VmSpec {
    pub name: String,
    pub vcpus: usize,
    pub mem_gb: u64,
    /// `most_free` | `split` | `node:<id>` | `striped` (default `most_free`)
    pub alloc: String,
    /// Workload names; see module docs.
    pub workloads: Vec<String>,
    /// Optional hard pin (`node:<id>`).
    pub pin: Option<String>,
    /// Credit weight (Xen default 256).
    pub weight: u32,
}

fn default_alloc() -> String {
    "most_free".into()
}

fn default_weight() -> u32 {
    256
}

/// A whole scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// "xeon_e5620" | "four_socket" | "uma" (default "xeon_e5620")
    pub topology: String,
    /// "credit" | "vprobe" | "vcpu-p" | "lb" | "brm" | "vprobe-gd"
    /// (default "vprobe")
    pub scheduler: String,
    pub duration_s: u64,
    pub seed: u64,
    /// Uniform fault-injection rate (default 0: clean run).
    pub fault_rate: f64,
    /// Seed for the fault schedule (independent of `seed`).
    pub fault_seed: u64,
    pub vms: Vec<VmSpec>,
}

fn default_topology() -> String {
    "xeon_e5620".into()
}

fn default_scheduler() -> String {
    "vprobe".into()
}

fn default_duration() -> u64 {
    20
}

fn parse_err(msg: impl std::fmt::Display) -> SimError {
    SimError::InvalidConfig(format!("scenario parse error: {msg}"))
}

fn field_str(obj: &Json, key: &str, default: Option<&str>) -> Result<String, SimError> {
    match obj.get(key) {
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| parse_err(format!("'{key}' must be a string"))),
        None => default
            .map(str::to_string)
            .ok_or_else(|| parse_err(format!("missing field '{key}'"))),
    }
}

fn field_u64(obj: &Json, key: &str, default: Option<u64>) -> Result<u64, SimError> {
    match obj.get(key) {
        Some(v) => v
            .as_u64()
            .ok_or_else(|| parse_err(format!("'{key}' must be a non-negative integer"))),
        None => default.ok_or_else(|| parse_err(format!("missing field '{key}'"))),
    }
}

fn field_f64(obj: &Json, key: &str, default: f64) -> Result<f64, SimError> {
    match obj.get(key) {
        Some(v) => v
            .as_f64()
            .ok_or_else(|| parse_err(format!("'{key}' must be a number"))),
        None => Ok(default),
    }
}

/// Reject any key of `obj` outside `known`, so a misspelled or retired
/// field fails loudly instead of silently taking its default.
fn reject_unknown_keys(obj: &[(String, Json)], known: &[&str], what: &str) -> Result<(), SimError> {
    match obj.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        Some((k, _)) => Err(parse_err(format!(
            "unknown {what} field '{k}' (expected one of: {})",
            known.join(", ")
        ))),
        None => Ok(()),
    }
}

const SCENARIO_KEYS: [&str; 7] = [
    "topology",
    "scheduler",
    "duration_s",
    "seed",
    "fault_rate",
    "fault_seed",
    "vms",
];

const VM_KEYS: [&str; 7] = [
    "name",
    "vcpus",
    "mem_gb",
    "alloc",
    "workloads",
    "pin",
    "weight",
];

impl VmSpec {
    fn from_value(v: &Json) -> Result<VmSpec, SimError> {
        let obj = v
            .as_object()
            .ok_or_else(|| parse_err("each entry of 'vms' must be an object"))?;
        reject_unknown_keys(obj, &VM_KEYS, "VM")?;
        let workloads = v
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or_else(|| parse_err("'workloads' must be an array of strings"))?
            .iter()
            .map(|w| {
                w.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| parse_err("'workloads' entries must be strings"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let pin = match v.get("pin") {
            None | Some(Json::Null) => None,
            Some(p) => Some(
                p.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| parse_err("'pin' must be a string"))?,
            ),
        };
        Ok(VmSpec {
            name: field_str(v, "name", None)?,
            vcpus: field_u64(v, "vcpus", None)? as usize,
            mem_gb: field_u64(v, "mem_gb", None)?,
            alloc: field_str(v, "alloc", Some(&default_alloc()))?,
            workloads,
            pin,
            weight: u32::try_from(field_u64(v, "weight", Some(u64::from(default_weight())))?)
                .map_err(|_| parse_err("'weight' out of range"))?,
        })
    }

    fn to_value(&self) -> Json {
        let mut pairs = vec![
            ("name".to_string(), Json::from(self.name.clone())),
            ("vcpus".to_string(), Json::from(self.vcpus)),
            ("mem_gb".to_string(), Json::from(self.mem_gb)),
            ("alloc".to_string(), Json::from(self.alloc.clone())),
            ("workloads".to_string(), Json::from(self.workloads.clone())),
        ];
        if let Some(pin) = &self.pin {
            pairs.push(("pin".to_string(), Json::from(pin.clone())));
        }
        pairs.push(("weight".to_string(), Json::from(self.weight)));
        Json::Obj(pairs)
    }
}

impl Scenario {
    /// Parse from JSON. Missing optional fields take the documented
    /// defaults; `vms` is required; unknown keys are rejected, at top
    /// level and per VM.
    pub fn from_json(json: &str) -> Result<Scenario, SimError> {
        let doc = Json::parse(json).map_err(parse_err)?;
        let obj = doc
            .as_object()
            .ok_or_else(|| parse_err("top level must be an object"))?;
        reject_unknown_keys(obj, &SCENARIO_KEYS, "scenario")?;
        let vms = doc
            .get("vms")
            .and_then(Json::as_array)
            .ok_or_else(|| parse_err("missing field 'vms' (array)"))?
            .iter()
            .map(VmSpec::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Scenario {
            topology: field_str(&doc, "topology", Some(&default_topology()))?,
            scheduler: field_str(&doc, "scheduler", Some(&default_scheduler()))?,
            duration_s: field_u64(&doc, "duration_s", Some(default_duration()))?,
            seed: field_u64(&doc, "seed", Some(0))?,
            fault_rate: field_f64(&doc, "fault_rate", 0.0)?,
            fault_seed: field_u64(&doc, "fault_seed", Some(1))?,
            vms,
        })
    }

    /// Serialize back to JSON (compact, key order stable). The fault
    /// fields appear only when fault injection is on, so clean scenarios
    /// round-trip byte-identically to their pre-fault form.
    pub fn to_json(&self) -> String {
        let mut pairs = vec![
            ("topology".to_string(), Json::from(self.topology.clone())),
            ("scheduler".to_string(), Json::from(self.scheduler.clone())),
            ("duration_s".to_string(), Json::from(self.duration_s)),
            ("seed".to_string(), Json::from(self.seed)),
        ];
        if self.fault_rate > 0.0 {
            pairs.push(("fault_rate".to_string(), Json::Num(self.fault_rate)));
            pairs.push(("fault_seed".to_string(), Json::from(self.fault_seed)));
        }
        pairs.push((
            "vms".to_string(),
            Json::Arr(self.vms.iter().map(VmSpec::to_value).collect()),
        ));
        Json::Obj(pairs).to_string()
    }

    pub fn topology(&self) -> Result<Topology, SimError> {
        match self.topology.as_str() {
            "xeon_e5620" => Ok(presets::xeon_e5620()),
            "four_socket" => Ok(presets::four_socket_32core()),
            "uma" => Ok(presets::uma_quad()),
            other => Err(SimError::UnknownName(format!("topology '{other}'"))),
        }
    }

    fn policy(&self, num_nodes: usize) -> Result<Box<dyn SchedPolicy>, SimError> {
        Ok(match self.scheduler.as_str() {
            "credit" => Box::new(CreditPolicy::new()),
            "vprobe" => Box::new(variants::vprobe(num_nodes, Bounds::default())),
            "vcpu-p" => Box::new(variants::vcpu_p(num_nodes, Bounds::default())),
            "lb" => Box::new(variants::lb_only(num_nodes, Bounds::default())),
            "brm" => Box::new(BrmPolicy::new(self.seed)),
            "vprobe-gd" => Box::new(variants::vprobe_gd(num_nodes, Bounds::default())),
            other => return Err(SimError::UnknownName(format!("scheduler '{other}'"))),
        })
    }

    /// Build the machine.
    pub fn build(&self) -> Result<Machine, SimError> {
        if self.vms.is_empty() {
            return Err(SimError::InvalidConfig("scenario has no VMs".into()));
        }
        let topo = self.topology()?;
        let mut b = MachineBuilder::new(topo.clone())
            .policy(self.policy(topo.num_nodes())?)
            .seed(self.seed);
        if self.fault_rate > 0.0 {
            b = b.faults(FaultConfig::uniform(self.fault_rate, self.fault_seed));
        }
        for vm in &self.vms {
            let mut cfg = VmConfig::new(
                vm.name.clone(),
                vm.vcpus,
                vm.mem_gb * GB,
                parse_alloc(&vm.alloc)?,
                parse_workloads(&vm.workloads)?,
            );
            if let Some(pin) = &vm.pin {
                cfg.pin_node = Some(parse_node(pin)?);
            }
            cfg.weight = vm.weight;
            b = b.add_vm(cfg);
        }
        b.build()
    }

    /// Build, run, and summarize.
    pub fn run(&self) -> Result<Table, SimError> {
        let mut machine = self.build()?;
        machine.run(SimDuration::from_secs(self.duration_s));
        let m = machine.metrics();
        let mut t = Table::new(
            format!(
                "scenario: {} on {}, {} s (seed {})",
                self.scheduler, self.topology, self.duration_s, self.seed
            ),
            &["vm", "instr/s", "remote accesses", "busy (s)"],
        );
        for (vm, spec) in m.per_vm.iter().zip(&self.vms) {
            t.push_row(vec![
                spec.name.clone(),
                format!("{:.3e}", vm.instr_per_second(m.elapsed)),
                pct(vm.remote_ratio() * 100.0),
                format!("{:.1}", vm.busy_us as f64 / 1e6),
            ]);
        }
        Ok(t)
    }
}

fn parse_alloc(s: &str) -> Result<AllocPolicy, SimError> {
    if let Some(id) = s.strip_prefix("node:") {
        return Ok(AllocPolicy::OnNode(parse_node_id(id)?));
    }
    match s {
        "most_free" => Ok(AllocPolicy::MostFree),
        "split" => Ok(AllocPolicy::SplitEven),
        "striped" => Ok(AllocPolicy::Striped {
            chunk_bytes: 256 * 1024 * 1024,
        }),
        other => Err(SimError::UnknownName(format!("alloc policy '{other}'"))),
    }
}

fn parse_node(s: &str) -> Result<NodeId, SimError> {
    let id = s
        .strip_prefix("node:")
        .ok_or_else(|| SimError::InvalidConfig(format!("pin must be 'node:<id>', got '{s}'")))?;
    parse_node_id(id)
}

fn parse_node_id(id: &str) -> Result<NodeId, SimError> {
    id.parse::<u16>()
        .map(NodeId::new)
        .map_err(|_| SimError::InvalidConfig(format!("bad node id '{id}'")))
}

fn parse_workloads(names: &[String]) -> Result<Vec<WorkloadSpec>, SimError> {
    names
        .iter()
        .map(|n| {
            if let Some(c) = n.strip_prefix("memcached:") {
                let c: u32 = c
                    .parse()
                    .map_err(|_| SimError::InvalidConfig(format!("bad concurrency in '{n}'")))?;
                Ok(kv::memcached(c))
            } else if let Some(k) = n.strip_prefix("redis:") {
                let k: u32 = k
                    .parse()
                    .map_err(|_| SimError::InvalidConfig(format!("bad connections in '{n}'")))?;
                Ok(kv::redis(k))
            } else {
                registry::by_name(n)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"{
        "topology": "xeon_e5620",
        "scheduler": "vprobe",
        "duration_s": 3,
        "seed": 7,
        "vms": [
            { "name": "db", "vcpus": 8, "mem_gb": 8, "alloc": "split",
              "workloads": ["redis:4000"] },
            { "name": "batch", "vcpus": 4, "mem_gb": 4,
              "workloads": ["soplex", "soplex", "soplex", "soplex"] }
        ]
    }"#;

    #[test]
    fn example_scenario_parses_and_runs() {
        let sc = Scenario::from_json(EXAMPLE).unwrap();
        assert_eq!(sc.vms.len(), 2);
        assert_eq!(sc.vms[1].weight, 256, "default weight applied");
        let table = sc.run().unwrap();
        assert_eq!(table.num_rows(), 2);
        let txt = table.to_text();
        assert!(txt.contains("db"));
        assert!(txt.contains("batch"));
    }

    #[test]
    fn parameterized_server_workloads_parse() {
        let w = parse_workloads(&["memcached:64".into(), "redis:2000".into()]).unwrap();
        assert_eq!(w[0].name, "memcached-c64");
        assert_eq!(w[1].name, "redis-k2000");
    }

    #[test]
    fn bad_inputs_are_rejected_with_context() {
        assert!(Scenario::from_json("{").is_err());
        let mut sc = Scenario::from_json(EXAMPLE).unwrap();
        sc.scheduler = "fifo".into();
        assert!(sc.run().unwrap_err().to_string().contains("fifo"));
        let mut sc = Scenario::from_json(EXAMPLE).unwrap();
        sc.topology = "mainframe".into();
        assert!(sc.run().unwrap_err().to_string().contains("mainframe"));
        let mut sc = Scenario::from_json(EXAMPLE).unwrap();
        sc.vms[0].workloads = vec!["fortnite".into()];
        assert!(sc.run().is_err());
        let mut sc = Scenario::from_json(EXAMPLE).unwrap();
        sc.vms.clear();
        assert!(sc.run().unwrap_err().to_string().contains("no VMs"));
    }

    #[test]
    fn pinned_scenario_vm_stays_local() {
        let json = r#"{
            "scheduler": "credit",
            "duration_s": 3,
            "vms": [
                { "name": "pinned", "vcpus": 2, "mem_gb": 2,
                  "alloc": "node:1", "pin": "node:1",
                  "workloads": ["milc", "milc"] }
            ]
        }"#;
        let sc = Scenario::from_json(json).unwrap();
        let mut machine = sc.build().unwrap();
        machine.run(SimDuration::from_secs(3));
        assert_eq!(machine.metrics().per_vm[0].remote_accesses, 0);
    }

    #[test]
    fn fault_fields_appear_only_when_injection_is_on() {
        let sc = Scenario::from_json(EXAMPLE).unwrap();
        assert_eq!(sc.fault_rate, 0.0);
        assert_eq!(sc.fault_seed, 1);
        assert!(!sc.to_json().contains("fault_rate"));
        let mut faulty = sc.clone();
        faulty.fault_rate = 0.1;
        faulty.fault_seed = 9;
        let json = faulty.to_json();
        assert!(json.contains("fault_rate"));
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(back.fault_rate, 0.1);
        assert_eq!(back.fault_seed, 9);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn faulty_scenario_runs_under_vprobe_gd() {
        let mut sc = Scenario::from_json(EXAMPLE).unwrap();
        sc.scheduler = "vprobe-gd".into();
        sc.fault_rate = 0.2;
        let table = sc.run().unwrap();
        assert_eq!(table.num_rows(), 2);
        // An out-of-range rate is rejected by the machine builder.
        sc.fault_rate = 1.5;
        assert!(sc.run().is_err());
    }

    fn assert_unknown_key(json: &str, key: &str) {
        match Scenario::from_json(json) {
            Err(SimError::InvalidConfig(msg)) => {
                assert!(msg.contains(&format!("'{key}'")), "{msg}")
            }
            other => panic!("expected InvalidConfig naming '{key}', got {other:?}"),
        }
    }

    #[test]
    fn misspelled_top_level_key_is_rejected() {
        let json = EXAMPLE.replacen("\"seed\": 7", "\"seed\": 7, \"fault_rat\": 0.5", 1);
        assert_ne!(json, EXAMPLE);
        assert_unknown_key(&json, "fault_rat");
    }

    #[test]
    fn misspelled_vm_key_is_rejected() {
        let json = EXAMPLE.replacen("\"vcpus\": 8", "\"vcpus\": 8, \"wieght\": 512", 1);
        assert_ne!(json, EXAMPLE);
        assert_unknown_key(&json, "wieght");
    }

    #[test]
    fn retired_macro_step_key_is_rejected() {
        let json = EXAMPLE.replacen("\"seed\": 7", "\"seed\": 7, \"macro_step\": false", 1);
        assert_ne!(json, EXAMPLE);
        assert_unknown_key(&json, "macro_step");
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let mut sc = Scenario::from_json(EXAMPLE).unwrap();
        sc.vms[0].pin = Some("node:0".into());
        let json = sc.to_json();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(back.vms[0].name, "db");
        assert_eq!(back.vms[0].pin.as_deref(), Some("node:0"));
        assert_eq!(back.vms[0].alloc, "split");
        assert_eq!(back.vms[1].weight, 256);
        assert_eq!(back.duration_s, 3);
        // A second round trip is byte-stable.
        assert_eq!(back.to_json(), json);
    }
}
