//! Xen-like hypervisor simulator.
//!
//! This crate reproduces the scheduling substrate the vProbe prototype was
//! built into: virtual machines with VCPUs, physical CPUs with per-PCPU run
//! queues, and the Credit scheduler's accounting (30 ms credit
//! distribution, 10 ms ticks, UNDER/OVER priorities, work stealing when a
//! PCPU would otherwise idle or run only OVER-priority work).
//!
//! Scheduling *policy* — which VCPU an idle PCPU steals, and how VCPUs are
//! (re)assigned to NUMA nodes at each sampling period — is pluggable
//! through [`policy::SchedPolicy`]. The stock NUMA-oblivious behaviour
//! lives in [`credit::CreditPolicy`]; vProbe and the other baselines live
//! in the `vprobe` crate.
//!
//! The simulation is discrete-time: [`machine::Machine::run`] advances a
//! fixed quantum (1 ms by default), resolves execution through
//! `mem_model::MemoryEngine`, feeds the virtual PMU, and fires credit
//! ticks, accounting, guest-level thread shuffles, and sampling periods on
//! their boundaries.

pub mod credit;
pub mod export;
pub mod machine;
pub mod metrics;
pub mod pcpu;
pub mod perf;
pub mod policy;
pub mod provenance;
pub mod runqueue;
pub mod trace;
pub mod vcpu;
pub mod vm;

pub use credit::CreditPolicy;
pub use machine::{Machine, MachineBuilder, MachineConfig};
pub use metrics::{FaultMetrics, RunMetrics, VmMetrics};
pub use policy::{
    AnalyzerView, DegradeReport, PageMigration, PartitionNote, PartitionPlan, PeriodFeedback,
    SchedPolicy, StealContext, VcpuAssignment, VcpuView,
};
pub use export::{to_chrome, to_jsonl, ChromeContext};
pub use perf::{MachinePerf, PerfSnapshot};
pub use provenance::{Decision, DecisionRecord, ProvenanceLog, StealCandidate};
pub use sim_core::{FaultConfig, FaultInjector};
pub use trace::{Event, FaultEvent, TraceLog};
pub use vcpu::{Priority, VcpuState};
pub use vm::{GuestThread, VmConfig, VmRuntime};
