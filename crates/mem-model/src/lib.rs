//! Memory-system behaviour model.
//!
//! This crate models the four performance-degrading factors the vProbe
//! paper identifies (§II-A) for memory-intensive applications on NUMA
//! servers:
//!
//! 1. **remote memory access latency** — [`latency`] charges an extra
//!    interconnect hop for accesses that land on a node other than the one
//!    the VCPU is running on;
//! 2. **memory-controller (IMC) contention** — [`imc`] turns per-node
//!    aggregate demand into a queueing-delay multiplier;
//! 3. **interconnect link contention** — [`qpi`] does the same for
//!    cross-node traffic;
//! 4. **LLC contention** — [`llc`] splits each socket's shared cache among
//!    co-running VCPUs in proportion to their demand and feeds the resulting
//!    occupancy through each workload's miss-rate curve ([`curve`]).
//!
//! [`pages`] models Xen-style domain memory placement (machine pages are
//! fixed at domain creation; a VCPU's per-node access distribution follows
//! the guest thread it hosts). [`engine`] composes all of the above into a
//! per-quantum resolution step used by the hypervisor simulator.

pub mod curve;
pub mod engine;
pub mod imc;
pub mod latency;
pub mod llc;
pub mod pages;
pub mod qpi;
pub mod reference;

pub use curve::MissCurve;
pub use engine::{AccessProfile, EnginePerf, MemoryEngine, QuantumUsage, VcpuQuantumResult};
pub use imc::ImcModel;
pub use latency::LatencyParams;
pub use llc::{LlcModel, LlcOccupancy};
pub use pages::{AllocPolicy, NodeFree, VmMemoryLayout};
pub use qpi::QpiModel;
pub use reference::ReferenceEngine;
