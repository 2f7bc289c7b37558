//! Simulation substrate shared by every other crate in the vProbe workspace.
//!
//! This crate deliberately knows nothing about NUMA, Xen, or scheduling. It
//! provides the three things a deterministic discrete-time simulation needs:
//!
//! * a [`clock`] with explicit microsecond resolution ([`SimTime`],
//!   [`SimDuration`]) so that sampling periods, credit ticks, and quanta
//!   never suffer floating-point drift;
//! * a seedable, forkable random-number source ([`rng::SimRng`]) so that a
//!   whole experiment is reproducible from a single `u64` seed while every
//!   subsystem still gets an independent stream;
//! * lightweight statistics ([`stats`]) and time-series ([`series`])
//!   containers used to collect experiment results, and the chunked
//!   bounded FIFO ([`ring::Ring`]) the trace and decision logs keep.

pub mod clock;
pub mod error;
pub mod faults;
pub mod json;
pub mod parallel;
pub mod ring;
pub mod rng;
pub mod series;
pub mod stats;

pub use clock::{Clock, SimDuration, SimTime};
pub use error::SimError;
pub use faults::{FaultConfig, FaultInjector, MigrationFault};
pub use json::{Json, ObjWriter};
pub use rng::{ClampedNormal, SimRng};
pub use series::TimeSeries;
pub use stats::{Counter, Histogram, RunningStats};
