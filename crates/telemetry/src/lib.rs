//! Observability substrate: a deterministic metric registry and trace-export
//! builders.
//!
//! The simulator's golden-value discipline extends to its observability
//! layer: every metric is registered in a fixed order, sampled at
//! deterministic simulation times, and serialized with stable key order, so
//! two runs of the same seed produce byte-identical telemetry — and a run
//! with telemetry *disabled* produces byte-identical output to a build
//! without telemetry at all.
//!
//! * [`registry`] — counters, gauges, and fixed-bucket histograms, each
//!   snapshotted into a [`sim_core::TimeSeries`] at every sampling period
//!   and exported as one JSON block;
//! * [`chrome`] — a builder for the Chrome Trace Event format (the JSON
//!   flavour Perfetto and `chrome://tracing` open directly), used by
//!   `xen-sim` to render per-PCPU execution tracks;
//! * [`span`] — begin/end intervals with sim-time stamps, parent links,
//!   and annotations, used by the fleet layer for admission/evacuation
//!   lifecycles;
//! * [`rollup`] — per-host → fleet aggregation of registry export
//!   documents;
//! * [`perf`] — work-avoidance introspection: deterministic
//!   batch-length histograms and digests.
//!
//! This crate deliberately knows nothing about VCPUs or NUMA: the machine
//! layer decides *what* to record; this layer guarantees the recording is
//! deterministic, cheap when disabled, and stable on disk.

pub mod chrome;
pub mod perf;
pub mod registry;
pub mod rollup;
pub mod span;

pub use chrome::{Arg, ChromeTrace};
pub use perf::{digest64, BatchHistogram};
pub use registry::{CounterId, GaugeId, HistogramId, Registry};
pub use rollup::{rollup, try_rollup};
pub use span::{Span, SpanLog};
