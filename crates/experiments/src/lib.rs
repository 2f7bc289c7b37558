//! Regeneration harness for every table and figure in the vProbe paper.
//!
//! Each module reproduces one experiment:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`fig1_remote_ratio`] | Fig. 1 — remote-access % under the Credit scheduler |
//! | [`fig3_bounds`] | Fig. 3 — LLC miss rate and RPTI per program; the `low`/`high` bounds |
//! | [`fig4_spec`] | Fig. 4 — SPEC CPU2006 under the five schedulers |
//! | [`fig5_npb`] | Fig. 5 — NPB under the five schedulers |
//! | [`fig6_memcached`] | Fig. 6 — memcached concurrency sweep |
//! | [`fig7_redis`] | Fig. 7 — redis connection sweep |
//! | [`table3_overhead`] | Table III — "overhead time" percentage, 1–4 VMs |
//! | [`fig8_period`] | Fig. 8 — sampling-period sweep on workload *mix* |
//!
//! [`extensions`] goes beyond the paper: the §VI future-work features
//! (page migration), a node-count scaling study and ablations of
//! vProbe's design choices. [`fig_faults`] is the
//! robustness sweep — per-scheduler slowdown vs injected fault rate,
//! including the graceful-degradation variant `vProbe-GD`. [`fig_fleet`]
//! scales out to a whole fleet of hosts (the [`fleet`] crate) and compares
//! schedulers on SLO outcomes under churn, host crashes, and
//! rack-correlated failures.
//!
//! [`runner`] holds the shared machinery (the paper's §V-A VM setup, the
//! five schedulers, one-run measurement); [`report`] renders results as
//! aligned text tables and CSV. [`tracetool`] turns a traced run into the
//! analysis report the `trace` binary prints alongside its JSONL and
//! Chrome Trace Event (Perfetto) exports. [`perfreport`] measures the
//! work-avoidance machinery itself: deterministic counters on four fixed
//! scenarios, pinned by the `perf_report_golden` test.

pub mod explain;
pub mod extensions;
pub mod fig1_remote_ratio;
pub mod fig3_bounds;
pub mod fig4_spec;
pub mod fig5_npb;
pub mod fig6_memcached;
pub mod fig7_redis;
pub mod fig8_period;
pub mod fig_faults;
pub mod fig_fleet;
pub mod perfreport;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod table3_overhead;
pub mod tracetool;

pub use runner::{run_workload, Scheduler, SetupKind, WorkloadRun, ALL_SCHEDULERS};
