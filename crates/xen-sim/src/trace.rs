//! Scheduling-event tracing.
//!
//! A bounded in-memory log of the decisions the machine makes — context
//! switches, steals, partition migrations, wakeups, sampling passes, fault
//! injections, degrade-mode transitions — in the spirit of `xentrace`.
//! Disabled by default (zero overhead beyond a branch); when enabled it
//! lets tests and tools audit *why* a schedule came out the way it did.
//! The [`crate::export`] module streams a log as JSONL or Chrome Trace
//! Event JSON for Perfetto.
//!
//! Events are recorded in non-decreasing time order (debug-asserted), so
//! the ring can be exported as a valid trace without sorting.

use numa_topo::{NodeId, PcpuId, VcpuId};
use sim_core::ring::Ring;
use sim_core::SimTime;

/// One injected fault, as seen by the trace. Variants map one-to-one onto
/// the injection fields of [`FaultMetrics`](crate::metrics::FaultMetrics),
/// whose only writer is `Machine::emit` — the same call that traces the
/// event — so a full (undropped) trace contains exactly
/// [`FaultMetrics::injected`](crate::metrics::FaultMetrics::injected)
/// fault events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// The sampler lost `vcpu`'s PMU sample this period.
    SampleLost { vcpu: VcpuId },
    /// `vcpu`'s PMU counters were perturbed with multiplicative noise.
    CounterNoise { vcpu: VcpuId },
    /// `vcpu`'s reported node affinity was corrupted.
    AffinityCorrupted { vcpu: VcpuId },
    /// A planned migration of `vcpu` to `node` failed outright.
    MigrationFailed { vcpu: VcpuId, node: NodeId },
    /// A planned migration of `vcpu` to `node` was delayed by `quanta`.
    MigrationDelayed {
        vcpu: VcpuId,
        node: NodeId,
        quanta: u64,
    },
    /// `thief`'s steal attempt was forced to fail.
    StealFailed { thief: PcpuId },
    /// `pcpu` stalled for `quanta` quanta.
    PcpuStall { pcpu: PcpuId, quanta: u64 },
    /// `node`'s memory controller was throttled this period.
    NodeThrottled { node: NodeId },
}

impl FaultEvent {
    /// Stable machine-readable name, used by the JSONL exporter.
    pub fn kind(&self) -> &'static str {
        match self {
            FaultEvent::SampleLost { .. } => "sample_lost",
            FaultEvent::CounterNoise { .. } => "counter_noise",
            FaultEvent::AffinityCorrupted { .. } => "affinity_corrupted",
            FaultEvent::MigrationFailed { .. } => "migration_failed",
            FaultEvent::MigrationDelayed { .. } => "migration_delayed",
            FaultEvent::StealFailed { .. } => "steal_failed",
            FaultEvent::PcpuStall { .. } => "pcpu_stall",
            FaultEvent::NodeThrottled { .. } => "node_throttled",
        }
    }
}

/// One traced scheduling event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `vcpu` started running on `pcpu`.
    SwitchIn { vcpu: VcpuId, pcpu: PcpuId },
    /// `vcpu` stopped running on `pcpu` (descheduled, blocked, or pulled
    /// off by a partition move).
    SwitchOut { vcpu: VcpuId, pcpu: PcpuId },
    /// `thief` stole `vcpu` from `victim`'s queue.
    Steal {
        thief: PcpuId,
        victim: PcpuId,
        vcpu: VcpuId,
        cross_node: bool,
    },
    /// The partitioning pass moved `vcpu` to `node`.
    PartitionMove { vcpu: VcpuId, node: NodeId },
    /// A timer idler woke onto `pcpu`.
    IdlerWake { vcpu: VcpuId, pcpu: PcpuId },
    /// `vcpu` woke with BOOST priority (Credit's latency-hiding path).
    CreditBoost { vcpu: VcpuId, pcpu: PcpuId },
    /// A sampling period closed (`periods` completed so far).
    SamplePeriod { periods: u64 },
    /// Pages migrated for `vcpu` toward `node`.
    PageMigration {
        vcpu: VcpuId,
        node: NodeId,
        bytes: u64,
    },
    /// The vprobe-gd policy entered (`fallback: true`) or left
    /// (`fallback: false`) degraded fallback mode.
    Degrade { fallback: bool },
    /// The fault injector fired.
    Fault(FaultEvent),
}

/// A bounded ring of timestamped events, kept in a [`Ring`].
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    events: Ring<(SimTime, Event)>,
}

impl TraceLog {
    /// A disabled log (records nothing).
    pub fn disabled() -> Self {
        TraceLog::default()
    }

    /// An enabled log keeping the most recent `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be nonzero");
        TraceLog {
            events: Ring::new(capacity),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.events.capacity() > 0
    }

    /// Record an event (no-op when disabled). Oldest events are dropped
    /// once the ring is full; timestamps must be non-decreasing.
    pub fn record(&mut self, t: SimTime, e: Event) {
        if !self.is_enabled() {
            return;
        }
        debug_assert!(
            self.events.back().is_none_or(|(last, _)| *last <= t),
            "trace events must be recorded in non-decreasing time order"
        );
        self.events.push((t, e));
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped because of the capacity bound. Always equals
    /// `recorded() - len()`.
    pub fn dropped(&self) -> u64 {
        self.events.dropped()
    }

    /// Total events ever recorded, dropped or not.
    pub fn recorded(&self) -> u64 {
        self.events.recorded()
    }

    pub fn iter(&self) -> impl Iterator<Item = &(SimTime, Event)> {
        self.events.iter()
    }

    /// Count events matching a predicate.
    pub fn count(&self, pred: impl Fn(&Event) -> bool) -> usize {
        self.events.iter().filter(|(_, e)| pred(e)).count()
    }

    /// Render as `xentrace`-style lines.
    pub fn to_lines(&self) -> Vec<String> {
        self.events
            .iter()
            .map(|(t, e)| match e {
                Event::SwitchIn { vcpu, pcpu } => format!("{t} switch_in  {vcpu} -> {pcpu}"),
                Event::SwitchOut { vcpu, pcpu } => format!("{t} switch_out {vcpu} off {pcpu}"),
                Event::Steal {
                    thief,
                    victim,
                    vcpu,
                    cross_node,
                } => format!(
                    "{t} steal      {thief} <- {victim} ({vcpu}{})",
                    if *cross_node { ", cross-node" } else { "" }
                ),
                Event::PartitionMove { vcpu, node } => {
                    format!("{t} partition  {vcpu} -> {node}")
                }
                Event::IdlerWake { vcpu, pcpu } => format!("{t} idler_wake {vcpu} on {pcpu}"),
                Event::CreditBoost { vcpu, pcpu } => format!("{t} boost      {vcpu} on {pcpu}"),
                Event::SamplePeriod { periods } => format!("{t} sample     period #{periods}"),
                Event::PageMigration { vcpu, node, bytes } => {
                    format!("{t} page_mig   {vcpu} -> {node} ({bytes} bytes)")
                }
                Event::Degrade { fallback } => format!(
                    "{t} degrade    {}",
                    if *fallback {
                        "enter fallback"
                    } else {
                        "recover"
                    }
                ),
                Event::Fault(f) => format!("{t} fault      {}", f.kind()),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::disabled();
        log.record(
            t(1),
            Event::SwitchIn {
                vcpu: VcpuId::new(0),
                pcpu: PcpuId::new(0),
            },
        );
        assert!(log.is_empty());
        assert!(!log.is_enabled());
    }

    #[test]
    fn ring_drops_oldest() {
        let mut log = TraceLog::with_capacity(2);
        for i in 0..5 {
            log.record(t(i), Event::SamplePeriod { periods: i });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        assert_eq!(log.recorded(), 5);
        assert_eq!(log.recorded() - log.len() as u64, log.dropped());
        let kept: Vec<u64> = log
            .iter()
            .map(|(_, e)| match e {
                Event::SamplePeriod { periods } => *periods,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn drop_count_is_exact_at_capacity_boundary() {
        let mut log = TraceLog::with_capacity(3);
        for i in 0..3 {
            log.record(t(i), Event::SamplePeriod { periods: i });
        }
        // Exactly full: nothing dropped yet.
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 0);
        log.record(t(3), Event::SamplePeriod { periods: 3 });
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.recorded(), 4);
    }

    #[test]
    fn events_are_non_decreasing_in_time() {
        let mut log = TraceLog::with_capacity(8);
        for i in [0u64, 0, 1, 1, 5] {
            log.record(t(i), Event::SamplePeriod { periods: i });
        }
        let times: Vec<SimTime> = log.iter().map(|(t, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    #[cfg(debug_assertions)]
    fn out_of_order_record_panics_in_debug() {
        let mut log = TraceLog::with_capacity(8);
        log.record(t(5), Event::SamplePeriod { periods: 0 });
        log.record(t(4), Event::SamplePeriod { periods: 1 });
    }

    #[test]
    fn count_and_lines() {
        let mut log = TraceLog::with_capacity(16);
        log.record(
            t(1),
            Event::Steal {
                thief: PcpuId::new(4),
                victim: PcpuId::new(0),
                vcpu: VcpuId::new(7),
                cross_node: true,
            },
        );
        log.record(
            t(2),
            Event::PartitionMove {
                vcpu: VcpuId::new(7),
                node: NodeId::new(1),
            },
        );
        log.record(t(3), Event::Degrade { fallback: true });
        log.record(
            t(4),
            Event::Fault(FaultEvent::StealFailed {
                thief: PcpuId::new(2),
            }),
        );
        assert_eq!(log.count(|e| matches!(e, Event::Steal { .. })), 1);
        let lines = log.to_lines();
        assert!(lines[0].contains("cross-node"));
        assert!(lines[1].contains("partition"));
        assert!(lines[2].contains("enter fallback"));
        assert!(lines[3].contains("steal_failed"));
    }
}
