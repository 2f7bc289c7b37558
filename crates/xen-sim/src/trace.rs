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
use sim_core::ring::{Reader, Ring, Writer};
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

/// A bounded ring of timestamped events, each kept as a compact byte
/// record in a [`Ring`] (see [`TraceLog::record`] for the format).
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    events: Ring,
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
    ///
    /// The payload is the event's tag (0–8 for the other [`Event`]
    /// variants in declaration order, 9–16 for the eight [`FaultEvent`]
    /// kinds) and then its fields in declaration order: ids and counts as
    /// varints, bools as one byte. A switch takes 3 bytes.
    pub fn record(&mut self, t: SimTime, e: Event) {
        if !self.is_enabled() {
            return;
        }
        self.events.push(t, |w| encode(w, &e));
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

    /// The held events, oldest first, decoded.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, Event)> + '_ {
        self.events.iter().map(|(t, mut r)| (t, decode(&mut r)))
    }

    /// Count events matching a predicate.
    pub fn count(&self, pred: impl Fn(&Event) -> bool) -> usize {
        self.iter().filter(|(_, e)| pred(e)).count()
    }

    /// Render as `xentrace`-style lines.
    pub fn to_lines(&self) -> Vec<String> {
        self.iter()
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
                    if cross_node { ", cross-node" } else { "" }
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
                    if fallback {
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

fn encode(w: &mut Writer<'_>, e: &Event) {
    let ix = |i: usize| i as u64;
    match *e {
        Event::SwitchIn { vcpu, pcpu } => w
            .varint(0)
            .varint(ix(vcpu.index()))
            .varint(ix(pcpu.index())),
        Event::SwitchOut { vcpu, pcpu } => w
            .varint(1)
            .varint(ix(vcpu.index()))
            .varint(ix(pcpu.index())),
        Event::Steal {
            thief,
            victim,
            vcpu,
            cross_node,
        } => w
            .varint(2)
            .varint(ix(thief.index()))
            .varint(ix(victim.index()))
            .varint(ix(vcpu.index()))
            .bool(cross_node),
        Event::PartitionMove { vcpu, node } => w
            .varint(3)
            .varint(ix(vcpu.index()))
            .varint(ix(node.index())),
        Event::IdlerWake { vcpu, pcpu } => w
            .varint(4)
            .varint(ix(vcpu.index()))
            .varint(ix(pcpu.index())),
        Event::CreditBoost { vcpu, pcpu } => w
            .varint(5)
            .varint(ix(vcpu.index()))
            .varint(ix(pcpu.index())),
        Event::SamplePeriod { periods } => w.varint(6).varint(periods),
        Event::PageMigration { vcpu, node, bytes } => w
            .varint(7)
            .varint(ix(vcpu.index()))
            .varint(ix(node.index()))
            .varint(bytes),
        Event::Degrade { fallback } => w.varint(8).bool(fallback),
        Event::Fault(ref f) => match *f {
            FaultEvent::SampleLost { vcpu } => w.varint(9).varint(ix(vcpu.index())),
            FaultEvent::CounterNoise { vcpu } => w.varint(10).varint(ix(vcpu.index())),
            FaultEvent::AffinityCorrupted { vcpu } => w.varint(11).varint(ix(vcpu.index())),
            FaultEvent::MigrationFailed { vcpu, node } => w
                .varint(12)
                .varint(ix(vcpu.index()))
                .varint(ix(node.index())),
            FaultEvent::MigrationDelayed { vcpu, node, quanta } => w
                .varint(13)
                .varint(ix(vcpu.index()))
                .varint(ix(node.index()))
                .varint(quanta),
            FaultEvent::StealFailed { thief } => w.varint(14).varint(ix(thief.index())),
            FaultEvent::PcpuStall { pcpu, quanta } => {
                w.varint(15).varint(ix(pcpu.index())).varint(quanta)
            }
            FaultEvent::NodeThrottled { node } => w.varint(16).varint(ix(node.index())),
        },
    };
}

fn decode(r: &mut Reader<'_>) -> Event {
    let tag = r.varint();
    let vcpu = |r: &mut Reader<'_>| VcpuId::new(r.varint() as u32);
    let pcpu = |r: &mut Reader<'_>| PcpuId::new(r.varint() as u16);
    let node = |r: &mut Reader<'_>| NodeId::new(r.varint() as u16);
    match tag {
        0 => Event::SwitchIn {
            vcpu: vcpu(r),
            pcpu: pcpu(r),
        },
        1 => Event::SwitchOut {
            vcpu: vcpu(r),
            pcpu: pcpu(r),
        },
        2 => Event::Steal {
            thief: pcpu(r),
            victim: pcpu(r),
            vcpu: vcpu(r),
            cross_node: r.bool(),
        },
        3 => Event::PartitionMove {
            vcpu: vcpu(r),
            node: node(r),
        },
        4 => Event::IdlerWake {
            vcpu: vcpu(r),
            pcpu: pcpu(r),
        },
        5 => Event::CreditBoost {
            vcpu: vcpu(r),
            pcpu: pcpu(r),
        },
        6 => Event::SamplePeriod {
            periods: r.varint(),
        },
        7 => Event::PageMigration {
            vcpu: vcpu(r),
            node: node(r),
            bytes: r.varint(),
        },
        8 => Event::Degrade { fallback: r.bool() },
        9 => Event::Fault(FaultEvent::SampleLost { vcpu: vcpu(r) }),
        10 => Event::Fault(FaultEvent::CounterNoise { vcpu: vcpu(r) }),
        11 => Event::Fault(FaultEvent::AffinityCorrupted { vcpu: vcpu(r) }),
        12 => Event::Fault(FaultEvent::MigrationFailed {
            vcpu: vcpu(r),
            node: node(r),
        }),
        13 => Event::Fault(FaultEvent::MigrationDelayed {
            vcpu: vcpu(r),
            node: node(r),
            quanta: r.varint(),
        }),
        14 => Event::Fault(FaultEvent::StealFailed { thief: pcpu(r) }),
        15 => Event::Fault(FaultEvent::PcpuStall {
            pcpu: pcpu(r),
            quanta: r.varint(),
        }),
        16 => Event::Fault(FaultEvent::NodeThrottled { node: node(r) }),
        _ => unreachable!("trace record tag {tag}"),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;
    use sim_core::SimDuration;

    /// An edge-heavy draw in `0..=max`: tiny values, `max` itself, and
    /// values of every magnitude in between.
    pub(crate) fn draw(rng: &mut TestRng, max: u64) -> u64 {
        match rng.below(4) {
            0 => rng.below(3).min(max),
            1 => max,
            2 => rng.below(300).min(max),
            _ => (rng.next_u64() >> rng.below(64)).min(max),
        }
    }

    /// `n` non-decreasing times whose gaps run from 0 to `u64::MAX` µs.
    pub(crate) fn times(rng: &mut TestRng, n: usize) -> Vec<SimTime> {
        let mut t = 0u64;
        (0..n)
            .map(|_| {
                t += match rng.below(64) {
                    0..=23 => 0,
                    24..=55 => rng.below(5000).min(u64::MAX - t),
                    56..=62 => draw(rng, u64::MAX - t),
                    _ => u64::MAX - t,
                };
                SimTime::from_micros(t)
            })
            .collect()
    }

    /// Variant `k % 17` of [`Event`] (the last eight are faults), with
    /// drawn fields.
    fn event(rng: &mut TestRng, k: usize) -> Event {
        let mut vcpu = || VcpuId::new(draw(rng, u32::MAX.into()) as u32);
        let (v1, v2) = (vcpu(), vcpu());
        let mut pcpu = || PcpuId::new(draw(rng, u16::MAX.into()) as u16);
        let (p1, p2) = (pcpu(), pcpu());
        let node = NodeId::new(draw(rng, u16::MAX.into()) as u16);
        let (n, flag) = (draw(rng, u64::MAX), rng.below(2) == 1);
        match k % 17 {
            0 => Event::SwitchIn { vcpu: v1, pcpu: p1 },
            1 => Event::SwitchOut { vcpu: v1, pcpu: p1 },
            2 => Event::Steal {
                thief: p1,
                victim: p2,
                vcpu: v2,
                cross_node: flag,
            },
            3 => Event::PartitionMove { vcpu: v1, node },
            4 => Event::IdlerWake { vcpu: v2, pcpu: p2 },
            5 => Event::CreditBoost { vcpu: v1, pcpu: p2 },
            6 => Event::SamplePeriod { periods: n },
            7 => Event::PageMigration {
                vcpu: v2,
                node,
                bytes: n,
            },
            8 => Event::Degrade { fallback: flag },
            9 => Event::Fault(FaultEvent::SampleLost { vcpu: v1 }),
            10 => Event::Fault(FaultEvent::CounterNoise { vcpu: v2 }),
            11 => Event::Fault(FaultEvent::AffinityCorrupted { vcpu: v1 }),
            12 => Event::Fault(FaultEvent::MigrationFailed { vcpu: v2, node }),
            13 => Event::Fault(FaultEvent::MigrationDelayed {
                vcpu: v1,
                node,
                quanta: n,
            }),
            14 => Event::Fault(FaultEvent::StealFailed { thief: p2 }),
            15 => Event::Fault(FaultEvent::PcpuStall {
                pcpu: p1,
                quanta: n,
            }),
            _ => Event::Fault(FaultEvent::NodeThrottled { node }),
        }
    }

    /// `n` timed events cycling through every variant.
    fn events(seed: u64, n: usize) -> Vec<(SimTime, Event)> {
        let mut rng = TestRng::new(seed);
        let ts = times(&mut rng, n);
        ts.into_iter()
            .enumerate()
            .map(|(k, t)| (t, event(&mut rng, k)))
            .collect()
    }

    fn log_of(capacity: usize, events: &[(SimTime, Event)]) -> TraceLog {
        let mut log = TraceLog::with_capacity(capacity);
        for (t, e) in events {
            log.record(*t, e.clone());
        }
        log
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every event decodes to exactly what was recorded, at its time.
        #[test]
        fn records_round_trip(seed in 0u64..u64::MAX, n in 17usize..300) {
            let events = events(seed, n);
            let log = log_of(n, &events);
            prop_assert!(log.iter().eq(events.iter().cloned()));
            prop_assert_eq!(log.recorded(), n as u64);
        }
    }

    /// The widest gap a record can store: from 0 to `u64::MAX` µs.
    #[test]
    fn extreme_times_round_trip() {
        let events: Vec<_> = [0, u64::MAX, u64::MAX]
            .into_iter()
            .enumerate()
            .map(|(k, t)| (SimTime::from_micros(t), event(&mut TestRng::new(3), k)))
            .collect();
        for cap in [1, 2, 3] {
            let log = log_of(cap, &events);
            assert!(
                log.iter().eq(events[3 - cap..].iter().cloned()),
                "cap {cap}"
            );
        }
    }

    /// A capped log holds exactly the tail of an uncapped one, at
    /// capacity 1 and one record either side of the first chunk boundary.
    #[test]
    fn capped_log_holds_the_uncapped_tail() {
        let events = events(7, 20_000);
        let mut all = TraceLog::with_capacity(events.len());
        let mut per_chunk = 0;
        for (t, e) in &events {
            all.record(*t, e.clone());
            if all.events.chunk_count() == 1 {
                per_chunk += 1;
            }
        }
        assert!(all.events.chunk_count() > 2 && per_chunk > 100);
        let held: Vec<_> = all.iter().collect();
        for cap in [1, per_chunk - 1, per_chunk + 1] {
            let log = log_of(cap, &events);
            assert!(log.iter().eq(held[events.len() - cap..].iter().cloned()));
            assert_eq!(log.dropped(), (events.len() - cap) as u64, "cap {cap}");
        }
    }

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
                Event::SamplePeriod { periods } => periods,
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
        let times: Vec<SimTime> = log.iter().map(|(t, _)| t).collect();
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
