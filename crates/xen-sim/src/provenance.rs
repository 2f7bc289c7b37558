//! Decision provenance: a structured log of *why* each scheduling choice
//! came out the way it did.
//!
//! The [`crate::trace`] log records *what* happened (a steal, a partition
//! move); this log records the decision behind it — the candidate set the
//! chooser saw, the per-candidate score components (LLC pressure estimate,
//! queue occupancy, NUMA distance, credit priority), the winner, and the
//! stable name of the rule that fired. Records are emitted at every
//! placement, steal, partition, page-migration, and degrade-fallback site
//! in [`crate::Machine`], gated by the same enabled-flag discipline as
//! telemetry: disabled, each site costs one branch and every metric, CSV,
//! and trace byte stays identical.
//!
//! Records carry a sequence number so downstream queries (`explain vm`,
//! `explain steal`) can reconstruct exact decision order even when several
//! decisions share a timestamp. Recording makes no RNG draws and never
//! feeds back into the schedule.

use numa_topo::{NodeId, PcpuId, VcpuId};
use sim_core::ring::{Reader, Ring, Writer};
use sim_core::{ObjWriter, SimTime};

use crate::policy::PartitionNote;
use crate::vcpu::Priority;

/// Stable lowercase name for a credit priority, used in exports.
pub fn priority_name(p: Priority) -> &'static str {
    match p {
        Priority::Boost => "boost",
        Priority::Under => "under",
        Priority::Over => "over",
    }
}

/// One stealable VCPU as the steal policy saw it, with the score
/// components vProbe's Algorithm 2 (and any other policy) decides on.
#[derive(Debug, Clone, PartialEq)]
pub struct StealCandidate {
    pub pcpu: PcpuId,
    pub vcpu: VcpuId,
    /// Victim PCPU's node.
    pub node: NodeId,
    /// NUMA distance victim node → thief node (the locality penalty).
    pub dist: u32,
    /// Victim queue occupancy (its `workload` counter).
    pub workload: usize,
    /// Candidate's last sampled LLC access pressure (intensity estimate).
    pub pressure: f64,
    /// Candidate's credit state at decision time.
    pub prio: Priority,
}

/// The decision-specific payload of a [`DecisionRecord`].
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// A steal decision: `thief` examined `candidates` and took `chosen`
    /// (or nothing). Only recorded when at least one candidate existed.
    Steal {
        thief: PcpuId,
        thief_node: NodeId,
        would_idle: bool,
        chosen: Option<(PcpuId, VcpuId)>,
        candidates: Vec<StealCandidate>,
    },
    /// A wakeup placement: `vcpu` woke and was placed on `chosen` out of
    /// `num_candidates` allowed PCPUs.
    WakePlacement {
        vcpu: VcpuId,
        chosen: PcpuId,
        num_candidates: usize,
    },
    /// A node-level placement: `vcpu` was queued on `chosen` among the
    /// `num_candidates` PCPUs of `node`.
    Placement {
        vcpu: VcpuId,
        node: NodeId,
        chosen: PcpuId,
        num_candidates: usize,
    },
    /// A partitioning assignment from the sampling-period pass, with the
    /// per-node candidate loads the partitioner weighed (empty when the
    /// policy supplied no note for the assignment).
    Partition {
        vcpu: VcpuId,
        node: NodeId,
        candidates: Vec<(usize, u64)>,
    },
    /// A page-migration grant: `bytes` of `vcpu`'s working set moved
    /// toward `node`.
    PageMigration {
        vcpu: VcpuId,
        node: NodeId,
        bytes: u64,
    },
    /// The policy entered (`fallback: true`) or left degraded fallback.
    Degrade { fallback: bool },
}

impl Decision {
    /// Stable machine-readable name, used by the JSONL exporter.
    pub fn kind(&self) -> &'static str {
        match self {
            Decision::Steal { .. } => "steal",
            Decision::WakePlacement { .. } => "wake_placement",
            Decision::Placement { .. } => "placement",
            Decision::Partition { .. } => "partition",
            Decision::PageMigration { .. } => "page_migration",
            Decision::Degrade { .. } => "degrade",
        }
    }
}

/// One recorded decision: when, in what order, under which rule, and the
/// full choice context, as [`ProvenanceLog::iter`] decodes it.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    pub t: SimTime,
    /// Global decision sequence number (0-based, never reused). Not
    /// stored: the `i`-th held record's is `dropped() + i`.
    pub seq: u64,
    /// Stable name of the rule that fired (e.g. "local-heaviest-min-pressure").
    pub rule: &'static str,
    pub decision: Decision,
}

/// A bounded ring of decisions, each kept as a compact byte record in a
/// [`Ring`] (see [`ProvenanceLog::record`] for the format).
#[derive(Debug, Clone, Default)]
pub struct ProvenanceLog {
    records: Ring,
    /// Every rule name recorded so far; a record stores its index.
    rules: Vec<&'static str>,
}

impl ProvenanceLog {
    /// A disabled log (records nothing).
    pub fn disabled() -> Self {
        ProvenanceLog::default()
    }

    /// An enabled log keeping the most recent `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be nonzero");
        ProvenanceLog {
            records: Ring::new(capacity),
            rules: Vec::new(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.records.capacity() > 0
    }

    /// Record a decision (no-op when disabled). Oldest records drop once
    /// the ring is full, with their candidate sets; timestamps must be
    /// non-decreasing.
    ///
    /// The payload is the rule's index in the log's table of rule names,
    /// the decision's tag (0–5 in [`Decision`] order) and its fields in
    /// declaration order: ids and counts as varints, bools as one byte,
    /// `chosen` as a presence byte before its ids, a candidate list as its
    /// length and then each candidate inline, `pressure` as its raw bits.
    pub fn record(&mut self, t: SimTime, rule: &'static str, decision: Decision) {
        if !self.is_enabled() {
            return;
        }
        let rule_ix = match self.rules.iter().position(|&r| r == rule) {
            Some(i) => i,
            None => {
                self.rules.push(rule);
                self.rules.len() - 1
            }
        };
        self.records.push(t, |w| {
            w.varint(rule_ix as u64);
            encode(w, &decision);
        });
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records dropped to the capacity bound; equals `recorded() - len()`.
    pub fn dropped(&self) -> u64 {
        self.records.dropped()
    }

    /// Total records ever recorded, dropped or not.
    pub fn recorded(&self) -> u64 {
        self.records.recorded()
    }

    /// The held records, oldest first, decoded.
    pub fn iter(&self) -> impl Iterator<Item = DecisionRecord> + '_ {
        let first_seq = self.dropped();
        self.records
            .iter()
            .zip(first_seq..)
            .map(|((t, mut r), seq)| DecisionRecord {
                t,
                seq,
                rule: self.rules[r.varint() as usize],
                decision: decode(&mut r),
            })
    }

    /// Count records matching a predicate.
    pub fn count(&self, pred: impl Fn(&Decision) -> bool) -> usize {
        self.iter().filter(|r| pred(&r.decision)).count()
    }
}

fn encode(w: &mut Writer<'_>, decision: &Decision) {
    let ix = |i: usize| i as u64;
    match decision {
        Decision::Steal {
            thief,
            thief_node,
            would_idle,
            chosen,
            candidates,
        } => {
            w.varint(0)
                .varint(ix(thief.index()))
                .varint(ix(thief_node.index()))
                .bool(*would_idle)
                .bool(chosen.is_some());
            if let Some((victim, vcpu)) = chosen {
                w.varint(ix(victim.index())).varint(ix(vcpu.index()));
            }
            w.varint(ix(candidates.len()));
            for c in candidates {
                w.varint(ix(c.pcpu.index()))
                    .varint(ix(c.vcpu.index()))
                    .varint(ix(c.node.index()))
                    .varint(u64::from(c.dist))
                    .varint(ix(c.workload))
                    .f64(c.pressure)
                    .varint(c.prio as u64);
            }
        }
        Decision::WakePlacement {
            vcpu,
            chosen,
            num_candidates,
        } => {
            w.varint(1)
                .varint(ix(vcpu.index()))
                .varint(ix(chosen.index()))
                .varint(ix(*num_candidates));
        }
        Decision::Placement {
            vcpu,
            node,
            chosen,
            num_candidates,
        } => {
            w.varint(2)
                .varint(ix(vcpu.index()))
                .varint(ix(node.index()))
                .varint(ix(chosen.index()))
                .varint(ix(*num_candidates));
        }
        Decision::Partition {
            vcpu,
            node,
            candidates,
        } => {
            w.varint(3)
                .varint(ix(vcpu.index()))
                .varint(ix(node.index()))
                .varint(ix(candidates.len()));
            for &(n, load) in candidates {
                w.varint(ix(n)).varint(load);
            }
        }
        Decision::PageMigration { vcpu, node, bytes } => {
            w.varint(4)
                .varint(ix(vcpu.index()))
                .varint(ix(node.index()))
                .varint(*bytes);
        }
        Decision::Degrade { fallback } => {
            w.varint(5).bool(*fallback);
        }
    }
}

fn decode(r: &mut Reader<'_>) -> Decision {
    let tag = r.varint();
    let vcpu = |r: &mut Reader<'_>| VcpuId::new(r.varint() as u32);
    let pcpu = |r: &mut Reader<'_>| PcpuId::new(r.varint() as u16);
    let node = |r: &mut Reader<'_>| NodeId::new(r.varint() as u16);
    let count = |r: &mut Reader<'_>| r.varint() as usize;
    match tag {
        0 => Decision::Steal {
            thief: pcpu(r),
            thief_node: node(r),
            would_idle: r.bool(),
            chosen: r.bool().then(|| (pcpu(r), vcpu(r))),
            candidates: (0..count(r))
                .map(|_| StealCandidate {
                    pcpu: pcpu(r),
                    vcpu: vcpu(r),
                    node: node(r),
                    dist: r.varint() as u32,
                    workload: count(r),
                    pressure: r.f64(),
                    prio: match r.varint() {
                        0 => Priority::Boost,
                        1 => Priority::Under,
                        2 => Priority::Over,
                        p => unreachable!("priority {p}"),
                    },
                })
                .collect(),
        },
        1 => Decision::WakePlacement {
            vcpu: vcpu(r),
            chosen: pcpu(r),
            num_candidates: count(r),
        },
        2 => Decision::Placement {
            vcpu: vcpu(r),
            node: node(r),
            chosen: pcpu(r),
            num_candidates: count(r),
        },
        3 => Decision::Partition {
            vcpu: vcpu(r),
            node: node(r),
            candidates: (0..count(r)).map(|_| (count(r), r.varint())).collect(),
        },
        4 => Decision::PageMigration {
            vcpu: vcpu(r),
            node: node(r),
            bytes: r.varint(),
        },
        5 => Decision::Degrade { fallback: r.bool() },
        _ => unreachable!("decision record tag {tag}"),
    }
}

/// Convert a policy's [`PartitionNote`] into the decision payload the
/// machine records when it applies the corresponding assignment.
pub fn decision_from_note(note: &PartitionNote) -> Decision {
    Decision::Partition {
        vcpu: note.vcpu,
        node: note.node,
        candidates: note.candidates.clone(),
    }
}

/// Serialize a provenance log as JSON Lines: one decision per line with
/// `t_us`, `seq`, `kind`, `rule`, then kind-specific fields.
pub fn to_jsonl(log: &ProvenanceLog) -> String {
    // Flat reserves per record: 250 bytes here, 56 in `export::to_jsonl`
    // and 51 in `export::to_chrome`. A decision line grows with its steal
    // candidates (253, 291 and 376 bytes at seeds 42, 1234 and 7 of
    // simbench's `observed-faults`), so this buffer regrows on those runs,
    // and so do the two trace exports. A reserve computed from the held
    // records (a per-kind base plus a per-candidate term, 1–8 % above each
    // export's length) never regrew, yet peaked at 13.2 and 15.3 MB at
    // seeds 1234 and 7 against 9.9 and 12.0 MB for these (8.95 against
    // 9.25 MB at seed 42; 10 s runs). The allocator explains it: a regrown trace
    // export frees a buffer twice its length, which lets the next exports
    // reuse the same heap pages, while an exact one leaves the largest
    // (decision) export to map fresh pages beside those the Chrome export
    // left in the heap.
    let mut out = String::with_capacity(log.len() * 250);
    for r in log.iter() {
        ObjWriter::write(&mut out, |w| {
            w.u64("t_us", r.t.as_micros())
                .u64("seq", r.seq)
                .str("kind", r.decision.kind())
                .str("rule", r.rule);
            write_decision_fields(w, &r.decision);
        });
        out.push('\n');
    }
    out
}

fn write_decision_fields(w: &mut ObjWriter<'_>, decision: &Decision) {
    let ix = |i: usize| i as u64;
    match decision {
        Decision::Steal {
            thief,
            thief_node,
            would_idle,
            chosen,
            candidates,
        } => {
            w.u64("thief", ix(thief.index()))
                .u64("thief_node", ix(thief_node.index()))
                .bool("would_idle", *would_idle)
                .opt_u64("victim", chosen.map(|(victim, _)| ix(victim.index())))
                .opt_u64("vcpu", chosen.map(|(_, vcpu)| ix(vcpu.index())))
                .array("candidates", candidates, |cw, c| {
                    cw.u64("pcpu", ix(c.pcpu.index()))
                        .u64("vcpu", ix(c.vcpu.index()))
                        .u64("node", ix(c.node.index()))
                        .u64("dist", u64::from(c.dist))
                        .u64("workload", ix(c.workload))
                        .f64("pressure", c.pressure)
                        .str("prio", priority_name(c.prio));
                });
        }
        Decision::WakePlacement {
            vcpu,
            chosen,
            num_candidates,
        } => {
            w.u64("vcpu", ix(vcpu.index()))
                .u64("pcpu", ix(chosen.index()))
                .u64("num_candidates", ix(*num_candidates));
        }
        Decision::Placement {
            vcpu,
            node,
            chosen,
            num_candidates,
        } => {
            w.u64("vcpu", ix(vcpu.index()))
                .u64("node", ix(node.index()))
                .u64("pcpu", ix(chosen.index()))
                .u64("num_candidates", ix(*num_candidates));
        }
        Decision::Partition {
            vcpu,
            node,
            candidates,
        } => {
            w.u64("vcpu", ix(vcpu.index()))
                .u64("node", ix(node.index()))
                .array("candidates", candidates, |cw, &(n, load)| {
                    cw.u64("node", ix(n)).u64("load", load);
                });
        }
        Decision::PageMigration { vcpu, node, bytes } => {
            w.u64("vcpu", ix(vcpu.index()))
                .u64("node", ix(node.index()))
                .u64("bytes", *bytes);
        }
        Decision::Degrade { fallback } => {
            w.bool("fallback", *fallback);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests::{draw, times};
    use proptest::prelude::*;
    use proptest::TestRng;
    use sim_core::{Json, SimDuration};

    /// Variant `k % 6` of [`Decision`] with drawn fields: ids up to their
    /// type's maximum, counts up to `usize::MAX`, pressures of any bit
    /// pattern and up to four candidates.
    fn decision(rng: &mut TestRng, k: usize) -> Decision {
        let vcpu = |rng: &mut TestRng| VcpuId::new(draw(rng, u32::MAX.into()) as u32);
        let pcpu = |rng: &mut TestRng| PcpuId::new(draw(rng, u16::MAX.into()) as u16);
        let node = |rng: &mut TestRng| NodeId::new(draw(rng, u16::MAX.into()) as u16);
        let count = |rng: &mut TestRng| draw(rng, usize::MAX as u64) as usize;
        let flag = |rng: &mut TestRng| rng.below(2) == 1;
        let n = rng.below(5) as usize;
        match k % 6 {
            0 => Decision::Steal {
                thief: pcpu(rng),
                thief_node: node(rng),
                would_idle: flag(rng),
                chosen: flag(rng).then(|| (pcpu(rng), vcpu(rng))),
                candidates: (0..n)
                    .map(|_| StealCandidate {
                        pcpu: pcpu(rng),
                        vcpu: vcpu(rng),
                        node: node(rng),
                        dist: draw(rng, u32::MAX.into()) as u32,
                        workload: count(rng),
                        pressure: f64::from_bits(rng.next_u64()),
                        prio: [Priority::Boost, Priority::Under, Priority::Over]
                            [rng.below(3) as usize],
                    })
                    .collect(),
            },
            1 => Decision::WakePlacement {
                vcpu: vcpu(rng),
                chosen: pcpu(rng),
                num_candidates: count(rng),
            },
            2 => Decision::Placement {
                vcpu: vcpu(rng),
                node: node(rng),
                chosen: pcpu(rng),
                num_candidates: count(rng),
            },
            3 => Decision::Partition {
                vcpu: vcpu(rng),
                node: node(rng),
                candidates: (0..n).map(|_| (count(rng), draw(rng, u64::MAX))).collect(),
            },
            4 => Decision::PageMigration {
                vcpu: vcpu(rng),
                node: node(rng),
                bytes: draw(rng, u64::MAX),
            },
            _ => Decision::Degrade {
                fallback: flag(rng),
            },
        }
    }

    const RULES: [&str; 3] = ["local-heaviest-min-pressure", "policy-default", ""];

    /// `n` records cycling through every variant and three rules.
    fn records(seed: u64, n: usize) -> Vec<DecisionRecord> {
        let mut rng = TestRng::new(seed);
        let ts = times(&mut rng, n);
        ts.into_iter()
            .enumerate()
            .map(|(k, t)| DecisionRecord {
                t,
                seq: k as u64,
                rule: RULES[rng.below(3) as usize],
                decision: decision(&mut rng, k),
            })
            .collect()
    }

    fn log_of(capacity: usize, records: &[DecisionRecord]) -> ProvenanceLog {
        let mut log = ProvenanceLog::with_capacity(capacity);
        for r in records {
            log.record(r.t, r.rule, r.decision.clone());
        }
        log
    }

    /// A record with each candidate pressure replaced by its bits, so NaN
    /// payloads compare exactly.
    fn exact(mut r: DecisionRecord) -> (DecisionRecord, Vec<u64>) {
        let mut bits = Vec::new();
        if let Decision::Steal { candidates, .. } = &mut r.decision {
            for c in candidates {
                bits.push(c.pressure.to_bits());
                c.pressure = 0.0;
            }
        }
        (r, bits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every decision decodes to exactly what was recorded, with its
        /// time, rule and sequence number, pressures bit for bit.
        #[test]
        fn records_round_trip(seed in 0u64..u64::MAX, n in 6usize..300) {
            let records = records(seed, n);
            let log = log_of(n, &records);
            prop_assert!(log.iter().map(exact).eq(records.iter().cloned().map(exact)));
        }
    }

    /// A capped log holds exactly the tail of an uncapped one, sequence
    /// numbers included, at capacity 1 and one record either side of the
    /// first chunk boundary.
    #[test]
    fn capped_log_holds_the_uncapped_tail() {
        let records = records(11, 5_000);
        let mut all = ProvenanceLog::with_capacity(records.len());
        let mut per_chunk = 0;
        for r in &records {
            all.record(r.t, r.rule, r.decision.clone());
            if all.records.chunk_count() == 1 {
                per_chunk += 1;
            }
        }
        assert!(all.records.chunk_count() > 2 && per_chunk > 50);
        let held: Vec<_> = all.iter().map(exact).collect();
        for cap in [1, per_chunk - 1, per_chunk + 1] {
            let log = log_of(cap, &records);
            assert!(log
                .iter()
                .map(exact)
                .eq(held[records.len() - cap..].iter().cloned()));
            assert_eq!(log.dropped(), (records.len() - cap) as u64, "cap {cap}");
        }
    }

    /// The tree-building `to_jsonl` the streaming writer replaced.
    fn oracle_jsonl(log: &ProvenanceLog) -> String {
        let mut out = String::new();
        for r in log.iter() {
            let mut fields: Vec<(String, Json)> = vec![
                ("t_us".into(), Json::from(r.t.as_micros())),
                ("seq".into(), Json::from(r.seq)),
                ("kind".into(), Json::from(r.decision.kind())),
                ("rule".into(), Json::from(r.rule)),
            ];
            match &r.decision {
                Decision::Steal {
                    thief,
                    thief_node,
                    would_idle,
                    chosen,
                    candidates,
                } => {
                    fields.push(("thief".into(), Json::from(thief.index())));
                    fields.push(("thief_node".into(), Json::from(thief_node.index())));
                    fields.push(("would_idle".into(), Json::from(*would_idle)));
                    match chosen {
                        Some((victim, vcpu)) => {
                            fields.push(("victim".into(), Json::from(victim.index())));
                            fields.push(("vcpu".into(), Json::from(vcpu.index())));
                        }
                        None => {
                            fields.push(("victim".into(), Json::Null));
                            fields.push(("vcpu".into(), Json::Null));
                        }
                    }
                    let cands = candidates
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("pcpu".into(), Json::from(c.pcpu.index())),
                                ("vcpu".into(), Json::from(c.vcpu.index())),
                                ("node".into(), Json::from(c.node.index())),
                                ("dist".into(), Json::from(u64::from(c.dist))),
                                ("workload".into(), Json::from(c.workload)),
                                ("pressure".into(), Json::Num(c.pressure)),
                                ("prio".into(), Json::from(priority_name(c.prio))),
                            ])
                        })
                        .collect();
                    fields.push(("candidates".into(), Json::Arr(cands)));
                }
                Decision::WakePlacement {
                    vcpu,
                    chosen,
                    num_candidates,
                } => {
                    fields.push(("vcpu".into(), Json::from(vcpu.index())));
                    fields.push(("pcpu".into(), Json::from(chosen.index())));
                    fields.push(("num_candidates".into(), Json::from(*num_candidates)));
                }
                Decision::Placement {
                    vcpu,
                    node,
                    chosen,
                    num_candidates,
                } => {
                    fields.push(("vcpu".into(), Json::from(vcpu.index())));
                    fields.push(("node".into(), Json::from(node.index())));
                    fields.push(("pcpu".into(), Json::from(chosen.index())));
                    fields.push(("num_candidates".into(), Json::from(*num_candidates)));
                }
                Decision::Partition {
                    vcpu,
                    node,
                    candidates,
                } => {
                    fields.push(("vcpu".into(), Json::from(vcpu.index())));
                    fields.push(("node".into(), Json::from(node.index())));
                    let cands = candidates
                        .iter()
                        .map(|&(n, load)| {
                            Json::Obj(vec![
                                ("node".into(), Json::from(n)),
                                ("load".into(), Json::from(load)),
                            ])
                        })
                        .collect();
                    fields.push(("candidates".into(), Json::Arr(cands)));
                }
                Decision::PageMigration { vcpu, node, bytes } => {
                    fields.push(("vcpu".into(), Json::from(vcpu.index())));
                    fields.push(("node".into(), Json::from(node.index())));
                    fields.push(("bytes".into(), Json::from(*bytes)));
                }
                Decision::Degrade { fallback } => {
                    fields.push(("fallback".into(), Json::from(*fallback)));
                }
            }
            out.push_str(&Json::Obj(fields).to_string());
            out.push('\n');
        }
        out
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn steal_decision() -> Decision {
        Decision::Steal {
            thief: PcpuId::new(4),
            thief_node: NodeId::new(1),
            would_idle: true,
            chosen: Some((PcpuId::new(0), VcpuId::new(7))),
            candidates: vec![StealCandidate {
                pcpu: PcpuId::new(0),
                vcpu: VcpuId::new(7),
                node: NodeId::new(0),
                dist: 21,
                workload: 3,
                pressure: 14.25,
                prio: Priority::Under,
            }],
        }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = ProvenanceLog::disabled();
        log.record(t(1), "x", steal_decision());
        assert!(log.is_empty());
        assert!(!log.is_enabled());
        assert_eq!(to_jsonl(&log), "");
    }

    #[test]
    fn ring_drops_oldest_and_keeps_seq() {
        let mut log = ProvenanceLog::with_capacity(2);
        for i in 0..5 {
            log.record(t(i), "r", Decision::Degrade { fallback: false });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        assert_eq!(log.recorded(), 5);
        let seqs: Vec<u64> = log.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn jsonl_schema_is_stable() {
        let mut log = ProvenanceLog::with_capacity(16);
        log.record(t(10), "local-heaviest-min-pressure", steal_decision());
        log.record(
            t(1000),
            "min-load-local-group",
            Decision::Partition {
                vcpu: VcpuId::new(3),
                node: NodeId::new(1),
                candidates: vec![(0, 4), (1, 2)],
            },
        );
        log.record(
            t(1000),
            "uniform-random",
            Decision::Placement {
                vcpu: VcpuId::new(3),
                node: NodeId::new(1),
                chosen: PcpuId::new(5),
                num_candidates: 4,
            },
        );
        log.record(t(2000), "dark-streak", Decision::Degrade { fallback: true });
        let jsonl = to_jsonl(&log);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            let doc = Json::parse(line).expect("every line parses");
            assert!(doc.get("t_us").is_some(), "{line}");
            assert!(doc.get("seq").is_some(), "{line}");
            assert!(doc.get("kind").is_some(), "{line}");
            assert!(doc.get("rule").is_some(), "{line}");
        }
        assert!(lines[0].starts_with(
            "{\"t_us\":10000,\"seq\":0,\"kind\":\"steal\",\"rule\":\"local-heaviest-min-pressure\""
        ));
        assert!(lines[0].contains("\"prio\":\"under\""));
        assert!(
            lines[1].contains("\"candidates\":[{\"node\":0,\"load\":4},{\"node\":1,\"load\":2}]")
        );
        assert!(lines[2].contains("\"num_candidates\":4"));
        assert!(lines[3].contains("\"fallback\":true"));
    }

    #[test]
    fn streamed_jsonl_matches_tree_oracle_on_edge_values() {
        let ints = [
            0,
            (1u64 << 53) - 1,
            8_999_999_999_999_999,
            9_000_000_000_000_000,
            (1u64 << 53) + 1,
            u64::MAX,
        ];
        let pressures = [3.0, 14.25, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let rules = [
            "plain",
            "q\"uote",
            "back\\slash",
            "ctl\u{0}\u{1f}\n\r\t",
            "ünï©ødé 😀",
            "",
        ];
        let prios = [Priority::Boost, Priority::Under, Priority::Over];
        let mut log = ProvenanceLog::with_capacity(256);
        let mut stamps = ints;
        stamps.sort_unstable();
        for (i, &at) in stamps.iter().enumerate() {
            let x = ints[i];
            let rule = rules[i];
            let cand = |k: usize| StealCandidate {
                pcpu: PcpuId::new(k as u16),
                vcpu: VcpuId::new(u32::MAX - k as u32),
                node: NodeId::new(1),
                dist: u32::MAX,
                workload: x as usize,
                pressure: pressures[(i + k) % pressures.len()],
                prio: prios[(i + k) % prios.len()],
            };
            let decisions = [
                Decision::Steal {
                    thief: PcpuId::new(u16::MAX),
                    thief_node: NodeId::new(0),
                    would_idle: i % 2 == 0,
                    chosen: Some((PcpuId::new(1), VcpuId::new(2))),
                    candidates: (0..3).map(cand).collect(),
                },
                Decision::Steal {
                    thief: PcpuId::new(0),
                    thief_node: NodeId::new(1),
                    would_idle: false,
                    chosen: None,
                    candidates: vec![],
                },
                Decision::WakePlacement {
                    vcpu: VcpuId::new(3),
                    chosen: PcpuId::new(4),
                    num_candidates: x as usize,
                },
                Decision::Placement {
                    vcpu: VcpuId::new(3),
                    node: NodeId::new(1),
                    chosen: PcpuId::new(5),
                    num_candidates: usize::MAX,
                },
                Decision::Partition {
                    vcpu: VcpuId::new(3),
                    node: NodeId::new(1),
                    candidates: vec![(0, x), (usize::MAX, 0)],
                },
                Decision::PageMigration {
                    vcpu: VcpuId::new(3),
                    node: NodeId::new(0),
                    bytes: x,
                },
                Decision::Degrade {
                    fallback: i % 2 == 1,
                },
            ];
            for d in decisions {
                log.record(SimTime::from_micros(at), rule, d);
            }
        }
        assert_eq!(to_jsonl(&log), oracle_jsonl(&log));
        assert_eq!(to_jsonl(&ProvenanceLog::disabled()), "");
    }

    #[test]
    fn export_is_deterministic() {
        let mut log = ProvenanceLog::with_capacity(8);
        log.record(t(1), "r", steal_decision());
        assert_eq!(to_jsonl(&log), to_jsonl(&log));
    }
}
