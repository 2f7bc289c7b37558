//! Trace export: JSONL and Chrome Trace Event (Perfetto) serialization.
//!
//! Both exporters walk a [`TraceLog`] front to back and are pure functions
//! of its contents, so byte-identical logs yield byte-identical files. The
//! JSONL form is one self-describing object per line (grep- and
//! `jq`-friendly); the Chrome form renders per-PCPU tracks of which VCPU
//! ran when, with scheduler decisions overlaid as instant events, and an
//! extra "events" track for machine-wide occurrences (sampling periods,
//! partition moves, faults, degrade transitions).
//!
//! Exporters take the machine context they need (PCPU count, VCPU labels)
//! explicitly; `Machine::trace_jsonl` / `Machine::trace_chrome` supply it.

use crate::trace::{Event, FaultEvent, TraceLog};
use sim_core::ObjWriter;
use telemetry::{Arg, ChromeTrace};

/// Serialize a trace as JSON Lines: one event object per line, each with
/// `t_us` (microsecond timestamp) and `kind`, plus event-specific fields.
pub fn to_jsonl(log: &TraceLog) -> String {
    // Events average 56.6–56.8 bytes a line on the `observed-faults`
    // machine (seeds 7, 42, 99, 1234). Reserving just under that avoids
    // the regrow a loose bound leaves near the end, which fragmented the
    // heap enough to raise that run's peak RSS by 0.9 MB. Over the chunked
    // logs the reserves still pay: upper bounds (64 here, 60 in
    // `to_chrome`, 300 in `provenance::to_jsonl`) peaked 0.2 MB lower at
    // seed 42 but 3.0 MB higher at seed 1234 and 2.6 MB higher at seed 7
    // (35 s simbench runs).
    let mut out = String::with_capacity(log.len() * 56);
    for (t, e) in log.iter() {
        ObjWriter::write(&mut out, |w| {
            w.u64("t_us", t.as_micros());
            write_event_fields(w, e);
        });
        out.push('\n');
    }
    out
}

fn write_event_fields(w: &mut ObjWriter<'_>, e: &Event) {
    let kind: &str = match e {
        Event::SwitchIn { .. } => "switch_in",
        Event::SwitchOut { .. } => "switch_out",
        Event::Steal { .. } => "steal",
        Event::PartitionMove { .. } => "partition_move",
        Event::IdlerWake { .. } => "idler_wake",
        Event::CreditBoost { .. } => "credit_boost",
        Event::SamplePeriod { .. } => "sample_period",
        Event::PageMigration { .. } => "page_migration",
        Event::Degrade { .. } => "degrade",
        Event::Fault(f) => f.kind(),
    };
    if let Event::Fault(_) = e {
        w.str("kind", "fault").str("fault", kind);
    } else {
        w.str("kind", kind);
    }
    let ix = |i: usize| i as u64;
    match e {
        Event::SwitchIn { vcpu, pcpu }
        | Event::SwitchOut { vcpu, pcpu }
        | Event::IdlerWake { vcpu, pcpu }
        | Event::CreditBoost { vcpu, pcpu } => {
            w.u64("vcpu", ix(vcpu.index()))
                .u64("pcpu", ix(pcpu.index()));
        }
        Event::Steal {
            thief,
            victim,
            vcpu,
            cross_node,
        } => {
            w.u64("thief", ix(thief.index()))
                .u64("victim", ix(victim.index()))
                .u64("vcpu", ix(vcpu.index()))
                .bool("cross_node", *cross_node);
        }
        Event::PartitionMove { vcpu, node } => {
            w.u64("vcpu", ix(vcpu.index()))
                .u64("node", ix(node.index()));
        }
        Event::SamplePeriod { periods } => {
            w.u64("periods", *periods);
        }
        Event::PageMigration { vcpu, node, bytes } => {
            w.u64("vcpu", ix(vcpu.index()))
                .u64("node", ix(node.index()))
                .u64("bytes", *bytes);
        }
        Event::Degrade { fallback } => {
            w.bool("fallback", *fallback);
        }
        Event::Fault(f) => match f {
            FaultEvent::SampleLost { vcpu }
            | FaultEvent::CounterNoise { vcpu }
            | FaultEvent::AffinityCorrupted { vcpu } => {
                w.u64("vcpu", ix(vcpu.index()));
            }
            FaultEvent::MigrationFailed { vcpu, node } => {
                w.u64("vcpu", ix(vcpu.index()))
                    .u64("node", ix(node.index()));
            }
            FaultEvent::MigrationDelayed { vcpu, node, quanta } => {
                w.u64("vcpu", ix(vcpu.index()))
                    .u64("node", ix(node.index()))
                    .u64("quanta", *quanta);
            }
            FaultEvent::StealFailed { thief } => {
                w.u64("thief", ix(thief.index()));
            }
            FaultEvent::PcpuStall { pcpu, quanta } => {
                w.u64("pcpu", ix(pcpu.index())).u64("quanta", *quanta);
            }
            FaultEvent::NodeThrottled { node } => {
                w.u64("node", ix(node.index()));
            }
        },
    }
}

/// Context the Chrome exporter needs from the machine.
pub struct ChromeContext<'a> {
    /// Track count: tids `0..num_pcpus` are PCPUs, tid `num_pcpus` is the
    /// machine-wide "events" track.
    pub num_pcpus: usize,
    /// Human labels (`"vm0/v2"`, `"idler3"`) indexed by VCPU index.
    pub vcpu_labels: &'a [String],
    /// Timestamp to close still-open execution spans at (run end).
    pub end_us: u64,
}

/// Render the trace as a Chrome Trace Event file: one track per PCPU with
/// complete spans for each VCPU occupancy (paired from SwitchIn/SwitchOut,
/// closed at `end_us` if still running), instants for per-PCPU scheduler
/// decisions, and a final "events" track for machine-wide occurrences.
pub fn to_chrome(log: &TraceLog, ctx: &ChromeContext) -> String {
    // 51.9–52.4 bytes of Chrome file per trace event on the same runs;
    // see `to_jsonl`.
    let mut t = ChromeTrace::with_capacity(log.len() * 51);
    for p in 0..ctx.num_pcpus {
        t.thread_name(p as u64, &format!("pcpu{p}"));
    }
    let events_tid = ctx.num_pcpus as u64;
    t.thread_name(events_tid, "events");

    let label = |v: usize| -> &str {
        ctx.vcpu_labels
            .get(v)
            .map(|s| s.as_str())
            .unwrap_or("vcpu?")
    };
    // Open occupancy per PCPU: (vcpu index, span start in us).
    let mut open: Vec<Option<(usize, u64)>> = vec![None; ctx.num_pcpus];
    let close = |t: &mut ChromeTrace, open: &mut Vec<Option<(usize, u64)>>, p: usize, ts: u64| {
        if let Some((v, start)) = open[p].take() {
            t.complete(p as u64, label(v), start, ts.saturating_sub(start));
        }
    };

    // Reused for the "fault:<kind>" instant names.
    let mut fault_name = String::new();
    let ix = |i: usize| i as u64;
    for (time, e) in log.iter() {
        let ts = time.as_micros();
        match e {
            Event::SwitchIn { vcpu, pcpu } => {
                // A missing SwitchOut (dropped from the ring) leaves a
                // stale open span; close it at the hand-over instant.
                close(&mut t, &mut open, pcpu.index(), ts);
                open[pcpu.index()] = Some((vcpu.index(), ts));
            }
            Event::SwitchOut { pcpu, .. } => {
                close(&mut t, &mut open, pcpu.index(), ts);
            }
            Event::Steal {
                thief,
                victim,
                vcpu,
                cross_node,
            } => {
                t.instant(
                    ix(thief.index()),
                    if *cross_node {
                        "steal(remote)"
                    } else {
                        "steal(local)"
                    },
                    ts,
                    &[
                        ("victim", Arg::U64(ix(victim.index()))),
                        ("vcpu", Arg::Str(label(vcpu.index()))),
                    ],
                );
            }
            Event::PartitionMove { vcpu, node } => {
                t.instant(
                    events_tid,
                    "partition_move",
                    ts,
                    &[
                        ("vcpu", Arg::Str(label(vcpu.index()))),
                        ("node", Arg::U64(ix(node.index()))),
                    ],
                );
            }
            Event::IdlerWake { vcpu, pcpu } => {
                t.instant(
                    ix(pcpu.index()),
                    "idler_wake",
                    ts,
                    &[("vcpu", Arg::Str(label(vcpu.index())))],
                );
            }
            Event::CreditBoost { vcpu, pcpu } => {
                t.instant(
                    ix(pcpu.index()),
                    "credit_boost",
                    ts,
                    &[("vcpu", Arg::Str(label(vcpu.index())))],
                );
            }
            Event::SamplePeriod { periods } => {
                t.instant(
                    events_tid,
                    "sample_period",
                    ts,
                    &[("periods", Arg::U64(*periods))],
                );
            }
            Event::PageMigration { vcpu, node, bytes } => {
                t.instant(
                    events_tid,
                    "page_migration",
                    ts,
                    &[
                        ("vcpu", Arg::Str(label(vcpu.index()))),
                        ("node", Arg::U64(ix(node.index()))),
                        ("bytes", Arg::U64(*bytes)),
                    ],
                );
            }
            Event::Degrade { fallback } => {
                t.instant(
                    events_tid,
                    if *fallback {
                        "degrade(enter)"
                    } else {
                        "degrade(recover)"
                    },
                    ts,
                    &[],
                );
            }
            Event::Fault(f) => {
                fault_name.clear();
                fault_name.push_str("fault:");
                fault_name.push_str(f.kind());
                t.instant(events_tid, &fault_name, ts, &[]);
            }
        }
    }
    for p in 0..ctx.num_pcpus {
        close(&mut t, &mut open, p, ctx.end_us);
    }
    t.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topo::{NodeId, PcpuId, VcpuId};
    use sim_core::{Json, SimDuration, SimTime};

    /// The tree-building Chrome builder the streaming one replaced.
    #[derive(Default)]
    struct OracleChrome {
        events: Vec<Json>,
    }

    impl OracleChrome {
        fn thread_name(&mut self, tid: u64, name: &str) {
            self.events.push(Json::Obj(vec![
                ("ph".into(), Json::from("M")),
                ("pid".into(), Json::from(0u64)),
                ("tid".into(), Json::from(tid)),
                ("name".into(), Json::from("thread_name")),
                (
                    "args".into(),
                    Json::Obj(vec![("name".into(), Json::from(name))]),
                ),
            ]));
        }

        fn complete(&mut self, tid: u64, name: &str, ts_us: u64, dur_us: u64) {
            self.events.push(Json::Obj(vec![
                ("ph".into(), Json::from("X")),
                ("pid".into(), Json::from(0u64)),
                ("tid".into(), Json::from(tid)),
                ("ts".into(), Json::from(ts_us)),
                ("dur".into(), Json::from(dur_us)),
                ("name".into(), Json::from(name)),
            ]));
        }

        fn instant(&mut self, tid: u64, name: &str, ts_us: u64, args: Vec<(String, Json)>) {
            let mut fields = vec![
                ("ph".into(), Json::from("i")),
                ("pid".into(), Json::from(0u64)),
                ("tid".into(), Json::from(tid)),
                ("ts".into(), Json::from(ts_us)),
                ("name".into(), Json::from(name)),
                ("s".into(), Json::from("t")),
            ];
            if !args.is_empty() {
                fields.push(("args".into(), Json::Obj(args)));
            }
            self.events.push(Json::Obj(fields));
        }

        fn finish(self) -> String {
            Json::Obj(vec![
                ("traceEvents".into(), Json::Arr(self.events)),
                ("displayTimeUnit".into(), Json::from("ms")),
            ])
            .to_string()
        }
    }

    /// The tree-building `to_jsonl` the streaming writer replaced.
    fn oracle_jsonl(log: &TraceLog) -> String {
        let mut out = String::new();
        for (t, e) in log.iter() {
            let mut fields: Vec<(String, Json)> = vec![("t_us".into(), Json::from(t.as_micros()))];
            let kind: &str = match e {
                Event::SwitchIn { .. } => "switch_in",
                Event::SwitchOut { .. } => "switch_out",
                Event::Steal { .. } => "steal",
                Event::PartitionMove { .. } => "partition_move",
                Event::IdlerWake { .. } => "idler_wake",
                Event::CreditBoost { .. } => "credit_boost",
                Event::SamplePeriod { .. } => "sample_period",
                Event::PageMigration { .. } => "page_migration",
                Event::Degrade { .. } => "degrade",
                Event::Fault(f) => f.kind(),
            };
            if let Event::Fault(_) = e {
                fields.push(("kind".into(), Json::from("fault")));
                fields.push(("fault".into(), Json::from(kind)));
            } else {
                fields.push(("kind".into(), Json::from(kind)));
            }
            match e {
                Event::SwitchIn { vcpu, pcpu } | Event::SwitchOut { vcpu, pcpu } => {
                    fields.push(("vcpu".into(), Json::from(vcpu.index())));
                    fields.push(("pcpu".into(), Json::from(pcpu.index())));
                }
                Event::Steal {
                    thief,
                    victim,
                    vcpu,
                    cross_node,
                } => {
                    fields.push(("thief".into(), Json::from(thief.index())));
                    fields.push(("victim".into(), Json::from(victim.index())));
                    fields.push(("vcpu".into(), Json::from(vcpu.index())));
                    fields.push(("cross_node".into(), Json::from(*cross_node)));
                }
                Event::PartitionMove { vcpu, node } => {
                    fields.push(("vcpu".into(), Json::from(vcpu.index())));
                    fields.push(("node".into(), Json::from(node.index())));
                }
                Event::IdlerWake { vcpu, pcpu } | Event::CreditBoost { vcpu, pcpu } => {
                    fields.push(("vcpu".into(), Json::from(vcpu.index())));
                    fields.push(("pcpu".into(), Json::from(pcpu.index())));
                }
                Event::SamplePeriod { periods } => {
                    fields.push(("periods".into(), Json::from(*periods)));
                }
                Event::PageMigration { vcpu, node, bytes } => {
                    fields.push(("vcpu".into(), Json::from(vcpu.index())));
                    fields.push(("node".into(), Json::from(node.index())));
                    fields.push(("bytes".into(), Json::from(*bytes)));
                }
                Event::Degrade { fallback } => {
                    fields.push(("fallback".into(), Json::from(*fallback)));
                }
                Event::Fault(f) => match f {
                    FaultEvent::SampleLost { vcpu }
                    | FaultEvent::CounterNoise { vcpu }
                    | FaultEvent::AffinityCorrupted { vcpu } => {
                        fields.push(("vcpu".into(), Json::from(vcpu.index())));
                    }
                    FaultEvent::MigrationFailed { vcpu, node } => {
                        fields.push(("vcpu".into(), Json::from(vcpu.index())));
                        fields.push(("node".into(), Json::from(node.index())));
                    }
                    FaultEvent::MigrationDelayed { vcpu, node, quanta } => {
                        fields.push(("vcpu".into(), Json::from(vcpu.index())));
                        fields.push(("node".into(), Json::from(node.index())));
                        fields.push(("quanta".into(), Json::from(*quanta)));
                    }
                    FaultEvent::StealFailed { thief } => {
                        fields.push(("thief".into(), Json::from(thief.index())));
                    }
                    FaultEvent::PcpuStall { pcpu, quanta } => {
                        fields.push(("pcpu".into(), Json::from(pcpu.index())));
                        fields.push(("quanta".into(), Json::from(*quanta)));
                    }
                    FaultEvent::NodeThrottled { node } => {
                        fields.push(("node".into(), Json::from(node.index())));
                    }
                },
            }
            out.push_str(&Json::Obj(fields).to_string());
            out.push('\n');
        }
        out
    }

    /// The tree-building `to_chrome` the streaming builder replaced.
    fn oracle_chrome(log: &TraceLog, ctx: &ChromeContext) -> String {
        let mut t = OracleChrome::default();
        for p in 0..ctx.num_pcpus {
            t.thread_name(p as u64, &format!("pcpu{p}"));
        }
        let events_tid = ctx.num_pcpus as u64;
        t.thread_name(events_tid, "events");

        let label = |v: usize| -> &str {
            ctx.vcpu_labels
                .get(v)
                .map(|s| s.as_str())
                .unwrap_or("vcpu?")
        };
        // Open occupancy per PCPU: (vcpu index, span start in us).
        let mut open: Vec<Option<(usize, u64)>> = vec![None; ctx.num_pcpus];
        let close =
            |t: &mut OracleChrome, open: &mut Vec<Option<(usize, u64)>>, p: usize, ts: u64| {
                if let Some((v, start)) = open[p].take() {
                    t.complete(p as u64, label(v), start, ts.saturating_sub(start));
                }
            };

        for (time, e) in log.iter() {
            let ts = time.as_micros();
            match e {
                Event::SwitchIn { vcpu, pcpu } => {
                    // A missing SwitchOut (dropped from the ring) leaves a
                    // stale open span; close it at the hand-over instant.
                    close(&mut t, &mut open, pcpu.index(), ts);
                    open[pcpu.index()] = Some((vcpu.index(), ts));
                }
                Event::SwitchOut { pcpu, .. } => {
                    close(&mut t, &mut open, pcpu.index(), ts);
                }
                Event::Steal {
                    thief,
                    victim,
                    vcpu,
                    cross_node,
                } => {
                    t.instant(
                        thief.index() as u64,
                        if *cross_node {
                            "steal(remote)"
                        } else {
                            "steal(local)"
                        },
                        ts,
                        vec![
                            ("victim".into(), Json::from(victim.index())),
                            ("vcpu".into(), Json::from(label(vcpu.index()))),
                        ],
                    );
                }
                Event::PartitionMove { vcpu, node } => {
                    t.instant(
                        events_tid,
                        "partition_move",
                        ts,
                        vec![
                            ("vcpu".into(), Json::from(label(vcpu.index()))),
                            ("node".into(), Json::from(node.index())),
                        ],
                    );
                }
                Event::IdlerWake { vcpu, pcpu } => {
                    t.instant(
                        pcpu.index() as u64,
                        "idler_wake",
                        ts,
                        vec![("vcpu".into(), Json::from(label(vcpu.index())))],
                    );
                }
                Event::CreditBoost { vcpu, pcpu } => {
                    t.instant(
                        pcpu.index() as u64,
                        "credit_boost",
                        ts,
                        vec![("vcpu".into(), Json::from(label(vcpu.index())))],
                    );
                }
                Event::SamplePeriod { periods } => {
                    t.instant(
                        events_tid,
                        "sample_period",
                        ts,
                        vec![("periods".into(), Json::from(*periods))],
                    );
                }
                Event::PageMigration { vcpu, node, bytes } => {
                    t.instant(
                        events_tid,
                        "page_migration",
                        ts,
                        vec![
                            ("vcpu".into(), Json::from(label(vcpu.index()))),
                            ("node".into(), Json::from(node.index())),
                            ("bytes".into(), Json::from(*bytes)),
                        ],
                    );
                }
                Event::Degrade { fallback } => {
                    t.instant(
                        events_tid,
                        if *fallback {
                            "degrade(enter)"
                        } else {
                            "degrade(recover)"
                        },
                        ts,
                        vec![],
                    );
                }
                Event::Fault(f) => {
                    t.instant(events_tid, &format!("fault:{}", f.kind()), ts, vec![]);
                }
            }
        }
        for p in 0..ctx.num_pcpus {
            close(&mut t, &mut open, p, ctx.end_us);
        }
        t.finish()
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn sample_log() -> TraceLog {
        let mut log = TraceLog::with_capacity(64);
        log.record(
            t(0),
            Event::SwitchIn {
                vcpu: VcpuId::new(3),
                pcpu: PcpuId::new(1),
            },
        );
        log.record(
            t(10),
            Event::Steal {
                thief: PcpuId::new(0),
                victim: PcpuId::new(1),
                vcpu: VcpuId::new(4),
                cross_node: true,
            },
        );
        log.record(
            t(30),
            Event::SwitchOut {
                vcpu: VcpuId::new(3),
                pcpu: PcpuId::new(1),
            },
        );
        log.record(
            t(40),
            Event::Fault(FaultEvent::PcpuStall {
                pcpu: PcpuId::new(1),
                quanta: 3,
            }),
        );
        log.record(t(1000), Event::SamplePeriod { periods: 1 });
        log.record(t(1000), Event::Degrade { fallback: true });
        log.record(
            t(1000),
            Event::PartitionMove {
                vcpu: VcpuId::new(3),
                node: NodeId::new(1),
            },
        );
        log
    }

    #[test]
    fn jsonl_lines_parse_and_carry_schema() {
        let log = sample_log();
        let jsonl = to_jsonl(&log);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), log.len());
        for line in &lines {
            let doc = sim_core::Json::parse(line).expect("every line parses");
            assert!(doc.get("t_us").is_some(), "{line}");
            assert!(doc.get("kind").is_some(), "{line}");
        }
        assert!(lines[0].starts_with("{\"t_us\":0,\"kind\":\"switch_in\""));
        assert!(lines[3].contains("\"kind\":\"fault\",\"fault\":\"pcpu_stall\""));
        assert!(lines[5].contains("\"fallback\":true"));
    }

    #[test]
    fn chrome_pairs_spans_and_closes_at_end() {
        let log = sample_log();
        let ctx = ChromeContext {
            num_pcpus: 2,
            vcpu_labels: &["a", "b", "c", "vm0/v3", "vm1/v0"]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
            end_us: 2_000_000,
        };
        let s = to_chrome(&log, &ctx);
        let doc = sim_core::Json::parse(&s).expect("valid JSON");
        let events = match doc.get("traceEvents").unwrap() {
            sim_core::Json::Arr(v) => v.clone(),
            _ => panic!(),
        };
        // 3 thread_name + 1 complete span + 5 instants.
        assert_eq!(events.len(), 9);
        // The span for vm0/v3 on pcpu1 runs 0 → 30ms.
        assert!(s.contains(
            "\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":0,\"dur\":30000,\"name\":\"vm0/v3\""
        ));
        assert!(s.contains("steal(remote)"));
        assert!(s.contains("fault:pcpu_stall"));
    }

    #[test]
    fn chrome_closes_still_open_span_at_end_us() {
        let mut log = TraceLog::with_capacity(8);
        log.record(
            t(5),
            Event::SwitchIn {
                vcpu: VcpuId::new(0),
                pcpu: PcpuId::new(0),
            },
        );
        let labels = vec!["vm0/v0".to_string()];
        let ctx = ChromeContext {
            num_pcpus: 1,
            vcpu_labels: &labels,
            end_us: 9_000,
        };
        let s = to_chrome(&log, &ctx);
        assert!(s.contains("\"ts\":5000,\"dur\":4000"));
    }

    /// Every event variant, at timestamps and payloads on both sides of
    /// the exact-integer limit, labelled with strings that need escaping.
    fn edge_log() -> TraceLog {
        let ints = [
            0,
            (1u64 << 53) - 1,
            8_999_999_999_999_999,
            9_000_000_000_000_000,
            (1u64 << 53) + 1,
            u64::MAX,
        ];
        let v = |k: usize| VcpuId::new(k as u32);
        let p = |k: usize| PcpuId::new(k as u16);
        let n = |k: usize| NodeId::new(k as u16);
        let mut log = TraceLog::with_capacity(256);
        for (i, &x) in ints.iter().enumerate() {
            let at = SimTime::from_micros(i as u64);
            let events = [
                Event::SwitchIn {
                    vcpu: v(i),
                    pcpu: p(i % 2),
                },
                Event::SwitchOut {
                    vcpu: v(i),
                    pcpu: p(i % 2),
                },
                Event::SwitchIn {
                    vcpu: v(i + 7),
                    pcpu: p(1),
                },
                Event::Steal {
                    thief: p(0),
                    victim: p(1),
                    vcpu: v(i),
                    cross_node: i % 2 == 0,
                },
                Event::PartitionMove {
                    vcpu: v(i),
                    node: n(i),
                },
                Event::IdlerWake {
                    vcpu: v(i),
                    pcpu: p(0),
                },
                Event::CreditBoost {
                    vcpu: v(i),
                    pcpu: p(1),
                },
                Event::SamplePeriod { periods: x },
                Event::PageMigration {
                    vcpu: v(i),
                    node: n(1),
                    bytes: x,
                },
                Event::Degrade {
                    fallback: i % 2 == 1,
                },
                Event::Fault(FaultEvent::SampleLost { vcpu: v(i) }),
                Event::Fault(FaultEvent::CounterNoise { vcpu: v(i) }),
                Event::Fault(FaultEvent::AffinityCorrupted { vcpu: v(i) }),
                Event::Fault(FaultEvent::MigrationFailed {
                    vcpu: v(i),
                    node: n(0),
                }),
                Event::Fault(FaultEvent::MigrationDelayed {
                    vcpu: v(i),
                    node: n(1),
                    quanta: x,
                }),
                Event::Fault(FaultEvent::StealFailed { thief: p(1) }),
                Event::Fault(FaultEvent::PcpuStall {
                    pcpu: p(0),
                    quanta: x,
                }),
                Event::Fault(FaultEvent::NodeThrottled { node: n(i) }),
            ];
            for e in events {
                log.record(at, e);
            }
        }
        let mut stamps = ints;
        stamps.sort_unstable();
        for x in stamps.into_iter().skip(1) {
            log.record(SimTime::from_micros(x), Event::SamplePeriod { periods: x });
        }
        log
    }

    #[test]
    fn streamed_exports_match_tree_oracle_on_edge_values() {
        let log = edge_log();
        assert_eq!(to_jsonl(&log), oracle_jsonl(&log));
        // Labels cover quotes, backslashes, control characters and
        // non-ASCII text; VCPUs past the end fall back to "vcpu?".
        let labels: Vec<String> = [
            "vm\"0\"/v0",
            "vm\\1",
            "ctl\u{1}\n\t\r",
            "ünï©ødé/😀",
            "",
            "plain",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        for end_us in [0, 9_000_000_000_000_000, u64::MAX] {
            let ctx = ChromeContext {
                num_pcpus: 2,
                vcpu_labels: &labels,
                end_us,
            };
            assert_eq!(to_chrome(&log, &ctx), oracle_chrome(&log, &ctx));
        }
        let empty = TraceLog::with_capacity(1);
        let ctx = ChromeContext {
            num_pcpus: 0,
            vcpu_labels: &[],
            end_us: 0,
        };
        assert_eq!(to_jsonl(&empty), oracle_jsonl(&empty));
        assert_eq!(to_chrome(&empty, &ctx), oracle_chrome(&empty, &ctx));
    }

    #[test]
    fn exports_are_deterministic() {
        let log = sample_log();
        let labels: Vec<String> = (0..5).map(|i| format!("v{i}")).collect();
        let ctx = ChromeContext {
            num_pcpus: 2,
            vcpu_labels: &labels,
            end_us: 2_000_000,
        };
        assert_eq!(to_jsonl(&log), to_jsonl(&log));
        assert_eq!(to_chrome(&log, &ctx), to_chrome(&log, &ctx));
    }
}
