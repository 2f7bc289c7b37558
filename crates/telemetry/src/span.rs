//! Deterministic span log: begin/end intervals with sim-time stamps,
//! parent links, and per-span key/value annotations.
//!
//! The registry answers "how much"; spans answer "how long and why".
//! A [`SpanLog`] follows the same discipline as the metric registry:
//! disabled it costs one branch per call and records nothing, enabled it
//! assigns sequential ids in call order so two runs of the same seed
//! produce byte-identical exports. Timestamps are simulation microseconds
//! supplied by the caller — the log never consults a wall clock.
//!
//! Spans may be closed out of insertion order (an evacuation that lands
//! epochs after later arrivals began), and a span may be left open; the
//! exporters render open spans with `end_us: null` (JSONL) or close them
//! at the supplied end-of-run timestamp (Chrome).

use crate::ChromeTrace;
use sim_core::{Json, ObjWriter};

/// One interval in a [`SpanLog`].
#[derive(Debug, Clone)]
pub struct Span {
    /// Sequential id, starting at 1 (0 is the "no span" sentinel).
    pub id: u64,
    pub name: String,
    /// Track the Chrome exporter renders this span on (e.g. a host index).
    pub track: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    pub start_us: u64,
    /// `None` while the span is still open.
    pub end_us: Option<u64>,
    /// Annotations, in insertion order.
    pub args: Vec<(String, Json)>,
}

/// An append-only log of spans with deterministic sequential ids.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A disabled log (records nothing, `begin` returns 0).
    pub fn disabled() -> Self {
        SpanLog::default()
    }

    /// An enabled log.
    pub fn enabled() -> Self {
        SpanLog {
            enabled: true,
            spans: Vec::new(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span on `track` at `start_us`. Returns its id, or 0 when the
    /// log is disabled (every other method ignores id 0).
    pub fn begin(&mut self, name: &str, track: u64, start_us: u64, parent: Option<u64>) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            name: name.to_string(),
            track,
            parent: parent.filter(|&p| p != 0),
            start_us,
            end_us: None,
            args: Vec::new(),
        });
        id
    }

    /// Close span `id` at `end_us`. No-op for id 0 or an already-closed span.
    pub fn end(&mut self, id: u64, end_us: u64) {
        if let Some(s) = self.get_mut(id) {
            if s.end_us.is_none() {
                s.end_us = Some(end_us.max(s.start_us));
            }
        }
    }

    /// Move span `id` to a different track (e.g. once an evacuation's
    /// destination host becomes known).
    pub fn set_track(&mut self, id: u64, track: u64) {
        if let Some(s) = self.get_mut(id) {
            s.track = track;
        }
    }

    /// Attach a key/value annotation to span `id`.
    pub fn annotate(&mut self, id: u64, key: &str, value: Json) {
        if let Some(s) = self.get_mut(id) {
            s.args.push((key.to_string(), value));
        }
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut Span> {
        if !self.enabled || id == 0 {
            return None;
        }
        self.spans.get_mut(id as usize - 1)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    /// Serialize as JSON Lines, one span per line in id order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            ObjWriter::write(&mut out, |w| {
                w.u64("id", s.id)
                    .str("name", &s.name)
                    .u64("track", s.track)
                    .opt_u64("parent", s.parent)
                    .u64("start_us", s.start_us)
                    .opt_u64("end_us", s.end_us);
                if !s.args.is_empty() {
                    w.pairs("args", &s.args);
                }
            });
            out.push('\n');
        }
        out
    }

    /// Render as a Chrome Trace Event file: one named track per entry of
    /// `tracks`, complete spans for every closed span, and spans still open
    /// closed at `end_us`.
    pub fn to_chrome(&self, tracks: &[(u64, String)], end_us: u64) -> String {
        let mut t = ChromeTrace::new();
        for (tid, name) in tracks {
            t.thread_name(*tid, name);
        }
        for s in &self.spans {
            let end = s.end_us.unwrap_or(end_us).max(s.start_us);
            t.complete(s.track, &s.name, s.start_us, end - s.start_us);
        }
        t.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::oracle;

    /// The tree-building `to_jsonl` the streaming writer replaced.
    fn oracle_jsonl(log: &SpanLog) -> String {
        let mut out = String::new();
        for s in log.iter() {
            let mut fields: Vec<(String, Json)> = vec![
                ("id".into(), Json::from(s.id)),
                ("name".into(), Json::from(s.name.as_str())),
                ("track".into(), Json::from(s.track)),
                (
                    "parent".into(),
                    s.parent.map(Json::from).unwrap_or(Json::Null),
                ),
                ("start_us".into(), Json::from(s.start_us)),
                (
                    "end_us".into(),
                    s.end_us.map(Json::from).unwrap_or(Json::Null),
                ),
            ];
            if !s.args.is_empty() {
                fields.push(("args".into(), Json::Obj(s.args.clone())));
            }
            out.push_str(&Json::Obj(fields).to_string());
            out.push('\n');
        }
        out
    }

    /// The tree-building `to_chrome` the streaming builder replaced.
    fn oracle_chrome(log: &SpanLog, tracks: &[(u64, String)], end_us: u64) -> String {
        let mut events: Vec<Json> = tracks
            .iter()
            .map(|(tid, name)| oracle::thread_name(*tid, name))
            .collect();
        for s in log.iter() {
            let end = s.end_us.unwrap_or(end_us).max(s.start_us);
            events.push(oracle::complete(
                s.track,
                &s.name,
                s.start_us,
                end - s.start_us,
            ));
        }
        oracle::file(events)
    }

    #[test]
    fn exports_match_tree_oracle_on_edge_values() {
        let ints = [
            0,
            (1u64 << 53) - 1,
            8_999_999_999_999_999,
            9_000_000_000_000_000,
            (1u64 << 53) + 1,
            u64::MAX,
        ];
        let names = ["evac vm\"3\"", "a\\b", "ctl\u{0}\u{1f}\n\t", "ünï 😀", ""];
        let floats = [3.0, 0.125, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut log = SpanLog::enabled();
        let mut prev = None;
        for (i, &v) in ints.iter().enumerate() {
            let id = log.begin(names[i % names.len()], v, v, prev);
            if i % 2 == 0 {
                log.end(id, v);
            }
            log.annotate(id, "n", Json::from(v));
            log.annotate(id, names[(i + 1) % names.len()], Json::Num(floats[i]));
            log.annotate(id, "none", Json::Null);
            prev = Some(id);
        }
        log.begin("bare", 1, 2, None);
        let tracks = vec![
            (0, "host0".to_string()),
            (u64::MAX, "q\"ueue\u{7}".to_string()),
        ];
        assert_eq!(log.to_jsonl(), oracle_jsonl(&log));
        for end_us in [0, 77, u64::MAX] {
            assert_eq!(
                log.to_chrome(&tracks, end_us),
                oracle_chrome(&log, &tracks, end_us)
            );
        }
        let empty = SpanLog::enabled();
        assert_eq!(empty.to_chrome(&[], 5), oracle_chrome(&empty, &[], 5));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::disabled();
        let id = log.begin("x", 0, 10, None);
        assert_eq!(id, 0);
        log.end(id, 20);
        log.annotate(id, "k", Json::from(1u64));
        assert!(log.is_empty());
        assert!(!log.is_enabled());
        assert_eq!(log.to_jsonl(), "");
    }

    #[test]
    fn ids_are_sequential_and_parents_link() {
        let mut log = SpanLog::enabled();
        let a = log.begin("evac vm3", 2, 100, None);
        let b = log.begin("retry#1", 2, 100, Some(a));
        assert_eq!((a, b), (1, 2));
        log.end(b, 200);
        log.end(a, 500);
        log.annotate(a, "dst_host", Json::from(4u64));
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":1,\"name\":\"evac vm3\""));
        assert!(lines[0].contains("\"end_us\":500"));
        assert!(lines[0].contains("\"args\":{\"dst_host\":4}"));
        assert!(lines[1].contains("\"parent\":1"));
    }

    #[test]
    fn open_span_exports_null_end_and_closes_in_chrome() {
        let mut log = SpanLog::enabled();
        log.begin("open", 0, 50, None);
        assert!(log.to_jsonl().contains("\"end_us\":null"));
        let tracks = vec![(0u64, "host0".to_string())];
        let chrome = log.to_chrome(&tracks, 90);
        assert!(chrome.contains("\"ts\":50,\"dur\":40,\"name\":\"open\""));
    }

    #[test]
    fn double_end_keeps_first_close() {
        let mut log = SpanLog::enabled();
        let a = log.begin("x", 0, 10, None);
        log.end(a, 20);
        log.end(a, 99);
        assert!(log.to_jsonl().contains("\"end_us\":20"));
    }

    #[test]
    fn export_is_deterministic() {
        let build = || {
            let mut log = SpanLog::enabled();
            let a = log.begin("a", 1, 0, None);
            log.begin("b", 1, 5, Some(a));
            log.end(a, 9);
            log.to_jsonl()
        };
        assert_eq!(build(), build());
    }
}
