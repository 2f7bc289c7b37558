//! Chrome Trace Event builder.
//!
//! Emits the JSON-array flavour of the Trace Event format, which Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing` open directly:
//!
//! ```json
//! {"traceEvents":[
//!   {"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"pcpu0"}},
//!   {"ph":"X","pid":0,"tid":0,"ts":0,"dur":30000,"name":"vm0/v1"},
//!   {"ph":"i","pid":0,"tid":8,"ts":1000000,"name":"sample_period","s":"t"}
//! ],"displayTimeUnit":"ms"}
//! ```
//!
//! Timestamps and durations are microseconds (the format's native unit,
//! and the simulator's clock resolution). The builder is append-only and
//! serializes events in insertion order, so callers that insert in
//! deterministic order get byte-identical files.

use sim_core::ObjWriter;

const HEAD: &str = "{\"traceEvents\":[";
const TAIL: &str = "],\"displayTimeUnit\":\"ms\"}";

/// A typed value for an instant event's `args`.
#[derive(Debug, Clone, Copy)]
pub enum Arg<'a> {
    U64(u64),
    Str(&'a str),
}

/// Append-only builder for one Chrome Trace Event file. Each event is
/// serialized into one growing buffer as it is added.
#[derive(Debug, Clone)]
pub struct ChromeTrace {
    buf: String,
    len: usize,
}

impl Default for ChromeTrace {
    fn default() -> Self {
        ChromeTrace::with_capacity(0)
    }
}

impl ChromeTrace {
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// An empty trace whose buffer has room for `bytes` of events.
    pub fn with_capacity(bytes: usize) -> Self {
        let mut buf = String::with_capacity(HEAD.len() + bytes + TAIL.len());
        buf.push_str(HEAD);
        ChromeTrace { buf, len: 0 }
    }

    fn event(&mut self, fill: impl FnOnce(&mut ObjWriter<'_>)) {
        if self.len > 0 {
            self.buf.push(',');
        }
        self.len += 1;
        ObjWriter::write(&mut self.buf, fill);
    }

    /// Name a track (a `tid` under pid 0) via thread_name metadata.
    pub fn thread_name(&mut self, tid: u64, name: &str) {
        self.event(|w| {
            w.str("ph", "M")
                .u64("pid", 0)
                .u64("tid", tid)
                .str("name", "thread_name")
                .object("args", |a| {
                    a.str("name", name);
                });
        });
    }

    /// A complete span (`ph:"X"`) on a track: `name` ran on `tid` from
    /// `ts_us` for `dur_us` microseconds.
    pub fn complete(&mut self, tid: u64, name: &str, ts_us: u64, dur_us: u64) {
        self.event(|w| {
            w.str("ph", "X")
                .u64("pid", 0)
                .u64("tid", tid)
                .u64("ts", ts_us)
                .u64("dur", dur_us)
                .str("name", name);
        });
    }

    /// A thread-scoped instant event (`ph:"i"`), with `args` when any.
    pub fn instant(&mut self, tid: u64, name: &str, ts_us: u64, args: &[(&'static str, Arg<'_>)]) {
        self.event(|w| {
            w.str("ph", "i")
                .u64("pid", 0)
                .u64("tid", tid)
                .u64("ts", ts_us)
                .str("name", name)
                .str("s", "t");
            if !args.is_empty() {
                w.object("args", |a| {
                    for &(key, value) in args {
                        match value {
                            Arg::U64(v) => a.u64(key, v),
                            Arg::Str(v) => a.str(key, v),
                        };
                    }
                });
            }
        });
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Close the event array and return the complete trace file (compact,
    /// one line).
    pub fn finish(mut self) -> String {
        self.buf.push_str(TAIL);
        self.buf
    }
}

/// The tree-building serializer the builder replaced, kept as the
/// byte-identity reference for tests.
#[cfg(test)]
pub(crate) mod oracle {
    use sim_core::Json;

    pub fn thread_name(tid: u64, name: &str) -> Json {
        Json::Obj(vec![
            ("ph".into(), Json::from("M")),
            ("pid".into(), Json::from(0u64)),
            ("tid".into(), Json::from(tid)),
            ("name".into(), Json::from("thread_name")),
            (
                "args".into(),
                Json::Obj(vec![("name".into(), Json::from(name))]),
            ),
        ])
    }

    pub fn complete(tid: u64, name: &str, ts_us: u64, dur_us: u64) -> Json {
        Json::Obj(vec![
            ("ph".into(), Json::from("X")),
            ("pid".into(), Json::from(0u64)),
            ("tid".into(), Json::from(tid)),
            ("ts".into(), Json::from(ts_us)),
            ("dur".into(), Json::from(dur_us)),
            ("name".into(), Json::from(name)),
        ])
    }

    pub fn instant(tid: u64, name: &str, ts_us: u64, args: Vec<(String, Json)>) -> Json {
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
        Json::Obj(fields)
    }

    pub fn file(events: Vec<Json>) -> String {
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::from("ms")),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Json;

    #[test]
    fn builds_valid_trace_json() {
        let mut t = ChromeTrace::new();
        t.thread_name(0, "pcpu0");
        t.complete(0, "vm0/v1", 0, 30_000);
        t.instant(8, "sample_period", 1_000_000, &[("periods", Arg::U64(1))]);
        assert_eq!(t.len(), 3);
        let s = t.finish();
        let doc = Json::parse(&s).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap();
        match events {
            Json::Arr(v) => assert_eq!(v.len(), 3),
            _ => panic!("traceEvents must be an array"),
        }
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.ends_with("\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn empty_trace_matches_oracle() {
        let t = ChromeTrace::new();
        assert!(t.is_empty());
        assert_eq!(t.finish(), oracle::file(vec![]));
    }

    #[test]
    fn streamed_bytes_match_tree_oracle_on_edge_values() {
        let ints = [
            0,
            (1u64 << 53) - 1,
            8_999_999_999_999_999,
            9_000_000_000_000_000,
            (1u64 << 53) + 1,
            u64::MAX,
        ];
        let names = [
            "plain",
            "q\"uote",
            "back\\slash",
            "ctl\u{1}\n\r\t\u{1f}",
            "ünï©ødé 😀",
            "",
        ];
        let mut t = ChromeTrace::new();
        let mut want = Vec::new();
        for (i, (&v, name)) in ints.iter().zip(names.iter().cycle()).enumerate() {
            t.thread_name(v, name);
            want.push(oracle::thread_name(v, name));
            t.complete(i as u64, name, v, v);
            want.push(oracle::complete(i as u64, name, v, v));
            t.instant(v, name, v, &[("n", Arg::U64(v)), ("label", Arg::Str(name))]);
            want.push(oracle::instant(
                v,
                name,
                v,
                vec![
                    ("n".into(), Json::from(v)),
                    ("label".into(), Json::from(*name)),
                ],
            ));
            t.instant(v, name, v, &[]);
            want.push(oracle::instant(v, name, v, vec![]));
        }
        assert_eq!(t.len(), want.len());
        assert_eq!(t.finish(), oracle::file(want));
    }

    #[test]
    fn multi_megabyte_trace_parses_in_linear_time() {
        // `Json::parse` once rescanned the rest of the document for every
        // plain string character, taking tens of seconds at this size.
        let mut t = ChromeTrace::new();
        let label = "vm12/v3 – a label long enough to make the strings dominate";
        for i in 0..40_000u64 {
            t.complete(i % 8, label, i * 1_000, 1_000);
            t.instant(8, "steal(remote)", i * 1_000, &[("vcpu", Arg::Str(label))]);
        }
        let n = t.len();
        let s = t.finish();
        assert!(s.len() > 8_000_000, "{} bytes", s.len());
        let started = std::time::Instant::now();
        let doc = Json::parse(&s).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), n);
        // Generous even for a debug build; the quadratic parser needed
        // minutes here.
        assert!(started.elapsed().as_secs() < 20, "{:?}", started.elapsed());
    }

    #[test]
    fn serialization_is_deterministic() {
        let build = || {
            let mut t = ChromeTrace::new();
            t.thread_name(1, "pcpu1");
            t.complete(1, "vm0/v0", 5, 10);
            t.finish()
        };
        assert_eq!(build(), build());
    }
}
