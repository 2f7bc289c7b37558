//! In-memory host-time spans for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around its calls
//! into the simulator's layers, and written out once the run ends. Steal
//! calls are too frequent for a span each: they are folded into one
//! aggregate span per sampling period carrying the call count and the
//! summed time.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// Offset from the tracer's origin.
    start: Duration,
    dur: Duration,
    /// Calls folded into this span (1 unless aggregated).
    count: u64,
}

/// One row of the per-name span summary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total: Duration,
    /// Total minus the part covered by child spans.
    pub self_time: Duration,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn begin(&mut self, name: &'static str) {
        let start = self.origin.elapsed();
        self.push(name, start, Duration::ZERO, 1);
        self.open.push(self.spans.len() - 1);
    }

    pub fn end(&mut self) {
        let i = self.open.pop().expect("span end without begin");
        self.spans[i].dur = self.origin.elapsed() - self.spans[i].start;
    }

    /// A closed child of the innermost open span, from instants taken
    /// elsewhere (the policy probe).
    pub fn child(&mut self, name: &'static str, start: Instant, end: Instant) {
        let offset = start.saturating_duration_since(self.origin);
        self.push(name, offset, end.saturating_duration_since(start), 1);
    }

    /// `count` calls totalling `dur`, folded into one child of the
    /// innermost open span.
    pub fn aggregate(&mut self, name: &'static str, count: u64, dur: Duration) {
        if count > 0 {
            let start = self.origin.elapsed().saturating_sub(dur);
            self.push(name, start, dur, count);
        }
    }

    fn push(&mut self, name: &'static str, start: Duration, dur: Duration, count: u64) {
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            parent,
            start,
            dur,
            count,
        });
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.dur;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_time) {
            let t = out.entry(s.name).or_default();
            t.count += s.count;
            t.total += s.dur;
            t.self_time += s.dur.saturating_sub(covered);
        }
        out
    }

    /// One JSON object per span, in the order the spans began.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3},\"count\":{}}}\n",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
                s.count
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        t.begin("run");
        t.begin("period");
        t.aggregate("steal", 3, Duration::from_micros(5));
        t.aggregate("steal", 0, Duration::from_micros(9));
        std::thread::sleep(Duration::from_millis(2));
        t.end();
        t.end();
        let totals = t.totals();
        let period = totals["period"];
        let steal = totals["steal"];
        assert_eq!(steal.count, 3);
        assert_eq!(steal.total, Duration::from_micros(5));
        assert_eq!(period.self_time, period.total - steal.total);
        assert_eq!(totals["run"].self_time, totals["run"].total - period.total);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }
}
