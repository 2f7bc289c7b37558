//! The deterministic metric registry.
//!
//! Metrics are registered up front (registration order is the export
//! order), recorded through copyable ids, and snapshotted into
//! [`TimeSeries`] at sampling-period boundaries. Recording is gated on one
//! `enabled` flag so a disabled registry costs a predictable branch per
//! call and exports nothing — [`Registry::export`] returns `None`, letting
//! callers omit the block entirely and keep disabled output byte-identical
//! to builds without telemetry.

use sim_core::{Counter, Histogram, Json, SimTime, TimeSeries};

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

#[derive(Debug, Clone)]
struct CounterState {
    name: &'static str,
    counter: Counter,
    /// Per-period deltas (one point per snapshot).
    series: TimeSeries,
}

#[derive(Debug, Clone)]
struct GaugeState {
    name: &'static str,
    value: f64,
    series: TimeSeries,
}

#[derive(Debug, Clone)]
struct HistogramState {
    name: &'static str,
    lo: f64,
    hi: f64,
    num_buckets: usize,
    hist: Histogram,
    /// Per-period sample-count deltas.
    series: TimeSeries,
    window_base: u64,
}

/// A fixed set of named metrics with deterministic ids and export order.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    enabled: bool,
    counters: Vec<CounterState>,
    gauges: Vec<GaugeState>,
    histograms: Vec<HistogramState>,
}

impl Registry {
    /// A registry that records nothing until [`Registry::set_enabled`].
    pub fn new() -> Self {
        Registry::default()
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording (and export) on or off. Registrations survive either
    /// way.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Register a counter. Names must be unique; ids are assigned in
    /// registration order, which is also the export order.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        debug_assert!(
            self.counters.iter().all(|c| c.name != name),
            "duplicate counter '{name}'"
        );
        self.counters.push(CounterState {
            name,
            counter: Counter::new(),
            series: TimeSeries::new(),
        });
        CounterId(self.counters.len() - 1)
    }

    /// Register a gauge.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        debug_assert!(
            self.gauges.iter().all(|g| g.name != name),
            "duplicate gauge '{name}'"
        );
        self.gauges.push(GaugeState {
            name,
            value: 0.0,
            series: TimeSeries::new(),
        });
        GaugeId(self.gauges.len() - 1)
    }

    /// Register a fixed-bucket histogram over `[lo, hi)`.
    pub fn histogram(&mut self, name: &'static str, lo: f64, hi: f64, buckets: usize) -> HistogramId {
        debug_assert!(
            self.histograms.iter().all(|h| h.name != name),
            "duplicate histogram '{name}'"
        );
        self.histograms.push(HistogramState {
            name,
            lo,
            hi,
            num_buckets: buckets,
            hist: Histogram::new(lo, hi, buckets),
            series: TimeSeries::new(),
            window_base: 0,
        });
        HistogramId(self.histograms.len() - 1)
    }

    /// Add to a counter (no-op when disabled).
    #[inline]
    pub fn inc(&mut self, id: CounterId, n: u64) {
        if self.enabled {
            self.counters[id.0].counter.add(n);
        }
    }

    /// Set a gauge (no-op when disabled).
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, v: f64) {
        if self.enabled {
            self.gauges[id.0].value = v;
        }
    }

    /// Add to a gauge (no-op when disabled).
    #[inline]
    pub fn add_gauge(&mut self, id: GaugeId, delta: f64) {
        if self.enabled {
            self.gauges[id.0].value += delta;
        }
    }

    /// Record one histogram sample (no-op when disabled).
    #[inline]
    pub fn observe(&mut self, id: HistogramId, x: f64) {
        if self.enabled {
            self.histograms[id.0].hist.record(x);
        }
    }

    pub fn counter_total(&self, id: CounterId) -> u64 {
        self.counters[id.0].counter.total()
    }

    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        self.gauges[id.0].value
    }

    pub fn histogram_state(&self, id: HistogramId) -> &Histogram {
        &self.histograms[id.0].hist
    }

    /// Per-period delta series of a counter, by name.
    pub fn counter_series(&self, name: &str) -> Option<&TimeSeries> {
        self.counters.iter().find(|c| c.name == name).map(|c| &c.series)
    }

    /// Whole-run total of a counter, by name.
    pub fn counter_total_by_name(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.counter.total())
    }

    /// Final histogram of a metric, by name.
    pub fn histogram_by_name(&self, name: &str) -> Option<&Histogram> {
        self.histograms.iter().find(|h| h.name == name).map(|h| &h.hist)
    }

    /// Close the current sampling period: push each counter's window delta,
    /// each gauge's value, and each histogram's sample-count
    /// delta as one `(now, value)` point. No-op when disabled, so disabled
    /// runs allocate nothing.
    pub fn snapshot(&mut self, now: SimTime) {
        if !self.enabled {
            return;
        }
        for c in &mut self.counters {
            c.series.push(now, c.counter.window() as f64);
            c.counter.reset_window();
        }
        for g in &mut self.gauges {
            g.series.push(now, g.value);
        }
        for h in &mut self.histograms {
            h.series.push(now, (h.hist.count() - h.window_base) as f64);
            h.window_base = h.hist.count();
        }
    }

    /// Zero all measurement state (counters, histograms, every series) but
    /// keep registrations and the enabled flag —
    /// the telemetry analogue of `Machine::reset_metrics`.
    pub fn reset(&mut self) {
        for c in &mut self.counters {
            c.counter = Counter::new();
            c.series = TimeSeries::new();
        }
        for g in &mut self.gauges {
            g.value = 0.0;
            g.series = TimeSeries::new();
        }
        for h in &mut self.histograms {
            h.hist = Histogram::new(h.lo, h.hi, h.num_buckets);
            h.series = TimeSeries::new();
            h.window_base = 0;
        }
    }

    /// Serialize every metric as one JSON block, or `None`
    /// when disabled (callers omit the block so disabled output stays
    /// byte-identical to pre-telemetry builds). Key order is registration
    /// order, so the export is byte-stable across runs.
    pub fn export(&self) -> Option<Json> {
        if !self.enabled {
            return None;
        }
        let series_json = |s: &TimeSeries| {
            Json::Arr(
                s.points()
                    .iter()
                    .map(|&(t, v)| Json::Arr(vec![Json::from(t.as_micros()), Json::Num(v)]))
                    .collect(),
            )
        };
        let counters = Json::Arr(
            self.counters
                .iter()
                .map(|c| {
                    Json::Obj(vec![
                        ("name".into(), Json::from(c.name)),
                        ("total".into(), Json::from(c.counter.total())),
                        ("series".into(), series_json(&c.series)),
                    ])
                })
                .collect(),
        );
        let gauges = Json::Arr(
            self.gauges
                .iter()
                .map(|g| {
                    Json::Obj(vec![
                        ("name".into(), Json::from(g.name)),
                        ("value".into(), Json::Num(g.value)),
                        ("series".into(), series_json(&g.series)),
                    ])
                })
                .collect(),
        );
        let histograms = Json::Arr(
            self.histograms
                .iter()
                .map(|h| {
                    Json::Obj(vec![
                        ("name".into(), Json::from(h.name)),
                        ("lo".into(), Json::Num(h.lo)),
                        ("hi".into(), Json::Num(h.hi)),
                        (
                            "buckets".into(),
                            Json::from(h.hist.bucket_counts().to_vec()),
                        ),
                        ("underflow".into(), Json::from(h.hist.underflow())),
                        ("overflow".into(), Json::from(h.hist.overflow())),
                        ("count".into(), Json::from(h.hist.count())),
                        ("series".into(), series_json(&h.series)),
                    ])
                })
                .collect(),
        );
        Some(Json::Obj(vec![
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("histograms".into(), histograms),
        ]))
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
    fn disabled_registry_records_nothing_and_exports_none() {
        let mut r = Registry::new();
        let c = r.counter("steals");
        let g = r.gauge("depth");
        let h = r.histogram("lat", 0.0, 10.0, 5);
        r.inc(c, 3);
        r.set_gauge(g, 7.0);
        r.observe(h, 2.0);
        r.snapshot(t(1000));
        assert_eq!(r.counter_total(c), 0);
        assert_eq!(r.gauge_value(g), 0.0);
        assert_eq!(r.histogram_state(h).count(), 0);
        assert!(r.export().is_none());
    }

    #[test]
    fn snapshot_records_window_deltas() {
        let mut r = Registry::new();
        r.set_enabled(true);
        let c = r.counter("steals");
        let g = r.gauge("depth");
        let h = r.histogram("lat", 0.0, 10.0, 5);
        r.inc(c, 3);
        r.set_gauge(g, 7.0);
        r.observe(h, 2.0);
        r.observe(h, 4.0);
        r.snapshot(t(1000));
        r.inc(c, 1);
        r.snapshot(t(2000));
        let series = r.counter_series("steals").unwrap();
        assert_eq!(series.points(), &[(t(1000), 3.0), (t(2000), 1.0)]);
        assert_eq!(r.counter_total(c), 4);
        let json = r.export().unwrap().to_string();
        assert!(json.contains("\"steals\""));
        assert!(json.contains("\"depth\""));
        assert!(json.contains("\"lat\""));
        // Histogram per-period sample counts: 2 then 0.
        assert!(json.contains("[1000000,2],[2000000,0]"), "{json}");
    }

    #[test]
    fn export_is_byte_stable_and_parses() {
        let build = || {
            let mut r = Registry::new();
            r.set_enabled(true);
            let c = r.counter("a");
            let h = r.histogram("b", 0.0, 4.0, 4);
            r.inc(c, 2);
            r.observe(h, 1.5);
            r.snapshot(t(500));
            r.export().unwrap().to_string()
        };
        let one = build();
        assert_eq!(one, build());
        Json::parse(&one).expect("export must be valid JSON");
    }

    #[test]
    fn reset_clears_measurement_but_keeps_registrations() {
        let mut r = Registry::new();
        r.set_enabled(true);
        let c = r.counter("a");
        r.inc(c, 5);
        r.snapshot(t(100));
        r.reset();
        assert_eq!(r.counter_total(c), 0);
        assert!(r.counter_series("a").unwrap().is_empty());
        r.inc(c, 1);
        assert_eq!(r.counter_total(c), 1);
    }
}
