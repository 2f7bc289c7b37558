//! Perf introspection primitives: deterministic work-avoidance counters
//! and explicitly non-deterministic wall-clock attribution.
//!
//! The simulator's optimization machinery (incremental memory engine,
//! fleet sharding) is invisible from the outputs it is
//! required not to change. This module provides the two ingredients the
//! perf layer records with — kept strictly apart:
//!
//! * **Deterministic counters** ([`CounterSet`], [`BatchHistogram`],
//!   [`digest64`]): pure functions of the simulated execution. Two runs
//!   of the same seed produce bitwise-equal values at any `--jobs`, so
//!   their JSON export (and its digest) can be pinned by golden files
//!   exactly like CSVs.
//! * **Wall-clock attribution** ([`PhaseTimers`]): real `Instant` time
//!   per named phase. Non-deterministic by construction; it must only
//!   ever feed best-effort records (`BENCH_repro.json`,
//!   `BENCH_history.jsonl`) and never a deterministic artifact.
//!
//! Like the registry, everything here is ordered: counters and phases
//! export in first-touch order, so serialization is byte-stable.

use sim_core::Json;
use std::time::{Duration, Instant};

/// An ordered set of named `u64` counters with stable JSON export.
///
/// Names are registered implicitly on first touch and export in that
/// order. Merging follows the same rule, so summing per-host sets in
/// host index order is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSet {
    entries: Vec<(String, u64)>,
}

impl CounterSet {
    pub fn new() -> CounterSet {
        CounterSet::default()
    }

    /// Add `n` to `name`, creating the slot at the end on first touch.
    pub fn add(&mut self, name: &str, n: u64) {
        match self.entries.iter_mut().find(|(k, _)| k == name) {
            Some(slot) => slot.1 += n,
            None => self.entries.push((name.to_string(), n)),
        }
    }

    /// Current value of `name` (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Add every counter of `other` into `self` (first-touch order for
    /// names `self` has not seen).
    pub fn merge(&mut self, other: &CounterSet) {
        for (k, v) in &other.entries {
            self.add(k, *v);
        }
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn entries(&self) -> &[(String, u64)] {
        &self.entries
    }

    /// `{"name": n, ...}` in first-touch order.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.entries
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(*v)))
                .collect(),
        )
    }
}

/// Number of log2 buckets in a [`BatchHistogram`] (lengths 1 .. 2^16+).
pub const BATCH_BUCKETS: usize = 17;

/// A log2-bucket histogram of batch lengths (quanta per machine step,
/// hosts stepped per fleet epoch). Bucket `i` counts lengths in
/// `[2^i, 2^(i+1))`; the last bucket absorbs everything larger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchHistogram {
    buckets: [u64; BATCH_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for BatchHistogram {
    fn default() -> Self {
        BatchHistogram {
            buckets: [0; BATCH_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl BatchHistogram {
    pub fn new() -> BatchHistogram {
        BatchHistogram::default()
    }

    /// Record one batch of `len` quanta (0 is clamped to 1).
    pub fn observe(&mut self, len: u64) {
        let len = len.max(1);
        let idx = (63 - len.leading_zeros() as usize).min(BATCH_BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(len);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean batch length (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    pub fn merge(&mut self, other: &BatchHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// `{"count":..,"sum":..,"buckets":[[lo,n],..]}` with only non-empty
    /// buckets listed (lo = 2^i), so small runs stay readable.
    pub fn to_json(&self) -> Json {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| Json::Arr(vec![Json::from(1u64 << i), Json::from(n)]))
            .collect();
        Json::Obj(vec![
            ("count".into(), Json::from(self.count)),
            ("sum".into(), Json::from(self.sum)),
            ("buckets".into(), Json::Arr(buckets)),
        ])
    }
}

/// FNV-1a 64-bit digest of a string, as 16 lowercase hex digits.
///
/// Used to pin a whole deterministic counter export with one short
/// token in `BENCH_history.jsonl` and the CI regression gate.
pub fn digest64(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Wall-clock attribution by named phase. **Non-deterministic**: values
/// come from [`Instant`] and differ run to run; callers must keep them
/// out of every deterministic artifact (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct PhaseTimers {
    phases: Vec<(String, Duration, u64)>,
}

impl PhaseTimers {
    pub fn new() -> PhaseTimers {
        PhaseTimers::default()
    }

    /// Time `f` and attribute its wall-clock to `phase`.
    pub fn time<T>(&mut self, phase: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(phase, t0.elapsed());
        out
    }

    /// Attribute an externally measured duration to `phase`.
    pub fn record(&mut self, phase: &str, d: Duration) {
        match self.phases.iter_mut().find(|(k, _, _)| k == phase) {
            Some(slot) => {
                slot.1 += d;
                slot.2 += 1;
            }
            None => self.phases.push((phase.to_string(), d, 1)),
        }
    }

    /// Total attributed wall-clock across phases.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|(_, d, _)| *d).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// `{"phase":{"wall_s":..,"calls":..},..}`, seconds rounded to ms.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.phases
                .iter()
                .map(|(k, d, n)| {
                    let s = (d.as_secs_f64() * 1000.0).round() / 1000.0;
                    (
                        k.clone(),
                        Json::Obj(vec![
                            ("wall_s".into(), Json::Num(s)),
                            ("calls".into(), Json::from(*n)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_set_orders_by_first_touch_and_merges() {
        let mut a = CounterSet::new();
        a.add("hits", 2);
        a.add("misses", 1);
        a.add("hits", 3);
        assert_eq!(a.get("hits"), 5);
        assert_eq!(a.get("unknown"), 0);

        let mut b = CounterSet::new();
        b.add("misses", 10);
        b.add("skips", 4);
        a.merge(&b);
        assert_eq!(a.get("misses"), 11);
        assert_eq!(
            a.to_json().to_string(),
            r#"{"hits":5,"misses":11,"skips":4}"#
        );
    }

    #[test]
    fn batch_histogram_buckets_by_log2() {
        let mut h = BatchHistogram::new();
        for len in [1, 1, 2, 3, 4, 1000, u64::MAX] {
            h.observe(len);
        }
        h.observe(0); // clamps to 1
        assert_eq!(h.count(), 8);
        let json = h.to_json().to_string();
        // 1 appears 3×, [2,4) 2×, 4 once, 1000 in [512,1024), MAX in top.
        assert!(json.contains("[1,3]"), "{json}");
        assert!(json.contains("[2,2]"), "{json}");
        assert!(json.contains("[512,1]"), "{json}");
        assert!(json.contains(&format!("[{},1]", 1u64 << 16)), "{json}");

        let mut other = BatchHistogram::new();
        other.observe(1);
        h.merge(&other);
        assert_eq!(h.count(), 9);
        assert!(h.mean() > 1.0);
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        assert_eq!(digest64(""), "cbf29ce484222325");
        assert_eq!(digest64("a"), digest64("a"));
        assert_ne!(digest64("a"), digest64("b"));
        assert_eq!(digest64("abc").len(), 16);
    }

    #[test]
    fn phase_timers_accumulate() {
        let mut t = PhaseTimers::new();
        let v = t.time("solve", || 42);
        assert_eq!(v, 42);
        t.record("solve", Duration::from_millis(5));
        t.record("io", Duration::from_millis(1));
        assert!(t.total() >= Duration::from_millis(6));
        let json = t.to_json().to_string();
        assert!(json.contains("\"solve\""));
        assert!(json.contains("\"calls\":2"));
    }
}
