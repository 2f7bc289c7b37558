//! Perf introspection primitives: deterministic work-avoidance counters.
//!
//! The simulator's optimization machinery (incremental memory engine,
//! fleet sharding) is invisible from the outputs it is
//! required not to change. [`BatchHistogram`] and [`digest64`] are pure
//! functions of the simulated execution: two runs of the same seed
//! produce bitwise-equal values at any `--jobs`, so their JSON export
//! (and its digest) can be pinned by golden files exactly like CSVs.

use sim_core::Json;

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
/// token, as the CI digest gate does.
pub fn digest64(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
