//! Statistics containers for experiment measurement.

/// A monotonically increasing event counter with window support.
///
/// The PMU crate samples counters per period: [`Counter::window`] returns
/// the delta since the last [`Counter::reset_window`], while
/// [`Counter::total`] never resets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    total: u64,
    window_base: u64,
}

impl Counter {
    pub fn new() -> Self {
        Counter::default()
    }

    pub fn add(&mut self, n: u64) {
        self.total += n;
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events since the last window reset.
    pub fn window(&self) -> u64 {
        self.total - self.window_base
    }

    /// Close the current window; subsequent [`Counter::window`] calls count
    /// from this point.
    pub fn reset_window(&mut self) {
        self.window_base = self.total;
    }
}

/// Streaming mean/variance/min/max (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite sample: {x}");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; 0 for fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A fixed-bucket histogram over `[lo, hi)` with uniform bucket width plus
/// overflow/underflow buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Panics if `lo >= hi` or `buckets == 0`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(lo < hi, "histogram range must be non-empty");
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram {
            lo,
            hi,
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let frac = (x - self.lo) / (self.hi - self.lo);
            let idx = ((frac * self.buckets.len() as f64) as usize).min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Inclusive lower bound of the bucketed range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Exclusive upper bound of the bucketed range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Zero all counts, keeping the bucket layout.
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.underflow = 0;
        self.overflow = 0;
        self.count = 0;
    }

    /// Approximate quantile (0 ≤ q ≤ 1) using bucket midpoints. Returns
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return Some(self.lo);
        }
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.lo + (i as f64 + 0.5) * width);
            }
        }
        Some(self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_windows() {
        let mut c = Counter::new();
        c.add(10);
        c.add(5);
        assert_eq!(c.total(), 15);
        assert_eq!(c.window(), 15);
        c.reset_window();
        assert_eq!(c.window(), 0);
        c.add(3);
        assert_eq!(c.window(), 3);
        assert_eq!(c.total(), 18);
    }

    #[test]
    fn running_stats_empty() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn running_stats_basic_moments() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn running_stats_merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = RunningStats::new();
        data.iter().for_each(|&x| whole.push(x));

        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        data[..37].iter().for_each(|&x| a.push(x));
        data[37..].iter().for_each(|&x| b.push(x));
        a.merge(&b);

        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.mean();
        a.merge(&RunningStats::new());
        assert_eq!(a.mean(), before);
        let mut empty = RunningStats::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 2);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(-1.0);
        h.record(0.0);
        h.record(5.5);
        h.record(9.99);
        h.record(10.0);
        h.record(100.0);
        assert_eq!(h.count(), 6);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bucket_counts()[0], 1);
        assert_eq!(h.bucket_counts()[5], 1);
        assert_eq!(h.bucket_counts()[9], 1);
    }

    #[test]
    fn histogram_quantile() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64);
        }
        let median = h.quantile(0.5).unwrap();
        assert!((median - 49.5).abs() <= 1.0, "median={median}");
        assert_eq!(h.quantile(0.0).unwrap(), 0.5);
        assert!(h.quantile(1.0).unwrap() >= 99.0);
        assert_eq!(Histogram::new(0.0, 1.0, 4).quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "histogram range")]
    fn histogram_rejects_bad_range() {
        Histogram::new(5.0, 5.0, 4);
    }
}
