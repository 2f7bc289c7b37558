//! Miss-rate-versus-occupancy curves.
//!
//! Each workload's LLC behaviour is summarized by a piecewise-linear curve:
//! with `occ` bytes of LLC occupancy the workload misses at
//!
//! ```text
//! miss(occ) = max_miss - (max_miss - min_miss) * min(1, occ / ws_bytes)
//! ```
//!
//! The three VCPU categories of the paper (§III-B2) fall out of the curve
//! shape on a 12 MB LLC:
//!
//! * **LLC-friendly** (povray, ep): tiny `ws_bytes` and a low `max_miss` —
//!   the miss rate is low no matter how much cache interference exists.
//! * **LLC-fitting** (lu, mg): `ws_bytes` comparable to the LLC — alone the
//!   working set fits and misses sit at `min_miss`, but contention that
//!   shrinks occupancy drives the miss rate up steeply.
//! * **LLC-thrashing** (milc, libquantum): `ws_bytes` far larger than the
//!   LLC — the miss rate is high even with the whole cache.

/// Piecewise-linear miss-rate curve. Rates are fractions in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissCurve {
    /// Miss rate with occupancy ≥ `ws_bytes` (the workload's best case).
    pub min_miss: f64,
    /// Miss rate with zero occupancy (fully thrashed).
    pub max_miss: f64,
    /// Working-set size in bytes: occupancy needed to reach `min_miss`.
    pub ws_bytes: u64,
}

impl MissCurve {
    /// Panics if rates are outside `[0,1]`, inverted, or the working set is
    /// zero (use [`MissCurve::flat`] for cache-insensitive workloads).
    pub fn new(min_miss: f64, max_miss: f64, ws_bytes: u64) -> Self {
        assert!((0.0..=1.0).contains(&min_miss), "min_miss out of range");
        assert!((0.0..=1.0).contains(&max_miss), "max_miss out of range");
        assert!(min_miss <= max_miss, "min_miss exceeds max_miss");
        assert!(ws_bytes > 0, "working set must be nonzero");
        MissCurve {
            min_miss,
            max_miss,
            ws_bytes,
        }
    }

    /// A curve that ignores occupancy entirely (e.g. the hungry loop, whose
    /// few references always hit).
    pub fn flat(miss: f64) -> Self {
        MissCurve::new(miss, miss, 1)
    }

    /// Miss rate at the given occupancy in bytes.
    pub fn miss_rate(&self, occupancy_bytes: f64) -> f64 {
        let cover = (occupancy_bytes / self.ws_bytes as f64).clamp(0.0, 1.0);
        self.max_miss - (self.max_miss - self.min_miss) * cover
    }

    /// Miss rate when running alone on a cache of `capacity` bytes — what
    /// the paper's Fig. 3(a) pinned single-VCPU experiment measures.
    pub fn solo_miss_rate(&self, capacity: u64) -> f64 {
        self.miss_rate(capacity as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    #[test]
    fn fitting_workload_hits_when_alone() {
        let c = MissCurve::new(0.05, 0.5, 6 * MB);
        assert!((c.solo_miss_rate(12 * MB) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn fitting_workload_degrades_under_contention() {
        let c = MissCurve::new(0.05, 0.5, 6 * MB);
        let half = c.miss_rate(3.0 * MB as f64);
        assert!((half - 0.275).abs() < 1e-12);
        assert!((c.miss_rate(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn thrashing_workload_high_even_with_full_cache() {
        let c = MissCurve::new(0.4, 0.7, 64 * MB);
        let solo = c.solo_miss_rate(12 * MB);
        // 12/64 of the way down from 0.7 toward 0.4.
        assert!((solo - (0.7 - 0.3 * 12.0 / 64.0)).abs() < 1e-12);
        assert!(solo > 0.6);
    }

    #[test]
    fn friendly_workload_low_everywhere() {
        let c = MissCurve::new(0.01, 0.03, MB / 2);
        assert!(c.miss_rate(0.0) <= 0.03);
        assert!(c.solo_miss_rate(12 * MB) <= 0.011);
    }

    #[test]
    fn monotone_in_occupancy() {
        let c = MissCurve::new(0.1, 0.6, 8 * MB);
        let mut prev = f64::INFINITY;
        for occ in (0..=16).map(|i| i as f64 * MB as f64) {
            let m = c.miss_rate(occ);
            assert!(m <= prev + 1e-12);
            prev = m;
        }
    }

    #[test]
    fn flat_curve_is_constant() {
        let c = MissCurve::flat(0.02);
        assert_eq!(c.miss_rate(0.0), c.miss_rate(1e9));
    }

    #[test]
    #[should_panic(expected = "min_miss exceeds max_miss")]
    fn rejects_inverted() {
        MissCurve::new(0.5, 0.1, MB);
    }

    #[test]
    #[should_panic(expected = "working set")]
    fn rejects_zero_ws() {
        MissCurve::new(0.1, 0.5, 0);
    }
}
