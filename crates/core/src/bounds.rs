//! Classification bounds for VCPU types (Eq. 3).
//!
//! The paper determines `low = 3` and `high = 20` empirically (§IV-A,
//! Fig. 3): LLC-friendly programs measured below 3 LLC references per
//! thousand instructions (povray 0.48, ep 2.01), LLC-fitting ones between
//! (lu 15.38, mg 16.33), and LLC-thrashing ones above 20 (milc 21.68,
//! libquantum 22.41). §VI lists *dynamic* bounds as future work; a
//! quantile-tracking implementation is provided here as [`DynamicBounds`].

/// Static classification bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// Below: LLC-friendly. The paper's value is 3.
    pub low: f64,
    /// At or above: LLC-thrashing. The paper's value is 20.
    pub high: f64,
    /// Eq. 2's α scale (the paper uses 1000, making the pressure an RPTI).
    pub alpha: f64,
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds {
            low: 3.0,
            high: 20.0,
            alpha: 1_000.0,
        }
    }
}

impl Bounds {
    pub fn new(low: f64, high: f64) -> Self {
        assert!(low >= 0.0 && high >= low, "need 0 <= low <= high");
        Bounds {
            low,
            high,
            alpha: 1_000.0,
        }
    }
}

/// Future-work extension (§VI): adapt `low`/`high` to the running workload
/// by tracking the observed pressure distribution and placing the bounds at
/// fixed quantiles, clamped to sane floors so an all-friendly machine does
/// not classify noise as thrashing.
#[derive(Debug, Clone)]
pub struct DynamicBounds {
    /// Quantile targeted by `low` (default 0.2).
    pub low_quantile: f64,
    /// Quantile targeted by `high` (default 0.6).
    pub high_quantile: f64,
    /// Exponential smoothing factor for bound updates.
    pub smoothing: f64,
    current: Bounds,
}

impl DynamicBounds {
    pub fn new(initial: Bounds) -> Self {
        DynamicBounds {
            low_quantile: 0.2,
            high_quantile: 0.6,
            smoothing: 0.3,
            current: initial,
        }
    }

    pub fn current(&self) -> Bounds {
        self.current
    }

    /// Update the bounds from this period's nonzero pressures.
    pub fn observe(&mut self, pressures: &[f64]) -> Bounds {
        let mut busy: Vec<f64> = pressures.iter().copied().filter(|&p| p > 0.0).collect();
        if busy.len() < 4 {
            return self.current; // not enough signal to adapt
        }
        busy.sort_by(f64::total_cmp);
        let q = |f: f64| {
            let idx = ((busy.len() - 1) as f64 * f).round() as usize;
            busy[idx]
        };
        // Floors keep the bounds meaningful on homogeneous workloads.
        let target_low = q(self.low_quantile).max(1.0);
        let target_high = q(self.high_quantile).max(target_low + 1.0);
        let s = self.smoothing;
        self.current.low = (1.0 - s) * self.current.low + s * target_low;
        self.current.high = (1.0 - s) * self.current.high + s * target_high;
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let b = Bounds::default();
        assert_eq!(b.low, 3.0);
        assert_eq!(b.high, 20.0);
        assert_eq!(b.alpha, 1_000.0);
    }

    #[test]
    #[should_panic(expected = "low <= high")]
    fn rejects_inverted_bounds() {
        Bounds::new(10.0, 5.0);
    }

    #[test]
    fn dynamic_bounds_track_distribution() {
        let mut d = DynamicBounds::new(Bounds::default());
        // A machine full of heavy workloads: bounds should drift upward.
        let pressures = vec![25.0, 28.0, 30.0, 35.0, 40.0, 45.0];
        for _ in 0..50 {
            d.observe(&pressures);
        }
        let b = d.current();
        assert!(b.low > 20.0, "low should adapt upward: {}", b.low);
        assert!(b.high > b.low);
    }

    #[test]
    fn dynamic_bounds_ignore_sparse_signal() {
        let mut d = DynamicBounds::new(Bounds::default());
        let before = d.current();
        d.observe(&[10.0, 0.0, 0.0]);
        assert_eq!(d.current(), before);
    }

    #[test]
    fn dynamic_bounds_ignore_idle_vcpus() {
        let mut d = DynamicBounds::new(Bounds::default());
        // Many idle VCPUs plus a few busy ones: zeros must not drag the
        // quantiles to zero.
        let pressures = vec![0.0, 0.0, 0.0, 0.0, 15.0, 16.0, 22.0, 24.0];
        for _ in 0..50 {
            d.observe(&pressures);
        }
        assert!(d.current().low >= 1.0);
    }
}
