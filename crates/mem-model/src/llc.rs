//! Shared last-level cache contention model.
//!
//! Each NUMA node's cores share one LLC. Co-running VCPUs occupy cache in
//! proportion to their *demand* — access intensity times working-set size —
//! a standard proportional-occupancy approximation of set-associative
//! sharing. The resulting occupancy feeds each workload's
//! [`MissCurve`](crate::curve::MissCurve) to produce its miss rate.
//!
//! This is the mechanism behind the paper's central observation: piling
//! several LLC-thrashing VCPUs onto one socket starves the LLC-fitting
//! VCPUs there (their occupancy collapses, so their miss rate soars), while
//! spreading the thrashers evenly — what vProbe's periodical partitioning
//! does — keeps every socket's contention moderate.

use crate::curve::MissCurve;

/// One VCPU's demand on a shared LLC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlcDemand {
    /// LLC references per thousand instructions (the paper's RPTI).
    pub rpti: f64,
    /// The workload's miss curve (working set size lives here).
    pub curve: MissCurve,
    /// Fraction of the quantum this VCPU ran on the socket (0..=1).
    pub runtime_share: f64,
}

/// Resulting occupancy and miss rate for one VCPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlcOccupancy {
    pub occupancy_bytes: f64,
    pub miss_rate: f64,
}

/// Shared-cache model for one node/socket.
#[derive(Debug, Clone)]
pub struct LlcModel {
    capacity_bytes: u64,
}

/// Reusable working buffers for [`LlcModel::occupancies_into`], so the
/// per-quantum solve allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct LlcScratch {
    occ: Vec<f64>,
    active: Vec<usize>,
    saturated: Vec<bool>,
    /// Demand weights, hoisted out of the redistribution rounds: the
    /// weight is a pure per-demand product, so computing it once and
    /// summing the cached values round by round yields the same bits as
    /// recomputing it inside every round (identical factors, identical
    /// sum order over the same `active` sequence).
    weight: Vec<f64>,
    any_saturated: bool,
}

impl LlcModel {
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "LLC capacity must be nonzero");
        LlcModel { capacity_bytes }
    }

    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Split the cache among co-running VCPUs and evaluate each miss curve.
    ///
    /// Demand weight is `rpti × min(ws, capacity) × runtime_share`: a
    /// workload cannot usefully occupy more than its working set, nor more
    /// than the whole cache; occupancy beyond its working set is handed
    /// back to the others (iteratively), which is what lets a small
    /// LLC-friendly VCPU coexist with a thrasher without the model starving
    /// either artificially.
    pub fn occupancies(&self, demands: &[LlcDemand]) -> Vec<LlcOccupancy> {
        let mut out = Vec::new();
        let mut scratch = LlcScratch::default();
        self.occupancies_into(demands, &mut out, &mut scratch);
        out
    }

    /// Allocation-free form of [`LlcModel::occupancies`]: identical math
    /// and iteration order (the per-quantum engine solve depends on the
    /// results being bit-for-bit the same), writing into `out` and reusing
    /// `scratch` across calls.
    pub fn occupancies_into(
        &self,
        demands: &[LlcDemand],
        out: &mut Vec<LlcOccupancy>,
        scratch: &mut LlcScratch,
    ) {
        let n = demands.len();
        let cap = self.capacity_bytes as f64;
        out.clear();
        if n == 0 {
            return;
        }
        scratch.occ.clear();
        scratch.occ.resize(n, 0.0);
        let occ = &mut scratch.occ;
        // Iteratively distribute capacity proportionally to demand weight,
        // capping each VCPU at its working set and redistributing surplus.
        let mut remaining_cap = cap;
        scratch.active.clear();
        scratch
            .active
            .extend((0..n).filter(|&i| demands[i].rpti > 0.0 && demands[i].runtime_share > 0.0));
        let active = &mut scratch.active;
        scratch.saturated.clear();
        scratch.saturated.resize(n, false);
        let saturated = &mut scratch.saturated;
        scratch.weight.clear();
        scratch.weight.extend(
            demands
                .iter()
                .map(|d| d.rpti * d.runtime_share * (d.curve.ws_bytes as f64).min(cap)),
        );
        let weight = &scratch.weight;
        for _round in 0..n.max(1) {
            if active.is_empty() || remaining_cap <= 0.0 {
                break;
            }
            let total_weight: f64 = active.iter().map(|&i| weight[i]).sum();
            if total_weight <= 0.0 {
                break;
            }
            scratch.any_saturated = false;
            let mut used = 0.0;
            for &i in active.iter() {
                let d = &demands[i];
                let w = weight[i];
                let grant = remaining_cap * w / total_weight;
                let room = d.curve.ws_bytes as f64 - occ[i];
                let take = grant.min(room);
                occ[i] += take;
                used += take;
                if occ[i] >= d.curve.ws_bytes as f64 - 1.0 {
                    saturated[i] = true;
                    scratch.any_saturated = true;
                }
            }
            remaining_cap -= used;
            if !scratch.any_saturated {
                break;
            }
            active.retain(|&i| !saturated[i]);
        }
        out.extend(demands.iter().zip(occ.iter()).map(|(d, &o)| LlcOccupancy {
            occupancy_bytes: o,
            miss_rate: d.curve.miss_rate(o),
        }));
    }

    /// Sum of occupancies never exceeds capacity (checked by tests and
    /// property tests).
    pub fn total_occupancy(occ: &[LlcOccupancy]) -> f64 {
        occ.iter().map(|o| o.occupancy_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    fn demand(rpti: f64, min_m: f64, max_m: f64, ws_mb: u64) -> LlcDemand {
        LlcDemand {
            rpti,
            curve: MissCurve::new(min_m, max_m, ws_mb * MB),
            runtime_share: 1.0,
        }
    }

    #[test]
    fn solo_fitting_workload_gets_its_working_set() {
        let llc = LlcModel::new(12 * MB);
        let occ = llc.occupancies(&[demand(15.0, 0.05, 0.5, 6)]);
        assert!((occ[0].occupancy_bytes - 6.0 * MB as f64).abs() < MB as f64 * 0.01);
        assert!((occ[0].miss_rate - 0.05).abs() < 1e-6);
    }

    #[test]
    fn solo_thrasher_takes_whole_cache() {
        let llc = LlcModel::new(12 * MB);
        let occ = llc.occupancies(&[demand(22.0, 0.4, 0.7, 64)]);
        assert!((occ[0].occupancy_bytes - 12.0 * MB as f64).abs() < 1.0);
        assert!(occ[0].miss_rate > 0.6);
    }

    #[test]
    fn thrasher_starves_fitting_workload() {
        let llc = LlcModel::new(12 * MB);
        let solo = llc.occupancies(&[demand(15.0, 0.05, 0.5, 6)])[0].miss_rate;
        let contended = llc.occupancies(&[
            demand(15.0, 0.05, 0.5, 6),
            demand(22.0, 0.4, 0.7, 64),
            demand(22.0, 0.4, 0.7, 64),
        ])[0]
            .miss_rate;
        assert!(
            contended > solo * 2.0,
            "contention should raise the fitting miss rate: solo={solo}, contended={contended}"
        );
    }

    #[test]
    fn friendly_workload_unaffected_by_thrashers() {
        let llc = LlcModel::new(12 * MB);
        let friendly = demand(0.5, 0.01, 0.03, 1);
        let alone = llc.occupancies(&[friendly])[0].miss_rate;
        let crowded = llc.occupancies(&[
            friendly,
            demand(22.0, 0.4, 0.7, 64),
            demand(22.0, 0.4, 0.7, 64),
            demand(22.0, 0.4, 0.7, 64),
        ])[0]
            .miss_rate;
        assert!(crowded <= 0.03 + 1e-9);
        assert!(crowded - alone < 0.02);
    }

    #[test]
    fn occupancy_conserved() {
        let llc = LlcModel::new(12 * MB);
        let occ = llc.occupancies(&[
            demand(15.0, 0.05, 0.5, 6),
            demand(16.0, 0.05, 0.5, 8),
            demand(22.0, 0.4, 0.7, 64),
            demand(0.5, 0.01, 0.03, 1),
        ]);
        let total = LlcModel::total_occupancy(&occ);
        assert!(total <= 12.0 * MB as f64 + 1.0, "total={total}");
    }

    #[test]
    fn zero_rpti_vcpu_occupies_nothing() {
        let llc = LlcModel::new(12 * MB);
        let occ = llc.occupancies(&[demand(0.0, 0.01, 0.5, 6), demand(22.0, 0.4, 0.7, 64)]);
        assert_eq!(occ[0].occupancy_bytes, 0.0);
    }

    #[test]
    fn runtime_share_scales_demand() {
        let llc = LlcModel::new(12 * MB);
        let mut half = demand(20.0, 0.1, 0.6, 16);
        half.runtime_share = 0.5;
        let full = demand(20.0, 0.1, 0.6, 16);
        let occ = llc.occupancies(&[half, full]);
        assert!(occ[0].occupancy_bytes < occ[1].occupancy_bytes);
    }

    #[test]
    fn empty_input_is_empty() {
        let llc = LlcModel::new(12 * MB);
        assert!(llc.occupancies(&[]).is_empty());
    }

    #[test]
    fn more_thrashers_spread_pain() {
        // Two sockets' worth of thrashers on one socket should miss more in
        // aggregate than one thrasher alone: this is the imbalance vProbe's
        // partitioning removes.
        let llc = LlcModel::new(12 * MB);
        let one = llc.occupancies(&[demand(22.0, 0.4, 0.7, 64)]);
        let four = llc.occupancies(&[
            demand(22.0, 0.4, 0.7, 64),
            demand(22.0, 0.4, 0.7, 64),
            demand(22.0, 0.4, 0.7, 64),
            demand(22.0, 0.4, 0.7, 64),
        ]);
        assert!(four[0].miss_rate > one[0].miss_rate);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const MB: u64 = 1024 * 1024;

    fn arb_demand() -> impl Strategy<Value = LlcDemand> {
        (0.0f64..40.0, 0.0f64..0.5, 1u64..128, 0.0f64..=1.0).prop_map(
            |(rpti, min_m, ws_mb, share)| LlcDemand {
                rpti,
                curve: MissCurve::new(min_m, (min_m + 0.3).min(1.0), ws_mb * MB),
                runtime_share: share,
            },
        )
    }

    proptest! {
        #[test]
        fn occupancy_never_exceeds_capacity(demands in prop::collection::vec(arb_demand(), 0..12)) {
            let llc = LlcModel::new(12 * MB);
            let occ = llc.occupancies(&demands);
            let total = LlcModel::total_occupancy(&occ);
            prop_assert!(total <= 12.0 * MB as f64 * (1.0 + 1e-9));
        }

        #[test]
        fn miss_rates_within_curve_bounds(demands in prop::collection::vec(arb_demand(), 1..12)) {
            let llc = LlcModel::new(12 * MB);
            let occ = llc.occupancies(&demands);
            for (d, o) in demands.iter().zip(occ.iter()) {
                prop_assert!(o.miss_rate >= d.curve.min_miss - 1e-9);
                prop_assert!(o.miss_rate <= d.curve.max_miss + 1e-9);
            }
        }

        #[test]
        fn occupancy_never_exceeds_working_set(demands in prop::collection::vec(arb_demand(), 1..12)) {
            let llc = LlcModel::new(12 * MB);
            let occ = llc.occupancies(&demands);
            for (d, o) in demands.iter().zip(occ.iter()) {
                prop_assert!(o.occupancy_bytes <= d.curve.ws_bytes as f64 + 1.0);
            }
        }
    }
}
