//! SPEC CPU2006 program models.
//!
//! The four memory-intensive programs the paper evaluates (Fig. 4) plus
//! povray, its LLC-friendly control from Fig. 3. RPTI values for povray,
//! milc, and libquantum come from the paper's Fig. 3(b); soplex and mcf use
//! values consistent with published CPU2006 LLC characterizations (both are
//! heavy LLC users; mcf is the suite's canonical thrasher).

use crate::spec::{LlcClass, Suite, WorkloadSpec, MB};
use mem_model::MissCurve;

/// 453.povray — ray tracer; tiny working set, LLC-friendly (Fig. 3:
/// RPTI 0.48, miss rate ~2 %).
pub fn povray() -> WorkloadSpec {
    WorkloadSpec {
        name: "povray".into(),
        suite: Suite::SpecCpu2006,
        expected_class: LlcClass::Friendly,
        rpti: 0.48,
        base_cpi: 0.85,
        miss_curve: MissCurve::new(0.015, 0.03, MB / 2),
        mlp: 2.0,
        footprint_bytes: 50 * MB,
        shared_frac: 0.05,
        threads: 1,
        instr_per_op: None,
    }
}

/// 450.soplex — LP solver; large sparse matrices, fits the 12 MB LLC when
/// uncontended but degrades steeply under interference. The paper's best
/// SPEC case for vProbe (32.5 % over Credit).
pub fn soplex() -> WorkloadSpec {
    WorkloadSpec {
        name: "soplex".into(),
        suite: Suite::SpecCpu2006,
        expected_class: LlcClass::Fitting,
        rpti: 19.0,
        base_cpi: 1.0,
        miss_curve: MissCurve::new(0.08, 0.85, 9 * MB),
        mlp: 2.5,
        footprint_bytes: 400 * MB,
        shared_frac: 0.10,
        threads: 1,
        instr_per_op: None,
    }
}

/// 462.libquantum — quantum simulation; streaming over a large array,
/// LLC-thrashing (Fig. 3: RPTI 22.41, miss rate >60 %).
pub fn libquantum() -> WorkloadSpec {
    WorkloadSpec {
        name: "libquantum".into(),
        suite: Suite::SpecCpu2006,
        expected_class: LlcClass::Thrashing,
        rpti: 22.41,
        base_cpi: 0.8,
        // Streaming over a large array: nearly every LLC reference misses.
        miss_curve: MissCurve::new(0.80, 0.98, 32 * MB),
        mlp: 6.0,
        footprint_bytes: 100 * MB,
        shared_frac: 0.05,
        threads: 1,
        instr_per_op: None,
    }
}

/// 429.mcf — vehicle scheduling; pointer chasing over ~1.7 GB,
/// the suite's canonical LLC thrasher.
pub fn mcf() -> WorkloadSpec {
    WorkloadSpec {
        name: "mcf".into(),
        suite: Suite::SpecCpu2006,
        expected_class: LlcClass::Thrashing,
        rpti: 26.0,
        base_cpi: 1.3,
        miss_curve: MissCurve::new(0.60, 0.95, 80 * MB),
        // Pointer chasing barely overlaps misses.
        mlp: 1.8,
        footprint_bytes: 1_700 * MB,
        shared_frac: 0.05,
        threads: 1,
        instr_per_op: None,
    }
}

/// 433.milc — lattice QCD; LLC-thrashing (Fig. 3: RPTI 21.68,
/// miss rate >60 %).
pub fn milc() -> WorkloadSpec {
    WorkloadSpec {
        name: "milc".into(),
        suite: Suite::SpecCpu2006,
        expected_class: LlcClass::Thrashing,
        rpti: 21.68,
        base_cpi: 1.0,
        miss_curve: MissCurve::new(0.70, 0.95, 64 * MB),
        mlp: 3.0,
        footprint_bytes: 700 * MB,
        shared_frac: 0.05,
        threads: 1,
        instr_per_op: None,
    }
}

/// The paper's Fig. 4 *mix* workload: one instance each of the four
/// memory-intensive programs.
pub fn mix() -> Vec<WorkloadSpec> {
    vec![soplex(), libquantum(), mcf(), milc()]
}

/// 470.lbm — lattice Boltzmann; a pure streaming kernel: very high MLP,
/// LLC-thrashing.
pub fn lbm() -> WorkloadSpec {
    WorkloadSpec {
        name: "lbm".into(),
        suite: Suite::SpecCpu2006,
        expected_class: LlcClass::Thrashing,
        rpti: 24.5,
        base_cpi: 0.9,
        miss_curve: MissCurve::new(0.85, 0.99, 48 * MB),
        mlp: 7.0,
        footprint_bytes: 420 * MB,
        shared_frac: 0.05,
        threads: 1,
        instr_per_op: None,
    }
}

/// 403.gcc — compiler; irregular but modest working set, LLC-fitting.
pub fn gcc() -> WorkloadSpec {
    WorkloadSpec {
        name: "gcc".into(),
        suite: Suite::SpecCpu2006,
        expected_class: LlcClass::Fitting,
        rpti: 9.5,
        base_cpi: 1.1,
        miss_curve: MissCurve::new(0.10, 0.70, 5 * MB),
        mlp: 2.0,
        footprint_bytes: 900 * MB,
        shared_frac: 0.05,
        threads: 1,
        instr_per_op: None,
    }
}

/// 471.omnetpp — discrete-event simulation; pointer-heavy heap walking,
/// LLC-fitting but latency-bound.
pub fn omnetpp() -> WorkloadSpec {
    WorkloadSpec {
        name: "omnetpp".into(),
        suite: Suite::SpecCpu2006,
        expected_class: LlcClass::Fitting,
        rpti: 17.0,
        base_cpi: 1.2,
        miss_curve: MissCurve::new(0.15, 0.80, 10 * MB),
        mlp: 1.6,
        footprint_bytes: 170 * MB,
        shared_frac: 0.05,
        threads: 1,
        instr_per_op: None,
    }
}

/// 445.gobmk — Go engine; compute-bound tree search, LLC-friendly.
pub fn gobmk() -> WorkloadSpec {
    WorkloadSpec {
        name: "gobmk".into(),
        suite: Suite::SpecCpu2006,
        expected_class: LlcClass::Friendly,
        rpti: 1.6,
        base_cpi: 1.0,
        miss_curve: MissCurve::new(0.02, 0.10, MB),
        mlp: 2.0,
        footprint_bytes: 30 * MB,
        shared_frac: 0.05,
        threads: 1,
        instr_per_op: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_rpti_values_match_paper() {
        assert!((povray().rpti - 0.48).abs() < 1e-9);
        assert!((milc().rpti - 21.68).abs() < 1e-9);
        assert!((libquantum().rpti - 22.41).abs() < 1e-9);
    }

    #[test]
    fn classes_recovered_by_paper_bounds() {
        for w in [povray(), soplex(), libquantum(), mcf(), milc()] {
            assert_eq!(
                w.classify(3.0, 20.0),
                w.expected_class,
                "misclassified {}",
                w.name
            );
        }
    }

    #[test]
    fn solo_miss_rates_respect_taxonomy() {
        let llc = 12 * MB;
        assert!(povray().solo_miss_rate(llc) < 0.05);
        assert!(soplex().solo_miss_rate(llc) < 0.15);
        assert!(libquantum().solo_miss_rate(llc) > 0.6);
        assert!(milc().solo_miss_rate(llc) > 0.6);
        assert!(mcf().solo_miss_rate(llc) > 0.6);
    }

    #[test]
    fn extended_profiles_classify_as_expected() {
        for w in [lbm(), gcc(), omnetpp(), gobmk()] {
            assert_eq!(w.classify(3.0, 20.0), w.expected_class, "{}", w.name);
        }
        assert!(lbm().solo_miss_rate(12 * MB) > 0.8, "lbm streams");
        assert!(gobmk().solo_miss_rate(12 * MB) < 0.05);
        assert!(
            omnetpp().mlp < gcc().mlp + 1.0,
            "pointer chaser overlaps little"
        );
    }

    #[test]
    fn mix_has_four_distinct_programs() {
        let m = mix();
        assert_eq!(m.len(), 4);
        let names: std::collections::HashSet<_> = m.iter().map(|w| w.name.clone()).collect();
        assert_eq!(names.len(), 4);
    }
}
