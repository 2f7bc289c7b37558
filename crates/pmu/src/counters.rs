//! Per-VCPU hardware counter state.

use sim_core::Counter;

/// The counter set vProbe reads for one VCPU.
///
/// `node_accesses[i]` is the number of memory accesses served by node `i`
/// — the simulation stand-in for the paper's `N(vc, i)` "pages accessed in
/// the i-th node" (an access count over a period is proportional to touched
/// pages for the steady workloads evaluated).
#[derive(Debug, Clone, Default)]
pub struct VcpuPmu {
    instructions: Counter,
    llc_refs: Counter,
    llc_misses: Counter,
    local_accesses: Counter,
    remote_accesses: Counter,
    node_accesses: Vec<Counter>,
}

/// A windowed reading taken at the end of a sampling period.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PmuSample {
    pub instructions: u64,
    pub llc_refs: u64,
    pub llc_misses: u64,
    pub local_accesses: u64,
    pub remote_accesses: u64,
    pub node_accesses: Vec<u64>,
}

impl PmuSample {
    /// An all-zero sample, standing in for a reading lost to counter
    /// overflow or a missed Perfctr interrupt.
    pub fn zeroed(num_nodes: usize) -> Self {
        PmuSample {
            instructions: 0,
            llc_refs: 0,
            llc_misses: 0,
            local_accesses: 0,
            remote_accesses: 0,
            node_accesses: vec![0; num_nodes],
        }
    }

    /// Scale the LLC counters by a multiplexing-noise factor, keeping
    /// misses bounded by references. Instructions are left alone: noise
    /// from time-multiplexed counters perturbs event counts, not the
    /// retired-instruction fixed counter.
    pub fn scale_llc(&mut self, factor: f64) {
        let scale = |v: u64| (v as f64 * factor).round().max(0.0) as u64;
        self.llc_refs = scale(self.llc_refs);
        self.llc_misses = scale(self.llc_misses).min(self.llc_refs);
    }

    /// Rotate the node-access histogram by `k` slots, modelling a stale or
    /// corrupted affinity reading: totals are preserved but Eq. (1) now
    /// points at the wrong node.
    pub fn rotate_node_accesses(&mut self, k: usize) {
        if self.node_accesses.len() > 1 {
            let k = k % self.node_accesses.len();
            self.node_accesses.rotate_right(k);
        }
    }

    /// LLC references per thousand instructions — the paper's Eq. (2) with
    /// α = 1000. Returns 0 for an idle window.
    pub fn llc_access_pressure(&self, alpha: f64) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.llc_refs as f64 / self.instructions as f64 * alpha
        }
    }

    /// The node holding the most accessed pages — the paper's Eq. (1)
    /// memory node affinity. Ties break toward the lower node id; returns
    /// `None` if the VCPU touched no memory this period.
    pub fn memory_node_affinity(&self) -> Option<usize> {
        let max = *self.node_accesses.iter().max()?;
        if max == 0 {
            return None;
        }
        self.node_accesses.iter().position(|&c| c == max)
    }

    /// Fraction of accesses that were remote; 0 for an idle window.
    pub fn remote_ratio(&self) -> f64 {
        let total = self.local_accesses + self.remote_accesses;
        if total == 0 {
            0.0
        } else {
            self.remote_accesses as f64 / total as f64
        }
    }

    /// LLC miss rate over the window; 0 if there were no references.
    pub fn miss_rate(&self) -> f64 {
        if self.llc_refs == 0 {
            0.0
        } else {
            self.llc_misses as f64 / self.llc_refs as f64
        }
    }
}

impl VcpuPmu {
    pub fn new(num_nodes: usize) -> Self {
        VcpuPmu {
            node_accesses: vec![Counter::new(); num_nodes],
            ..Default::default()
        }
    }

    /// Record one quantum's execution results.
    pub fn record(
        &mut self,
        instructions: u64,
        llc_refs: u64,
        llc_misses: u64,
        local: u64,
        remote: u64,
        node_accesses: &[u64],
    ) {
        debug_assert_eq!(node_accesses.len(), self.node_accesses.len());
        self.instructions.add(instructions);
        self.llc_refs.add(llc_refs);
        self.llc_misses.add(llc_misses);
        self.local_accesses.add(local);
        self.remote_accesses.add(remote);
        for (c, &n) in self.node_accesses.iter_mut().zip(node_accesses) {
            c.add(n);
        }
    }

    /// Read the current window without closing it.
    pub fn peek_window(&self) -> PmuSample {
        PmuSample {
            instructions: self.instructions.window(),
            llc_refs: self.llc_refs.window(),
            llc_misses: self.llc_misses.window(),
            local_accesses: self.local_accesses.window(),
            remote_accesses: self.remote_accesses.window(),
            node_accesses: self.node_accesses.iter().map(|c| c.window()).collect(),
        }
    }

    /// Read and close the window (end of sampling period).
    pub fn sample_window(&mut self) -> PmuSample {
        let s = self.peek_window();
        self.instructions.reset_window();
        self.llc_refs.reset_window();
        self.llc_misses.reset_window();
        self.local_accesses.reset_window();
        self.remote_accesses.reset_window();
        for c in &mut self.node_accesses {
            c.reset_window();
        }
        s
    }

    /// Whole-run totals (never reset) for end-of-experiment metrics.
    pub fn totals(&self) -> PmuSample {
        PmuSample {
            instructions: self.instructions.total(),
            llc_refs: self.llc_refs.total(),
            llc_misses: self.llc_misses.total(),
            local_accesses: self.local_accesses.total(),
            remote_accesses: self.remote_accesses.total(),
            node_accesses: self.node_accesses.iter().map(|c| c.total()).collect(),
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.node_accesses.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorded() -> VcpuPmu {
        let mut p = VcpuPmu::new(2);
        p.record(1_000_000, 20_000, 10_000, 2_000, 8_000, &[2_000, 8_000]);
        p
    }

    #[test]
    fn record_accumulates() {
        let p = recorded();
        let s = p.peek_window();
        assert_eq!(s.instructions, 1_000_000);
        assert_eq!(s.llc_refs, 20_000);
        assert_eq!(s.node_accesses, vec![2_000, 8_000]);
    }

    #[test]
    fn sample_window_resets_window_not_totals() {
        let mut p = recorded();
        let s1 = p.sample_window();
        assert_eq!(s1.instructions, 1_000_000);
        assert_eq!(p.peek_window().instructions, 0);
        p.record(500, 10, 5, 1, 4, &[1, 4]);
        assert_eq!(p.peek_window().instructions, 500);
        assert_eq!(p.totals().instructions, 1_000_500);
    }

    #[test]
    fn llc_access_pressure_matches_eq2() {
        let s = recorded().peek_window();
        // 20k refs / 1M instr * 1000 = 20 RPTI.
        assert!((s.llc_access_pressure(1_000.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn pressure_zero_when_idle() {
        let p = VcpuPmu::new(2);
        assert_eq!(p.peek_window().llc_access_pressure(1_000.0), 0.0);
    }

    #[test]
    fn affinity_is_argmax_node() {
        let s = recorded().peek_window();
        assert_eq!(s.memory_node_affinity(), Some(1));
    }

    #[test]
    fn affinity_none_without_accesses() {
        let mut p = VcpuPmu::new(3);
        p.record(100, 0, 0, 0, 0, &[0, 0, 0]);
        assert_eq!(p.peek_window().memory_node_affinity(), None);
    }

    #[test]
    fn affinity_tie_breaks_low_id() {
        let mut p = VcpuPmu::new(2);
        p.record(100, 10, 10, 5, 5, &[5, 5]);
        assert_eq!(p.peek_window().memory_node_affinity(), Some(0));
    }

    #[test]
    fn zeroed_sample_is_idle() {
        let s = PmuSample::zeroed(3);
        assert_eq!(s.instructions, 0);
        assert_eq!(s.node_accesses, vec![0, 0, 0]);
        assert_eq!(s.memory_node_affinity(), None);
        assert_eq!(s.llc_access_pressure(1_000.0), 0.0);
    }

    #[test]
    fn scale_llc_keeps_misses_bounded() {
        let mut s = recorded().peek_window();
        s.scale_llc(0.5);
        assert_eq!(s.llc_refs, 10_000);
        assert_eq!(s.llc_misses, 5_000);
        assert_eq!(s.instructions, 1_000_000);

        let mut s = PmuSample {
            llc_refs: 10,
            llc_misses: 10,
            ..PmuSample::zeroed(2)
        };
        // Rounding up misses must never exceed refs.
        s.llc_misses = 9;
        s.scale_llc(1.04);
        assert!(s.llc_misses <= s.llc_refs);
    }

    #[test]
    fn rotate_node_accesses_moves_affinity() {
        let mut s = recorded().peek_window();
        assert_eq!(s.memory_node_affinity(), Some(1));
        s.rotate_node_accesses(1);
        assert_eq!(s.node_accesses, vec![8_000, 2_000]);
        assert_eq!(s.memory_node_affinity(), Some(0));
        // Single-node histograms are unchanged.
        let mut one = PmuSample {
            node_accesses: vec![7],
            ..PmuSample::zeroed(1)
        };
        one.rotate_node_accesses(5);
        assert_eq!(one.node_accesses, vec![7]);
    }

    #[test]
    fn remote_ratio_and_miss_rate() {
        let s = recorded().peek_window();
        assert!((s.remote_ratio() - 0.8).abs() < 1e-12);
        assert!((s.miss_rate() - 0.5).abs() < 1e-12);
        let idle = VcpuPmu::new(2).peek_window();
        assert_eq!(idle.remote_ratio(), 0.0);
        assert_eq!(idle.miss_rate(), 0.0);
    }
}
