//! NUMA distance matrix (ACPI SLIT-style relative distances).

use crate::ids::NodeId;

/// Square matrix of relative access distances between nodes.
///
/// Follows the ACPI SLIT convention: local distance is 10, a one-hop remote
/// node is typically 20–21. Only relative order matters to the schedulers
/// (which walk remote nodes nearest-first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: usize,
    /// Row-major `n*n` entries.
    d: Vec<u32>,
}

impl DistanceMatrix {
    /// Uniform two-level matrix: `local` on the diagonal, `remote` elsewhere.
    /// Panics if `n == 0` or `remote < local`.
    pub fn uniform(n: usize, local: u32, remote: u32) -> Self {
        assert!(n > 0, "empty distance matrix");
        assert!(remote >= local, "remote distance below local");
        let mut d = vec![remote; n * n];
        for i in 0..n {
            d[i * n + i] = local;
        }
        DistanceMatrix { n, d }
    }

    /// Build from explicit row-major entries. Panics on size mismatch.
    pub fn from_rows(n: usize, entries: Vec<u32>) -> Self {
        assert_eq!(entries.len(), n * n, "distance matrix size mismatch");
        DistanceMatrix { n, d: entries }
    }

    pub fn size(&self) -> usize {
        self.n
    }

    pub fn get(&self, from: NodeId, to: NodeId) -> u32 {
        self.d[from.index() * self.n + to.index()]
    }

    /// Whether every off-diagonal entry is strictly greater than the
    /// corresponding diagonal ones (sanity check for NUMA-ness).
    pub fn is_numa(&self) -> bool {
        (0..self.n)
            .any(|i| (0..self.n).any(|j| i != j && self.d[i * self.n + j] > self.d[i * self.n + i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_matrix() {
        let m = DistanceMatrix::uniform(2, 10, 21);
        assert_eq!(m.get(NodeId::new(0), NodeId::new(0)), 10);
        assert_eq!(m.get(NodeId::new(0), NodeId::new(1)), 21);
        assert_eq!(m.get(NodeId::new(1), NodeId::new(0)), 21);
        assert!(m.is_numa());
    }

    #[test]
    fn uma_machine_is_not_numa() {
        let m = DistanceMatrix::uniform(1, 10, 10);
        assert!(!m.is_numa());
    }

    #[test]
    fn from_rows_round_trips() {
        let m = DistanceMatrix::from_rows(2, vec![10, 20, 20, 10]);
        assert_eq!(m.size(), 2);
        assert_eq!(m.get(NodeId::new(1), NodeId::new(0)), 20);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn from_rows_validates_len() {
        DistanceMatrix::from_rows(2, vec![10, 20, 20]);
    }

    #[test]
    #[should_panic(expected = "remote distance below local")]
    fn uniform_rejects_inverted_distances() {
        DistanceMatrix::uniform(2, 20, 10);
    }
}
