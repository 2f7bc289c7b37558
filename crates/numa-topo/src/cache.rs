//! Cache descriptions.

/// Configuration of one cache level.
///
/// The contention model only needs the shared LLC (size and line size); L1
/// and L2 are carried for documentation/reporting fidelity with Table I and
/// folded into each workload's base CPI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Cache level (1, 2, 3, …).
    pub level: u8,
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Cache line size in bytes (64 on the paper's machine).
    pub line_bytes: u32,
    /// Number of cores sharing this cache (4 for the E5620 L3).
    pub shared_by: u16,
}

impl CacheConfig {
    /// The Table I L3: 12 MB unified, shared by 4 cores.
    pub fn e5620_l3() -> Self {
        CacheConfig {
            level: 3,
            size_bytes: 12 * 1024 * 1024,
            line_bytes: 64,
            shared_by: 4,
        }
    }

    /// The Table I L2: 256 KB unified, private.
    pub fn e5620_l2() -> Self {
        CacheConfig {
            level: 2,
            size_bytes: 256 * 1024,
            line_bytes: 64,
            shared_by: 1,
        }
    }

    /// The Table I L1D: 32 KB, private.
    pub fn e5620_l1d() -> Self {
        CacheConfig {
            level: 1,
            size_bytes: 32 * 1024,
            line_bytes: 64,
            shared_by: 1,
        }
    }

    /// Number of cache lines this cache holds.
    pub fn num_lines(&self) -> u64 {
        self.size_bytes / self.line_bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5620_presets_match_table1() {
        let l3 = CacheConfig::e5620_l3();
        assert_eq!(l3.size_bytes, 12 * 1024 * 1024);
        assert_eq!(l3.shared_by, 4);
        assert_eq!(CacheConfig::e5620_l2().size_bytes, 256 * 1024);
        assert_eq!(CacheConfig::e5620_l1d().size_bytes, 32 * 1024);
    }

    #[test]
    fn num_lines() {
        let l3 = CacheConfig::e5620_l3();
        assert_eq!(l3.num_lines(), 12 * 1024 * 1024 / 64);
    }
}
