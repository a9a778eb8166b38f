//! Inert remains of the tensor buffer pool.
//!
//! Every `Matrix` and CSR value buffer is a plain [`crate::Buf`] allocation
//! that is freed on drop; there is no buffer pool (DESIGN.md says why).
//! What is left exists only because the benchmark package (`gnnbench/`)
//! still calls it: [`PoolStats`] (also the return type of
//! [`crate::kernel::pack_stats`]), and [`disable`], [`reset_global_stats`]
//! and [`global_stats`], which do nothing and report zeros. A later change
//! to the benchmark drops those calls, and then this file can go.

/// Hit/miss tallies of a reuse cache; [`crate::kernel::pack_stats`] reports
/// the GEMM pack scratch in this form.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served by storage that was already there.
    pub hits: u64,
    /// Requests that had to allocate.
    pub misses: u64,
}

impl PoolStats {
    /// Hits over total requests; 0 when nothing was requested.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Does nothing: there is no pool to switch off.
pub fn disable() {}

/// Does nothing: there are no pool tallies to zero.
pub fn reset_global_stats() {}

/// Always zero: no buffer is ever served from a pool.
pub fn global_stats() -> PoolStats {
    PoolStats::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_math() {
        let s = PoolStats { hits: 9, misses: 1 };
        assert!((s.hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(PoolStats::default().hit_rate(), 0.0);
    }
}
