//! Deterministic I/O cost model for the simulated store.
//!
//! The paper ran against Sedna on a disk-backed DBMS; our [`MemStore`](crate::MemStore)
//! replaces it (EXPERIMENTS.md, "Cost-model calibration"). To preserve the *relative* cost structure
//! — loads and persists are much slower than in-memory tree operations,
//! and scale with document size — the store charges wall-clock time per
//! operation according to this model. Tests use [`CostModel::zero`];
//! experiments use [`CostModel::default`], loosely calibrated to a local
//! DBMS on 2009-era hardware scaled down to keep experiment wall time
//! reasonable.

use std::time::Duration;

/// Linear cost model: `base + per_kib * size_in_kib` per operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Fixed cost per storage operation.
    pub base: Duration,
    /// Additional cost per KiB transferred.
    pub per_kib: Duration,
}

impl Default for CostModel {
    /// Default calibration: 200 µs per operation + 20 µs/KiB (~50 MB/s
    /// effective sequential rate — a deliberate scale-down of a 2009 disk
    /// so that full experiment sweeps finish in seconds, preserving the
    /// storage-vs-CPU cost ratio rather than absolute numbers).
    fn default() -> Self {
        CostModel {
            base: Duration::from_micros(200),
            per_kib: Duration::from_micros(20),
        }
    }
}

impl CostModel {
    /// A model that charges nothing (unit tests).
    pub fn zero() -> Self {
        CostModel {
            base: Duration::ZERO,
            per_kib: Duration::ZERO,
        }
    }

    /// The charge for an operation moving `bytes` bytes.
    pub fn charge(&self, bytes: usize) -> Duration {
        self.base + self.per_kib * ((bytes / 1024) as u32)
    }

    /// Sleeps for the charge (no-op under the zero model).
    pub fn pay(&self, bytes: usize) {
        let d = self.charge(bytes);
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_charges_nothing() {
        let m = CostModel::zero();
        assert_eq!(m.charge(0), Duration::ZERO);
        assert_eq!(m.charge(1 << 20), Duration::ZERO);
    }

    #[test]
    fn charge_scales_with_size() {
        let m = CostModel {
            base: Duration::from_micros(100),
            per_kib: Duration::from_micros(10),
        };
        assert_eq!(m.charge(0), Duration::from_micros(100));
        assert_eq!(m.charge(1024), Duration::from_micros(110));
        assert_eq!(m.charge(10 * 1024), Duration::from_micros(200));
    }

    #[test]
    fn default_is_nonzero() {
        let m = CostModel::default();
        assert!(m.charge(4096) > Duration::ZERO);
    }
}
